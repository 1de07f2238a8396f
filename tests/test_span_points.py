"""Every layer function the benchmark's tracer wraps must still exist.

The tracer in perfbench/spans.py patches tdlab by module and attribute
name, so a rename there would otherwise surface only in a traced
benchmark run.
"""

import importlib

import pytest
from helpers import load_perfbench

spans = load_perfbench("spans")


@pytest.mark.parametrize("span,module,attr", spans.SPANS)
def test_span_function_exists(span, module, attr):
    assert callable(getattr(importlib.import_module(f"tdlab.{module}"), attr, None))


@pytest.mark.parametrize("span,module,cls,method", spans.METHOD_SPANS)
def test_span_method_exists(span, module, cls, method):
    owner = getattr(importlib.import_module(f"tdlab.{module}"), cls)
    assert callable(getattr(owner, method, None))
