"""Helpers shared by the test modules."""

import importlib.util
from pathlib import Path

from tdlab.linalg import Matrix, Subspace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """A module of perfbench/ loaded by path (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def span(n, *vectors) -> Subspace:
    """The subspace of Q^n spanned by the given vectors."""
    return Subspace.from_columns(n, Matrix.from_columns(vectors))


def whole(n) -> Subspace:
    """All of Q^n."""
    return Subspace.from_columns(n, Matrix.identity(n))
