"""Helpers shared by the test modules."""

import importlib.util
from pathlib import Path

from tdlab.linalg import Matrix, Subspace, rat

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """A module of perfbench/ loaded by path (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def replace(record, **changes):
    """A copy of a tdlab record with the given fields changed, built (and
    so validated) by its class."""
    fields = {f: getattr(record, f) for f in record._fields}
    return type(record)(**{**fields, **changes})


def span(n, *vectors) -> Subspace:
    """The subspace of Q^n spanned by the given vectors."""
    return Subspace.from_columns(n, Matrix.from_columns(vectors))


def whole(n) -> Subspace:
    """All of Q^n."""
    return Subspace.from_columns(n, Matrix.identity(n))


def eval_factored_poly(a: Matrix, roots) -> Matrix:
    """The monic factored polynomial prod_k (A - root_k I); the empty product is I."""
    if not a.is_square():
        raise ValueError("matrix must be square")
    eye = Matrix.identity(a.rows)
    result = eye
    for r in roots:
        result = result * (a - rat(r) * eye)
    return result
