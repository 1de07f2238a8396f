"""Helpers shared by the test modules."""

import importlib.util
from math import prod
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


def column(entries) -> Matrix:
    """The column vector of `entries`; an empty one has shape (0, 1)."""
    return Matrix.from_columns([entries]) if len(entries) else Matrix.zeros(0, 1)


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


def idempotents(m: Matrix, eigenvalues) -> list:
    """The primitive idempotents of a diagonalizable m by the Lagrange
    formula, E_i = prod_{j != i} (m - theta_j I) / (theta_i - theta_j)."""
    theta = [rat(t) for t in eigenvalues]
    return [eval_factored_poly(m, others) * (1 / prod(t - s for s in others))
            for i, t in enumerate(theta) for others in [theta[:i] + theta[i + 1:]]]


def tridiagonal_ok(op: Matrix, idems) -> tuple:
    """Check E_j op E_i = 0 for |i - j| > 1 pair by pair, i before j, for
    the idempotents `idems`; returns (ok, the first failing pair or None)."""
    for i, ei in enumerate(idems):
        for j, ej in enumerate(idems):
            if abs(i - j) > 1 and not (ej * op * ei).is_zero():
                return False, (i, j)
    return True, None
