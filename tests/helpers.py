"""Helpers shared by the test modules."""

from tdlab.linalg import Matrix, Subspace


def span(n, *vectors) -> Subspace:
    """The subspace of Q^n spanned by the given vectors."""
    return Subspace.from_columns(n, Matrix.from_columns(vectors))


def whole(n) -> Subspace:
    """All of Q^n."""
    return Subspace.from_columns(n, Matrix.identity(n))
