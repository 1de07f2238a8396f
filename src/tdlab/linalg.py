"""Exact rational matrices and the subspace lattice.

Everything here is built on ``fractions.Fraction``, so all arithmetic is
exact and every equality test is an honest zero test.  Matrices are
immutable, with dense storage; products and eliminations skip zero
entries.  Subspaces are canonicalized by reduced row echelon form so
that equal subspaces have bit-identical representations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction


def rat(x) -> Fraction:
    """Parse a rational from an int, Fraction, or a "p/q" string."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {x!r}") from exc
    raise TypeError(f"cannot convert {type(x).__name__} to rational")


def rat_str(x: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    return str(x)


class Matrix:
    """Immutable dense matrix of rationals."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(tuple(rat(x) for x in row) for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]) if rows else 0)
        object.__setattr__(self, "_e", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, diag: Sequence) -> "Matrix":
        d = [rat(x) for x in diag]
        n = len(d)
        return cls([[d[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, entries: Sequence) -> "Matrix":
        return cls([[x] for x in entries])

    @classmethod
    def from_columns(cls, columns: Iterable[Sequence]) -> "Matrix":
        cols = [list(c) for c in columns]
        if not cols:
            return cls([])
        n = len(cols[0])
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def __getitem__(self, idx) -> Fraction:
        i, j = idx
        return self._e[i][j]

    def row(self, i: int) -> tuple:
        return self._e[i]

    def col(self, j: int) -> tuple:
        return tuple(self._e[i][j] for i in range(self.rows))

    def entries(self) -> list:
        """Row-major list of entries."""
        return [x for row in self._e for x in row]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._e == other._e
        )

    def __hash__(self):
        return hash(self._e)

    def __repr__(self):
        return "Matrix(%s)" % [[str(x) for x in row] for row in self._e]

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            [
                [x + y if y else x for x, y in zip(row, orow)]
                for row, orow in zip(self._e, other._e)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            [
                [x - y if y else x for x, y in zip(row, orow)]
                for row, orow in zip(self._e, other._e)
            ]
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-x for x in row] for row in self._e])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self._matmul(other)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def scale(self, scalar) -> "Matrix":
        s = rat(scalar)
        return Matrix([[s * x if x else x for x in row] for row in self._e])

    def _matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} * {other.shape}")
        # Row i of the product is the sum of x * (row k of other) over the
        # nonzero x = self[i, k], taken over the nonzero entries of row k.
        nonzero = [[(j, y) for j, y in enumerate(orow) if y] for orow in other._e]
        out = []
        for row in self._e:
            acc = [Fraction(0)] * other.cols
            for x, terms in zip(row, nonzero):
                if x:
                    for j, y in terms:
                        acc[j] += x * y
            out.append(acc)
        return Matrix(out)

    def __pow__(self, n: int) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        if n < 0:
            return self.inverse() ** (-n)
        result = Matrix.identity(self.rows)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._e for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "Matrix":
        return Matrix(
            [[self._e[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return Matrix(
            [list(self._e[i]) + list(other._e[i]) for i in range(self.rows)]
        )

    def apply(self, vector: Sequence) -> tuple:
        """Matrix times column vector, returned as a tuple."""
        v = [rat(x) for x in vector]
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(
            sum((x * y for x, y in zip(row, v) if x and y), Fraction(0))
            for row in self._e
        )

    def _same_shape(self, other: "Matrix"):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def rank(self) -> int:
        return rref(self)[0]

    def kernel(self) -> "Matrix":
        """Basis of the null space, as columns (cols x nullity matrix)."""
        rank, ech, pivots = rref(self)
        return _kernel_from_echelon(ech, pivots, self.cols)

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        rank, ech, pivots = rref(self.hstack(Matrix.identity(n)))
        if any(p >= n for p in pivots):
            raise ValueError("matrix is singular")
        return Matrix([row[n:] for row in ech._e])

    def to_strings(self) -> list:
        """Row-major array-of-arrays of rational strings."""
        return [[rat_str(x) for x in row] for row in self._e]

    @classmethod
    def from_strings(cls, data: Sequence[Sequence[str]]) -> "Matrix":
        return cls(data)


def rref(m: Matrix) -> tuple:
    """Reduced row echelon form.

    Returns (rank, echelon, pivots) where pivots is the tuple of pivot
    column indices.
    """
    work = [list(row) for row in m._e]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv if x else x for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y if y else x for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, Matrix(work), tuple(pivots)


def _kernel_from_echelon(ech: Matrix, pivots: Sequence[int], ncols: int) -> Matrix:
    """Null-space basis, as columns, of the first `ncols` columns of `ech`.

    `ech` is in reduced echelon form and `pivots` are its pivot columns,
    all below `ncols`.
    """
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -ech[r, f]
        basis.append(v)
    return Matrix.from_columns(basis) if basis else Matrix.zeros(ncols, 0)


def solve_linear(a: Matrix, b: Matrix) -> tuple | None:
    """Solve a x = b for one right-hand-side column.

    Returns (particular, kernel_basis) where particular is a column Matrix
    and kernel_basis a Matrix whose columns span the solution freedom, or
    None when the system is inconsistent.  One elimination serves both:
    the left block of rref(a | b) is rref(a).
    """
    if b.cols != 1 or b.rows != a.rows:
        raise ValueError("right-hand side must be a single column")
    rank, ech, pivots = rref(a.hstack(b))
    if a.cols in pivots:
        return None
    x = [Fraction(0)] * a.cols
    for r, p in enumerate(pivots):
        x[p] = ech[r, a.cols]
    return Matrix.column(x), _kernel_from_echelon(ech, pivots, a.cols)


class Subspace:
    """A subspace of the ambient column space Q^n.

    The stored basis matrix has the canonical (reduced echelon) basis as
    its columns, so two equal subspaces are structurally identical.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Matrix):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_columns(cls, ambient_dim: int, generators: Matrix) -> "Subspace":
        """Span of the columns of `generators`, canonicalized."""
        if generators.cols == 0:
            return cls.zero(ambient_dim)
        if generators.rows != ambient_dim:
            raise ValueError("generator length != ambient dimension")
        rank, ech, _ = rref(generators.transpose())
        basis = Matrix([ech._e[i] for i in range(rank)]).transpose()
        if rank == 0:
            basis = Matrix.zeros(ambient_dim, 0)
        return cls(ambient_dim, basis)

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        return cls.from_columns(ambient_dim, Matrix.from_columns(list(vectors)))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.zeros(ambient_dim, 0))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def is_zero(self) -> bool:
        return self.dim == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"

    def contains_vector(self, vector: Sequence) -> bool:
        v = Matrix.column([rat(x) for x in vector])
        if self.dim == 0:
            return v.is_zero()
        return solve_linear(self.basis, v) is not None

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains_vector(other.basis.col(j)) for j in range(other.dim))

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    s1._check_ambient(s2)
    if s1.dim == 0:
        return s2
    if s2.dim == 0:
        return s1
    return Subspace.from_columns(s1.ambient_dim, s1.basis.hstack(s2.basis))


def subspace_intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection, via the kernel of the stacked generator system.

    Solving G1 x = G2 y, the intersection is G1 applied to the x-part of
    the kernel of [G1 | -G2].
    """
    s1._check_ambient(s2)
    if s1.dim == 0 or s2.dim == 0:
        return Subspace.zero(s1.ambient_dim)
    stacked = s1.basis.hstack(-s2.basis)
    ker = stacked.kernel()
    if ker.cols == 0:
        return Subspace.zero(s1.ambient_dim)
    xpart = Matrix([ker._e[i] for i in range(s1.dim)])
    return Subspace.from_columns(s1.ambient_dim, s1.basis * xpart)


def sum_of(parts: Sequence[Subspace], ambient_dim: int) -> Subspace:
    total = Subspace.zero(ambient_dim)
    for p in parts:
        total = subspace_sum(total, p)
    return total


def sum_is_direct(parts: Sequence[Subspace], ambient_dim: int) -> bool:
    """True iff the sum of the parts is direct (not necessarily all of V)."""
    generators = [p.basis.col(j) for p in parts for j in range(p.dim)]
    if not generators:
        return True
    stacked = Matrix.from_columns(generators)
    return stacked.rank() == sum(p.dim for p in parts)


def is_direct_sum(parts: Sequence[Subspace], ambient_dim: int) -> bool:
    """True iff the parts form a decomposition of the ambient space."""
    if any(p.ambient_dim != ambient_dim for p in parts):
        raise ValueError("ambient dimension mismatch")
    if sum(p.dim for p in parts) != ambient_dim:
        return False
    return sum_is_direct(parts, ambient_dim)


def eval_factored_poly(a: Matrix, roots: Sequence) -> Matrix:
    """Evaluate the monic factored polynomial prod_k (A - root_k I).

    The empty product is the identity.
    """
    if not a.is_square():
        raise ValueError("matrix must be square")
    result = Matrix.identity(a.rows)
    eye = Matrix.identity(a.rows)
    for r in roots:
        result = result * (a - rat(r) * eye)
    return result


class AffineSolutions:
    """Solution set of a linear system in matrix unknowns.

    `solution` is a particular solution (None when the system is
    inconsistent) and `freedom` the dimension of the homogeneous part.
    """

    __slots__ = ("solution", "freedom")

    def __init__(self, solution: Matrix | None, freedom: int):
        object.__setattr__(self, "solution", solution)
        object.__setattr__(self, "freedom", freedom)

    def __setattr__(self, name, value):
        raise AttributeError("AffineSolutions is immutable")

    @property
    def is_empty(self) -> bool:
        return self.solution is None

    @property
    def is_unique(self) -> bool:
        return self.solution is not None and self.freedom == 0


def solve_commutant_constraint(
    r: Matrix, c: Matrix, annihilated: Sequence[Subspace]
) -> AffineSolutions:
    """Solve {XR - RX = C, X|_S = 0 for S in annihilated} for X.

    The n^2 unknown entries of X are treated as a dense linear system;
    the caller is responsible for asserting uniqueness when it is needed.
    """
    if not r.is_square() or r.shape != c.shape:
        raise ValueError("R and C must be square matrices of equal size")
    n = r.rows
    rows = []
    rhs = []

    def unknown(i, k):
        return i * n + k

    # XR - RX = C, one scalar equation per entry (i, j).
    for i in range(n):
        for j in range(n):
            coeff = [Fraction(0)] * (n * n)
            for k in range(n):
                coeff[unknown(i, k)] += r[k, j]
                coeff[unknown(k, j)] -= r[i, k]
            rows.append(coeff)
            rhs.append(c[i, j])
    # X v = 0 for each basis vector of each annihilated subspace.
    for space in annihilated:
        if space.ambient_dim != n:
            raise ValueError("annihilated subspace has wrong ambient dimension")
        for jcol in range(space.dim):
            v = space.basis.col(jcol)
            for i in range(n):
                coeff = [Fraction(0)] * (n * n)
                for k in range(n):
                    coeff[unknown(i, k)] = v[k]
                rows.append(coeff)
                rhs.append(Fraction(0))

    system = Matrix(rows)
    solved = solve_linear(system, Matrix.column(rhs))
    if solved is None:
        return AffineSolutions(None, 0)
    particular, ker = solved
    x = Matrix([[particular[unknown(i, k), 0] for k in range(n)] for i in range(n)])
    return AffineSolutions(x, ker.cols)
