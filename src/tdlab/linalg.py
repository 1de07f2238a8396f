"""Exact rational matrices and the subspace lattice.

All arithmetic is exact and every equality test is an honest zero test.
A matrix is stored as integer numerator rows over one common denominator,
in a canonical form: the denominator is positive, it shares no factor with
every numerator, and a zero matrix has denominator 1.  Equal matrices are
therefore stored identically.  Products, sums and eliminations are integer
arithmetic, and they skip zero entries; entries are read back as reduced
``fractions.Fraction`` values.  Each new matrix is normalized once (a gcd
over its entries), so `combine` builds sum_k c_k M_k in one pass, and
``+``, ``-``, unary ``-`` and `Matrix.scale` are each one `combine`.
Elimination is fraction-free Gauss-Jordan, each row kept primitive by its
gcd, with one division by the pivots at the end.  Subspaces are
canonicalized by reduced row echelon form so that equal subspaces have
bit-identical representations; `Subspace.holds` tests columns by one rank
test, without canonicalizing their span.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

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


def _primitive(row: list) -> list:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


class Matrix:
    """Immutable matrix of rationals: integer rows `_n` over denominator `_d`.

    The shape is stored, so a matrix may have no rows and some columns.
    `_d > 0`, gcd(`_d`, all of `_n`) = 1, and a zero matrix has `_d = 1`.
    """

    __slots__ = ("rows", "cols", "_n", "_d")

    def __init__(self, entries: Sequence[Sequence]):
        rows = [[rat(x) for x in row] for row in entries]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        d = lcm(*(x.denominator for row in rows for x in row))
        num = [[x.numerator * (d // x.denominator) for x in row] for row in rows]
        self._set(len(rows), len(rows[0]) if rows else 0, num, d)

    def _set(self, rows: int, cols: int, num, d: int) -> None:
        g = gcd(d, *chain.from_iterable(num))
        if d < 0:
            g = -g
        if g != 1:
            num = [[x // g for x in row] for row in num]
            d //= g
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_n", tuple(map(tuple, num)))
        object.__setattr__(self, "_d", d)

    @classmethod
    def _of(cls, rows: int, cols: int, num, d: int) -> "Matrix":
        """The rows x cols matrix num / d, for integer rows num and d != 0.

        Only normalizes: the entries are not validated.
        """
        m = object.__new__(cls)
        m._set(rows, cols, num, d)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._of(rows, cols, [[0] * cols for _ in range(rows)], 1)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(n, n, [[int(i == j) for j in range(n)] for i in range(n)], 1)

    @classmethod
    def diagonal(cls, diag: Sequence) -> "Matrix":
        d = [rat(x) for x in diag]
        n = len(d)
        return cls([[d[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Iterable[Sequence]) -> "Matrix":
        cols = [list(c) for c in columns]
        if not cols:
            return cls([])
        n = len(cols[0])
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def __getitem__(self, idx) -> Fraction:
        i, j = idx
        return Fraction(self._n[i][j], self._d)

    def row(self, i: int) -> tuple:
        d = self._d
        return tuple(Fraction(x, d) for x in self._n[i])

    def col(self, j: int) -> tuple:
        d = self._d
        return tuple(Fraction(row[j], d) for row in self._n)

    def entries(self) -> list:
        """Row-major list of entries."""
        d = self._d
        return [Fraction(x, d) for row in self._n for x in row]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._d == other._d
            and self._n == other._n
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._d, self._n))

    def __repr__(self):
        return "Matrix(%s)" % self.to_strings()

    def __add__(self, other: "Matrix") -> "Matrix":
        return combine((1, self), (1, other))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return combine((1, self), (-1, other))

    def __neg__(self) -> "Matrix":
        return combine((-1, self))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self._matmul(other)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def scale(self, scalar) -> "Matrix":
        return combine((scalar, self))

    def _matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} * {other.shape}")
        # Row i of the product is the sum of x * (row k of other) over the
        # nonzero x = self[i, k], taken over the nonzero entries of row k.
        nonzero = [[(j, y) for j, y in enumerate(orow) if y] for orow in other._n]
        out = []
        for row in self._n:
            acc = [0] * other.cols
            for x, terms in zip(row, nonzero):
                if x:
                    for j, y in terms:
                        acc[j] += x * y
            out.append(acc)
        return Matrix._of(self.rows, other.cols, out, self._d * other._d)

    def __pow__(self, n: int) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        if n < 0:
            return self.inverse() ** (-n)
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return Matrix.identity(self.rows) if result is None else result

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(map(any, self._n))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "Matrix":
        num = list(zip(*self._n)) if self.rows else [()] * self.cols
        return Matrix._of(self.cols, self.rows, num, self._d)

    def hstack(self, *others: "Matrix") -> "Matrix":
        """[self | others[0] | ...], over the lcm of the denominators."""
        blocks = (self,) + others
        if any(m.rows != self.rows for m in others):
            raise ValueError("row count mismatch in hstack")
        d = lcm(*(m._d for m in blocks))
        scaled = [[[x * (d // m._d) for x in row] for row in m._n] for m in blocks]
        num = [list(chain.from_iterable(parts)) for parts in zip(*scaled)]
        return Matrix._of(self.rows, sum(m.cols for m in blocks), num, d)

    def _top_rows(self, k: int) -> "Matrix":
        """The first k rows."""
        return Matrix._of(k, self.cols, self._n[:k], self._d)

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
        return Matrix._of(n, n, [row[n:] for row in ech._n], ech._d)

    def to_strings(self) -> list:
        """Row-major array-of-arrays of rational strings."""
        d = self._d
        return [[rat_str(Fraction(x, d)) for x in row] for row in self._n]

    @classmethod
    def from_strings(cls, data: Sequence[Sequence[str]]) -> "Matrix":
        return cls(data)


def combine(*terms) -> Matrix:
    """sum_k c_k M_k for (c_k, M_k) pairs of one shape, in one pass over the
    numerators over the lcm of the denominators; zero coefficients and zero
    entries are skipped, and the result is normalized once."""
    if not terms:
        raise ValueError("combine needs at least one term")
    rows, cols = shape = terms[0][1].shape
    live = []
    for c, m in terms:
        if m.shape != shape:
            raise ValueError(f"shape mismatch: {shape} vs {m.shape}")
        c = c if isinstance(c, (int, Fraction)) else rat(c)
        if c:
            live.append((c.numerator, c.denominator * m._d, m._n))
    d = lcm(*(den for _, den, _ in live))
    acc = [[0] * cols for _ in range(rows)]
    for p, den, num in live:
        f = p * (d // den)
        for arow, row in zip(acc, num):
            for j, x in enumerate(row):
                if x:
                    arow[j] += f * x
    return Matrix._of(rows, cols, acc, d)


def rref(m: Matrix) -> tuple:
    """Reduced row echelon form.

    Returns (rank, echelon, pivots) where pivots is the tuple of pivot
    column indices.  Fraction-free: the integer numerator rows (scaling by
    the denominator leaves the echelon form unchanged) are eliminated by
    row <- p * row - f * pivot_row, each kept primitive by its gcd, and
    each row is divided by its pivot once, at the end.
    """
    work = [_primitive(list(row)) for row in m._n]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        prow = work[r]
        p = prow[c]
        terms = [(j, y) for j, y in enumerate(prow) if y]
        for i in range(nrows):
            f = work[i][c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = work[i] if a == 1 else [a * x for x in work[i]]
                for j, y in terms:
                    row[j] -= b * y
                work[i] = _primitive(row)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    d = lcm(*(work[i][c] for i, c in enumerate(pivots)))
    for i, c in enumerate(pivots):
        s = d // work[i][c]
        if s != 1:
            work[i] = [s * x for x in work[i]]
    return r, Matrix._of(nrows, ncols, work, d), tuple(pivots)


def _kernel_from_echelon(ech: Matrix, pivots: Sequence[int], ncols: int) -> Matrix:
    """Null-space basis, as columns, of the first `ncols` columns of `ech`.

    `ech` is in reduced echelon form and `pivots` are its pivot columns,
    all below `ncols`.  Column k is e_f - sum_r ech[r, f] e_(pivot r) for
    the k-th free column f, scaled by ech's denominator.
    """
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    num = [[0] * len(free) for _ in range(ncols)]
    for k, f in enumerate(free):
        num[f][k] = ech._d
        for r, p in enumerate(pivots):
            num[p][k] = -ech._n[r][f]
    return Matrix._of(ncols, len(free), num, ech._d)


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
    x = [[0] for _ in range(a.cols)]
    for r, p in enumerate(pivots):
        x[p][0] = ech._n[r][a.cols]
    return Matrix._of(a.cols, 1, x, ech._d), _kernel_from_echelon(ech, pivots, a.cols)


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
        return cls(ambient_dim, ech._top_rows(rank).transpose())

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.zeros(ambient_dim, 0))

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

    def holds(self, columns: Matrix) -> bool:
        """Every column of `columns` lies in self: one rank test of
        [basis | columns], with no canonical form of their span."""
        if columns.rows != self.ambient_dim:
            raise ValueError("column length != ambient dimension")
        if columns.cols == 0 or self.dim == 0:
            return columns.is_zero()
        return self.basis.hstack(columns).rank() == self.dim

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return self.holds(other.basis)

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
    ker = s1.basis.hstack(-s2.basis).kernel()
    if ker.cols == 0:
        return Subspace.zero(s1.ambient_dim)
    return Subspace.from_columns(s1.ambient_dim, s1.basis * ker._top_rows(s1.dim))


def sum_of(parts: Sequence[Subspace], ambient_dim: int) -> Subspace:
    """The sum of the parts, by one elimination over all their bases."""
    if any(p.ambient_dim != ambient_dim for p in parts):
        raise ValueError("ambient dimension mismatch")
    nonzero = [p for p in parts if p.dim]
    if len(nonzero) <= 1:
        return nonzero[0] if nonzero else Subspace.zero(ambient_dim)
    return Subspace.from_columns(ambient_dim, Matrix.hstack(*(p.basis for p in nonzero)))


def sum_is_direct(parts: Sequence[Subspace], ambient_dim: int) -> bool:
    """True iff the sum of the parts is direct (not necessarily all of V)."""
    bases = [p.basis for p in parts if p.dim]
    if not bases:
        return True
    return Matrix.hstack(*bases).rank() == sum(p.dim for p in parts)


def is_direct_sum(parts: Sequence[Subspace], ambient_dim: int) -> bool:
    """True iff the parts form a decomposition of the ambient space."""
    if any(p.ambient_dim != ambient_dim for p in parts):
        raise ValueError("ambient dimension mismatch")
    if sum(p.dim for p in parts) != ambient_dim:
        return False
    return sum_is_direct(parts, ambient_dim)


def spin_dim(start: Matrix, generators: Sequence[Matrix]) -> int:
    """Dimension of the span of the rows of `start` under right multiplication
    by the generators.

    Each level runs one rref over the reduced echelon rows so far and the
    images of the frontier; the rows at new pivots span what the level
    added, and they are the next frontier.  Rows enter as numerators.
    """
    n = start.cols
    echelon, pivots, images = [], set(), [start]
    while images and len(echelon) < n:
        stacked = echelon + [row for m in images for row in m._n]
        rank, red, new_pivots = rref(Matrix._of(len(stacked), n, stacked, 1))
        echelon = list(red._n[:rank])
        new = [row for row, p in zip(echelon, new_pivots) if p not in pivots]
        pivots = set(new_pivots)
        frontier = Matrix._of(len(new), n, new, 1)
        images = [frontier * g for g in generators] if new else []
    return len(echelon)


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

    The n^2 unknown entries of X are treated as a dense linear system,
    built from numerators: the equations for entry (i, j) of XR - RX = C
    are scaled by the denominators of R and C, and those of X v = 0 by the
    denominator of v.  The caller is responsible for asserting uniqueness
    when it is needed.
    """
    if not r.is_square() or r.shape != c.shape:
        raise ValueError("R and C must be square matrices of equal size")
    n = r.rows
    rn, cn = r._n, c._n
    rs, cs = r._d, c._d
    rows = []
    rhs = []

    def unknown(i, k):
        return i * n + k

    # XR - RX = C, one scalar equation per entry (i, j), times rs * cs.
    for i in range(n):
        for j in range(n):
            coeff = [0] * (n * n)
            for k in range(n):
                coeff[unknown(i, k)] += rn[k][j] * cs
                coeff[unknown(k, j)] -= rn[i][k] * cs
            rows.append(coeff)
            rhs.append([cn[i][j] * rs])
    # X v = 0 for each basis vector of each annihilated subspace.
    for space in annihilated:
        if space.ambient_dim != n:
            raise ValueError("annihilated subspace has wrong ambient dimension")
        for v in zip(*space.basis._n):
            for i in range(n):
                coeff = [0] * (n * n)
                coeff[i * n : (i + 1) * n] = v
                rows.append(coeff)
                rhs.append([0])

    system = Matrix._of(len(rows), n * n, rows, 1)
    solved = solve_linear(system, Matrix._of(len(rhs), 1, rhs, 1))
    if solved is None:
        return AffineSolutions(None, 0)
    particular, ker = solved
    xn = [[particular._n[unknown(i, k)][0] for k in range(n)] for i in range(n)]
    return AffineSolutions(Matrix._of(n, n, xn, particular._d), ker.cols)
