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
gcd, with one division by the pivots at the end.  A subspace of Q^n is
only its basis, n x dim, canonicalized by reduced row echelon form so that
equal subspaces have bit-identical representations; `Subspace.holds` tests
columns by one rank test, without canonicalizing their span.  The lattice
operations (`sum_of`, `is_direct_sum`, `subspace_intersect`) read n from
the bases and refuse parts of different n.  `triangular_kernel` finds the
kernel of a triangular matrix with at most one zero on its diagonal by
substitution, with no elimination, in that same canonical form.

`solve_commutant_constraint` solves XR - RX = C with X = 0 on given
subspaces along the R-orbits p_m = R^m B of their bases B, with no system
in the n^2 entries of X: any solution has X p_m = y_m for y_0 = 0 and
y_{m+1} = R y_m + C p_m, so on a basis P of orbits it can only be Y P^-1,
and it exists exactly when y vanishes where p does.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

Rational = Fraction


def rat(x) -> Fraction:
    """Parse a rational from an int, a Fraction, or a string holding an
    integer, "p/q" or a decimal.  Exponent notation ("1e9999999"), which
    Fraction expands with no limit on the digits, is refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            if "e" in x or "E" in x:
                raise ValueError("exponent notation")
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
        if self.rows != self.cols or n < 0:
            raise ValueError("only a square matrix has powers, and only n >= 0")
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

    def triangle(self) -> str | None:
        """"lower" for a square matrix with no nonzero entry above its
        diagonal (a diagonal one included), "upper" for one with none below
        it, else None."""
        if not self.is_square():
            return None
        if not any(any(row[i + 1:]) for i, row in enumerate(self._n)):
            return "lower"
        if not any(any(row[:i]) for i, row in enumerate(self._n)):
            return "upper"
        return None

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


def triangular_kernel(m: Matrix, lower: bool) -> "Subspace":
    """Kernel of a lower (or, with `lower` false, upper) triangular m with
    at most one zero on its diagonal, by substitution on its numerators.

    With no zero on the diagonal m is invertible and the kernel is zero.
    With m[k, k] = 0 the kernel is a line: x_j = 0 for every j that
    substitution reaches before k (j < k when lower, j > k when upper),
    x_k = 1, and each later x_j is -(sum_{l != j} m[j, l] x_l) / m[j, j].
    The integer x is kept over an implied common denominator, which a
    division by m[j, j] multiplies into every entry so far.  The vector
    is scaled so that its first nonzero entry is 1: the canonical basis
    that `Subspace.from_columns` gives.
    """
    n, num = m.rows, m._n
    zeros = [i for i in range(n) if not num[i][i]]
    if len(zeros) > 1:
        raise ValueError("more than one zero on the diagonal")
    if not zeros:
        return Subspace.zero(n)
    k = zeros[0]
    x = [0] * n
    x[k] = 1
    for j in range(k + 1, n) if lower else range(k - 1, -1, -1):
        row = num[j]
        known = range(k, j) if lower else range(j + 1, k + 1)
        s = sum(row[l] * x[l] for l in known if row[l])
        g = gcd(s, row[j])
        p, x_j = row[j] // g, -s // g  # -s / m[j, j] = x_j / p: the denominator gains p
        if p < 0:
            p, x_j = -p, -x_j
        if p != 1:
            x = [p * v for v in x]
        x[j] = x_j
    first = next(v for v in x if v)
    return Subspace(Matrix._of(n, 1, [[v] for v in x], first))


class Subspace:
    """A subspace of the column space Q^n, n = basis.rows.

    The stored basis matrix has the canonical (reduced echelon) basis as
    its columns, so two equal subspaces are structurally identical.
    """

    __slots__ = ("basis",)

    def __init__(self, basis: Matrix):
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_columns(cls, generators: Matrix) -> "Subspace":
        """Span of the columns of `generators`, canonicalized."""
        if generators.cols == 0:
            return cls.zero(generators.rows)
        rank, ech, _ = rref(generators.transpose())
        return cls(ech._top_rows(rank).transpose())

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(Matrix.zeros(n, 0))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def is_zero(self) -> bool:
        return self.dim == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.basis.rows})"

    def holds(self, columns: Matrix) -> bool:
        """Every column of `columns` lies in self: one rank test of
        [basis | columns], with no canonical form of their span."""
        if columns.rows != self.basis.rows:
            raise ValueError("column length != ambient dimension")
        if columns.cols == 0 or self.dim == 0:
            return columns.is_zero()
        return self.basis.hstack(columns).rank() == self.dim


def subspace_intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection, via the kernel of the stacked generator system.

    Solving G1 x = G2 y, the intersection is G1 applied to the x-part of
    the kernel of [G1 | -G2].
    """
    n = s1.basis.rows
    if s2.basis.rows != n:
        raise ValueError("ambient dimension mismatch")
    if s1.dim == 0 or s2.dim == 0:
        return Subspace.zero(n)
    ker = s1.basis.hstack(-s2.basis).kernel()
    return Subspace.from_columns(s1.basis * ker._top_rows(s1.dim))


def sum_of(parts: Sequence[Subspace]) -> Subspace:
    """The sum of the parts, by one elimination over all their bases."""
    if len({p.basis.rows for p in parts}) != 1:
        raise ValueError("no subspaces, or an ambient dimension mismatch")
    nonzero = [p for p in parts if p.dim]
    if len(nonzero) > 1:
        return Subspace.from_columns(Matrix.hstack(*(p.basis for p in nonzero)))
    return nonzero[0] if nonzero else parts[0]


def is_direct_sum(parts: Sequence[Subspace]) -> bool:
    """True iff the parts form a decomposition of the ambient space."""
    total = sum_of(parts)
    return total.dim == total.basis.rows == sum(p.dim for p in parts)


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


_NOT_A_BASIS = "not determined: the R-orbits of the annihilated spaces are not a basis"


def solve_commutant_constraint(
    r: Matrix, c: Matrix, annihilated: Sequence[Subspace]
) -> Matrix:
    """The X with XR - RX = C and X S = 0 for S in annihilated, read off
    the R-orbits of the bases B of the S.

    From p_0 = B and y_0 = 0, step p_{m+1} = R p_m, y_{m+1} = R y_m + C p_m
    until p_{L+1} = 0.  Any solution has X p_m = y_m, as
    X p_{m+1} = (RX + C) p_m; so if the blocks p_m form a basis P, Y P^-1
    is the only candidate.  It is a solution exactly when each top
    condition y_{L+1} = X p_{L+1} = 0 holds: then X B = y_0 = 0, and
    (XR - RX - C) p_m = y_{m+1} - R y_m - C p_m = 0 on every block, the
    last of an orbit by its top condition.  Only P, n x n, is eliminated.

    Raises ValueError("inconsistent") when a top condition fails (there is
    no solution), and ValueError when the orbits are not a basis: more
    than n columns, or a singular P.
    """
    if not r.is_square() or r.shape != c.shape:
        raise ValueError("R and C must be square matrices of equal size")
    n = r.rows
    ps, ys, count = [], [], 0
    for space in annihilated:
        if space.basis.rows != n:
            raise ValueError("annihilated subspace has wrong ambient dimension")
        p, y = space.basis, Matrix.zeros(n, space.dim)
        while not p.is_zero():
            count += p.cols
            if count > n:
                raise ValueError(_NOT_A_BASIS)
            ps.append(p)
            ys.append(y)
            p, y = r * p, r * y + c * p
        if not y.is_zero():
            raise ValueError("inconsistent")
    if count != n:
        raise ValueError(_NOT_A_BASIS)
    try:
        inv = Matrix.hstack(*ps).inverse()
    except ValueError:  # P is singular
        raise ValueError(_NOT_A_BASIS) from None
    return Matrix.hstack(*ys) * inv
