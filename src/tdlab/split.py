"""Split decompositions, the K_i spaces, the refined cells, and K, B.

First split decomposition:
    U_i = (E*_0 V + ... + E*_i V) ∩ (E_i V + ... + E_d V)
Second split decomposition:
    U_i↓ = (E*_0 V + ... + E*_i V) ∩ (E_0 V + ... + E_{d-i} V)
K_i = U_i ∩ U_i↓ for 0 <= i <= d/2, and cell(i, j) is the image of K_i
under the monic factored polynomial with roots theta_i .. theta_{j-1}.
"""

from __future__ import annotations

from functools import cached_property

from .linalg import (
    Matrix,
    Subspace,
    combine,
    is_direct_sum,
    subspace_intersect,
    subspace_sum,
    sum_of,
)
from .record import Record, setfield
from .report import ConsistencyError
from .tdsystem import TDSystemInstance


class SplitStructureError(ConsistencyError):
    """An internal-consistency failure while building the split apparatus."""


def _prefix_sums(spaces, n) -> tuple:
    out = []
    acc = Subspace.zero(n)
    for s in spaces:
        acc = subspace_sum(acc, s)
        out.append(acc)
    return tuple(out)


def eigenspace_sums(sys: TDSystemInstance) -> tuple:
    """E*_0 V + ... + E*_i V, E_0 V + ... + E_i V and E_i V + ... + E_d V."""
    n, plain = sys.dim, sys.eig.eigenspaces
    star = _prefix_sums(sys.eigstar.eigenspaces, n)
    return star, _prefix_sums(plain, n), _prefix_sums(plain[::-1], n)[::-1]


def split_decomposition(sys: TDSystemInstance, flavor: str = "first", sums=None) -> tuple:
    """The first or second split decomposition of V, as d+1 subspaces, cut
    from `sums` = `eigenspace_sums(sys)` (computed when not given)."""
    if flavor not in ("first", "second"):
        raise ValueError("flavor must be 'first' or 'second'")
    d, n = sys.d, sys.dim
    star_prefix, plain_prefix, plain_suffix = sums or eigenspace_sums(sys)
    spaces = []
    for i in range(d + 1):
        other = plain_suffix[i] if flavor == "first" else plain_prefix[d - i]
        spaces.append(subspace_intersect(star_prefix[i], other))
    if not is_direct_sum(spaces, n):
        raise SplitStructureError(f"{flavor} split decomposition is not direct")
    return tuple(spaces)


def projector_sum(spaces, weights, n: int) -> Matrix:
    """Sum of weight_i * P_i where P_i projects onto spaces[i] along the rest.

    Built by a dense change of basis: the concatenated bases must be
    invertible (the spaces form a decomposition of V).
    """
    diag = [w for s, w in zip(spaces, weights) for _ in range(s.dim)]
    g = Matrix.hstack(*(s.basis for s in spaces))
    if g.rows != n or g.cols != n:
        raise SplitStructureError("spaces do not decompose the ambient space")
    return g * Matrix.diagonal(diag) * g.inverse()


def build_K(sys: TDSystemInstance, u: tuple | None = None) -> Matrix:
    """The invertible operator with eigenvalue q^(d-2i) on U_i."""
    if u is None:
        u = split_decomposition(sys, "first")
    d, q = sys.d, sys.params.q
    return projector_sum(u, [q ** (d - 2 * i) for i in range(d + 1)], sys.dim)


def build_B(sys: TDSystemInstance, udd: tuple | None = None) -> Matrix:
    """The invertible operator with eigenvalue q^(d-2i) on U_i↓."""
    if udd is None:
        udd = split_decomposition(sys, "second")
    d, q = sys.d, sys.params.q
    return projector_sum(udd, [q ** (d - 2 * i) for i in range(d + 1)], sys.dim)


def compute_K_spaces(sys: TDSystemInstance, sums=None) -> tuple:
    """K_i = (E*_0 V + ... + E*_i V) ∩ (E_i V + ... + E_{d-i} V), 0 <= i <= d/2.

    The middle sums grow from the centre outwards; `sums` is as for
    `split_decomposition`.  Zero K_i are retained so indexing stays
    aligned with i.
    """
    d, n, plain = sys.d, sys.dim, sys.eig.eigenspaces
    star_prefix = (sums or eigenspace_sums(sys))[0]
    spaces, middle = [], Subspace.zero(n)
    for i in range(d // 2, -1, -1):
        middle = sum_of((middle, plain[i], plain[d - i]), n)
        spaces.append(subspace_intersect(star_prefix[i], middle))
    return tuple(reversed(spaces))


class Cell(Record):
    """One refined-decomposition summand: the image of K_i at level j.

    `image` carries the chosen K_i basis pushed forward column by column,
    so downstream vector-level constructions can reuse the correspondence.
    """

    __slots__ = _fields = ("i", "j", "image", "space")

    def __init__(self, i: int, j: int, image: Matrix, space: Subspace):
        setfield(self, "i", i)
        setfield(self, "j", j)
        setfield(self, "image", image)
        setfield(self, "space", space)


class SplitApparatus(Record):
    # No __slots__: the cached properties below live in the instance __dict__.
    _fields = ("U", "Udd", "Kspaces", "cells", "Kop", "Bop")

    def __init__(self, U: tuple, Udd: tuple, Kspaces: tuple, cells: dict,
                 Kop: Matrix, Bop: Matrix):
        setfield(self, "U", U)
        setfield(self, "Udd", Udd)
        setfield(self, "Kspaces", Kspaces)
        setfield(self, "cells", cells)
        setfield(self, "Kop", Kop)
        setfield(self, "Bop", Bop)

    # Cached on first use, not stored as fields, so that an apparatus built
    # from this one's fields with another Kop = X has Kinv = X^-1.
    @cached_property
    def Kinv(self) -> Matrix:
        return self.Kop.inverse()

    @cached_property
    def Binv(self) -> Matrix:
        return self.Bop.inverse()

    @cached_property
    def prefix_sums(self) -> tuple:
        """(U_0 + ... + U_i for 0 <= i <= d, the same for the U_i↓)."""
        n = self.U[0].ambient_dim
        return _prefix_sums(self.U, n), _prefix_sums(self.Udd, n)

    @cached_property
    def MK(self) -> tuple:
        """MK_i, the span of all cells seeded by K_i, for each i."""
        d, n = len(self.U) - 1, self.U[0].ambient_dim
        return tuple(sum_of([self.cells[(i, j)].space for j in range(i, d - i + 1)], n)
                     for i in range(len(self.Kspaces)))


def refined_decomposition(sys: TDSystemInstance, u: tuple, kspaces: tuple) -> dict:
    """Cells (i, j) -> image of K_i under the factored polynomial tau_ij(A).

    The image at level j is (A - theta_{j-1} I) times the image at j - 1.
    Checks: per-j the cells sum directly to U_j; globally they decompose
    V; each cell has the dimension of its seed K_i.
    """
    d, n = sys.d, sys.dim
    eye = Matrix.identity(n)
    factors = [combine((1, sys.A), (-t, eye)) for t in sys.eig.eigenvalues[:d]]
    cells = {}
    for i, k in enumerate(kspaces):
        image, space = k.basis, k
        for j in range(i, d - i + 1):
            if j > i:
                image = factors[j - 1] * image
                space = Subspace.from_columns(n, image)
            if space.dim != k.dim:
                raise SplitStructureError(
                    f"tau_{i}{j}(A) is not injective on K_{i}"
                )
            cells[(i, j)] = Cell(i, j, image, space)

    for j in range(d + 1):
        parts = [cells[(i, j)].space for i in range(min(j, d - j) + 1)]
        if sum(p.dim for p in parts) != u[j].dim or sum_of(parts, n) != u[j]:
            raise SplitStructureError(f"cells at level {j} do not decompose U_{j}")
    if not is_direct_sum([c.space for c in cells.values()], n):
        raise SplitStructureError("cells do not decompose V")
    return cells


def build_apparatus(sys: TDSystemInstance) -> SplitApparatus:
    """Compute the full split apparatus for a validated instance."""
    sums = eigenspace_sums(sys)
    u = split_decomposition(sys, "first", sums)
    udd = split_decomposition(sys, "second", sums)

    kspaces = compute_K_spaces(sys, sums)
    if kspaces[0] != sys.eigstar.eigenspaces[0] or kspaces[0] != u[0]:
        raise SplitStructureError("K_0 != E*_0 V = U_0")
    for i, k in enumerate(kspaces):
        if k != subspace_intersect(u[i], udd[i]):
            raise SplitStructureError(f"K_{i} != U_{i} ∩ U_{i}↓")

    cells = refined_decomposition(sys, u, kspaces)
    apparatus = SplitApparatus(u, udd, kspaces, cells, build_K(sys, u), build_B(sys, udd))
    for i, (s, t) in enumerate(zip(*apparatus.prefix_sums)):
        if s != t:
            raise SplitStructureError(
                f"prefix sums of the two split decompositions differ at {i}"
            )
    return apparatus


def verify_minpoly_on_MKi(sys: TDSystemInstance, apparatus: SplitApparatus, i: int) -> tuple:
    """The items of check lem.minpoly.MK{i}: tau_{i, d-i+1} annihilates MK_i
    (applied one factor at a time), and tau_{i, d-i} does not kill K_i (the
    image of cell (i, d-i) is nonzero).  The product is the witness of both."""
    theta = sys.eig.eigenvalues
    d = sys.d
    if apparatus.Kspaces[i].is_zero():
        raise ValueError(f"K_{i} is zero")
    eye = Matrix.identity(sys.dim)
    killed = apparatus.MK[i].basis
    for t in theta[i : d - i + 1]:
        killed = combine((1, sys.A), (-t, eye)) * killed
    return killed, (not apparatus.cells[(i, d - i)].image.is_zero(), killed)
