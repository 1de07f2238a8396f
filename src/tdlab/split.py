"""Split decompositions, the K_i spaces, the refined cells, and K, B.

First split decomposition:
    U_i = (E*_0 V + ... + E*_i V) ∩ (E_i V + ... + E_d V)
Second split decomposition:
    U_i↓ = (E*_0 V + ... + E*_i V) ∩ (E_0 V + ... + E_{d-i} V)
K_i = U_i ∩ U_i↓ for 0 <= i <= d/2, built by this definition; the tests
compare it with the lemma K_i = (E*_0 V + ... + E*_i V) ∩ (E_i V + ... +
E_{d-i} V).  cell(i, j) is the image of K_i under the monic factored
polynomial with roots theta_i .. theta_{j-1}.

Both split decompositions refine one flag, built once by `eigenspace_sums`
and kept in the apparatus: U_0 + ... + U_i = E*_0 V + ... + E*_i V = U_0↓ +
... + U_i↓.  No sum of the U_k is formed to check it.  Each U_k lies in
E*_0 V + ... + E*_k V, so once the U_k are direct (K and B invert their
stacked bases) and dim U_k = dim E*_k V, their sum fills the flag.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate

from .linalg import Matrix, Subspace, subspace_intersect, sum_of
from .record import Record
from .report import ConsistencyError
from .tdsystem import TDSystemInstance


class SplitStructureError(ConsistencyError):
    """An internal-consistency failure while building the split apparatus."""


def _prefix_sums(spaces) -> tuple:
    return tuple(accumulate(spaces, lambda acc, s: sum_of((acc, s))))


def eigenspace_sums(sys: TDSystemInstance) -> tuple:
    """E*_0 V + ... + E*_i V, E_0 V + ... + E_i V and E_i V + ... + E_d V."""
    plain = sys.eig.eigenspaces
    star = _prefix_sums(sys.eigstar.eigenspaces)
    return star, _prefix_sums(plain), _prefix_sums(plain[::-1])[::-1]


def split_decomposition(sys: TDSystemInstance, flavor: str, sums: tuple) -> tuple:
    """The first or second split decomposition of V, as d+1 subspaces, cut
    from `sums` = `eigenspace_sums(sys)`."""
    if flavor not in ("first", "second"):
        raise ValueError("flavor must be 'first' or 'second'")
    d = sys.d
    star_prefix, plain_prefix, plain_suffix = sums
    spaces = []
    for i in range(d + 1):
        other = plain_suffix[i] if flavor == "first" else plain_prefix[d - i]
        spaces.append(subspace_intersect(star_prefix[i], other))
    return tuple(spaces)


def projector_sum(spaces, weights) -> Matrix:
    """Sum of weight_i * P_i where P_i projects onto spaces[i] along the rest.

    Built by a dense change of basis: the concatenated bases must be
    invertible: this is the one test that the spaces decompose V directly.
    """
    diag = [w for s, w in zip(spaces, weights) for _ in range(s.dim)]
    g = Matrix.hstack(*(s.basis for s in spaces))
    try:
        ginv = g.inverse()
    except ValueError as exc:  # g is not square, or singular
        raise SplitStructureError("split decomposition is not direct") from exc
    return g * Matrix.diagonal(diag) * ginv


def build_K(sys: TDSystemInstance, u: tuple) -> Matrix:
    """The invertible operator with eigenvalue q^(d-2i) on U_i."""
    d, q = sys.d, sys.params.q
    return projector_sum(u, [q ** (d - 2 * i) for i in range(d + 1)])


def build_B(sys: TDSystemInstance, udd: tuple) -> Matrix:
    """The invertible operator with eigenvalue q^(d-2i) on U_i↓."""
    d, q = sys.d, sys.params.q
    return projector_sum(udd, [q ** (d - 2 * i) for i in range(d + 1)])


def compute_K_spaces(u: tuple, udd: tuple) -> tuple:
    """K_i = U_i ∩ U_i↓ for 0 <= i <= d/2; a zero K_i keeps its index i."""
    d = len(u) - 1
    return tuple(subspace_intersect(u[i], udd[i]) for i in range(d // 2 + 1))


class Cell(Record):
    """One refined-decomposition summand: the image of K_i at level j.

    `image` carries the chosen K_i basis pushed forward column by column,
    so downstream vector-level constructions can reuse the correspondence.
    """

    __slots__ = _fields = ("image", "space")


class SplitApparatus(Record):
    # flag[i] = E*_0 V + ... + E*_i V = U_0 + ... + U_i = U_0↓ + ... + U_i↓.
    # No __slots__: the cached properties below live in the instance __dict__.
    _fields = ("U", "Udd", "flag", "Kspaces", "cells", "Kop", "Bop")

    # Cached on first use, not stored as fields, so that an apparatus built
    # from this one's fields with another Kop = X has Kinv = X^-1.
    @cached_property
    def Kinv(self) -> Matrix:
        return self.Kop.inverse()

    @cached_property
    def Binv(self) -> Matrix:
        return self.Bop.inverse()

    @cached_property
    def MK(self) -> tuple:
        """MK_i, the span of all cells seeded by K_i, for each i."""
        d = len(self.U) - 1
        return tuple(sum_of([self.cells[(i, j)].space for j in range(i, d - i + 1)])
                     for i in range(len(self.Kspaces)))


def refined_decomposition(sys: TDSystemInstance, u: tuple, kspaces: tuple) -> dict:
    """Cells (i, j) -> image of K_i under the factored polynomial tau_ij(A).

    The image at level j is (A - theta_{j-1} I) times the image at j - 1.
    Checks: each cell has the dimension of its seed K_i, and per j the
    cells sum directly to U_j, so that, the U_j being direct, the cells
    decompose V.
    """
    d = sys.d
    factors = sys.eig.factors
    cells = {}
    for i, k in enumerate(kspaces):
        image, space = k.basis, k
        for j in range(i, d - i + 1):
            if j > i:
                image = factors[j - 1] * image
                space = Subspace.from_columns(image)
            if space.dim != k.dim:
                raise SplitStructureError(
                    f"tau_{i}{j}(A) is not injective on K_{i}"
                )
            cells[(i, j)] = Cell(image, space)

    for j in range(d + 1):
        parts = [cells[(i, j)].space for i in range(min(j, d - j) + 1)]
        if sum(p.dim for p in parts) != u[j].dim or sum_of(parts) != u[j]:
            raise SplitStructureError(f"cells at level {j} do not decompose U_{j}")
    return cells


def build_apparatus(sys: TDSystemInstance) -> SplitApparatus:
    """Compute the full split apparatus for a validated instance."""
    sums = eigenspace_sums(sys)
    u = split_decomposition(sys, "first", sums)
    udd = split_decomposition(sys, "second", sums)
    k, b = build_K(sys, u), build_B(sys, udd)  # refuses a split that is not direct
    dims = [s.dim for s in sys.eigstar.eigenspaces]
    if [s.dim for s in u] != dims or [s.dim for s in udd] != dims:
        raise SplitStructureError("the split decompositions do not refine one flag")
    kspaces = compute_K_spaces(u, udd)
    cells = refined_decomposition(sys, u, kspaces)
    return SplitApparatus(u, udd, sums[0], kspaces, cells, k, b)


def verify_minpoly_on_MKi(sys: TDSystemInstance, apparatus: SplitApparatus, i: int) -> tuple:
    """The items of check lem.minpoly.MK{i}: tau_{i, d-i+1} annihilates MK_i
    (applied one factor at a time), and tau_{i, d-i} does not kill K_i (the
    image of cell (i, d-i) is nonzero).  The product is the witness of both."""
    d = sys.d
    if apparatus.Kspaces[i].is_zero():
        raise ValueError(f"K_{i} is zero")
    killed = apparatus.MK[i].basis
    for f in sys.eig.factors[i : d - i + 1]:
        killed = f * killed
    return killed, (not apparatus.cells[(i, d - i)].image.is_zero(), killed)
