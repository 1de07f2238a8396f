"""Split decompositions, the K_i spaces, the refined cells, and K, B.

First split decomposition:
    U_i = (E*_0 V + ... + E*_i V) ∩ (E_i V + ... + E_d V)
Second split decomposition:
    U_i↓ = (E*_0 V + ... + E*_i V) ∩ (E_0 V + ... + E_{d-i} V)
K_i = U_i ∩ U_i↓ for 0 <= i <= d/2, and cell(i, j) is the image of K_i
under the monic factored polynomial with roots theta_i .. theta_{j-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .linalg import (
    Matrix,
    Subspace,
    eval_factored_poly,
    is_direct_sum,
    subspace_intersect,
    subspace_sum,
    sum_is_direct,
    sum_of,
)
from .report import CheckResult
from .tdsystem import TDSystemInstance


class SplitStructureError(ValueError):
    """An internal-consistency failure while building the split apparatus."""


def _prefix_sums(spaces, n):
    out = []
    acc = Subspace.zero(n)
    for s in spaces:
        acc = subspace_sum(acc, s)
        out.append(acc)
    return out


def split_decomposition(sys: TDSystemInstance, flavor: str = "first") -> tuple:
    """The first or second split decomposition of V, as d+1 subspaces."""
    if flavor not in ("first", "second"):
        raise ValueError("flavor must be 'first' or 'second'")
    d, n = sys.d, sys.dim
    star_prefix = _prefix_sums(sys.eigstar.eigenspaces, n)
    plain_prefix = _prefix_sums(sys.eig.eigenspaces, n)
    plain_suffix = list(reversed(_prefix_sums(list(reversed(sys.eig.eigenspaces)), n)))

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


def compute_K_spaces(sys: TDSystemInstance) -> tuple:
    """K_i for 0 <= i <= floor(d/2).

    Zero K_i are retained so indexing stays aligned with i.
    """
    d, n = sys.d, sys.dim
    star_prefix = _prefix_sums(sys.eigstar.eigenspaces, n)
    spaces = []
    for i in range(d // 2 + 1):
        middle = sum_of(sys.eig.eigenspaces[i : d - i + 1], n)
        spaces.append(subspace_intersect(star_prefix[i], middle))
    return tuple(spaces)


@dataclass(frozen=True)
class Cell:
    """One refined-decomposition summand: the image of K_i at level j.

    `image` carries the chosen K_i basis pushed forward column by column,
    so downstream vector-level constructions can reuse the correspondence.
    """

    i: int
    j: int
    image: Matrix
    space: Subspace


@dataclass(frozen=True)
class SplitApparatus:
    U: tuple
    Udd: tuple
    Kspaces: tuple
    cells: dict
    Kop: Matrix
    Bop: Matrix

    # Cached on first use, not stored as fields, so that
    # dataclasses.replace(apparatus, Kop=X) yields X^-1.
    @cached_property
    def Kinv(self) -> Matrix:
        return self.Kop.inverse()

    @cached_property
    def Binv(self) -> Matrix:
        return self.Bop.inverse()

    def cell(self, i: int, j: int) -> Cell:
        return self.cells[(i, j)]

    def mk_space(self, i: int) -> Subspace:
        """MK_i: the span of all cells seeded by K_i."""
        n = self.U[0].ambient_dim
        d = len(self.U) - 1
        return sum_of(
            [self.cells[(i, j)].space for j in range(i, d - i + 1)], n
        )


def refined_decomposition(sys: TDSystemInstance, u: tuple, kspaces: tuple) -> dict:
    """Cells (i, j) -> image of K_i under the factored polynomial tau_ij(A).

    Checks: per-j the cells sum directly to U_j; globally they decompose
    V; each cell has the dimension of its seed K_i.
    """
    d, n = sys.d, sys.dim
    theta = sys.eig.eigenvalues
    cells = {}
    for i, k in enumerate(kspaces):
        for j in range(i, d - i + 1):
            tau = eval_factored_poly(sys.A, theta[i:j])
            image = tau * k.basis
            space = Subspace.from_columns(n, image)
            if space.dim != k.dim:
                raise SplitStructureError(
                    f"tau_{i}{j}(A) is not injective on K_{i}"
                )
            cells[(i, j)] = Cell(i, j, image, space)

    for j in range(d + 1):
        parts = [cells[(i, j)].space for i in range(min(j, d - j) + 1)]
        if not sum_is_direct(parts, n) or sum_of(parts, n) != u[j]:
            raise SplitStructureError(f"cells at level {j} do not decompose U_{j}")
    if not is_direct_sum([c.space for c in cells.values()], n):
        raise SplitStructureError("cells do not decompose V")
    return cells


def build_apparatus(sys: TDSystemInstance) -> SplitApparatus:
    """Compute the full split apparatus for a validated instance."""
    d, n = sys.d, sys.dim
    u = split_decomposition(sys, "first")
    udd = split_decomposition(sys, "second")

    for i in range(d + 1):
        if sum_of(u[: i + 1], n) != sum_of(udd[: i + 1], n):
            raise SplitStructureError(
                f"prefix sums of the two split decompositions differ at {i}"
            )

    kspaces = compute_K_spaces(sys)
    if kspaces[0] != sys.eigstar.eigenspaces[0] or kspaces[0] != u[0]:
        raise SplitStructureError("K_0 != E*_0 V = U_0")
    for i, k in enumerate(kspaces):
        if k != subspace_intersect(u[i], udd[i]):
            raise SplitStructureError(f"K_{i} != U_{i} ∩ U_{i}↓")

    cells = refined_decomposition(sys, u, kspaces)
    kop = build_K(sys, u)
    bop = build_B(sys, udd)
    return SplitApparatus(u, udd, kspaces, cells, kop, bop)


def verify_minpoly_on_MKi(
    sys: TDSystemInstance, apparatus: SplitApparatus, i: int
) -> CheckResult:
    """tau_{i, d-i+1} annihilates MK_i while tau_{i, d-i} does not kill K_i."""
    theta = sys.eig.eigenvalues
    d = sys.d
    k = apparatus.Kspaces[i]
    if k.is_zero():
        raise ValueError(f"K_{i} is zero")
    mk = apparatus.mk_space(i)
    annihilator = eval_factored_poly(sys.A, theta[i : d - i + 1])
    killed = annihilator * mk.basis
    shorter = eval_factored_poly(sys.A, theta[i : d - i])
    survives = not (shorter * k.basis).is_zero()
    ok = killed.is_zero() and survives
    return CheckResult(
        f"lem.minpoly.MK{i}",
        "minimal polynomial of A on MK_i is the factored product of length d-2i+1",
        ok,
        None if ok else killed,
    )
