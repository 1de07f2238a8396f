"""Quantum sl2 machinery: relation checking, the irreducible reference
models L(n, 1), and the decomposition of the two module structures carried
by a validated instance into them.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Matrix, combine, is_direct_sum
from .record import Record
from .report import ConsistencyError, VerificationReport
from .split import SplitApparatus
from .tdsystem import TDSystemInstance


class ModuleError(ConsistencyError):
    pass


def q_int(n: int, q: Fraction) -> Fraction:
    """[n]_q = (q^n - q^-n) / (q - q^-1)."""
    return (q**n - q**-n) / (q - 1 / q)


def q_factorial(n: int, q: Fraction) -> Fraction:
    total = Fraction(1)
    for i in range(1, n + 1):
        total *= q_int(i, q)
    return total


class UqAction(Record):
    """Matrices for the Chevalley generators e, f, k, k^-1."""

    __slots__ = _fields = ("e", "f", "k", "kinv", "q")

    @property
    def dim(self) -> int:
        return self.k.rows


def casimir_of(action: UqAction) -> Matrix:
    q = action.q
    return combine(
        ((q - 1 / q) ** 2, action.e * action.f), (1 / q, action.k), (q, action.kinv)
    )


def verify_uq_relations(
    action: UqAction, prefix: str = "uq", report: VerificationReport | None = None
) -> VerificationReport:
    """Exact check of the defining relations plus their cubic consequences,
    recorded under `prefix` into `report` (a new one if not given)."""
    report = VerificationReport() if report is None else report
    e, f, k, kinv, q = action.e, action.f, action.k, action.kinv, action.q
    eye = Matrix.identity(action.dim)
    qi = 1 / q
    c = 1 / (q - qi)
    w = q * q + qi * qi
    ef, fe = e * f, f * e
    lam = casimir_of(action)
    report.run((
        (f"{prefix}.kkinv", "k k^-1 = k^-1 k = I",
         lambda: combine((1, k * kinv), (1, kinv * k), (-2, eye))),
        (f"{prefix}.kek", "k e k^-1 = q^2 e", lambda: combine((1, k * e * kinv), (-q * q, e))),
        (f"{prefix}.kfk", "k f k^-1 = q^-2 f",
         lambda: combine((1, k * f * kinv), (-qi * qi, f))),
        (f"{prefix}.ef", "ef - fe = (k - k^-1) / (q - q^-1)",
         lambda: combine((1, ef), (-1, fe), (-c, k), (c, kinv))),
        (f"{prefix}.f2e", "f^2 e - (q^2 + q^-2) fef + ef^2 = -Lambda f",
         lambda: combine((1, f * fe), (-w, fe * f), (1, ef * f), (1, lam * f))),
        (f"{prefix}.e2f", "e^2 f - (q^2 + q^-2) efe + fe^2 = -Lambda e",
         lambda: combine((1, e * ef), (-w, ef * e), (1, fe * e), (1, lam * e))),
    ))
    return report


def build_L_model(n: int, q: Fraction) -> UqAction:
    """The action on the (n+1)-dimensional irreducible module L(n, 1), in
    its basis v_0 .. v_n.

    The closed form satisfies the defining relations, with Casimir scalar
    q^(n+1) + q^(-n-1), for every n and q that pass the guard; tests keep
    both as an oracle.  The guard is q^(2i) != 1 for 1 <= i <= n, which
    over Q, whose only roots of unity are 1 and -1, is q^2 != 1.
    """
    if n > 0 and q * q == 1:
        raise ValueError(f"q^2 = 1: L({n}, 1) would be reducible")
    dim = n + 1
    e_rows = [[Fraction(0)] * dim for _ in range(dim)]
    f_rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(1, n + 1):
        e_rows[i - 1][i] = q_int(n + 1 - i, q)
    for i in range(n):
        f_rows[i + 1][i] = q_int(i + 1, q)
    weights = [q ** (n - 2 * i) for i in range(dim)]
    return UqAction(Matrix(e_rows), Matrix(f_rows), Matrix.diagonal(weights),
                    Matrix.diagonal([1 / x for x in weights]), q)


class Component(Record):
    """One homogeneous component MK_i, the sum of `multiplicity` copies of
    L(`label`, 1)."""

    __slots__ = _fields = ("i", "label", "multiplicity", "space", "casimir_scalar")


class ModuleDecomposition(Record):
    __slots__ = _fields = ("components",)


def decompose_into_components(
    action: UqAction, sys: TDSystemInstance, apparatus: SplitApparatus
) -> ModuleDecomposition:
    """Decompose one of the two module structures into irreducibles.

    For each seed vector v in K_i, the basis v_j = gamma_j^-1 tau(A) v
    (gamma_j = (q - q^-1)^j [j]_q!) must carry e, f and k exactly as the
    model L(d-2i, 1) does; the components MK_i must direct-sum to V.
    tau(A) v is the column of v in the image of cell (i, i + j).

    No weight space is computed, since none could fail once these checks
    pass.  The cells decompose V, so the seed bases together are a basis
    of V.  On it k is diagonal, with eigenvalue q^(d-2i-2j) on v_j, and
    ker e is spanned by the v_0, which span the K_i.  So the weight spaces
    of k exhaust V, and the highest weight spaces are the K_i; tests keep
    the weight decomposition as an oracle.
    """
    d, q = sys.d, sys.params.q
    gammas = [((q - 1 / q) ** j) * q_factorial(j, q) for j in range(d + 1)]
    components = []
    for i, kspace in enumerate(apparatus.Kspaces):
        if kspace.is_zero():
            continue
        label = d - 2 * i
        model = build_L_model(label, q)
        for col in range(kspace.dim):
            basis = Matrix.from_columns(
                tuple(x / gammas[j] for x in apparatus.cells[(i, i + j)].image.col(col))
                for j in range(label + 1)
            )
            for name in ("e", "f", "k"):
                if getattr(action, name) * basis != basis * getattr(model, name):
                    raise ModuleError(f"{name} does not act as in L({label},1)")
        components.append(Component(i, label, kspace.dim, apparatus.MK[i],
                                    q ** (label + 1) + q ** (-label - 1)))

    if not components or not is_direct_sum([c.space for c in components]):
        raise ModuleError("components do not direct-sum to the whole space")
    return ModuleDecomposition(tuple(components))


def first_structure(
    sys: TDSystemInstance, apparatus: SplitApparatus, r: Matrix, psi: Matrix
) -> UqAction:
    """e = (q - q^-1)^-1 psi, f = (q - q^-1)^-1 R, k = K."""
    q = sys.params.q
    scale = 1 / (q - 1 / q)
    return UqAction(scale * psi, scale * r, apparatus.Kop, apparatus.Kinv, q)


def second_structure(
    sys: TDSystemInstance, apparatus: SplitApparatus, rdd: Matrix, psi: Matrix
) -> UqAction:
    """e = (q - q^-1)^-1 psi, f = (q - q^-1)^-1 R↓, k = B."""
    q = sys.params.q
    scale = 1 / (q - 1 / q)
    return UqAction(scale * psi, scale * rdd, apparatus.Bop, apparatus.Binv, q)
