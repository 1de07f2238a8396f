"""Quantum sl2 machinery: relation checking, the irreducible reference
models L(n, eps), weight theory, and decomposition of the two module
structures carried by a validated instance.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Matrix, Subspace, combine, is_direct_sum
from .record import Record, setfield
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

    def __init__(self, e: Matrix, f: Matrix, k: Matrix, kinv: Matrix, q: Fraction):
        setfield(self, "e", e)
        setfield(self, "f", f)
        setfield(self, "k", k)
        setfield(self, "kinv", kinv)
        setfield(self, "q", q)

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


class IrreducibleModel(Record):
    """The (n+1)-dimensional irreducible module L(n, eps) in its v-basis."""

    __slots__ = _fields = ("n", "epsilon", "action")

    def __init__(self, n: int, epsilon: int, action: UqAction):
        setfield(self, "n", n)
        setfield(self, "epsilon", epsilon)
        setfield(self, "action", action)


def build_L_model(n: int, epsilon: int, q: Fraction) -> IrreducibleModel:
    """Explicit matrices for L(n, eps) in the basis v_0 .. v_n.

    The closed form satisfies the defining relations, with Casimir scalar
    eps (q^(n+1) + q^(-n-1)), for every n, eps and q that pass the guards;
    tests keep both as an oracle.
    """
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    for i in range(1, n + 1):
        if q ** (2 * i) == 1:
            raise ValueError(f"q^{2 * i} = 1: L({n}, {epsilon}) would be reducible")
    dim = n + 1
    e_rows = [[Fraction(0)] * dim for _ in range(dim)]
    f_rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(1, n + 1):
        e_rows[i - 1][i] = epsilon * q_int(n + 1 - i, q)
    for i in range(n):
        f_rows[i + 1][i] = q_int(i + 1, q)
    e, f = Matrix(e_rows), Matrix(f_rows)
    weights = [epsilon * q ** (n - 2 * i) for i in range(dim)]
    k, kinv = Matrix.diagonal(weights), Matrix.diagonal([1 / x for x in weights])
    return IrreducibleModel(n, epsilon, UqAction(e, f, k, kinv, q))


def weight_decomposition(action: UqAction, weights) -> tuple:
    """Weight spaces (eigenspaces of k) and highest weight spaces within them.

    `weights` supplies the known spectrum of k; no eigenvalue discovery
    is attempted.  Returns (weights map, highest weight spaces map).
    """
    n = action.dim
    eye = Matrix.identity(n)
    weight_spaces: dict = {}
    highest: dict = {}
    total = 0
    for lam in weights:
        if lam in weight_spaces:
            continue
        ker = (action.k - lam * eye).kernel()
        space = Subspace.from_columns(n, ker)
        weight_spaces[lam] = space
        total += space.dim
        if space.dim == 0:
            highest[lam] = space
            continue
        inner = (action.e * space.basis).kernel()
        highest[lam] = (
            Subspace.from_columns(n, space.basis * inner)
            if inner.cols
            else Subspace.zero(n)
        )
    if total != n:
        raise ModuleError("supplied weights do not exhaust the space")
    return weight_spaces, highest


class Component(Record):
    """One homogeneous component MK_i with explicit per-seed bases.

    `label` is the n of L(n, 1); `bases` holds one Matrix of basis columns
    v_0 .. v_n per seed vector.
    """

    __slots__ = _fields = ("i", "label", "multiplicity", "space", "bases",
                           "casimir_scalar")

    def __init__(self, i: int, label: int, multiplicity: int, space: Subspace,
                 bases: tuple, casimir_scalar: Fraction):
        setfield(self, "i", i)
        setfield(self, "label", label)
        setfield(self, "multiplicity", multiplicity)
        setfield(self, "space", space)
        setfield(self, "bases", bases)
        setfield(self, "casimir_scalar", casimir_scalar)


class ModuleDecomposition(Record):
    __slots__ = _fields = ("weights", "highest_weight_spaces", "components")

    def __init__(self, weights: dict, highest_weight_spaces: dict, components: tuple):
        setfield(self, "weights", weights)
        setfield(self, "highest_weight_spaces", highest_weight_spaces)
        setfield(self, "components", components)


def decompose_into_components(
    action: UqAction, sys: TDSystemInstance, apparatus: SplitApparatus
) -> ModuleDecomposition:
    """Decompose one of the two module structures into irreducibles.

    For each seed vector v in K_i, the basis v_j = gamma_j^-1 tau(A) v
    (gamma_j = (q - q^-1)^j [j]_q!) must carry e, f and k exactly as the
    model L(d-2i, 1) does; the components MK_i must direct-sum to V.
    tau(A) v is the column of v in the image of cell (i, i + j).
    """
    d, n, q = sys.d, sys.dim, sys.params.q
    weights = [q ** (d - 2 * i) for i in range(d + 1)]
    gammas = [((q - 1 / q) ** j) * q_factorial(j, q) for j in range(d + 1)]
    weight_spaces, highest = weight_decomposition(action, weights)

    components = []
    for i, kspace in enumerate(apparatus.Kspaces):
        if kspace.is_zero():
            continue
        label = d - 2 * i
        model = build_L_model(label, 1, q).action
        seed_bases = []
        for col in range(kspace.dim):
            basis = Matrix.from_columns(
                tuple(x / gammas[j] for x in apparatus.cells[(i, i + j)].image.col(col))
                for j in range(label + 1)
            )
            for name in ("e", "f", "k"):
                if getattr(action, name) * basis != basis * getattr(model, name):
                    raise ModuleError(f"{name} does not act as in L({label},1)")
            seed_bases.append(basis)
        components.append(
            Component(
                i,
                label,
                kspace.dim,
                apparatus.MK[i],
                tuple(seed_bases),
                q ** (label + 1) + q ** (-label - 1),
            )
        )

    if not is_direct_sum([c.space for c in components], n):
        raise ModuleError("components do not direct-sum to the whole space")
    return ModuleDecomposition(weight_spaces, highest, tuple(components))


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
