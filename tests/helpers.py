"""Helpers shared by the test modules."""

import importlib.util
import random
from fractions import Fraction
from math import prod
from pathlib import Path

from tdlab import forge
from tdlab.linalg import (
    Matrix,
    Subspace,
    _kernel_from_echelon,
    rat,
    rref,
    subspace_intersect,
    sum_of,
)
from tdlab.tdsystem import EigenData, QRacahParams, TDSystemInstance
from tdlab.uqsl2 import UqAction, build_L_model, q_factorial

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


def leonard(d):
    """The validated split-form Leonard pair at (q, a, b) = (2, 3, 5), phi_1 = 1."""
    p = QRacahParams(d, Fraction(2), Fraction(3), Fraction(5))
    return forge.validate(forge.build_split_form(p, forge.leonard_phi(p)), p)


def unimodular(n, seed) -> Matrix:
    """P = LU for unit lower and upper triangular L and U whose other
    entries are drawn from -2..2 with the given seed."""
    rng = random.Random(seed)
    lower = [[1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(n)]
             for i in range(n)]
    return Matrix(lower) * Matrix(upper)


def conjugate(system, p):
    """The pair P A P^-1, P A* P^-1 of `system`, validated afresh."""
    pinv = p.inverse()
    return forge.validate((p * system.A * pinv, p * system.Astar * pinv), system.params)


def column(entries) -> Matrix:
    """The column vector of `entries`; an empty one has shape (0, 1)."""
    return Matrix.from_columns([entries]) if len(entries) else Matrix.zeros(0, 1)


def span(n, *vectors) -> Subspace:
    """The subspace of Q^n spanned by the given vectors."""
    return Subspace.from_columns(Matrix.from_columns(vectors))


def whole(n) -> Subspace:
    """All of Q^n."""
    return Subspace.from_columns(Matrix.identity(n))


def contains(s: Subspace, t: Subspace) -> bool:
    """t lies in s: s + t is s, compared in canonical form (the oracle for
    `Subspace.holds`)."""
    return sum_of((s, t)) == s


def kspaces_by_lemma(sys: TDSystemInstance) -> tuple:
    """K_i = (E*_0 V + ... + E*_i V) ∩ (E_i V + ... + E_{d-i} V) for
    0 <= i <= d/2, each sum formed afresh from the eigenspaces: the lemma
    that the apparatus's K_i = U_i ∩ U_i↓ must agree with."""
    d, star, plain = sys.d, sys.eigstar.eigenspaces, sys.eig.eigenspaces
    return tuple(subspace_intersect(sum_of(star[:i + 1]), sum_of(plain[i:d - i + 1]))
                 for i in range(d // 2 + 1))


def second_inversion(sys: TDSystemInstance) -> TDSystemInstance:
    """Reverse the A-eigenspace ordering; a becomes a^-1 in the formulas."""
    p, eig = sys.params, sys.eig
    return TDSystemInstance(
        QRacahParams(p.d, p.q, 1 / p.a, p.b), sys.A, sys.Astar,
        EigenData(eig.eigenvalues[::-1], eig.eigenspaces[::-1], eig.factors[::-1]),
        sys.eigstar)


def L_model(n, eps, q) -> UqAction:
    """L(n, eps): the library's L(n, 1), and for eps = -1 its twist by the
    automorphism e -> -e, f -> f, k -> -k of U_q(sl2)."""
    action = build_L_model(n, q)
    if eps == 1:
        return action
    return UqAction(-action.e, action.f, -action.k, -action.kinv, q)


def seed_bases(sys, apparatus) -> list:
    """(i, basis) for each seed column v of each K_i, as
    `decompose_into_components` builds them: column j of the basis is
    gamma_j^-1 tau(A) v, the column of v in the image of cell (i, i + j),
    with gamma_j = (q - q^-1)^j [j]_q!."""
    d, q = sys.d, sys.params.q
    return [(i, Matrix.from_columns(
                tuple(x / ((q - 1 / q) ** j * q_factorial(j, q))
                      for x in apparatus.cells[(i, i + j)].image.col(col))
                for j in range(d - 2 * i + 1)))
            for i, k in enumerate(apparatus.Kspaces) for col in range(k.dim)]


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
        space = Subspace.from_columns(ker)
        weight_spaces[lam] = space
        total += space.dim
        if space.dim == 0:
            highest[lam] = space
            continue
        inner = (action.e * space.basis).kernel()
        highest[lam] = (
            Subspace.from_columns(space.basis * inner)
            if inner.cols
            else Subspace.zero(n)
        )
    if total != n:
        raise ValueError("supplied weights do not exhaust the space")
    return weight_spaces, highest


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


def commutant_oracle(r: Matrix, c: Matrix, annihilated) -> tuple:
    """(a solution or None, freedom) of {XR - RX = C, X S = 0 for S in
    annihilated}, as one dense linear system in the n^2 entries of X.

    The equations for entry (i, j) of XR - RX = C are scaled by the
    denominators of R and C, and those of X v = 0 by the denominator of v.
    """
    n = r.rows
    rn, cn = r._n, c._n
    rs, cs = r._d, c._d
    rows, rhs = [], []
    for i in range(n):
        for j in range(n):
            coeff = [0] * (n * n)
            for k in range(n):
                coeff[i * n + k] += rn[k][j] * cs
                coeff[k * n + j] -= rn[i][k] * cs
            rows.append(coeff)
            rhs.append([cn[i][j] * rs])
    for space in annihilated:
        for v in zip(*space.basis._n):
            for i in range(n):
                coeff = [0] * (n * n)
                coeff[i * n:(i + 1) * n] = v
                rows.append(coeff)
                rhs.append([0])
    solved = solve_linear(Matrix._of(len(rows), n * n, rows, 1),
                          Matrix._of(len(rhs), 1, rhs, 1))
    if solved is None:
        return None, 0
    particular, ker = solved
    xn = [[particular._n[i * n + k][0] for k in range(n)] for i in range(n)]
    return Matrix._of(n, n, xn, particular._d), ker.cols
