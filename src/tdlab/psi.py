"""The raising maps R, R↓, the double lowering map psi, the Casimir
action, and the exact identity suite relating them to K and B.

psi is constructed twice: once from its action on the refined cells
(canonical) and once as the unique solution X of XR - RX =
(q - q^-1)(K - K^-1) with X K_i = 0 (oracle).  Disagreement between the
two is a hard error.  The solver works along the R-orbits of the K_i:
for a basis B_i of K_i, R^m B_i spans the cell (i, i + m), V is the
direct sum of the cells, and R^(d-2i+1) K_i = 0.  Any solution sends
R^m B_i to y_m, where y_0 = 0 and
y_{m+1} = R y_m + (q - q^-1)(K - K^-1) R^m B_i, so there is at most one,
and there is one exactly when every y_{d-2i+1} is zero.  The solver
checks both at run time, eliminating only the n x n matrix of the orbits.

Construction raises OperatorError only when an operator cannot be built
or its two constructions disagree (exit code 2 on the command line).
`casimir_action` checks nothing: its k k^-1 is K times `K.inverse()`, and
its Casimir forms with ef and with fe differ by psi R - R psi - (q -
q^-1)(K - K^-1), zero as psi solves exactly that equation.  The suite
still records both (`uq.*.kkinv`, `uq.*.ef`, `lem.casimir.act1.*`).
Every identity, including the raising and lowering properties of R, R↓
and psi, is one row of the table in `run_identity_suite`: a check id, an
anchor, and the items that decide it, each a residual or a pass flag with
its witness.  A failing check carries its first failing item as the
witness (exit code 1).
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Matrix, Subspace, combine, solve_commutant_constraint
from .record import Record
from .report import ConsistencyError, VerificationReport
from .split import SplitApparatus
from .tdsystem import TDSystemInstance
from .uqsl2 import UqAction, casimir_of, first_structure


# The first components of every check id in `run_identity_suite`'s table.
TABLE_PREFIXES = ("lem", "eq", "cell", "prop", "thm")


class OperatorError(ConsistencyError):
    """An operator cannot be built, or its two constructions disagree."""


class OperatorSet(Record):
    __slots__ = _fields = ("R", "Rdd", "psi", "Lambda")


def build_R(sys: TDSystemInstance, apparatus: SplitApparatus) -> Matrix:
    """R = A - aK - a^-1 K^-1, the raising map of the first split."""
    a = sys.params.a
    return combine((1, sys.A), (-a, apparatus.Kop), (-1 / a, apparatus.Kinv))


def build_Rdd(sys: TDSystemInstance, apparatus: SplitApparatus) -> Matrix:
    """R↓ = A - a^-1 B - a B^-1, the raising map of the second split."""
    a = sys.params.a
    return combine((1, sys.A), (-1 / a, apparatus.Bop), (-a, apparatus.Binv))


def cell_coefficient(q: Fraction, d: int, i: int, j: int) -> Fraction:
    """The scalar by which the lowering map sends cell (i, j) to (i, j-1)."""
    return (q ** (j - i) - q ** (i - j)) * (
        q ** (d - i - j + 1) - q ** (i + j - d - 1)
    )


def build_psi_from_formula(sys: TDSystemInstance, apparatus: SplitApparatus) -> Matrix:
    """Assemble psi from its defining action on the refined cell basis."""
    d, n, q = sys.d, sys.dim, sys.params.q
    cells = sorted(apparatus.cells.items())
    p = Matrix.hstack(*(cell.image for _, cell in cells))
    target = Matrix.hstack(*(
        Matrix.zeros(n, cell.image.cols) if j == i
        else cell_coefficient(q, d, i, j) * apparatus.cells[(i, j - 1)].image
        for (i, j), cell in cells))
    return target * p.inverse()


def build_psi_from_solver(
    sys: TDSystemInstance, apparatus: SplitApparatus, r: Matrix
) -> Matrix:
    """psi as the unique X with XR - RX = (q - q^-1)(K - K^-1), X K_i = 0,
    read off the R-orbits of the K_i (see the module docstring): unique
    because the orbits form a basis, and existing because its values vanish
    where each orbit ends.  A failure of either is an OperatorError."""
    q = sys.params.q
    c = combine((q - 1 / q, apparatus.Kop), (1 / q - q, apparatus.Kinv))
    try:
        return solve_commutant_constraint(r, c, apparatus.Kspaces)
    except ValueError as exc:
        raise OperatorError(f"lowering-map system is {exc}") from exc


def casimir_action(action: UqAction) -> Matrix:
    """Normalized Casimir action (q - q^-1)^2 ef + q^-1 k + q k^-1
    (`casimir_of`); checks nothing (see the module docstring)."""
    return casimir_of(action)


def build_operator_set(sys: TDSystemInstance, apparatus: SplitApparatus) -> OperatorSet:
    """Build R, R↓, psi (formula, cross-checked by the solver), and Lambda."""
    r = build_R(sys, apparatus)
    rdd = build_Rdd(sys, apparatus)
    psi = build_psi_from_formula(sys, apparatus)
    # The solver also imposes psi K_i = 0, so agreement is more than a
    # recomputation of the formula.
    solved = build_psi_from_solver(sys, apparatus, r)
    if psi != solved:
        diff = [(i, j) for i in range(psi.rows) for j in range(psi.cols)
                if psi[i, j] != solved[i, j]]
        raise OperatorError(
            f"formula and solver constructions of psi disagree at {len(diff)} of "
            f"{psi.rows * psi.cols} entries, first at (row, col) = {diff[0]}"
        )
    lam = casimir_action(first_structure(sys, apparatus, r, psi))
    return OperatorSet(r, rdd, psi, lam)


def run_identity_suite(
    sys: TDSystemInstance,
    apparatus: SplitApparatus,
    ops: OperatorSet,
    report: VerificationReport | None = None,
) -> VerificationReport:
    """Every exact operator identity in scope, one table row each, recorded
    into `report` (a new one if not given).  The products that several rows
    share are formed once, before the table; the rest of a row is formed
    only if the report selects it, and none when it selects no row."""
    report = VerificationReport() if report is None else report
    if not any(map(report.reaches, TABLE_PREFIXES)):
        return report
    d, n = sys.d, sys.dim
    q, a = sys.params.q, sys.params.a
    eye = Matrix.identity(n)
    K, B = apparatus.Kop, apparatus.Bop
    Ki, Bi = apparatus.Kinv, apparatus.Binv
    R, Rdd, psi, lam = ops.R, ops.Rdd, ops.psi, ops.Lambda
    A, theta = sys.A, sys.eig.eigenvalues
    U, Udd = apparatus.U, apparatus.Udd
    qi, ai = 1 / q, 1 / a
    w, w2, c2 = 1 / (q - qi), q * q + qi * qi, (q - qi) ** 2
    c1q, c2q = (ai * q - a * qi) / (q - qi), (a * q - ai * qi) / (q - qi)

    # Products that more than one row uses, each formed once.
    pows = [eye, psi]  # psi^0 .. psi^(d+1)
    for _ in range(d):
        pows.append(pows[-1] * psi)
    psi2 = pows[2]
    psiR, Rpsi, psiRdd, Rddpsi = psi * R, R * psi, psi * Rdd, Rdd * psi
    psiA, Apsi = psi * A, A * psi
    lampsi, lamR, lamRdd, lamA = lam * psi, lam * R, lam * Rdd, lam * A
    KK, BB, KB, BK = K * K, B * B, K * B, B * K
    KiKi, BiBi, KiBi, BiKi = Ki * Ki, Bi * Bi, Ki * Bi, Bi * Ki
    bk, kb, kib, bik = B * Ki, K * Bi, Ki * B, Bi * K
    i_bk, i_kb, i_kib, i_bik = lowering = tuple(combine((1, eye), (-1, m))
                                                for m in (bk, kb, kib, bik))
    a_bk, a_kb = combine((a, eye), (-ai, bk)), combine((ai, eye), (-a, kb))
    a_kib, a_bik = combine((a, eye), (-ai, kib)), combine((ai, eye), (-a, bik))
    # I - c psi and the series sum_{i<=d} c^i psi^i, its inverse.
    lin = {c: combine((1, eye), (-c, psi)) for c in (a * q, ai * q, a * qi, ai * qi)}
    geo = {c: combine((1, eye), *((c**i, pows[i]) for i in range(1, d + 1)))
           for c in lin}
    k_geo, ki_geo = K * geo[ai * qi], Ki * geo[a * q]
    b_geo, bi_geo = B * geo[a * qi], Bi * geo[ai * q]
    family = (psi, bk, kb, kib, bik)
    psiU = [psi * u.basis for u in U]
    zero = Subspace.zero(n)
    # U_0 + ... + U_{i-1} = U_0↓ + ... + U_{i-1}↓ at index i, 0 <= i <= d + 1.
    prefix_u = prefix_udd = (zero,) + apparatus.flag

    def agree(first, *rest):
        """The residual against the first of each later expression that differs."""
        return (m - first for m in rest if m != first)

    # Each row is (check id, anchor, items): a Matrix residual, or items in
    # order, each a residual or an (ok, witness) pair; see `record`.
    report.run((
        # Raising maps on the split decompositions.
        ("lem.RU.first", "R U_i <= U_{i+1}, R U_d = 0", lambda: (
            (t.holds(x := R * s.basis), x) for s, t in zip(U, U[1:] + (zero,)))),
        ("lem.RU.second", "Rdd U_i↓ <= U_{i+1}↓, Rdd U_d↓ = 0", lambda: (
            (t.holds(x := Rdd * s.basis), x) for s, t in zip(Udd, Udd[1:] + (zero,)))),
        ("lem.RonU.first", "R acts on U_i as A - theta_i I", lambda: (
            combine((1, R), (-1, A), (t, eye)) * s.basis for s, t in zip(U, theta))),
        ("lem.RonU.second", "Rdd acts on U_i↓ as A - theta_{d-i} I", lambda: (
            combine((1, Rdd), (-1, A), (t, eye)) * s.basis
            for s, t in zip(Udd, theta[::-1]))),
        ("lem.RU.nilpotent.first", "R^(d+1) = 0", lambda: R ** (d + 1)),
        ("lem.RU.nilpotent.second", "Rdd^(d+1) = 0", lambda: Rdd ** (d + 1)),
        # How K and B straddle the other split decomposition.
        ("lem.KUdd.1", "(B - q^(d-2i) I) U_i <= U_0 + ... + U_{i-1}", lambda: (
            (t.holds(x := combine((1, B), (-(q ** (d - 2 * i)), eye)) * s.basis), x)
            for i, (s, t) in enumerate(zip(U, prefix_u)))),
        ("lem.KUdd.2", "(K - q^(d-2i) I) U_i↓ <= U_0↓ + ... + U_{i-1}↓", lambda: (
            (t.holds(x := combine((1, K), (-(q ** (d - 2 * i)), eye)) * s.basis), x)
            for i, (s, t) in enumerate(zip(Udd, prefix_udd)))),
        # Weyl-type commutation.
        ("lem.KRKinv.1", "K R K^-1 = q^-2 R",
         lambda: combine((1, K * R * Ki), (-qi * qi, R))),
        ("lem.KRKinv.2", "B Rdd B^-1 = q^-2 Rdd",
         lambda: combine((1, B * Rdd * Bi), (-qi * qi, Rdd))),
        ("lem.KpsiKinv.1", "K psi K^-1 = q^2 psi",
         lambda: combine((1, K * psi * Ki), (-q * q, psi))),
        ("lem.KpsiKinv.2", "B psi B^-1 = q^2 psi",
         lambda: combine((1, B * psi * Bi), (-q * q, psi))),
        ("lem.AKqWeyl.1", "(q KA - q^-1 AK) / (q - q^-1) = a K^2 + a^-1 I",
         lambda: combine((w * q, K * A), (-w * qi, A * K), (-a, KK), (-ai, eye))),
        ("lem.AKqWeyl.2", "(q BA - q^-1 AB) / (q - q^-1) = a^-1 B^2 + a I",
         lambda: combine((w * q, B * A), (-w * qi, A * B), (-ai, BB), (-a, eye))),
        # The defining commutators of psi.
        ("eq.psiR", "psi R - R psi = (q - q^-1)(K - K^-1)",
         lambda: combine((1, psiR), (-1, Rpsi), (qi - q, K), (q - qi, Ki))),
        ("eq.psiRdd", "psi Rdd - Rdd psi = (q - q^-1)(B - B^-1)",
         lambda: combine((1, psiRdd), (-1, Rddpsi), (qi - q, B), (q - qi, Bi))),
        ("eq.Rdiff", "Rdd - R = aK + a^-1 K^-1 - a^-1 B - a B^-1",
         lambda: combine((1, Rdd), (-1, R), (-a, K), (-ai, Ki), (ai, B), (a, Bi))),
        # psi lowers both splits and vanishes exactly on the K_i seeds.
        ("lem.psiU.first", "psi U_i <= U_{i-1}, psi U_0 = 0", lambda: (
            (t.holds(x), x) for x, t in zip(psiU, (zero,) + U[:-1]))),
        ("lem.psiU.second", "psi U_i↓ <= U_{i-1}↓, psi U_0↓ = 0", lambda: (
            (t.holds(x := psi * s.basis), x) for s, t in zip(Udd, (zero,) + Udd[:-1]))),
        ("lem.psiU.nilpotent", "psi^(d+1) = 0", lambda: pows[d + 1]),
        ("lem.psiUkernel", "kernel of psi on U_i equals K_i", lambda: (
            (Subspace.from_columns(u.basis * x.kernel()) == k, x)
            for u, x, k in zip(U, psiU, apparatus.Kspaces))),
        # Scalar action on each refined cell: R psi on (i, j) is the lowering
        # coefficient of (i, j), psi R that of (i, j + 1).
        ("cell.Rpsi", "R psi is scalar on each cell (i, j)", lambda: (
            combine((1, Rpsi * c.image), (-cell_coefficient(q, d, i, j), c.image))
            for (i, j), c in sorted(apparatus.cells.items()))),
        ("cell.psiR", "psi R is scalar on each cell (i, j)", lambda: (
            combine((1, psiR * c.image), (-cell_coefficient(q, d, i, j + 1), c.image))
            for (i, j), c in sorted(apparatus.cells.items()))),
        # Casimir action, both structures.
        ("lem.casimir.act1.1", "Lambda = psi R + q^-1 K + q K^-1",
         lambda: combine((1, lam), (-1, psiR), (-qi, K), (-q, Ki))),
        ("lem.casimir.act1.2", "Lambda = R psi + q K + q^-1 K^-1",
         lambda: combine((1, lam), (-1, Rpsi), (-q, K), (-qi, Ki))),
        ("lem.casimir.act2.1", "Lambda = psi Rdd + q^-1 B + q B^-1",
         lambda: combine((1, lam), (-1, psiRdd), (-qi, B), (-q, Bi))),
        ("lem.casimir.act2.2", "Lambda = Rdd psi + q B + q^-1 B^-1",
         lambda: combine((1, lam), (-1, Rddpsi), (-q, B), (-qi, Bi))),
        ("lem.4exp", "the Casimir actions of the two module structures coincide",
         lambda: combine((1, psiR), (qi, K), (q, Ki), (-1, psiRdd), (-qi, B), (-q, Bi))),
        ("lem.cas.comm.psi", "Lambda commutes", lambda: combine((1, lampsi), (-1, psi * lam))),
        ("lem.cas.comm.R", "Lambda commutes", lambda: combine((1, lamR), (-1, R * lam))),
        ("lem.cas.comm.K", "Lambda commutes", lambda: combine((1, lam * K), (-1, K * lam))),
        ("lem.cas.comm.A", "Lambda commutes", lambda: combine((1, lamA), (-1, A * lam))),
        ("lem.cas.comm.Rdd", "Lambda commutes",
         lambda: combine((1, lamRdd), (-1, Rdd * lam))),
        ("lem.cas.comm.B", "Lambda commutes", lambda: combine((1, lam * B), (-1, B * lam))),
        # Cubic q-Serre-like relations.
        ("lem.R2psi.1",
         "R^2 psi - (q^2 + q^-2) R psi R + psi R^2 = -(q - q^-1)^2 Lambda R",
         lambda: combine((1, R * Rpsi), (-w2, Rpsi * R), (1, psiR * R), (c2, lamR))),
        ("lem.R2psi.2",
         "psi^2 R - (q^2 + q^-2) psi R psi + R psi^2 = -(q - q^-1)^2 Lambda psi",
         lambda: combine((1, psi2 * R), (-w2, psiR * psi), (1, R * psi2), (c2, lampsi))),
        ("lem.R2psidd.1",
         "Rdd^2 psi - (q^2 + q^-2) Rdd psi Rdd + psi Rdd^2 = -(q - q^-1)^2 Lambda Rdd",
         lambda: combine((1, Rdd * Rddpsi), (-w2, Rddpsi * Rdd), (1, psiRdd * Rdd),
                         (c2, lamRdd))),
        ("lem.R2psidd.2",
         "psi^2 Rdd - (q^2 + q^-2) psi Rdd psi + Rdd psi^2 = -(q - q^-1)^2 Lambda psi",
         lambda: combine((1, psi2 * Rdd), (-w2, psiRdd * psi), (1, Rdd * psi2),
                         (c2, lampsi))),
        # Lambda is scalar on each homogeneous component.
        ("lem.Ucasaction", "Lambda acts on MK_i as q^(d-2i+1) + q^(2i-d-1)", lambda: (
            combine((1, lam * m.basis), (-(q ** (d - 2 * i + 1) + q ** (2 * i - d - 1)),
                                         m.basis))
            for i, (k, m) in enumerate(zip(apparatus.Kspaces, apparatus.MK))
            if not k.is_zero())),
        # The two structures tied together through psi.
        ("prop.coincide.a", "four expressions coincide", lambda: agree(
            lin[a * q] * K, lin[ai * q] * B, K * lin[a * qi], B * lin[ai * qi])),
        ("prop.coincide.b", "four expressions coincide", lambda: agree(
            lin[ai * qi] * Ki, lin[a * qi] * Bi, Ki * lin[ai * q], Bi * lin[a * q])),
        ("lem.invertible2.1", "(I - c psi)^-1 is the degree-d geometric series in psi",
         lambda: combine((1, lin[a * q] * geo[a * q]), (-1, eye))),
        ("lem.invertible2.2", "(I - c psi)^-1 is the degree-d geometric series in psi",
         lambda: combine((1, lin[ai * q] * geo[ai * q]), (-1, eye))),
        ("lem.invertible2.3", "(I - c psi)^-1 is the degree-d geometric series in psi",
         lambda: combine((1, lin[a * qi] * geo[a * qi]), (-1, eye))),
        ("lem.invertible2.4", "(I - c psi)^-1 is the degree-d geometric series in psi",
         lambda: combine((1, lin[ai * qi] * geo[ai * qi]), (-1, eye))),
        ("thm.BK.1", "B K^-1 (I - a^-1 q psi) = I - a q psi",
         lambda: combine((1, bk * lin[ai * q]), (-1, lin[a * q]))),
        ("thm.BK.2", "K B^-1 (I - a q psi) = I - a^-1 q psi",
         lambda: combine((1, kb * lin[a * q]), (-1, lin[ai * q]))),
        ("thm.BK.3", "K^-1 B (I - a^-1 q^-1 psi) = I - a q^-1 psi",
         lambda: combine((1, kib * lin[ai * qi]), (-1, lin[a * qi]))),
        ("thm.BK.4", "B^-1 K (I - a q^-1 psi) = I - a^-1 q^-1 psi",
         lambda: combine((1, bik * lin[a * qi]), (-1, lin[ai * qi]))),
        ("lem.KBcomm", "psi, BK^-1, KB^-1, K^-1B, B^-1K mutually commute", lambda: (
            combine((1, x * y), (-1, y * x))
            for k, x in enumerate(family) for y in family[k + 1:])),
        ("lem.IKB.maps", "I - BK^-1 (and companions) map U_i into U_0 + ... + U_{i-1}",
         lambda: ((t.holds(x := m * s.basis), x) for m in lowering
                  for s, t in zip(U, prefix_u))),
        ("lem.IKB.nilpotent",
         "I - BK^-1 (and companions) are nilpotent with index <= d + 1",
         lambda: (m ** (d + 1) for m in lowering)),
        ("lem.invertible1", "aI - a^-1 BK^-1 (and companions) are invertible",
         lambda: ((m.rank() == n, None) for m in (a_bk, a_kb, a_kib, a_bik))),
        ("thm.psiequations.1", "psi q (aI - a^-1 BK^-1) = I - BK^-1",
         lambda: combine((q, psi * a_bk), (-1, i_bk))),
        ("thm.psiequations.2", "psi q (a^-1 I - a KB^-1) = I - KB^-1",
         lambda: combine((q, psi * a_kb), (-1, i_kb))),
        ("thm.psiequations.3", "psi (aI - a^-1 K^-1 B) = q (I - K^-1 B)",
         lambda: combine((1, psi * a_kib), (-q, i_kib))),
        ("thm.psiequations.4", "psi (a^-1 I - a B^-1 K) = q (I - B^-1 K)",
         lambda: combine((1, psi * a_bik), (-q, i_bik))),
        ("thm.KBquad", "a K^2 - c1 KB - c2 BK + a^-1 B^2 = 0",
         lambda: combine((a, KK), (-c1q, KB), (-c2q, BK), (ai, BB))),
        ("thm.KBinvquad", "a B^-2 - c1 K^-1 B^-1 - c2 B^-1 K^-1 + a^-1 K^-2 = 0",
         lambda: combine((a, BiBi), (-c1q, KiBi), (-c2q, BiKi), (ai, KiKi))),
        ("lem.KBfactor.1", "q (K - B)(aK - a^-1 B) = q^-1 (aK - a^-1 B)(K - B)",
         lambda: combine((q * a, KK), (-q * ai, KB), (-q * a, BK), (q * ai, BB),
                         (-qi * a, KK), (qi * a, KB), (qi * ai, BK), (-qi * ai, BB))),
        ("lem.KBfactor.2",
         "q (a^-1 K^-1 - a B^-1)(K^-1 - B^-1) = q^-1 (K^-1 - B^-1)(a^-1 K^-1 - a B^-1)",
         lambda: combine((q * ai, KiKi), (-q * ai, KiBi), (-q * a, BiKi), (q * a, BiBi),
                         (-qi * ai, KiKi), (qi * a, KiBi), (qi * ai, BiKi), (-qi * a, BiBi))),
        ("lem.KBfactor.3",
         "q (I - K^-1 B)(aI - a^-1 BK^-1) = q^-1 (aI - a^-1 K^-1 B)(I - BK^-1)",
         lambda: combine((q, i_kib * a_bk), (-qi, a_kib * i_bk))),
        ("lem.KBfactor.4",
         "q (a^-1 I - a KB^-1)(I - B^-1 K) = q^-1 (I - KB^-1)(a^-1 I - a B^-1 K)",
         lambda: combine((q, a_kb * i_bik), (-qi, i_kb * a_bik))),
        ("lem.KKBB1.1", "B = a^2 K + (1 - a^2) K sum a^-i q^-i psi^i",
         lambda: combine((1, B), (-a * a, K), (a * a - 1, k_geo))),
        ("lem.KKBB1.2", "B^-1 = a^-2 K^-1 + (1 - a^-2) K^-1 sum a^i q^i psi^i",
         lambda: combine((1, Bi), (-ai * ai, Ki), (ai * ai - 1, ki_geo))),
        ("lem.KKBB1.3", "Rdd = R + (a - a^-1) sum (a^-i q^-i K - a^i q^i K^-1) psi^i",
         lambda: combine((1, Rdd), (-1, R), (ai - a, k_geo), (a - ai, ki_geo))),
        ("lem.KKBB2.1", "K = a^-2 B + (1 - a^-2) B sum a^i q^-i psi^i",
         lambda: combine((1, K), (-ai * ai, B), (ai * ai - 1, b_geo))),
        ("lem.KKBB2.2", "K^-1 = a^2 B^-1 + (1 - a^2) B^-1 sum a^-i q^i psi^i",
         lambda: combine((1, Ki), (-a * a, Bi), (a * a - 1, bi_geo))),
        ("lem.KKBB2.3", "R = Rdd + (a - a^-1) sum (a^-i q^i B^-1 - a^i q^-i B) psi^i",
         lambda: combine((1, R), (-1, Rdd), (ai - a, bi_geo), (a - ai, b_geo))),
        ("eq.A2psi",
         "A^2 psi - (q^2 + q^-2) A psi A + psi A^2 + (q^2 - q^-2)^2 psi "
         "= -(q - q^-1)^2 Lambda A + (a + a^-1)(q - q^-1)^2 (q + q^-1) I",
         lambda: combine((1, A * Apsi), (-w2, Apsi * A), (1, psiA * A),
                         ((q * q - qi * qi) ** 2, psi), (c2, lamA),
                         (-(a + ai) * c2 * (q + qi), eye))),
        ("eq.psi2A",
         "psi^2 A - (q^2 + q^-2) psi A psi + A psi^2 = -(q - q^-1)^2 Lambda psi",
         lambda: combine((1, psi2 * A), (-w2, psiA * psi), (1, A * psi2), (c2, lampsi))),
    ))
    return report
