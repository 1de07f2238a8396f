"""Tridiagonal systems of q-Racah type as exact rational matrices.

A validated instance carries the pair (A, A*), the q-Racah parameter
quadruple (d, q, a, b), and the eigendata (eigenvalues, eigenspaces,
primitive idempotents) of both matrices in their standard orderings.

Validation builds the eigendata once, in the q-Racah ordering, and
requires every eigenspace E_i V and E*_i V to be nonzero; it then checks
axioms (i)-(iii) and, only if they hold, the word closure for (iv).  No
scan over other orderings is needed: if (ii) and (iv) hold and
E_{i+1} A* E_i = 0 for some i < d, then W = E_0 V + ... + E_i V is invariant
under A and A*, and it is a proper nonzero subspace because E_0 V and
E_d V are nonzero, against irreducibility.  So A* links every consecutive
pair of eigenspaces, and only the standard ordering and its reversal are
tridiagonal; dually for A on the E*_i.  Without the nonzero premise the
argument fails: with E_0 = 0, the ordering (1, ..., d, 0) is tridiagonal
as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .linalg import Matrix, Rational, Subspace, algebra_dim, rat
from .report import CheckResult, VerificationReport


class ParameterError(ValueError):
    """A q-Racah parameter constraint is violated."""


class NotDiagonalizableError(ValueError):
    pass


class NotTDSystemError(ValueError):
    pass


@dataclass(frozen=True)
class QRacahParams:
    d: int
    q: Rational
    a: Rational
    b: Rational

    def __post_init__(self):
        if self.d < 1:
            raise ParameterError("diameter d must be a positive integer")
        q, a, b = self.q, self.a, self.b
        if q == 0 or a == 0 or b == 0:
            raise ParameterError("q, a, b must be nonzero")
        if q**4 == 1:
            raise ParameterError("q^4 = 1 is degenerate")
        for i in range(1, self.d + 1):
            if q ** (2 * i) == 1:
                raise ParameterError(f"q^{2 * i} = 1 is degenerate for d = {self.d}")
        forbidden = {q ** (2 * self.d - 2 - 2 * k) for k in range(2 * self.d - 1)}
        if a * a in forbidden:
            raise ParameterError(
                "a^2 lies in {q^(2d-2), q^(2d-4), ..., q^(2-2d)}: "
                "eigenvalues would collide"
            )
        if b * b in forbidden:
            raise ParameterError(
                "b^2 lies in {q^(2d-2), q^(2d-4), ..., q^(2-2d)}: "
                "dual eigenvalues would collide"
            )

    def inverted_a(self) -> "QRacahParams":
        return QRacahParams(self.d, self.q, 1 / self.a, self.b)


def qracah_eigenvalues(params: QRacahParams) -> tuple:
    """Eigenvalue sequences theta_i = a q^(d-2i) + a^-1 q^(2i-d), dually with b."""
    d, q = params.d, params.q
    theta = tuple(
        params.a * q ** (d - 2 * i) + q ** (2 * i - d) / params.a
        for i in range(d + 1)
    )
    theta_star = tuple(
        params.b * q ** (d - 2 * i) + q ** (2 * i - d) / params.b
        for i in range(d + 1)
    )
    for seq, name in ((theta, "eigenvalue"), (theta_star, "dual eigenvalue")):
        if len(set(seq)) != d + 1:
            raise ParameterError(f"{name} sequence is not mutually distinct")
    return theta, theta_star


@dataclass(frozen=True)
class EigenData:
    eigenvalues: tuple
    eigenspaces: tuple
    idempotents: tuple

    @property
    def d(self) -> int:
        return len(self.eigenvalues) - 1

    def reversed(self) -> "EigenData":
        return EigenData(
            tuple(reversed(self.eigenvalues)),
            tuple(reversed(self.eigenspaces)),
            tuple(reversed(self.idempotents)),
        )


def build_eigendata(m: Matrix, eigenvalues: Sequence) -> EigenData:
    """Eigenspaces and primitive idempotents of m for the given spectrum.

    Eigenspaces come from exact kernels of (m - theta I); idempotents from
    the Lagrange product formula.  Raises when some eigenvalue has no
    eigenvector or the eigenspace dimensions do not sum to the ambient
    dimension.
    """
    if not m.is_square():
        raise ValueError("matrix must be square")
    evs = tuple(rat(t) for t in eigenvalues)
    if len(set(evs)) != len(evs):
        raise ValueError("eigenvalues must be mutually distinct")
    n = m.rows
    eye = Matrix.identity(n)

    spaces = []
    for t in evs:
        ker = (m - t * eye).kernel()
        spaces.append(Subspace.from_columns(n, ker))
        if spaces[-1].is_zero():
            raise NotDiagonalizableError(f"{t} is not an eigenvalue")
    if sum(s.dim for s in spaces) != n:
        raise NotDiagonalizableError("not diagonalizable with the given spectrum")

    idempotents = []
    for i, ti in enumerate(evs):
        e = eye
        for j, tj in enumerate(evs):
            if j != i:
                e = e * (m - tj * eye) * (1 / (ti - tj))
        idempotents.append(e)

    data = EigenData(evs, tuple(spaces), tuple(idempotents))
    _verify_eigendata(m, data)
    return data


def _verify_eigendata(m: Matrix, data: EigenData):
    n = m.rows
    eye = Matrix.identity(n)
    total = Matrix.zeros(n, n)
    recon = Matrix.zeros(n, n)
    for i, (t, e) in enumerate(zip(data.eigenvalues, data.idempotents)):
        for j, e2 in enumerate(data.idempotents):
            prod = e * e2
            if not (prod == e if i == j else prod.is_zero()):
                raise NotDiagonalizableError("idempotent orthogonality failed")
        if m * e != t * e:
            raise NotDiagonalizableError("A E_i != theta_i E_i")
        if data.eigenspaces[i] != Subspace.from_columns(n, e):
            raise NotDiagonalizableError("idempotent image differs from eigenspace")
        total = total + e
        recon = recon + t * e
    if total != eye:
        raise NotDiagonalizableError("idempotents do not sum to the identity")
    if recon != m:
        raise NotDiagonalizableError("spectral reconstruction failed")


@dataclass(frozen=True)
class TDSystemInstance:
    params: QRacahParams
    A: Matrix
    Astar: Matrix
    eig: EigenData
    eigstar: EigenData

    @property
    def dim(self) -> int:
        return self.A.rows

    @property
    def d(self) -> int:
        return self.params.d


def _tridiagonal_ok(op: Matrix, idempotents: Sequence[Matrix]) -> tuple:
    """Check E_j op E_i = 0 for |i - j| > 1; returns (ok, witness pair)."""
    n = len(idempotents)
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1 and not (idempotents[j] * op * idempotents[i]).is_zero():
                return False, (i, j)
    return True, None


def verify_td_axioms(
    a: Matrix, astar: Matrix, eig: EigenData, eigstar: EigenData
) -> VerificationReport:
    """Check the four tridiagonal-pair axioms for the given orderings.

    Failures are report entries carrying a witness, not exceptions.
    Axiom (iv) is recorded only when (i)-(iii) passed.
    """
    report = VerificationReport()
    n = a.rows
    ok_diag = sum(s.dim for s in eig.eigenspaces) == n
    ok_diag_star = sum(s.dim for s in eigstar.eigenspaces) == n
    report.record("axiom.i.A", "diagonalizability of A", ok_diag)
    report.record("axiom.i.Astar", "diagonalizability of A*", ok_diag_star)

    ok, pair = _tridiagonal_ok(astar, eig.idempotents)
    report.record(
        "axiom.ii",
        "A* acts block-tridiagonally on the A-eigenspace ordering",
        ok,
        None
        if ok
        else eig.idempotents[pair[1]] * astar * eig.idempotents[pair[0]],
    )
    ok, pair = _tridiagonal_ok(a, eigstar.idempotents)
    report.record(
        "axiom.iii",
        "A acts block-tridiagonally on the A*-eigenspace ordering",
        ok,
        None
        if ok
        else eigstar.idempotents[pair[1]] * a * eigstar.idempotents[pair[0]],
    )

    # The closure is by far the dearest check: run it only on a pair that
    # passed (i)-(iii), so that rejection stays fast.
    if report.all_passed:
        report.record(
            "axiom.iv",
            "no common invariant subspace (word closure reaches dim n^2)",
            algebra_dim((a, astar)) == n * n,
        )
    return report


def find_standard_orderings(
    a: Matrix, astar: Matrix, params: QRacahParams
) -> tuple:
    """Eigendata of a and astar in the standard q-Racah orderings.

    Returns (eig, eigstar), the eigenvalues ordered by the q-Racah
    formulas; every eigenvalue must have an eigenvector.  Other orderings
    need no scan: with every eigenspace nonzero and the axioms holding,
    only this ordering and its reversal are tridiagonal (see the module
    docstring), and `verify_td_axioms` checks the axioms afterwards.
    """
    theta, theta_star = qracah_eigenvalues(params)
    try:
        return build_eigendata(a, theta), build_eigendata(astar, theta_star)
    except (NotDiagonalizableError, ValueError) as exc:
        raise NotTDSystemError(
            f"not a TD system for these parameters: {exc}"
        ) from exc


def make_instance(a: Matrix, astar: Matrix, params: QRacahParams) -> TDSystemInstance:
    """Validate (a, astar) as a TD system of q-Racah type.

    Checks in order of cost: eigendata, axioms (i)-(iii), word closure.
    """
    eig, eigstar = find_standard_orderings(a, astar, params)
    report = verify_td_axioms(a, astar, eig, eigstar)
    if not report.all_passed:
        failed = ", ".join(e.check_id for e in report.failures)
        raise NotTDSystemError(f"TD axioms failed: {failed}")
    return TDSystemInstance(params, a, astar, eig, eigstar)


def second_inversion(sys: TDSystemInstance) -> TDSystemInstance:
    """Reverse the A-eigenspace ordering; a becomes a^-1 in the formulas."""
    return TDSystemInstance(
        sys.params.inverted_a(),
        sys.A,
        sys.Astar,
        sys.eig.reversed(),
        sys.eigstar,
    )
