"""Tridiagonal systems of q-Racah type as exact rational matrices.

A validated instance carries the pair (A, A*), the q-Racah parameter
quadruple (d, q, a, b), and the eigendata (eigenvalues, eigenspaces,
primitive idempotents) of both matrices in their standard orderings.

Validation builds the eigendata once, in the q-Racah ordering, and
requires every eigenspace E_i V and E*_i V to be nonzero; it then checks
axioms (i)-(iii) and, only if they hold, (iv).  No scan over other
orderings is needed: if (ii) and (iv) hold and E_{i+1} A* E_i = 0 for some
i < d, then E_0 V + ... + E_i V is invariant under A and A*, and it is
proper and nonzero because E_0 V and E_d V are nonzero.  So only the
standard ordering and its reversal are tridiagonal; dually for A on the
E*_i.  Without the nonzero premise the argument fails: with E_0 = 0, the
ordering (1, ..., d, 0) is tridiagonal as well.

Axiom (iv) is Norton's irreducibility test from the MeatAxe (Parker 1984;
Holt and Rees, J. Austral. Math. Soc. 1994) for theta = A - theta_0 I:
ker theta = E_0 V, and the rows of E_0 span the w with w theta = 0.  A
proper invariant W != 0 meets ker theta, and a spin from there stays in W,
or else theta V contains W, so each such w and its spin vanish on W.  So V
is irreducible when rho_0 = dim E_0 V = 1, E_0 V spins to V under A and A*,
and the rows of E_0 spin to all rows under right multiplication.  No
dimension changes over the algebraic closure, so V is irreducible there
too: by Burnside's theorem, the word closure of A and A* has dimension n^2.
Conversely, such a V spins from any nonzero vector.  With rho_0 > 1 the
pair is refused at once: irreducible over the algebraic closure, it would
be a TD pair there, hence sharp, rho_0 = 1 (Nomura and Terwilliger, Linear
Algebra Appl. 2008); so its word closure is below n^2 as well.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import prod

from .linalg import Matrix, Rational, Subspace, combine, rat, spin_dim
from .record import Record, setfield
from .report import VerificationReport


class ParameterError(ValueError):
    """A q-Racah parameter constraint is violated."""


class NotDiagonalizableError(ValueError):
    pass


class NotTDSystemError(ValueError):
    pass


class QRacahParams(Record):
    __slots__ = _fields = ("d", "q", "a", "b")

    def __init__(self, d: int, q: Rational, a: Rational, b: Rational):
        setfield(self, "d", d)
        setfield(self, "q", q)
        setfield(self, "a", a)
        setfield(self, "b", b)
        if d < 1:
            raise ParameterError("diameter d must be a positive integer")
        if q == 0 or a == 0 or b == 0:
            raise ParameterError("q, a, b must be nonzero")
        if q**4 == 1:
            raise ParameterError("q^4 = 1 is degenerate")
        for i in range(1, d + 1):
            if q ** (2 * i) == 1:
                raise ParameterError(f"q^{2 * i} = 1 is degenerate for d = {d}")
        forbidden = {q ** (2 * d - 2 - 2 * k) for k in range(2 * d - 1)}
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


class EigenData(Record):
    __slots__ = _fields = ("eigenvalues", "eigenspaces", "idempotents")

    def __init__(self, eigenvalues: tuple, eigenspaces: tuple, idempotents: tuple):
        setfield(self, "eigenvalues", eigenvalues)
        setfield(self, "eigenspaces", eigenspaces)
        setfield(self, "idempotents", idempotents)

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

    Nothing else needs checking: eigenspaces of distinct eigenvalues are
    independent, so when their dimensions sum to n, m is diagonalizable and
    prod_j (m - theta_j I) = 0.  Then each E_i is killed by m - theta_i I
    and is the identity on its kernel, so E_i V is the eigenspace,
    m E_i = theta_i E_i and E_i E_j = 0 for i != j; the polynomial
    identities sum_i L_i(x) = 1 and sum_i theta_i L_i(x) = x give
    sum_i E_i = I, hence E_i^2 = E_i, and sum_i theta_i E_i = m, all exactly.
    Tests keep these identities as an oracle.
    """
    if not m.is_square():
        raise ValueError("matrix must be square")
    evs = tuple(rat(t) for t in eigenvalues)
    if len(set(evs)) != len(evs):
        raise ValueError("eigenvalues must be mutually distinct")
    n = m.rows
    eye = Matrix.identity(n)
    factors = [combine((1, m), (-t, eye)) for t in evs]

    spaces = []
    for t, f in zip(evs, factors):
        spaces.append(Subspace.from_columns(n, f.kernel()))
        if spaces[-1].is_zero():
            raise NotDiagonalizableError(f"{t} is not an eigenvalue")
    if sum(s.dim for s in spaces) != n:
        raise NotDiagonalizableError("not diagonalizable with the given spectrum")

    # E_i = prod_{j != i} (m - t_j I) / (t_i - t_j): the factors commute, so
    # E_i is the product of the factors before i and of those after it.
    before, after = [eye], [eye]
    for f, g in zip(factors[:-1], reversed(factors[1:])):
        before.append(before[-1] * f)
        after.append(g * after[-1])
    idempotents = [
        lo * hi * (1 / prod(ti - tj for tj in evs if tj != ti))
        for ti, lo, hi in zip(evs, before, reversed(after))
    ]

    return EigenData(evs, tuple(spaces), tuple(idempotents))


class TDSystemInstance(Record):
    __slots__ = _fields = ("params", "A", "Astar", "eig", "eigstar")

    def __init__(self, params: QRacahParams, A: Matrix, Astar: Matrix,
                 eig: EigenData, eigstar: EigenData):
        setfield(self, "params", params)
        setfield(self, "A", A)
        setfield(self, "Astar", Astar)
        setfield(self, "eig", eig)
        setfield(self, "eigstar", eigstar)

    @property
    def dim(self) -> int:
        return self.A.rows

    @property
    def d(self) -> int:
        return self.params.d


def _tridiagonal_ok(op: Matrix, idempotents: Sequence[Matrix]) -> tuple:
    """Check E_j op E_i = 0 for |i - j| > 1; returns (ok, witness pair).

    For idempotents that annihilate each other, E_j (sum_{|k-i|>1} E_k) op E_i
    = E_j op E_i, so one sum and one product per i decide every j; the
    witness j is looked for only when i fails.
    """
    for i, ei in enumerate(idempotents):
        far = [(1, e) for j, e in enumerate(idempotents) if abs(i - j) > 1]
        if far and not (combine(*far) * (op_ei := op * ei)).is_zero():
            j = next(j for j, ej in enumerate(idempotents)
                     if abs(i - j) > 1 and not (ej * op_ei).is_zero())
            return False, (i, j)
    return True, None


def verify_td_axioms(
    a: Matrix, astar: Matrix, eig: EigenData, eigstar: EigenData
) -> VerificationReport:
    """Check the four tridiagonal-pair axioms for the given orderings.

    Failures are report entries carrying a witness, not exceptions.
    Axiom (iv), the dearest, is recorded only when (i)-(iii) passed, so
    that rejection stays fast.
    """
    report = VerificationReport()
    n = a.rows
    for check_id, name, data in (("axiom.i.A", "A", eig),
                                 ("axiom.i.Astar", "A*", eigstar)):
        span = sum(s.dim for s in data.eigenspaces)
        report.record(check_id, f"diagonalizability of {name}", [(span == n, None)],
                      note=f"eigenspaces span {span} of {n} dimensions")

    for check_id, anchor, op, idems, block in (
        ("axiom.ii", "A* acts block-tridiagonally on the A-eigenspace ordering",
         astar, eig.idempotents, "E_{1} A* E_{0} != 0"),
        ("axiom.iii", "A acts block-tridiagonally on the A*-eigenspace ordering",
         a, eigstar.idempotents, "E*_{1} A E*_{0} != 0"),
    ):
        ok, pair = _tridiagonal_ok(op, idems)
        witness = None if ok else idems[pair[1]] * op * idems[pair[0]]
        report.record(check_id, anchor, [(ok, witness)], "" if ok else block.format(*pair))

    if report.all_passed:
        e0, rho0 = eig.idempotents[0], eig.eigenspaces[0].dim
        if rho0 > 1:
            ok, note = False, f"rho_0 = dim E_0 V = {rho0} > 1"
        else:
            col = spin_dim(e0.transpose(), (a.transpose(), astar.transpose()))
            row = spin_dim(e0, (a, astar))
            ok = col == row == n
            note = f"spins from E_0 reach {col} in V and {row} in V*, of {n}"
        report.record("axiom.iv", "no common invariant subspace (Norton's test)",
                      [(ok, None)], note=note)
    return report


def find_standard_orderings(
    a: Matrix, astar: Matrix, params: QRacahParams
) -> tuple:
    """Eigendata of a and astar in the standard q-Racah orderings.

    Returns (eig, eigstar), the eigenvalues ordered by the q-Racah
    formulas; every eigenvalue must have an eigenvector.  No other ordering
    needs a scan (see the module docstring).
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

    Checks in order of cost: eigendata, axioms (i)-(iii), Norton's test (iv).
    """
    eig, eigstar = find_standard_orderings(a, astar, params)
    report = verify_td_axioms(a, astar, eig, eigstar)
    if not report.all_passed:
        failed = ", ".join(f"{e.check_id} ({e.note})" for e in report.failures)
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
