"""Tridiagonal systems of q-Racah type as exact rational matrices.

A validated instance carries the pair (A, A*), the q-Racah parameter
quadruple (d, q, a, b), and the eigendata (eigenvalues, eigenspaces and the
factors m - theta_i I) of both matrices in their standard orderings.

Validation builds the eigendata once, in the q-Racah ordering, and
requires every eigenspace E_i V and E*_i V to be nonzero; it then checks
axioms (i)-(iii) and, only if they hold, (iv).  No scan over other
orderings is needed: if (ii) and (iv) hold and E_{i+1} A* E_i = 0 for some
i < d, then E_0 V + ... + E_i V is invariant under A and A*, and it is
proper and nonzero because E_0 V and E_d V are nonzero.  So only the
standard ordering and its reversal are tridiagonal; dually for A on the
E*_i.  Without the nonzero premise the argument fails: with E_0 = 0, the
ordering (1, ..., d, 0) is tridiagonal as well.

No idempotent E_i is formed.  Axiom (ii) is tested in polynomial form:
(A - theta_{i-1} I)(A - theta_i I)(A - theta_{i+1} I) A* B_i = 0 for each
i, with B_i a basis of E_i V and the out-of-range factors dropped.  This is
exact because A is diagonalizable: the product scales the E_k V part of a
vector by prod (theta_k - theta_l) over the three l, which vanishes only
for |k - i| <= 1.  Axiom (iii) is the dual.  Each test is a few products
of an n x n matrix with an n x rho_i one.

Axiom (iv) is Norton's irreducibility test from the MeatAxe (Parker 1984;
Holt and Rees, J. Austral. Math. Soc. 1994) for theta = A - theta_0 I:
ker theta = E_0 V, and the left kernel of theta is the set of w with
w theta = 0.  A proper invariant W != 0 meets ker theta, and a spin from
there stays in W, or else theta V contains W, so each such w and its spin
vanish on W.  So V is irreducible when rho_0 = dim E_0 V = 1, E_0 V spins
to V under A and A*, and the left kernel of theta spins to all rows under
right multiplication.  (With rho_0 = 1 that left kernel is the row space of
E_0: both are lines, and E_0 theta = 0.)  No dimension changes over the
algebraic closure, so V is irreducible there too: by Burnside's theorem,
the word closure of A and A* has dimension n^2.  Conversely, such a V
spins from any nonzero vector.  With rho_0 > 1 the pair is refused at
once: irreducible over the algebraic closure, it would be a TD pair there,
hence sharp, rho_0 = 1 (Nomura and Terwilliger, Linear Algebra Appl.
2008); so its word closure is below n^2 as well.

The parameters require q^(2i) != 1 for 1 <= i <= d: over Q, whose only
roots of unity are 1 and -1, that is the one test q^2 != 1.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import prod

from .linalg import Matrix, Subspace, combine, rat, spin_dim
from .record import Record
from .report import VerificationReport


class ParameterError(ValueError):
    """A q-Racah parameter constraint is violated."""


class NotDiagonalizableError(ValueError):
    pass


class NotTDSystemError(ValueError):
    pass


class QRacahParams(Record):
    __slots__ = _fields = ("d", "q", "a", "b")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        d, q, a, b = self._values()
        if d < 1:
            raise ParameterError("diameter d must be a positive integer")
        if q == 0 or a == 0 or b == 0:
            raise ParameterError("q, a, b must be nonzero")
        if q * q == 1:  # see the module docstring
            raise ParameterError("q^4 = 1 is degenerate")
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


def qracah_eigenvalues(params: QRacahParams) -> tuple:
    """Eigenvalue sequences theta_i = a q^(d-2i) + a^-1 q^(2i-d), dually with b.

    `QRacahParams` makes them distinct: as q^(2k) != 1 for k <= d, theta_i =
    theta_j with i != j exactly when a^2 = q^(2(i+j)-2d), which it forbids."""
    d, q = params.d, params.q
    theta = tuple(
        params.a * q ** (d - 2 * i) + q ** (2 * i - d) / params.a
        for i in range(d + 1)
    )
    theta_star = tuple(
        params.b * q ** (d - 2 * i) + q ** (2 * i - d) / params.b
        for i in range(d + 1)
    )
    return theta, theta_star


class EigenData(Record):
    __slots__ = _fields = ("eigenvalues", "eigenspaces", "factors")


def build_eigendata(m: Matrix, eigenvalues: Sequence) -> EigenData:
    """Eigenspaces of m for the given spectrum, with the factors m - theta_i I.

    Eigenspaces come from exact kernels of the factors.  Raises when some
    eigenvalue has no eigenvector, naming it by its index (the value may
    have too many digits to print), or when the eigenspace dimensions do
    not sum to the ambient dimension.

    Nothing else needs checking: eigenspaces of distinct eigenvalues are
    independent, so when their dimensions sum to n, m is diagonalizable and
    V is the direct sum of the E_i V.  Then a vector x lies in the sum of
    the E_k V over k in S exactly when prod_{k in S} (m - theta_k I) x = 0,
    since the product scales the E_l V part of x by
    prod_{k in S} (theta_l - theta_k), which vanishes only for l in S.
    """
    if not m.is_square():
        raise ValueError("matrix must be square")
    evs = tuple(rat(t) for t in eigenvalues)
    if len(set(evs)) != len(evs):
        raise ValueError("eigenvalues must be mutually distinct")
    n = m.rows
    eye = Matrix.identity(n)
    factors, spaces = [], []
    for i, t in enumerate(evs):  # a refusal at theta_i forms no later factor
        factors.append(combine((1, m), (-t, eye)))
        spaces.append(Subspace.from_columns(factors[-1].kernel()))
        if spaces[-1].is_zero():
            raise NotDiagonalizableError(f"theta_{i} is not an eigenvalue")
    if sum(s.dim for s in spaces) != n:
        raise NotDiagonalizableError("not diagonalizable with the given spectrum")
    return EigenData(evs, tuple(spaces), tuple(factors))


class TDSystemInstance(Record):
    __slots__ = _fields = ("params", "A", "Astar", "eig", "eigstar")

    @property
    def dim(self) -> int:
        return self.A.rows

    @property
    def d(self) -> int:
        return self.params.d


def _tridiagonal_failure(op: Matrix, data: EigenData) -> tuple | None:
    """The first (i, j, E_j op B_i) with |i - j| > 1 and E_j op E_i != 0,
    where B_i is the basis of E_i V; None when op is block-tridiagonal.

    op E_i V lies in E_{i-1} V + E_i V + E_{i+1} V exactly when the product
    of the factors m - theta_k I, k = i - 1, i, i + 1 in range, kills
    op B_i (see `build_eigendata`).  Only on failure is the first far j
    looked for: the product of every factor but the j-th maps op B_i to
    prod_{k != j} (theta_j - theta_k) E_j op B_i.
    """
    theta, factors = data.eigenvalues, data.factors

    def apply(x, ks):
        for k in ks:
            x = factors[k] * x
        return x

    for i, space in enumerate(data.eigenspaces):
        near = range(max(i - 1, 0), min(i + 2, len(theta)))
        x = apply(op * space.basis, near)
        if not x.is_zero():
            far = [k for k in range(len(theta)) if k not in near]
            j, y = next((j, y) for j in far
                        if not (y := apply(x, [k for k in far if k != j])).is_zero())
            return i, j, y * (1 / prod(theta[j] - t for t in theta if t != theta[j]))
    return None


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

    for check_id, anchor, op, data, block in (
        ("axiom.ii", "A* acts block-tridiagonally on the A-eigenspace ordering",
         astar, eig, "E_{1} A* E_{0} != 0"),
        ("axiom.iii", "A acts block-tridiagonally on the A*-eigenspace ordering",
         a, eigstar, "E*_{1} A E*_{0} != 0"),
    ):
        failure = _tridiagonal_failure(op, data)
        if failure is None:
            report.record(check_id, anchor, [(True, None)])
        else:
            i, j, witness = failure
            report.record(check_id, anchor, [(False, witness)], block.format(i, j))

    if report.all_passed:
        rho0 = eig.eigenspaces[0].dim
        if rho0 > 1:
            ok, note = False, f"rho_0 = dim E_0 V = {rho0} > 1"
        else:
            # E_0 V and the w with w (A - theta_0 I) = 0, as rows.
            col = spin_dim(eig.eigenspaces[0].basis.transpose(),
                           (a.transpose(), astar.transpose()))
            row = spin_dim(eig.factors[0].transpose().kernel().transpose(), (a, astar))
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
    formulas; every eigenvalue must have an eigenvector.  A refusal names
    the matrix.  No other ordering needs a scan (see the module docstring).
    """
    data = []
    for name, m, spectrum in zip(("A", "A*"), (a, astar), qracah_eigenvalues(params)):
        try:
            data.append(build_eigendata(m, spectrum))
        except ValueError as exc:
            raise NotTDSystemError(
                f"not a TD system for these parameters: {name}: {exc}"
            ) from exc
    return tuple(data)


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
