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

The eigenspace E_theta V is the kernel of m - theta I.  When m is
triangular with distinct diagonal entries, as A (lower bidiagonal) and A*
(upper bidiagonal) are in split form, it is found by substitution, with no
elimination (`linalg.triangular_kernel`): m - theta I is triangular with at
most one zero on its diagonal, at the k with m[k, k] = theta.  With none it
is invertible.  With one, deleting row and column k leaves a triangular
matrix with a nonzero diagonal, so the kernel is a line; its entries
before k (for a lower m; after k for an upper one) vanish one by one, and
x_k = 1 fixes the rest.  Every other m is eliminated.

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

When every E_i V is a line, spanned by v_i, (iv) needs no spin: it follows
from the neighbour blocks, which the test of (ii) reads at the cost of one
product per i.  As (ii) holds, A* v_i = alpha_i v_{i-1} + beta_i v_i +
gamma_i v_{i+1}.  As the theta_i are distinct, a subspace W invariant under
A is the sum of the lines E_i V it meets, over any extension field too.  If
W is invariant under A* as well and holds v_i, it holds v_{i-1} when
alpha_i != 0 and v_{i+1} when gamma_i != 0.  So when every alpha_i
(i >= 1) and every gamma_i (i < d) is nonzero, the only such W != 0 is V,
and V is irreducible; then every spin reaches n.  (Were some gamma_i = 0,
E_0 V + ... + E_i V would be invariant, and were some alpha_i = 0, E_i V +
... + E_d V would be.)  The test of (ii) forms y = (A - theta_i I) A* v_i
first: (A - theta_{i+1} I) y is a nonzero multiple of alpha_i v_{i-1} plus
the far parts, which vanish as (ii) holds, and (A - theta_{i-1} I) y
likewise of gamma_i v_{i+1}.  Either one times the remaining factor is the
product that decides (ii).  A pair of any other shape, or with a zero
neighbour block, runs Norton's test, whose dimensions word the note of a
refusal.

The parameters require q^(2i) != 1 for 1 <= i <= d: over Q, whose only
roots of unity are 1 and -1, that is the one test q^2 != 1.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import prod

from .linalg import Matrix, Subspace, combine, rat, spin_dim, triangular_kernel
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

    Eigenspaces come from exact kernels of the factors.  When m is
    triangular with distinct diagonal entries, each factor has at most one
    zero on its diagonal, and its kernel is found by substitution
    (`linalg.triangular_kernel`); every other m is eliminated.  Raises when some
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
    side = m.triangle() if len({m[i, i] for i in range(n)}) == n else None
    factors, spaces = [], []
    for i, t in enumerate(evs):  # a refusal at theta_i forms no later factor
        factors.append(combine((1, m), (-t, eye)))
        spaces.append(Subspace.from_columns(factors[-1].kernel()) if side is None
                      else triangular_kernel(factors[-1], side == "lower"))
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


def _tridiagonal_scan(op: Matrix, data: EigenData, neighbours: bool) -> tuple:
    """(failure, linked) for op on the eigenspace ordering of data.

    failure is the first (i, j, E_j op B_i) with |i - j| > 1 and
    E_j op E_i != 0, where B_i is the basis of E_i V; None when op is
    block-tridiagonal.  op E_i V lies in E_{i-1} V + E_i V + E_{i+1} V
    exactly when the product of the factors m - theta_k I, k = i - 1, i,
    i + 1 in range, kills op B_i (see `build_eigendata`).  Only on failure
    is the first far j looked for: the product of every factor but the
    j-th maps op B_i to prod_{k != j} (theta_j - theta_k) E_j op B_i.

    The factor m - theta_i I goes first.  With `neighbours`, for each
    neighbour j = i -+ 1 in range the other near factor is applied to its
    image: what is left is a nonzero multiple of E_j op B_i plus the far
    parts.  linked tells whether all of those are nonzero; when there is
    no failure the far parts vanish, so it says that every neighbour block
    E_{i-1} op E_i and E_{i+1} op E_i is nonzero.  One of them, times the
    last near factor, is the product above.  Without `neighbours`, or with
    a failure, linked is None.
    """
    theta, factors = data.eigenvalues, data.factors

    def apply(x, ks):
        for k in ks:
            x = factors[k] * x
        return x

    linked = True if neighbours else None
    for i, space in enumerate(data.eigenspaces):
        near = [k for k in (i - 1, i + 1) if 0 <= k < len(theta)]
        y = factors[i] * (op * space.basis)
        if neighbours:
            kept = [apply(y, [k for k in near if k != j]) for j in near]
            linked = linked and not any(z.is_zero() for z in kept)
            x = factors[near[0]] * kept[0]
        else:
            x = apply(y, near)
        if not x.is_zero():
            far = [k for k in range(len(theta)) if k != i and k not in near]
            j, w = next((j, w) for j in far
                        if not (w := apply(x, [k for k in far if k != j])).is_zero())
            return (i, j, w * (1 / prod(theta[j] - t for t in theta if t != theta[j]))), None
    return None, linked


def verify_td_axioms(
    a: Matrix, astar: Matrix, eig: EigenData, eigstar: EigenData
) -> VerificationReport:
    """Check the four tridiagonal-pair axioms for the given orderings.

    Failures are report entries carrying a witness, not exceptions.
    Axiom (iv), the dearest, is recorded only when (i)-(iii) passed, so
    that rejection stays fast; when every E_i V is a line it is read from
    the neighbour blocks of (ii) (see the module docstring).
    """
    report = VerificationReport()
    n = a.rows
    for check_id, name, data in (("axiom.i.A", "A", eig),
                                 ("axiom.i.Astar", "A*", eigstar)):
        span = sum(s.dim for s in data.eigenspaces)
        report.record(check_id, f"diagonalizability of {name}", [(span == n, None)],
                      note=f"eigenspaces span {span} of {n} dimensions")

    lines = all(s.dim == 1 for s in eig.eigenspaces)
    failure_ii, linked = _tridiagonal_scan(astar, eig, lines)
    failure_iii, _ = _tridiagonal_scan(a, eigstar, False)
    for check_id, anchor, failure, block in (
        ("axiom.ii", "A* acts block-tridiagonally on the A-eigenspace ordering",
         failure_ii, "E_{1} A* E_{0} != 0"),
        ("axiom.iii", "A acts block-tridiagonally on the A*-eigenspace ordering",
         failure_iii, "E*_{1} A E*_{0} != 0"),
    ):
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
            if linked:  # lines with nonzero neighbour blocks: V is irreducible
                col = row = n
            else:  # E_0 V and the w with w (A - theta_0 I) = 0, as rows.
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
