from fractions import Fraction
from itertools import permutations

import pytest
from helpers import idempotents, replace, second_inversion, span, tridiagonal_ok
from test_golden import SHAPE_A, SHAPE_ASTAR, SHAPE_PARAMS, _bump

from tdlab import forge, linalg, tdsystem
from tdlab.linalg import Matrix, Subspace
from tdlab.tdsystem import (
    EigenData,
    NotDiagonalizableError,
    NotTDSystemError,
    ParameterError,
    QRacahParams,
    build_eigendata,
    find_standard_orderings,
    qracah_eigenvalues,
    verify_td_axioms,
)

F = Fraction


def params(d, q=2, a=3, b=5):
    return QRacahParams(d, F(q), F(a), F(b))


# Points of the axiom-(ii) solution space of L(2) + 2 L(0), shape (1,3,1),
# and of L(3) + L(1), shape (1,2,2,1), each with q = 2, a = 3, b = 3: the
# first passes (i)-(iii) and fails (iv), the second fails (iii).
SHAPE_131_FAILS_IV = (
    (
        Matrix.from_strings([
            ["145/12", "0", "0", "0", "0"],
            ["3/2", "10/3", "0", "0", "0"],
            ["0", "0", "10/3", "0", "0"],
            ["0", "0", "0", "10/3", "0"],
            ["0", "15/4", "0", "0", "25/12"],
        ]),
        Matrix.from_strings([
            ["145/12", "-275/6", "-2", "-1", "0"],
            ["0", "10/3", "0", "0", "5/3"],
            ["0", "0", "10/3", "0", "1/3"],
            ["0", "0", "0", "10/3", "-7/3"],
            ["0", "0", "0", "0", "25/12"],
        ]),
    ),
    params(2, 2, 3, 3),
)
SHAPE_1221_FAILS_III = (
    (
        Matrix.from_strings([
            ["577/24", "0", "0", "0", "0", "0"],
            ["3/2", "37/6", "0", "0", "0", "0"],
            ["0", "0", "37/6", "0", "0", "0"],
            ["0", "15/4", "0", "13/6", "0", "0"],
            ["0", "0", "3/2", "0", "13/6", "0"],
            ["0", "0", "0", "63/8", "0", "73/24"],
        ]),
        Matrix.from_strings([
            ["577/24", "-1015/4", "-21/2", "0", "0", "0"],
            ["0", "37/6", "0", "-955/48", "-2", "0"],
            ["0", "0", "37/6", "1/3", "-1", "0"],
            ["0", "0", "0", "13/6", "0", "5/3"],
            ["0", "0", "0", "0", "13/6", "1/3"],
            ["0", "0", "0", "0", "0", "73/24"],
        ]),
    ),
    params(3, 2, 3, 3),
)

# A non-split extension of fixture(2) by a common eigenvector of A and A*
# (eigenvalues theta_1, theta*_1), q = 2, a = 3, b = 5: (i)-(iii) hold, E_0 V
# spins to V, and only the spin of the rows of E_0 sees the invariant line.
EXTENSION_FAILS_IV = (
    (
        Matrix.from_strings([
            ["10/3", "-2", "0", "0"],
            ["0", "145/12", "0", "0"],
            ["0", "1", "10/3", "0"],
            ["0", "0", "1", "25/12"],
        ]),
        Matrix.from_strings([
            ["26/5", "-297/10", "-2", "1"],
            ["0", "401/20", "1", "0"],
            ["0", "0", "26/5", "127"],
            ["0", "0", "0", "41/20"],
        ]),
    ),
    params(2),
)


def _direct_sum(x, y):
    zx, zy = [0] * x.cols, [0] * y.cols
    return Matrix([list(r) + zy for r in map(x.row, range(x.rows))]
                  + [zx + list(r) for r in map(y.row, range(y.rows))])


def _doubled(sys):
    """The direct sum of an instance with itself: (i)-(iii) hold, rho_0 = 2."""
    return (_direct_sum(sys.A, sys.A), _direct_sum(sys.Astar, sys.Astar)), sys.params


class TestParams:
    def test_rejects_zero(self):
        with pytest.raises(ParameterError):
            QRacahParams(1, F(0), F(3), F(5))

    def test_rejects_fourth_root_of_unity(self):
        # Over Q the roots of unity are 1 and -1: q^(2i) = 1 for some i <= d
        # exactly when q^4 = 1.
        for d in (1, 3):
            for q in (F(1), F(-1)):
                with pytest.raises(ParameterError, match=r"^q\^4 = 1 is degenerate$"):
                    QRacahParams(d, q, F(3), F(5))

    def test_rejects_colliding_a(self):
        # a = q makes a^2 = q^2 land in the forbidden set at d = 2
        with pytest.raises(ParameterError):
            QRacahParams(2, F(2), F(2), F(5))

    def test_valid(self):
        params(3)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_forbidden_set_boundary(self, sign):
        # a^2 = q^(+-(2d-2)) is the edge of the forbidden set; a^2 = q^(+-2d)
        # is just outside it, and there theta and theta* are distinct.
        d, q = 3, F(2)
        edge, outside = q ** (sign * (d - 1)), q ** (sign * d)
        for a, b in ((edge, 5), (3, edge)):
            with pytest.raises(ParameterError):
                QRacahParams(d, q, F(a), F(b))
        for a, b in ((outside, 5), (3, outside)):
            theta, theta_star = qracah_eigenvalues(QRacahParams(d, q, F(a), F(b)))
            assert len(set(theta)) == len(set(theta_star)) == d + 1


class TestEigenvalues:
    def test_d1_primary(self):
        theta, _ = qracah_eigenvalues(params(1))
        assert theta == (F(37, 6), F(13, 6))

    def test_d1_dual(self):
        _, theta_star = qracah_eigenvalues(params(1))
        assert theta_star == (F(101, 10), F(29, 10))

    def test_d2(self):
        theta, _ = qracah_eigenvalues(params(2))
        assert theta == (F(145, 12), F(10, 3), F(25, 12))


class TestEigendata:
    def test_diagonal(self):
        data = build_eigendata(Matrix.diagonal([2, 3]), [2, 3])
        assert data.eigenspaces == (span(2, (1, 0)), span(2, (0, 1)))
        assert data.factors == (Matrix.diagonal([0, 1]), Matrix.diagonal([-1, 0]))
        assert idempotents(Matrix.diagonal([2, 3]), [2, 3]) == [
            Matrix.diagonal([1, 0]), Matrix.diagonal([0, 1])]

    def test_w1_eigenline(self):
        w1 = forge.fixture(1)
        data = build_eigendata(w1.A, [F(37, 6), F(13, 6)])
        assert data.eigenspaces[0] == span(2, (4, 1))

    def test_nilpotent_rejected(self):
        with pytest.raises(NotDiagonalizableError):
            build_eigendata(Matrix([[0, 1], [0, 0]]), [0, 1])

    def test_empty_eigenspace_rejected(self):
        # the dimensions add up to n, but 3 has no eigenvector
        with pytest.raises(NotDiagonalizableError, match="^theta_1 is not an eigenvalue$"):
            build_eigendata(Matrix.diagonal([2, 2]), [2, 3])

    def test_refusal_forms_no_later_factor(self, monkeypatch):
        """A - theta_0 I is invertible for A = 0, so validation is refused at
        theta_0 before any other factor A - theta_i I is formed."""
        formed = []
        original = tdsystem.combine

        def counted(*terms):
            formed.append(1)
            return original(*terms)

        monkeypatch.setattr(tdsystem, "combine", counted)
        zero = Matrix.zeros(9, 9)
        with pytest.raises(NotTDSystemError, match="A: theta_0 is not an eigenvalue"):
            forge.validate((zero, zero), params(8))
        assert len(formed) == 1

    def test_invariants(self):
        """The factors of build_eigendata, and the identities of the
        Lagrange idempotents over its eigenspaces."""
        shape = (Matrix.from_strings(SHAPE_A), Matrix.from_strings(SHAPE_ASTAR))
        cases = [forge.fixture(d) for d in (1, 2, 3)] + [
            second_inversion(forge.fixture(3)),
            forge.validate(shape, SHAPE_PARAMS),
            forge.validate(*_leonard_candidate(8)),
        ]
        for sys in cases:
            n = sys.dim
            for m, data in ((sys.A, sys.eig), (sys.Astar, sys.eigstar)):
                idems = idempotents(m, data.eigenvalues)
                total = Matrix.zeros(n, n)
                recon = Matrix.zeros(n, n)
                for i, (t, e) in enumerate(zip(data.eigenvalues, idems)):
                    assert data.factors[i] == m - t * Matrix.identity(n)
                    for j, e2 in enumerate(idems):
                        assert e * e2 == (e if i == j else Matrix.zeros(n, n))
                    assert m * e == t * e
                    assert Subspace.from_columns(e) == data.eigenspaces[i]
                    total = total + e
                    recon = recon + t * e
                assert total == Matrix.identity(n)
                assert recon == m


class TestAxioms:
    def test_w1_passes(self):
        w1 = forge.fixture(1)
        report = verify_td_axioms(w1.A, w1.Astar, w1.eig, w1.eigstar)
        assert report.all_passed

    def test_commuting_diagonal_pair_fails_irreducibility(self):
        a = Matrix.diagonal([2, 3])
        astar = Matrix.diagonal([5, 7])
        eig = build_eigendata(a, [2, 3])
        eigstar = build_eigendata(astar, [5, 7])
        report = verify_td_axioms(a, astar, eig, eigstar)
        failed = {e.check_id for e in report.failures}
        assert failed == {"axiom.iv"}

        # a pair that fails (ii) never reaches the irreducibility test
        sys2 = forge.fixture(2)
        e = sys2.eig
        swapped = EigenData(
            tuple(e.eigenvalues[p] for p in (1, 0, 2)),
            tuple(e.eigenspaces[p] for p in (1, 0, 2)),
            tuple(e.factors[p] for p in (1, 0, 2)),
        )
        report = verify_td_axioms(sys2.A, sys2.Astar, swapped, sys2.eigstar)
        assert "axiom.ii" in {e.check_id for e in report.failures}
        assert "axiom.iv" not in {e.check_id for e in report}

    def test_rejection_names_axiom_before_closure(self, monkeypatch):
        def spin(*args):
            raise AssertionError("irreducibility spin run on a pair that fails (ii)")

        monkeypatch.setattr(tdsystem, "spin_dim", spin)
        p = params(2)
        candidate = forge.build_split_form(p, (1, 1))
        with pytest.raises(NotTDSystemError, match=r"axiom\.ii"):
            forge.validate(candidate, p)

    def test_order_sensitivity(self):
        # permuting a standard ordering by a non-reversal breaks tridiagonality
        sys2 = forge.fixture(2)
        idems = idempotents(sys2.A, sys2.eig.eigenvalues)
        swapped = (idems[1], idems[0], idems[2])
        assert tridiagonal_ok(sys2.Astar, idems)[0]
        assert not tridiagonal_ok(sys2.Astar, swapped)[0]


class TestFailureMessages:
    """A refusal names each failed axiom with its witness."""

    def test_tridiagonality_witness_pairs(self):
        p = params(2)
        candidate = forge.build_split_form(p, (1, 1))
        with pytest.raises(
            NotTDSystemError,
            match=r"^TD axioms failed: axiom\.ii \(E_2 A\* E_0 != 0\), "
            r"axiom\.iii \(E\*_0 A E\*_2 != 0\)$",
        ):
            forge.validate(candidate, p)

    def test_axiom_iii_witness_pair(self):
        with pytest.raises(
            NotTDSystemError,
            match=r"^TD axioms failed: axiom\.iii \(E\*_0 A E\*_2 != 0\)$",
        ):
            forge.validate(*SHAPE_1221_FAILS_III)

    @pytest.mark.parametrize(
        "case, reached",
        [(SHAPE_131_FAILS_IV, "4 in V and 4 in V\\*, of 5"),
         (EXTENSION_FAILS_IV, "4 in V and 3 in V\\*, of 4")],
        ids=["shape-131", "extension"],
    )
    def test_spin_dimensions(self, case, reached):
        with pytest.raises(
            NotTDSystemError,
            match=rf"^TD axioms failed: axiom\.iv \(spins from E_0 reach {reached}\)$",
        ):
            forge.validate(*case)

    def test_rho0_above_one(self):
        (a, astar), p = _doubled(forge.fixture(2))
        with pytest.raises(
            NotTDSystemError,
            match=r"^TD axioms failed: axiom\.iv \(rho_0 = dim E_0 V = 2 > 1\)$",
        ):
            forge.validate((a, astar), p)
        assert _closure_dim_by_word(a, astar) < a.rows**2


class TestOrderings:
    def test_w1(self):
        w1 = forge.fixture(1)
        eig, eigstar = find_standard_orderings(w1.A, w1.Astar, w1.params)
        assert eig.eigenvalues == (F(37, 6), F(13, 6))
        assert eigstar.eigenvalues == (F(101, 10), F(29, 10))

    def test_inverted_a_reverses(self):
        w1 = forge.fixture(1)
        eig, _ = find_standard_orderings(w1.A, w1.Astar, replace(w1.params, a=F(1, 3)))
        assert eig.eigenvalues == (F(13, 6), F(37, 6))

    def test_diagonal_pair_rejected(self):
        with pytest.raises((NotTDSystemError, NotDiagonalizableError)):
            find_standard_orderings(
                Matrix.diagonal([2, 3]), Matrix.diagonal([5, 7]), params(1)
            )


def _leonard_candidate(d):
    """The split-form Leonard pair at forge.leonard_phi's default point."""
    p = params(d)
    return forge.build_split_form(p, forge.leonard_phi(p)), p


def test_validation_eliminates_no_more_than_n_columns(monkeypatch):
    """Validation of a d = 10 Leonard pair runs no rref wider than n = 11.

    The word closure eliminated rows of n^2 entries; a reintroduced closure
    fails here without any timing.
    """
    candidate, p = _leonard_candidate(10)
    n, widths = candidate[0].rows, []
    original = linalg.rref

    def narrow_rref(m):
        widths.append(m.cols)
        assert m.cols <= n, f"rref of a {m.rows} x {m.cols} matrix"
        return original(m)

    monkeypatch.setattr(linalg, "rref", narrow_rref)
    assert forge.validate(candidate, p).dim == n
    assert max(widths) == n


def test_validation_multiplies_no_two_square_matrices(monkeypatch):
    """Validation of a d = 16 Leonard pair forms no product of two n x n
    matrices, and all its products cost at most 16 n^3 multiplications.

    Lagrange idempotents and far sums of them took 166 square products
    and about 170 n^3; the polynomial form of (ii)/(iii) takes about 12 n^3.
    """
    candidate, p = _leonard_candidate(16)
    n, shapes = candidate[0].rows, []
    original = Matrix._matmul

    def counted(x, y):
        shapes.append((x.rows, x.cols, y.cols))
        return original(x, y)

    monkeypatch.setattr(Matrix, "_matmul", counted)
    assert forge.validate(candidate, p).dim == n
    assert (n, n, n) not in shapes
    assert sum(r * k * c for r, k, c in shapes) <= 16 * n**3


def _off_line_candidates():
    """Split-form candidates at d = 2..5 with one entry of the Leonard phi
    line moved off it, in the standard A-ordering and its reversal."""
    for d in range(2, 6):
        p = params(d)
        phi = forge.leonard_phi(p)
        for k in range(d):
            moved = phi[:k] + (phi[k] + 1,) + phi[k + 1:]
            candidate = forge.build_split_form(p, moved)
            yield candidate, p
            yield candidate, replace(p, a=1 / p.a)


def test_tridiagonality_agrees_with_idempotent_oracle(oracle_inputs):
    """Axioms (ii)/(iii) give the verdict and first pair (i, j) of the
    pairwise test on Lagrange idempotents, with E_j op B_i as the witness.

    The inputs are the oracle inputs, the (1,2,2,1) point, the off-line
    candidates, and the one-entry bumps of fixture(3) that keep eigendata.
    """
    s3 = forge.fixture(3)
    bumps = [(candidate, s3.params) for i in range(4) for j in range(4)
             for candidate in ((_bump(s3.A, i, j), s3.Astar), (s3.A, _bump(s3.Astar, i, j)))]
    cases = oracle_inputs + [SHAPE_1221_FAILS_III] + list(_off_line_candidates()) + bumps
    failed = set()
    for (a, astar), p in cases:
        try:
            eig, eigstar = find_standard_orderings(a, astar, p)
        except NotTDSystemError:
            continue
        report = {e.check_id: e for e in verify_td_axioms(a, astar, eig, eigstar)}
        for check_id, op, m, data, note in (
            ("axiom.ii", astar, a, eig, "E_{j} A* E_{i} != 0"),
            ("axiom.iii", a, astar, eigstar, "E*_{j} A E*_{i} != 0"),
        ):
            idems = idempotents(m, data.eigenvalues)
            ok, pair = tridiagonal_ok(op, idems)
            entry = report[check_id]
            assert entry.passed is ok
            if not ok:
                i, j = pair
                failed.add((check_id, pair))
                assert entry.note == note.format(i=i, j=j)
                assert entry.residual == idems[j] * op * data.eigenspaces[i].basis
    assert len(failed) >= 10, failed


# The brute-force ordering scan that validation once ran, kept as an
# oracle: on a TD system exactly the standard ordering and its reversal
# are tridiagonal, so validation needs no scan.


def _identity_and_reversal(n) -> set:
    return {tuple(range(n)), tuple(reversed(range(n)))}


def _tridiagonal_orderings(op, idems) -> set:
    """Every ordering of the idempotents under which op is block-tridiagonal."""
    return {
        perm
        for perm in permutations(range(len(idems)))
        if tridiagonal_ok(op, [idems[p] for p in perm])[0]
    }


def _closure_dim_by_word(a, astar) -> int:
    """Word closure with one rank per candidate word, in the greedy order."""
    span = [Matrix.identity(a.rows)]
    frontier = list(span)
    while frontier:
        added = []
        for w in frontier:
            for g in (a, astar):
                m = g * w
                if Matrix.from_columns(x.entries() for x in span + [m]).rank() > len(span):
                    span.append(m)
                    added.append(m)
        frontier = added
    return len(span)


def _scan_pipeline(candidate, p):
    """Validation as it was: eigendata, ordering scan of both spectra, closure."""
    a, astar = candidate
    theta, theta_star = qracah_eigenvalues(p)
    try:
        eig = build_eigendata(a, theta)
        eigstar = build_eigendata(astar, theta_star)
    except ValueError as exc:
        raise NotTDSystemError(str(exc)) from exc
    for op, m, data in ((astar, a, eig), (a, astar, eigstar)):
        idems = idempotents(m, data.eigenvalues)
        if _tridiagonal_orderings(op, idems) != _identity_and_reversal(len(idems)):
            raise NotTDSystemError("ordering scan")
    if _closure_dim_by_word(a, astar) != a.rows**2:
        raise NotTDSystemError("axiom.iv")


@pytest.fixture(scope="module")
def oracle_inputs():
    shape = (Matrix.from_strings(SHAPE_A), Matrix.from_strings(SHAPE_ASTAR))
    out = [((s.A, s.Astar), s.params) for s in map(forge.fixture, (1, 2, 3))]
    s3 = second_inversion(forge.fixture(3))
    out += [((s3.A, s3.Astar), s3.params), (shape, SHAPE_PARAMS)]
    # refused at (iv): by the spins, and with rho_0 = 2
    return out + [SHAPE_131_FAILS_IV, EXTENSION_FAILS_IV, _doubled(forge.fixture(2))]


VALID_ORACLE_INPUTS = 5


def _verdict(fn, candidate, p):
    try:
        fn(candidate, p)
    except ValueError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("case", range(VALID_ORACLE_INPUTS))
def test_only_standard_orderings_are_tridiagonal(case, oracle_inputs):
    candidate, p = oracle_inputs[case]
    sys = forge.validate(candidate, p)
    expected = _identity_and_reversal(sys.d + 1)
    assert _tridiagonal_orderings(sys.Astar, idempotents(sys.A, sys.eig.eigenvalues)) == expected
    assert _tridiagonal_orderings(sys.A, idempotents(sys.Astar, sys.eigstar.eigenvalues)) == expected


@pytest.mark.parametrize("case", range(VALID_ORACLE_INPUTS + 3))
def test_validate_agrees_with_scan_pipeline(case, oracle_inputs):
    (a, astar), p = oracle_inputs[case]
    # The diagonal pair passes (ii) and (iii) in every ordering and fails (iv).
    theta, theta_star = qracah_eigenvalues(p)
    candidates = [(a, astar), (Matrix.diagonal(theta), Matrix.diagonal(theta_star))]
    for i in range(a.rows):
        for j in range(a.cols):
            candidates += [(_bump(a, i, j), astar), (a, _bump(astar, i, j))]
    verdicts = []
    for candidate in candidates:
        expected = _verdict(_scan_pipeline, candidate, p)
        assert _verdict(forge.validate, candidate, p) is expected
        verdicts.append(expected)
    assert (verdicts[0] is None) is (case < VALID_ORACLE_INPUTS)
    assert NotTDSystemError in verdicts


def test_empty_eigenspace_fails_validation():
    """The (1,2,1) shape read with d = 3 and a = b = 10.

    theta_0 = 80 + 1/80 is no eigenvalue of A, and theta_1..theta_3 are the
    shape's d = 2 spectrum, dually for A*: so E_0 = E*_0 = 0 and (i)-(iv)
    hold.  The ordering scan refused the pair, since (1, 2, 3, 0) is
    tridiagonal as well; validation refuses it at the eigendata.
    """
    a, astar = Matrix.from_strings(SHAPE_A), Matrix.from_strings(SHAPE_ASTAR)
    p = QRacahParams(3, F(2), F(10), F(10))
    idems = idempotents(a, qracah_eigenvalues(p)[0])
    assert idems[0].is_zero()
    assert all(e * e == e for e in idems)
    assert sum(idems[1:], idems[0]) == Matrix.identity(4)
    assert (1, 2, 3, 0) in _tridiagonal_orderings(astar, idems)
    with pytest.raises(NotTDSystemError, match="A: theta_0 is not an eigenvalue$"):
        forge.validate((a, astar), p)


class TestSecondInversion:
    def test_involution(self):
        w1 = forge.fixture(1)
        assert second_inversion(second_inversion(w1)) == w1

    def test_reverses_eigenvalues(self):
        w1 = forge.fixture(1)
        assert second_inversion(w1).eig.eigenvalues == (F(13, 6), F(37, 6))

    def test_factors_follow_the_reversed_eigenvalues(self):
        sys = second_inversion(forge.fixture(3))
        eye = Matrix.identity(sys.dim)
        assert sys.eig.factors == tuple(sys.A - t * eye for t in sys.eig.eigenvalues)

    def test_inverts_a(self):
        w1 = forge.fixture(1)
        assert second_inversion(w1).params.a == F(1, 3)


def test_eigenvalue_ratio_independence_d3():
    sys3 = forge.fixture(3)
    theta = sys3.eig.eigenvalues
    theta_star = sys3.eigstar.eigenvalues
    ratios = set()
    for seq in (theta, theta_star):
        for i in range(2, sys3.d):
            ratios.add((seq[i - 2] - seq[i + 1]) / (seq[i - 1] - seq[i]))
    assert len(ratios) == 1
