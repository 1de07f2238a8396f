from fractions import Fraction

import pytest
from test_golden import SHAPE_A, SHAPE_ASTAR, SHAPE_PARAMS

from helpers import column, conjugate, contains, leonard, replace, second_inversion, unimodular
from tdlab import forge, linalg, psi
from tdlab.linalg import Matrix, Subspace
from tdlab.psi import (
    OperatorError,
    build_operator_set,
    build_psi_from_formula,
    build_psi_from_solver,
    build_R,
    build_Rdd,
    casimir_action,
    run_identity_suite,
)
from tdlab.split import build_apparatus
from tdlab.tdsystem import QRacahParams
from tdlab.uqsl2 import UqAction, first_structure

F = Fraction


@pytest.fixture(scope="module")
def w1():
    return forge.fixture(1)


@pytest.fixture(scope="module")
def w1_app(w1):
    return build_apparatus(w1)


@pytest.fixture(scope="module")
def w1_ops(w1, w1_app):
    return build_operator_set(w1, w1_app)


def test_w1_R(w1_ops):
    assert w1_ops.R == Matrix([[0, 0], [1, 0]])


def test_w1_R_raises_and_kills(w1_ops):
    assert w1_ops.R * column((1, 0)) == column((0, 1))
    assert (w1_ops.R * column((0, 1))).is_zero()


def test_Rdiff(w1, w1_app, w1_ops):
    a = w1.params.a
    k, b = w1_app.Kop, w1_app.Bop
    expected = a * k + (1 / a) * k.inverse() - (1 / a) * b - a * b.inverse()
    assert w1_ops.Rdd - w1_ops.R == expected


def test_w1_psi(w1_ops):
    assert w1_ops.psi == Matrix([[0, "9/4"], [0, 0]])


def test_w1_lambda(w1_ops):
    assert w1_ops.Lambda == F(17, 4) * Matrix.identity(2)


def test_psi_annihilates_seeds(w1_app, w1_ops):
    for k in w1_app.Kspaces:
        assert (w1_ops.psi * k.basis).is_zero()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_psi_formula_equals_solver(d):
    sys = forge.fixture(d)
    app = build_apparatus(sys)
    r = build_R(sys, app)
    assert build_psi_from_formula(sys, app) == build_psi_from_solver(sys, app, r)


def first_inversion(sys):
    """The pair with the A*-eigenspace order reversed: b becomes b^-1."""
    p = sys.params
    return forge.validate((sys.A, sys.Astar), QRacahParams(p.d, p.q, p.a, 1 / p.b))


# Instances beyond the fixtures on which the orbit solve must give the
# formula's psi: both inversions, K_1 != 0, larger d, and dense bases.
SOLVER_INSTANCES = {
    "first-inversion": lambda: first_inversion(forge.fixture(3)),
    "second-inversion": lambda: second_inversion(forge.fixture(3)),
    "shape121": lambda: forge.validate(
        (Matrix.from_strings(SHAPE_A), Matrix.from_strings(SHAPE_ASTAR)), SHAPE_PARAMS),
    "leonard4": lambda: leonard(4),
    "leonard8": lambda: leonard(8),
    "leonard16": lambda: leonard(16),
    "dense4": lambda: conjugate(leonard(4), unimodular(5, 4)),
    "dense8": lambda: conjugate(leonard(8), unimodular(9, 8)),
}


@pytest.mark.parametrize("name", SOLVER_INSTANCES)
def test_psi_solver_equals_formula_beyond_fixtures(name):
    sys = SOLVER_INSTANCES[name]()
    app = build_apparatus(sys)
    assert build_psi_from_formula(sys, app) == build_psi_from_solver(sys, app, build_R(sys, app))


def test_dense_psi_solve_eliminates_only_n_by_2n(monkeypatch):
    """On the d = 8 Leonard pair in a dense basis, the solver eliminates no
    more than the n x 2n inverse of its orbit basis: no system in the n^2
    entries of psi."""
    sys = conjugate(leonard(8), unimodular(9, 2013))
    app = build_apparatus(sys)
    r = build_operator_set(sys, app).R
    n, shapes, original = sys.dim, [], linalg.rref

    def counted(m):
        shapes.append(m.shape)
        return original(m)

    monkeypatch.setattr(linalg, "rref", counted)
    build_psi_from_solver(sys, app, r)
    assert shapes and all(rows <= n and cols <= 2 * n for rows, cols in shapes), shapes


def test_solver_failures_are_operator_errors():
    sys = forge.fixture(2)
    app = build_apparatus(sys)
    r = build_R(sys, app)
    with pytest.raises(OperatorError, match="^lowering-map system is inconsistent$"):
        build_psi_from_solver(sys, replace(app, Kop=2 * app.Kop), r)
    with pytest.raises(OperatorError, match="^lowering-map system is not determined: "):
        build_psi_from_solver(sys, replace(app, Kspaces=app.Kspaces[1:]), r)


def test_psi_disagreement_names_entries(monkeypatch):
    sys = forge.fixture(3)
    app = build_apparatus(sys)
    solved = build_psi_from_solver(sys, app, build_R(sys, app))
    rows = [list(solved.row(i)) for i in range(solved.rows)]
    rows[2][1] += 1
    monkeypatch.setattr(psi, "build_psi_from_solver", lambda *args: Matrix(rows))
    with pytest.raises(
        OperatorError,
        match=r"disagree at 1 of 16 entries, first at \(row, col\) = \(2, 1\)$",
    ):
        build_operator_set(sys, app)


def test_psi_lowers_first_split(w1_app, w1_ops):
    image = Subspace.from_columns(w1_ops.psi * w1_app.U[1].basis)
    assert contains(w1_app.U[0], image)


def test_psi_equal_under_inversion(w1):
    app = build_apparatus(w1)
    inv = second_inversion(w1)
    inv_app = build_apparatus(inv)
    assert build_psi_from_formula(w1, app) == build_psi_from_formula(inv, inv_app)


class TestCasimirAction:
    def test_w1(self, w1, w1_app, w1_ops):
        q = w1.params.q
        scale = 1 / (q - 1 / q)
        action = UqAction(scale * w1_ops.psi, scale * w1_ops.R, w1_app.Kop,
                          w1_app.Kop.inverse(), q)
        lam = casimir_action(action)
        assert lam == F(17, 4) * Matrix.identity(2)
        assert lam == casimir_action(first_structure(w1, w1_app, w1_ops.R, w1_ops.psi))

    def test_trivial_action(self):
        q = F(2)
        eye = Matrix.identity(3)
        zero = Matrix.zeros(3, 3)
        assert casimir_action(UqAction(zero, eye * 0, eye, eye, q)) == (q + 1 / q) * eye


@pytest.mark.parametrize("d", [1, 2, 3])
def test_full_identity_suite(d):
    sys = forge.fixture(d)
    app = build_apparatus(sys)
    ops = build_operator_set(sys, app)
    report = run_identity_suite(sys, app, ops)
    assert len(report) >= 30
    assert report.all_passed, [e.check_id for e in report.failures]


def test_suite_passes_on_second_inversion(w1):
    inv = second_inversion(w1)
    app = build_apparatus(inv)
    ops = build_operator_set(inv, app)
    assert run_identity_suite(inv, app, ops).all_passed


def test_perturbed_psi_detected(w1, w1_app, w1_ops):
    bad = w1_ops.psi + Matrix([[1, 0], [0, 0]])
    report = run_identity_suite(w1, w1_app, replace(w1_ops, psi=bad))
    failed = {e.check_id for e in report.failures}
    assert "eq.psiR" in failed
    assert "lem.KpsiKinv.1" in failed
    for e in report.failures:
        if e.check_id == "eq.psiR":
            assert e.residual is not None and not e.residual.is_zero()


def test_suite_flags_R_from_wrong_apparatus(w1, w1_app, w1_ops):
    broken = replace(w1_app, Kop=Matrix.identity(2))
    ops = replace(w1_ops, R=build_R(w1, broken))
    report = run_identity_suite(w1, broken, ops)
    (entry,) = [e for e in report if e.check_id == "lem.RonU.first"]
    assert not entry.passed
    assert entry.residual is not None and not entry.residual.is_zero()


def test_build_Rdd_matches_inverted_R(w1, w1_app):
    inv = second_inversion(w1)
    inv_app = build_apparatus(inv)
    assert build_Rdd(w1, w1_app) == build_R(inv, inv_app)
