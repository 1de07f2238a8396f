from fractions import Fraction

import pytest

from helpers import column, replace
from tdlab import forge, psi
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
from tdlab.tdsystem import second_inversion

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
    image = Subspace.from_columns(2, w1_ops.psi * w1_app.U[1].basis)
    assert w1_app.U[0].contains(image)


def test_psi_equal_under_inversion(w1):
    app = build_apparatus(w1)
    inv = second_inversion(w1)
    inv_app = build_apparatus(inv)
    assert build_psi_from_formula(w1, app) == build_psi_from_formula(inv, inv_app)


class TestCasimirAction:
    def test_w1(self, w1, w1_app, w1_ops):
        q = w1.params.q
        scale = 1 / (q - 1 / q)
        lam = casimir_action(
            scale * w1_ops.psi,
            scale * w1_ops.R,
            w1_app.Kop,
            w1_app.Kop.inverse(),
            q,
        )
        assert lam == F(17, 4) * Matrix.identity(2)

    def test_trivial_action(self):
        q = F(2)
        eye = Matrix.identity(3)
        zero = Matrix.zeros(3, 3)
        assert casimir_action(zero, eye * 0, eye, eye, q) == (q + 1 / q) * eye

    def test_rejects_non_action(self):
        q = F(2)
        eye = Matrix.identity(2)
        e = Matrix([[0, 1], [0, 0]])
        f = Matrix([[0, 0], [1, 0]])
        # ef - fe != 0 but k - k^-1 = 0: the two Casimir forms must differ
        with pytest.raises(OperatorError):
            casimir_action(e, f, eye, eye, q)


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
