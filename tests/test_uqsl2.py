from fractions import Fraction

import pytest
from test_golden import SHAPE_A, SHAPE_ASTAR, SHAPE_PARAMS

from helpers import (
    L_model,
    column,
    leonard,
    second_inversion,
    seed_bases,
    span,
    weight_decomposition,
)
from tdlab import forge, linalg
from tdlab.linalg import Matrix, Subspace
from tdlab.psi import build_operator_set
from tdlab.split import build_apparatus
from tdlab.uqsl2 import (
    ModuleError,
    UqAction,
    build_L_model,
    casimir_of,
    decompose_into_components,
    first_structure,
    q_int,
    second_structure,
    verify_uq_relations,
)

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


def test_q_int():
    assert q_int(1, F(2)) == 1
    assert q_int(2, F(2)) == F(5, 2)


def test_trivial_action_passes():
    eye = Matrix.identity(2)
    zero = Matrix.zeros(2, 2)
    action = UqAction(zero, zero, eye, eye, F(2))
    assert verify_uq_relations(action).all_passed


@pytest.mark.parametrize("d", [1, 2, 3])
def test_both_structures_satisfy_relations(d):
    sys = forge.fixture(d)
    app = build_apparatus(sys)
    ops = build_operator_set(sys, app)
    for action in (
        first_structure(sys, app, ops.R, ops.psi),
        second_structure(sys, app, ops.Rdd, ops.psi),
    ):
        report = verify_uq_relations(action)
        assert report.all_passed, [e.check_id for e in report.failures]


def test_cubic_relations_follow_from_defining_ones():
    # accepted actions automatically satisfy the cubic consequences
    report = verify_uq_relations(build_L_model(3, F(2)))
    by_id = {e.check_id: e.passed for e in report}
    assert by_id["uq.f2e"] and by_id["uq.e2f"]


class TestLModels:
    """The library builds L(n, 1) only; L(n, -1) is its twist (`helpers.L_model`)."""

    def test_n0(self):
        action = L_model(0, -1, F(2))
        assert action.e == Matrix.zeros(1, 1)
        assert action.f == Matrix.zeros(1, 1)
        assert action.k == Matrix([[-1]])

    def test_n1(self):
        action = build_L_model(1, F(2))
        assert action.e == Matrix([[0, 1], [0, 0]])
        assert action.f == Matrix([[0, 0], [1, 0]])
        assert action.k == Matrix.diagonal([2, "1/2"])

    def test_n2_e_entry(self):
        action = build_L_model(2, F(2))
        # e v_1 = [2]_q v_0
        assert action.e * column((0, 1, 0)) == column((F(5, 2), 0, 0))

    @pytest.mark.parametrize("n,eps", [(0, 1), (2, -1), (4, 1)])
    def test_casimir_scalar(self, n, eps):
        q = F(3)
        action = L_model(n, eps, q)
        expected = eps * (q ** (n + 1) + q ** (-n - 1))
        coeff = (q - 1 / q) ** 2
        lam = coeff * (action.e * action.f) + (1 / q) * action.k + q * action.kinv
        assert lam == expected * Matrix.identity(n + 1)

    @pytest.mark.parametrize("q", [F(2), F(3), F(1, 2), F(-2)], ids=str)
    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("n", range(7))
    def test_closed_form_is_a_module(self, n, eps, q):
        # The oracle for build_L_model, which does not check its own output:
        # the defining relations and the Casimir scalar eps (q^(n+1) + q^(-n-1)).
        action = L_model(n, eps, q)
        report = verify_uq_relations(action)
        assert report.all_passed, [e.check_id for e in report.failures]
        expected = eps * (q ** (n + 1) + q ** (-n - 1))
        assert casimir_of(action) == expected * Matrix.identity(n + 1)

    def test_root_of_unity_guard(self):
        for q in (F(1), F(-1)):
            for n in (1, 2):
                with pytest.raises(ValueError, match=rf"^q\^2 = 1: L\({n}, 1\) would be "):
                    build_L_model(n, q)
            assert build_L_model(0, q).k == Matrix.identity(1)  # L(0, 1) is trivial


class TestWeights:
    def test_w1_first_structure_weights(self, w1, w1_app, w1_ops):
        action = first_structure(w1, w1_app, w1_ops.R, w1_ops.psi)
        weights, highest = weight_decomposition(action, [F(2), F(1, 2)])
        assert weights[F(2)] == span(2, (1, 0))
        assert weights[F(1, 2)] == span(2, (0, 1))
        assert highest[F(2)] == w1_app.Kspaces[0]
        assert highest[F(1, 2)].is_zero()

    def test_w1_second_structure_weights(self, w1, w1_app, w1_ops):
        action = second_structure(w1, w1_app, w1_ops.Rdd, w1_ops.psi)
        weights, highest = weight_decomposition(action, [F(2), F(1, 2)])
        assert weights[F(1, 2)] == span(2, (4, 1))
        assert weights[F(1, 2)] == w1_app.Udd[1]
        assert highest[F(2)] == w1_app.Kspaces[0]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_weight_spaces_are_split_decompositions(self, d):
        sys = forge.fixture(d)
        app = build_apparatus(sys)
        ops = build_operator_set(sys, app)
        q = sys.params.q
        spectrum = [q ** (d - 2 * i) for i in range(d + 1)]
        action1 = first_structure(sys, app, ops.R, ops.psi)
        weights, highest = weight_decomposition(action1, spectrum)
        for i in range(d + 1):
            assert weights[spectrum[i]] == app.U[i]
        action2 = second_structure(sys, app, ops.Rdd, ops.psi)
        weights2, highest2 = weight_decomposition(action2, spectrum)
        for i in range(d + 1):
            assert weights2[spectrum[i]] == app.Udd[i]
        # highest weight spaces coincide: both are the K_i
        for i, k in enumerate(app.Kspaces):
            assert highest[spectrum[i]] == k
            assert highest2[spectrum[i]] == k
        # As decompose_into_components argues: column j of the seed bases
        # of K_i spans U_(i + j) together, and those columns exhaust V.
        seeds = seed_bases(sys, app)
        assert sum(basis.cols for _, basis in seeds) == sys.dim
        for level in range(d + 1):
            cols = [basis.col(level - i) for i, basis in seeds if 0 <= level - i < basis.cols]
            assert Subspace.from_columns(Matrix.from_columns(cols)) == app.U[level]


class TestDecomposition:
    def test_w1_component_basis(self, w1, w1_app, w1_ops):
        action = first_structure(w1, w1_app, w1_ops.R, w1_ops.psi)
        decomposition = decompose_into_components(action, w1, w1_app)
        (component,) = decomposition.components
        assert component.label == 1
        assert component.multiplicity == 1
        assert component.casimir_scalar == F(17, 4)
        ((i, basis),) = seed_bases(w1, w1_app)
        assert i == 0
        assert action.k * basis == basis * Matrix.diagonal([2, "1/2"])
        assert basis.col(0) == (F(1), F(0))
        assert basis.col(1) == (F(0), F(2, 3))  # gamma_1 = 3/2

    def test_w1_f_action_on_basis(self, w1, w1_app, w1_ops):
        q = w1.params.q
        action = first_structure(w1, w1_app, w1_ops.R, w1_ops.psi)
        ((_, basis),) = seed_bases(w1, w1_app)
        assert action.f * column(basis.col(0)) == q_int(1, q) * column(basis.col(1))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_component_labels_match_between_structures(self, d):
        sys = forge.fixture(d)
        app = build_apparatus(sys)
        ops = build_operator_set(sys, app)
        dec1 = decompose_into_components(
            first_structure(sys, app, ops.R, ops.psi), sys, app
        )
        inv = second_inversion(sys)
        inv_app = build_apparatus(inv)
        dec2 = decompose_into_components(
            second_structure(sys, app, ops.Rdd, ops.psi), inv, inv_app
        )
        labels1 = sorted((c.label, c.multiplicity) for c in dec1.components)
        labels2 = sorted((c.label, c.multiplicity) for c in dec2.components)
        assert labels1 == labels2

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_casimir_matches_component_scalar(self, d):
        sys = forge.fixture(d)
        app = build_apparatus(sys)
        ops = build_operator_set(sys, app)
        q = sys.params.q
        dec = decompose_into_components(
            first_structure(sys, app, ops.R, ops.psi), sys, app
        )
        for c in dec.components:
            expected = q ** (d - 2 * c.i + 1) + q ** (2 * c.i - d - 1)
            assert c.casimir_scalar == expected
            eye = Matrix.identity(sys.dim)
            assert ((ops.Lambda - expected * eye) * c.space.basis).is_zero()


def test_decompose_rejects_perturbed_R(w1, w1_app, w1_ops):
    rows = [list(w1_ops.R.row(k)) for k in range(2)]
    rows[1][1] += 1
    action = first_structure(w1, w1_app, Matrix(rows), w1_ops.psi)
    with pytest.raises(ModuleError):
        decompose_into_components(action, w1, w1_app)


@pytest.mark.parametrize("name", ["leonard4", "shape121"])
def test_decomposition_computes_no_weight_space(name, monkeypatch):
    """With MK formed, as the suite forms it, decompose eliminates only for
    its direct-sum rank test: no kernel, and at most one rref."""
    sys = leonard(4) if name == "leonard4" else forge.validate(
        (Matrix.from_strings(SHAPE_A), Matrix.from_strings(SHAPE_ASTAR)), SHAPE_PARAMS)
    app = build_apparatus(sys)
    ops = build_operator_set(sys, app)
    action = first_structure(sys, app, ops.R, ops.psi)
    assert app.MK
    calls = {"kernel": 0, "rref": 0}
    kernel, rref = Matrix.kernel, linalg.rref

    def counted_kernel(m):
        calls["kernel"] += 1
        return kernel(m)

    def counted_rref(m):
        calls["rref"] += 1
        return rref(m)

    monkeypatch.setattr(Matrix, "kernel", counted_kernel)
    monkeypatch.setattr(linalg, "rref", counted_rref)
    decompose_into_components(action, sys, app)
    assert calls["kernel"] == 0 and calls["rref"] <= 1, calls
