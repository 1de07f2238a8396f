from fractions import Fraction

import pytest

from helpers import (
    conjugate,
    contains,
    kspaces_by_lemma,
    leonard,
    replace,
    second_inversion,
    span,
    unimodular,
    whole,
)
from test_golden import SHAPE_A, SHAPE_ASTAR, SHAPE_PARAMS

from tdlab import forge
from tdlab import split as split_module
from tdlab.linalg import (
    Matrix,
    Subspace,
    is_direct_sum,
    sum_of,
)
from tdlab.split import (
    SplitStructureError,
    build_apparatus,
    build_B,
    build_K,
    compute_K_spaces,
    eigenspace_sums,
    split_decomposition,
    verify_minpoly_on_MKi,
)

F = Fraction


@pytest.fixture(scope="module")
def w1():
    return forge.fixture(1)


@pytest.fixture(scope="module")
def w1_app(w1):
    return build_apparatus(w1)


@pytest.fixture(scope="module", params=[1, 2, 3])
def any_sys(request):
    return forge.fixture(request.param)


@pytest.fixture(scope="module")
def any_app(any_sys):
    return build_apparatus(any_sys)


def split(sys, flavor):
    return split_decomposition(sys, flavor, eigenspace_sums(sys))


def test_w1_first_split(w1):
    u = split(w1, "first")
    assert u == (
        span(2, (1, 0)),
        span(2, (0, 1)),
    )


def test_w1_second_split(w1):
    udd = split(w1, "second")
    assert udd == (
        span(2, (1, 0)),
        span(2, (4, 1)),
    )


def test_splits_decompose_v(any_sys):
    n = any_sys.dim
    for flavor in ("first", "second"):
        spaces = split(any_sys, flavor)
        assert sum(s.dim for s in spaces) == n
        assert is_direct_sum(list(spaces))


def test_prefix_identity(any_sys, any_app):
    """Both splits refine the flag E*_0 V + ... + E*_i V that the apparatus keeps."""
    assert len(any_app.flag) == any_sys.d + 1
    for i in range(any_sys.d + 1):
        assert sum_of(any_app.U[: i + 1]) == sum_of(any_app.Udd[: i + 1]) == any_app.flag[i]
        assert any_app.flag[i] == sum_of(any_sys.eigstar.eigenspaces[: i + 1])


@pytest.mark.parametrize("build,fault,message", [
    (lambda: forge.fixture(2), lambda u: (u[0], u[0]) + u[2:], "not direct"),
    (lambda: golden_shape(), lambda u: (u[0], u[0]) + u[2:], "not direct"),
    (lambda: golden_shape(), lambda u: (u[1], u[0]) + u[2:], "do not refine one flag"),
], ids=["singular", "too-few-columns", "swapped"])
def test_apparatus_refuses_a_split_off_the_flag(build, fault, message, monkeypatch):
    """A split that is not direct is refused by building K and B; a direct
    one whose dimensions are not those of the E*_i V, by the flag check."""
    system = build()
    original = split_module.split_decomposition
    monkeypatch.setattr(split_module, "split_decomposition",
                        lambda *args: fault(original(*args)))
    with pytest.raises(SplitStructureError, match=message):
        build_apparatus(system)


def test_dimension_ladder(any_sys, any_app):
    for i in range(any_sys.d + 1):
        dims = {
            any_sys.eig.eigenspaces[i].dim,
            any_sys.eigstar.eigenspaces[i].dim,
            any_app.U[i].dim,
            any_app.Udd[i].dim,
        }
        assert len(dims) == 1


def test_w1_K(w1_app):
    assert w1_app.Kop == Matrix.diagonal([2, F(1, 2)])


def test_w1_B(w1_app):
    assert w1_app.Bop == Matrix([[2, -6], [0, "1/2"]])


def test_inverses_follow_replaced_operators(w1_app):
    assert w1_app.Kinv == w1_app.Kop.inverse()
    assert w1_app.Binv == w1_app.Bop.inverse()
    x = Matrix.diagonal([3, 5])
    assert replace(w1_app, Kop=x).Kinv == x.inverse()
    assert replace(w1_app, Bop=x).Binv == x.inverse()


def test_B_is_K_of_inversion(any_sys):
    inv = second_inversion(any_sys)
    assert build_B(any_sys, split(any_sys, "second")) == build_K(inv, split(inv, "first"))


def test_K_B_spectrum(any_sys, any_app):
    d, q, n = any_sys.d, any_sys.params.q, any_sys.dim
    eye = Matrix.identity(n)
    for op, spaces in ((any_app.Kop, any_app.U), (any_app.Bop, any_app.Udd)):
        assert op.rank() == n
        for i, s in enumerate(spaces):
            assert ((op - q ** (d - 2 * i) * eye) * s.basis).is_zero()


def test_K0_is_U0(any_sys, any_app):
    assert any_app.Kspaces[0] == any_sys.eigstar.eigenspaces[0]
    assert any_app.Kspaces[0] == any_app.U[0]


def test_Ki_is_intersection(any_sys, any_app):
    assert any_app.Kspaces == kspaces_by_lemma(any_sys)
    for i, k in enumerate(any_app.Kspaces):
        assert contains(any_app.U[i], k) and contains(any_app.Udd[i], k)


def golden_shape():
    """The (1,2,1) shape of the golden tests, the one input here with K_1 != 0."""
    return forge.validate((Matrix(SHAPE_A), Matrix(SHAPE_ASTAR)), SHAPE_PARAMS)


@pytest.mark.parametrize("build,seed,dims", [
    (lambda: leonard(4), 7, [1, 0, 0]),
    (lambda: leonard(4), 11, [1, 0, 0]),
    (golden_shape, None, [1, 1]),
    (golden_shape, 7, [1, 1]),
], ids=["leonard4-dense7", "leonard4-dense11", "shape121", "shape121-dense7"])
def test_Ki_is_the_lemma_on_dense_input_and_shapes(build, seed, dims):
    system = build()
    if seed is not None:
        system = conjugate(system, unimodular(system.dim, seed))
    kspaces = build_apparatus(system).Kspaces
    assert kspaces == kspaces_by_lemma(system)
    assert [k.dim for k in kspaces] == dims


def test_w1_cells(w1_app):
    assert w1_app.cells[(0, 0)].space == span(2, (1, 0))
    assert w1_app.cells[(0, 1)].space == span(2, (0, 1))


def test_cell_diagonal_is_Ki(any_app):
    for i, k in enumerate(any_app.Kspaces):
        if not k.is_zero():
            assert any_app.cells[(i, i)].space == k


def test_cells_decompose_v(any_sys, any_app):
    assert sum(c.space.dim for c in any_app.cells.values()) == any_sys.dim


def test_KUdd(any_sys, any_app):
    d, q, n = any_sys.d, any_sys.params.q, any_sys.dim
    eye = Matrix.identity(n)
    for i in range(d + 1):
        prefix = sum_of((Subspace.zero(n),) + any_app.U[:i])
        shifted = (any_app.Bop - q ** (d - 2 * i) * eye) * any_app.U[i].basis
        assert contains(prefix, Subspace.from_columns(shifted))
        prefix_dd = sum_of((Subspace.zero(n),) + any_app.Udd[:i])
        shifted = (any_app.Kop - q ** (d - 2 * i) * eye) * any_app.Udd[i].basis
        assert contains(prefix_dd, Subspace.from_columns(shifted))


def test_minpoly_on_MKi(any_sys, any_app):
    for i, k in enumerate(any_app.Kspaces):
        if not k.is_zero():
            killed, (survives, _) = verify_minpoly_on_MKi(any_sys, any_app, i)
            assert killed.is_zero() and survives


def test_MKi_decompose_v_and_A_invariant(any_sys, any_app):
    parts = [
        any_app.MK[i]
        for i, k in enumerate(any_app.Kspaces)
        if not k.is_zero()
    ]
    assert is_direct_sum(parts)
    for mk in parts:
        image = Subspace.from_columns(any_sys.A * mk.basis)
        assert contains(mk, image)


def test_w1_minpoly_is_characteristic(w1, w1_app):
    # at d = 1 the length-2 factored product annihilates all of V
    killed, (survives, _) = verify_minpoly_on_MKi(w1, w1_app, 0)
    assert killed.is_zero() and survives
    assert w1_app.MK[0] == whole(2)


def test_compute_K_spaces_retains_zero_spaces():
    sys2 = forge.fixture(2)
    kspaces = compute_K_spaces(split(sys2, "first"), split(sys2, "second"))
    assert len(kspaces) == 2
    assert kspaces[1].is_zero()  # rank-1 Leonard case: only K_0 survives
