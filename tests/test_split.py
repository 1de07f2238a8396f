from fractions import Fraction

import pytest

from helpers import replace, span, whole
from tdlab import forge
from tdlab.linalg import (
    Matrix,
    Subspace,
    is_direct_sum,
    subspace_intersect,
    sum_of,
)
from tdlab.split import (
    build_apparatus,
    build_B,
    build_K,
    compute_K_spaces,
    split_decomposition,
    verify_minpoly_on_MKi,
)
from tdlab.tdsystem import second_inversion

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


def test_w1_first_split(w1):
    u = split_decomposition(w1, "first")
    assert u == (
        span(2, (1, 0)),
        span(2, (0, 1)),
    )


def test_w1_second_split(w1):
    udd = split_decomposition(w1, "second")
    assert udd == (
        span(2, (1, 0)),
        span(2, (4, 1)),
    )


def test_splits_decompose_v(any_sys):
    n = any_sys.dim
    for flavor in ("first", "second"):
        spaces = split_decomposition(any_sys, flavor)
        assert sum(s.dim for s in spaces) == n
        assert is_direct_sum(list(spaces), n)


def test_prefix_identity(any_sys, any_app):
    n = any_sys.dim
    for i in range(any_sys.d + 1):
        assert sum_of(any_app.U[: i + 1], n) == sum_of(any_app.Udd[: i + 1], n)


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
    assert build_B(any_sys) == build_K(second_inversion(any_sys))


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
    for i, k in enumerate(any_app.Kspaces):
        assert k == subspace_intersect(any_app.U[i], any_app.Udd[i])
        assert any_app.U[i].contains(k) and any_app.Udd[i].contains(k)


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
        prefix = sum_of(any_app.U[:i], n)
        shifted = (any_app.Bop - q ** (d - 2 * i) * eye) * any_app.U[i].basis
        assert prefix.contains(Subspace.from_columns(n, shifted))
        prefix_dd = sum_of(any_app.Udd[:i], n)
        shifted = (any_app.Kop - q ** (d - 2 * i) * eye) * any_app.Udd[i].basis
        assert prefix_dd.contains(Subspace.from_columns(n, shifted))


def test_minpoly_on_MKi(any_sys, any_app):
    for i, k in enumerate(any_app.Kspaces):
        if not k.is_zero():
            killed, (survives, _) = verify_minpoly_on_MKi(any_sys, any_app, i)
            assert killed.is_zero() and survives


def test_MKi_decompose_v_and_A_invariant(any_sys, any_app):
    n = any_sys.dim
    parts = [
        any_app.MK[i]
        for i, k in enumerate(any_app.Kspaces)
        if not k.is_zero()
    ]
    assert is_direct_sum(parts, n)
    for mk in parts:
        image = Subspace.from_columns(n, any_sys.A * mk.basis)
        assert mk.contains(image)


def test_w1_minpoly_is_characteristic(w1, w1_app):
    # at d = 1 the length-2 factored product annihilates all of V
    killed, (survives, _) = verify_minpoly_on_MKi(w1, w1_app, 0)
    assert killed.is_zero() and survives
    assert w1_app.MK[0] == whole(2)


def test_compute_K_spaces_retains_zero_spaces():
    sys2 = forge.fixture(2)
    kspaces = compute_K_spaces(sys2)
    assert len(kspaces) == 2
    assert kspaces[1].is_zero()  # rank-1 Leonard case: only K_0 survives
