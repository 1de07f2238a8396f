from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    column,
    commutant_oracle,
    contains,
    eval_factored_poly,
    solve_linear,
    span,
    whole,
)
from tdlab.linalg import (
    Matrix,
    Subspace,
    combine,
    is_direct_sum,
    rat,
    rref,
    solve_commutant_constraint,
    subspace_intersect,
    sum_of,
)


def M(rows):
    return Matrix(rows)


class TestRref:
    def test_identity(self):
        rank, ech, pivots = rref(M([[1, 0], [0, 1]]))
        assert rank == 2
        assert ech == Matrix.identity(2)
        assert pivots == (0, 1)

    def test_proportional_rows(self):
        rank, ech, pivots = rref(M([[2, 4], [1, 2]]))
        assert rank == 1
        assert ech == M([[1, 2], [0, 0]])
        assert pivots == (0,)

    def test_zero_matrix(self):
        rank, _, pivots = rref(M([[0, 0], [0, 0]]))
        assert rank == 0
        assert pivots == ()

    def test_rational_pivoting(self):
        rank, ech, _ = rref(M([["1/2", "1/3"], ["1/4", "1/6"]]))
        assert rank == 1
        assert ech.row(0) == (Fraction(1), Fraction(2, 3))


class TestMatrix:
    def test_exact_inverse(self):
        a = M([["2/3", 1], [5, "7/2"]])
        assert a * a.inverse() == Matrix.identity(2)

    def test_singular_inverse_raises(self):
        with pytest.raises(ValueError):
            M([[1, 2], [2, 4]]).inverse()

    def test_kernel(self):
        ker = M([[1, 2], [2, 4]]).kernel()
        assert ker.cols == 1
        assert M([[1, 2], [2, 4]]) * ker == Matrix.zeros(2, 1)

    def test_power(self):
        n = M([[0, 1], [0, 0]])
        assert n**2 == Matrix.zeros(2, 2)
        assert n**0 == Matrix.identity(2)
        with pytest.raises(ValueError):
            M([[2, 0], [0, 1]]) ** -1

    def test_string_round_trip(self):
        a = M([["-3/7", "2"], ["0", "11/13"]])
        assert Matrix.from_strings(a.to_strings()) == a

    def test_bad_rational_string(self):
        with pytest.raises(ValueError):
            rat("1/0")

    def test_exponent_notation_refused(self):
        # Fraction would expand this to 10^400000.
        for text in ("1e400000", "2.5E-3", "1/1e5"):
            with pytest.raises(ValueError, match="not a rational"):
                rat(text)
        assert (rat("-12"), rat("3/4"), rat("0.25")) == (-12, Fraction(3, 4), Fraction(1, 4))


class TestSubspaceLattice:
    def test_sum_spans_plane(self):
        s = sum_of((span(2, (1, 0)), span(2, (0, 1))))
        assert s == whole(2)

    def test_sum_idempotent(self):
        s = span(3, (1, 2, 3), (0, 1, 1))
        assert sum_of((s, s)) == s
        assert sum_of((Subspace.zero(3), s)) == s == sum_of((s, Subspace.zero(3)))

    def test_sum_echelon_basis(self):
        # oracle: rref of the stacked generators
        s = sum_of((span(3, (1, 1, 0)), span(3, (0, 1, 1))))
        assert s.dim == 2
        assert s.basis == Matrix.from_columns([(1, 0, -1), (0, 1, 1)])

    def test_intersect_trivial(self):
        assert subspace_intersect(span(2, (1, 0)), span(2, (0, 1))).is_zero()

    def test_intersect_identity(self):
        v = whole(3)
        assert subspace_intersect(v, v) == v

    def test_intersect_line(self):
        # oracle: brute-force solve a(1,1,0) + b(0,1,1) = (c,0,e)
        s = subspace_intersect(
            span(3, (1, 1, 0), (0, 1, 1)), span(3, (1, 0, 0), (0, 0, 1))
        )
        assert s == span(3, (1, 0, -1))

    def test_direct_sum_plane(self):
        assert is_direct_sum([span(2, (1, 0)), span(2, (0, 1))])

    def test_direct_sum_repeated_line(self):
        assert not is_direct_sum([span(2, (1, 0)), span(2, (1, 0))])

    def test_direct_sum_zero_parts_and_short_sums(self):
        line, zero = span(3, (1, 0, 0)), Subspace.zero(3)
        assert is_direct_sum([zero, whole(3), zero])
        assert not is_direct_sum([line, span(3, (0, 1, 0))])
        assert not is_direct_sum([line, line, span(3, (0, 1, 0))])
        assert not is_direct_sum([zero])

    def test_canonicality(self):
        a = span(3, (1, 1, 0), (0, 1, 1))
        b = span(3, (1, 2, 1), (2, 3, 1))
        assert a == b
        assert a.basis == b.basis

    def test_containment(self):
        s = span(3, (1, 1, 0), (0, 1, 1))
        assert contains(s, span(3, (1, 2, 1)))
        assert not contains(s, span(3, (1, 0, 0)))

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            sum_of((span(2, (1, 0)), span(3, (1, 0, 0))))

    @pytest.mark.parametrize("lattice_op", [sum_of, is_direct_sum])
    def test_refuses_no_parts_and_mismatched_parts(self, lattice_op):
        line = span(3, (1, 0, 0))
        for parts in ([], (), [line, span(2, (1, 0))], [line, Subspace.zero(2)],
                      [Subspace.zero(2), line], [Subspace.zero(3), Subspace.zero(2)]):
            with pytest.raises(ValueError):
                lattice_op(parts)


small_matrices = st.lists(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
    min_size=1,
    max_size=3,
)


@given(small_matrices, small_matrices)
@settings(max_examples=60, deadline=None)
def test_modular_law(gen_s, gen_t):
    s = span(4, *gen_s)
    t = span(4, *gen_t)
    total = sum_of((s, t))
    meet = subspace_intersect(s, t)
    assert contains(total, s) and contains(total, t)
    assert contains(s, meet) and contains(t, meet)
    assert s.dim + t.dim == total.dim + meet.dim


class TestFactoredPoly:
    def test_empty_product_is_identity(self):
        a = M([[1, 2], [3, 4]])
        assert eval_factored_poly(a, []) == Matrix.identity(2)

    def test_diagonal(self):
        assert eval_factored_poly(Matrix.diagonal([2, 3]), [2]) == Matrix.diagonal(
            [0, 1]
        )

    def test_w1_raising(self):
        a = M([["37/6", 0], [1, "13/6"]])
        tau = eval_factored_poly(a, [Fraction(37, 6)])
        assert tau * column((1, 0)) == column((0, 1))

    def test_multiplicative(self):
        a = M([[1, 1, 0], [0, 2, 1], [0, 0, 3]])
        left = eval_factored_poly(a, [1, 2])
        right = eval_factored_poly(a, [3, 5])
        assert left * right == eval_factored_poly(a, [1, 2, 3, 5])


NOT_A_BASIS = "R-orbits of the annihilated spaces are not a basis"


class TestCommutantSolver:
    def test_all_solutions_when_unconstrained(self):
        # Every X solves it, so no orbit (there is none) can fix X.
        zero = Matrix.zeros(2, 2)
        assert commutant_oracle(zero, zero, []) == (zero, 4)
        with pytest.raises(ValueError, match=NOT_A_BASIS):
            solve_commutant_constraint(zero, zero, [])

    def test_inconsistent(self):
        # XR - RX = 0 != C, but with no orbit the solver decides nothing.
        zero, c = Matrix.zeros(2, 2), M([[1, 0], [0, 0]])
        assert commutant_oracle(zero, c, []) == (None, 0)
        with pytest.raises(ValueError, match=NOT_A_BASIS):
            solve_commutant_constraint(zero, c, [])

    def test_w1_lowering_operator(self):
        # oracle for the W1 lowering map: direct linear solve
        r = M([[0, 0], [1, 0]])
        c = M([["9/4", 0], [0, "-9/4"]])
        k0 = span(2, (1, 0))
        assert solve_commutant_constraint(r, c, [k0]) == M([[0, "9/4"], [0, 0]])
        assert commutant_oracle(r, c, [k0]) == (M([[0, "9/4"], [0, 0]]), 0)

    def test_failed_top_condition_is_inconsistent(self):
        # The orbit e_0 -> e_1 -> 0 is a basis, but y_2 = R e_0 + C e_1 = 2 e_1.
        r = M([[0, 0], [1, 0]])
        c = Matrix.identity(2)
        with pytest.raises(ValueError, match="^inconsistent$"):
            solve_commutant_constraint(r, c, [span(2, (1, 0))])
        assert commutant_oracle(r, c, [span(2, (1, 0))]) == (None, 0)

    def test_orbit_that_never_ends_stops(self):
        eye = Matrix.identity(3)
        with pytest.raises(ValueError, match=NOT_A_BASIS):
            solve_commutant_constraint(eye, Matrix.zeros(3, 3), [span(3, (1, 2, 3))])

    def test_singular_orbits_are_not_a_basis(self):
        r = M([[0, 0], [1, 0]])
        with pytest.raises(ValueError, match=NOT_A_BASIS):
            solve_commutant_constraint(r, Matrix.zeros(2, 2), [span(2, (0, 1)), span(2, (0, 1))])


# R and C with small integer entries, and one annihilated line or plane S
# of Q^n, n <= 4.  R is mostly strictly lower triangular, so that every
# orbit ends, and C is mostly X0 R - R X0 for some X0 with X0 S = 0, so
# that a solution exists.
@st.composite
def commutant_systems(draw):
    n = draw(st.integers(1, 4))
    small = st.integers(-2, 2)
    lower = draw(st.booleans()) or draw(st.booleans())
    r = Matrix([[draw(small) if (j < i or not lower) else 0 for j in range(n)]
                for i in range(n)])
    k = draw(st.integers(1, min(2, n)))
    space = Subspace.from_columns(
        Matrix.from_columns([[draw(small) for _ in range(n)] for _ in range(k)]))
    if draw(st.booleans()) or draw(st.booleans()):
        rows = space.basis.transpose().kernel().transpose()  # rows w, w S = 0
        z = Matrix([[draw(small) for _ in range(rows.rows)] for _ in range(n)])
        x0 = z * rows if rows.rows else Matrix.zeros(n, n)
        c = x0 * r - r * x0
    else:
        c = Matrix([[draw(small) for _ in range(n)] for _ in range(n)])
    return r, c, [space]


@given(commutant_systems())
@example((M([[0, 0], [1, 0]]), M([[1, 0], [0, -1]]), [span(2, (1, 0))]))
@example((M([[0, 0], [1, 0]]), Matrix.identity(2), [span(2, (1, 0))]))
@settings(max_examples=80, deadline=None)
def test_orbit_solve_agrees_with_dense_oracle(system):
    r, c, annihilated = system
    solution, freedom = commutant_oracle(r, c, annihilated)
    try:
        x = solve_commutant_constraint(r, c, annihilated)
    except ValueError as exc:
        assert str(exc) == "inconsistent" or NOT_A_BASIS in str(exc)
        if str(exc) == "inconsistent":
            assert solution is None
        return
    assert freedom == 0 and x == solution


# -- oracles for the zero-skipping primitives ---------------------------------

nonzero_fractions = st.fractions(
    min_value=-6, max_value=6, max_denominator=5
).filter(bool)
# About three entries in four are zero, as in the split-form operators.
sparse_entries = st.tuples(st.integers(0, 3), nonzero_fractions).map(
    lambda t: t[1] if t[0] == 0 else Fraction(0)
)


def sparse_matrices(rows, cols):
    return st.lists(
        st.lists(sparse_entries, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(Matrix)


# Column counts start at 0: an n x 0 matrix is a valid operand.
dims = st.integers(0, 5)
shapes = st.tuples(st.integers(1, 5), dims)
matrices = shapes.flatmap(lambda s: sparse_matrices(*s))
square_matrices = st.integers(1, 5).flatmap(lambda n: sparse_matrices(n, n))


def dense_product(a, b):
    """The dense triple sum, entry by entry."""
    return Matrix(
        [
            [sum((a[i, k] * b[k, j] for k in range(a.cols)), Fraction(0))
             for j in range(b.cols)]
            for i in range(a.rows)
        ]
    )


def entrywise(a, b, op):
    return Matrix(
        [[op(a[i, j], b[i, j]) for j in range(a.cols)] for i in range(a.rows)]
    )


@given(
    st.tuples(st.integers(1, 5), dims, st.integers(1, 5)).flatmap(
        lambda s: st.tuples(sparse_matrices(s[0], s[1]), sparse_matrices(s[1], s[2]))
    )
)
@settings(max_examples=50, deadline=None)
def test_product_matches_dense_sum(pair):
    a, b = pair
    assert a * b == dense_product(a, b)


@given(shapes.flatmap(lambda s: st.tuples(sparse_matrices(*s), sparse_matrices(*s))))
@settings(max_examples=50, deadline=None)
def test_add_sub_match_entrywise(pair):
    a, b = pair
    assert a + b == entrywise(a, b, lambda x, y: x + y)
    assert a - b == entrywise(a, b, lambda x, y: x - y)


@given(matrices, st.one_of(st.just(Fraction(0)), nonzero_fractions))
@settings(max_examples=50, deadline=None)
def test_scale_matches_dense(a, s):
    assert a.scale(s) == entrywise(a, a, lambda x, _: s * x)


ARITHMETIC_DUNDERS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
)


def test_primitives_do_no_fraction_arithmetic(monkeypatch):
    # The primitives work on integer numerators over a common denominator:
    # no Fraction arithmetic at all, even with non-integer entries.
    n = 6
    bidiag = Matrix(
        [[Fraction(j + 1, i + 2) if j in (i, i + 1) else 0 for j in range(n)]
         for i in range(n)]
    )
    lower = Matrix(
        [[Fraction(i - j + 1, j + 3) if j <= i else 0 for j in range(n)]
         for i in range(n)]
    )
    b = column([Fraction(k, 5) for k in range(n)])
    calls = []
    for name in ARITHMETIC_DUNDERS:
        original = getattr(Fraction, name)

        def counted(*args, _original=original):
            calls.append(1)
            return _original(*args)

        monkeypatch.setattr(Fraction, name, counted)
    results = [
        bidiag * lower, bidiag + lower, bidiag - lower, lower.scale(Fraction(-3, 7)),
        rref(bidiag.hstack(lower)), lower.kernel(), bidiag.hstack(lower).kernel(),
        bidiag.inverse(), lower.inverse(), solve_linear(lower, b),
    ]
    assert calls == []
    monkeypatch.undo()
    product, total, difference, scaled, echelon, ker, wide_ker, binv, linv, solved = (
        results
    )
    assert product == dense_product(bidiag, lower)
    assert total == entrywise(bidiag, lower, lambda x, y: x + y)
    assert difference == entrywise(bidiag, lower, lambda x, y: x - y)
    assert scaled == entrywise(lower, lower, lambda x, _: Fraction(-3, 7) * x)
    assert echelon[0] == n and ker.cols == 0 and wide_ker.cols == n
    assert bidiag.hstack(lower) * wide_ker == Matrix.zeros(n, n)
    assert binv * bidiag == Matrix.identity(n) and lower * linv == Matrix.identity(n)
    assert lower * solved[0] == b


def sympy_of(m):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix(
        m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for x in m.entries()]
    )


def from_sympy(s):
    if s.rows == 0:
        return Matrix.zeros(0, s.cols)
    return Matrix([[Fraction(int(x.p), int(x.q)) for x in s.row(i)] for i in range(s.rows)])


def sympy_columns(vectors, n):
    if not vectors:
        return Matrix.zeros(n, 0)
    return Matrix.from_columns(
        [[Fraction(int(x.p), int(x.q)) for x in v] for v in vectors]
    )


@given(matrices)
@example(Matrix([[], []]))
@settings(max_examples=50, deadline=None)
def test_rref_and_kernel_match_sympy(a):
    s = sympy_of(a)
    ech, pivots = s.rref()
    rank, ours, our_pivots = rref(a)
    assert ours == from_sympy(ech)
    assert our_pivots == tuple(pivots)
    assert rank == len(pivots)
    assert a.kernel() == sympy_columns(s.nullspace(), a.cols)


@given(square_matrices, st.booleans())
@settings(max_examples=50, deadline=None)
def test_inverse_matches_sympy(a, unit_diagonal):
    if unit_diagonal:
        a = a + Matrix.identity(a.rows)
    s = sympy_of(a)
    if s.det() == 0:
        with pytest.raises(ValueError):
            a.inverse()
    else:
        assert a.inverse() == from_sympy(s.inv())


@given(
    shapes.flatmap(
        lambda s: st.tuples(sparse_matrices(*s), sparse_matrices(s[0], 1), st.booleans())
    )
)
@example((Matrix([[], []]), Matrix.zeros(2, 1), True))
@settings(max_examples=50, deadline=None)
def test_solve_linear_matches_sympy(case):
    a, b, consistent = case
    if consistent:
        # Make b = a x for a sparse x, so that the system has a solution.
        b = a * column([a[0, j] for j in range(a.cols)])
    solved = solve_linear(a, b)
    try:
        x, params = sympy_of(a).gauss_jordan_solve(sympy_of(b))
    except ValueError:
        assert solved is None
        return
    particular, ker = solved
    zeros = {p: 0 for p in x.free_symbols}
    assert particular == from_sympy(x.subs(zeros))
    assert a * particular == b
    assert ker == sympy_columns(sympy_of(a).nullspace(), a.cols)
    assert ker.cols == params.rows


# -- integer storage: empty shapes, canonical form, growth ---------------------


class TestEmptyShapes:
    def test_shapes(self):
        assert Matrix.zeros(0, 3).shape == (0, 3)
        assert Matrix.zeros(3, 0).shape == (3, 0)
        assert Matrix([]).shape == (0, 0)
        assert Matrix([[], []]).shape == (2, 0)
        assert Matrix.zeros(0, 3).transpose().shape == (3, 0)
        assert Matrix.zeros(3, 0).transpose().shape == (0, 3)
        assert Matrix.zeros(0, 3) != Matrix.zeros(0, 2)

    def test_solve_without_unknowns(self):
        a = Matrix.zeros(2, 0)
        b = Matrix.zeros(2, 1)
        particular, ker = solve_linear(a, b)
        assert particular.shape == (0, 1)
        assert ker.shape == (0, 0)
        assert a * particular == b
        assert solve_linear(a, M([[1], [0]])) is None


def primitive_results(a, b, s):
    """One result of each primitive on a and b (same shape) and the scalar s."""
    square = a * a.transpose()
    yield a + b
    yield a - b
    yield -a
    yield a.scale(s)
    yield a.transpose()
    yield a.hstack(b)
    yield square
    yield rref(a)[1]
    yield a.kernel()
    yield Subspace.from_columns(a).basis
    if square.rank() == square.rows:
        yield square.inverse()
    solved = solve_linear(a, b * column([1] * b.cols)) if b.cols else None
    if solved is not None:
        yield from solved


@given(
    shapes.flatmap(lambda s: st.tuples(sparse_matrices(*s), sparse_matrices(*s))),
    st.one_of(st.just(Fraction(0)), nonzero_fractions),
)
@settings(max_examples=60, deadline=None)
def test_results_are_canonical(pair, s):
    # A result equals the matrix parsed from its own strings, with the same
    # hash: internal results are stored in the same form as parsed input.
    a, b = pair
    for result in primitive_results(a, b, s):
        if result.rows:
            parsed = Matrix.from_strings(result.to_strings())
        else:
            parsed = Matrix.zeros(0, result.cols)  # no strings to parse
        assert result == parsed
        assert hash(result) == hash(parsed)
    assert (a + b) - b == a
    assert hash((a + b) - b) == hash(a)


def test_hilbert_inverse_closed_form():
    # H[i, j] = 1/(i + j + 1); its inverse has integer entries
    # (-1)^(i+j) (i+j+1) C(n+i, n-j-1) C(n+j, n-i-1) C(i+j, i)^2.
    n = 8
    h = Matrix([[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)])
    expected = Matrix(
        [
            [
                (-1) ** (i + j) * (i + j + 1) * comb(n + i, n - j - 1)
                * comb(n + j, n - i - 1) * comb(i + j, i) ** 2
                for j in range(n)
            ]
            for i in range(n)
        ]
    )
    assert h.inverse() == expected
    assert expected.inverse() == h
    assert solve_linear(h, column([1] + [0] * (n - 1)))[0] == column(expected.col(0))


# -- fused linear combinations and the one-rank containment test --------------

coefficients = st.one_of(st.just(Fraction(0)), nonzero_fractions)


@given(
    shapes.flatmap(
        lambda s: st.lists(st.tuples(coefficients, sparse_matrices(*s)), min_size=1, max_size=4)
    )
)
@settings(max_examples=50, deadline=None)
def test_combine_matches_chained_operators(terms):
    chained = terms[0][1].scale(terms[0][0])
    for c, m in terms[1:]:
        chained = chained + m.scale(c) if c >= 0 else chained - (-c) * m
    fused = combine(*terms)
    assert (fused._n, fused._d, hash(fused)) == (chained._n, chained._d, hash(chained))
    rows, cols = fused.shape
    assert fused == Matrix(
        [[sum((c * m[i, j] for c, m in terms), Fraction(0)) for j in range(cols)]
         for i in range(rows)]
    )


class TestCombine:
    def test_zero_coefficients(self):
        a = M([[1, "1/2"], [0, 3]])
        zero = combine((0, a), (Fraction(0), -a))
        assert zero == Matrix.zeros(2, 2) and zero._d == 1
        assert combine((0, a), (Fraction(2, 3), a), (0, a)) == M([["2/3", "1/3"], [0, 2]])

    def test_cancellation_is_normalized(self):
        a = M([["1/6", "1/3"], [0, "5/6"]])
        assert combine((1, a), (-1, a)) == Matrix.zeros(2, 2)
        assert combine((2, a), (-1, a)) == a and hash(combine((2, a), (-1, a))) == hash(a)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_shapes(self, shape):
        z = Matrix.zeros(*shape)
        assert combine((2, z), (Fraction(-1, 3), z)) == z
        assert (z + z).shape == (-z).shape == z.scale(5).shape == shape

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            combine((1, Matrix.zeros(2, 3)), (1, Matrix.zeros(3, 2)))
        with pytest.raises(ValueError, match="shape mismatch"):
            Matrix.zeros(0, 2) + Matrix.zeros(0, 3)
        with pytest.raises(ValueError, match="shape mismatch"):
            combine((0, Matrix.zeros(2, 2)), (0, Matrix.zeros(2, 1)))


def matrices_of_shape(rows, cols):
    """Sparse rows x cols matrices, including those with no rows."""
    return sparse_matrices(rows, cols) if rows else st.just(Matrix.zeros(0, cols))


@given(
    st.tuples(st.integers(1, 4), st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda s: st.tuples(
            matrices_of_shape(s[0], s[1]),
            matrices_of_shape(s[1], s[2]),
            matrices_of_shape(s[0], s[2]),
            st.booleans(),
        )
    )
)
@example((Matrix.zeros(3, 0), Matrix.zeros(0, 2), Matrix.zeros(3, 2), False))
@example((Matrix.zeros(3, 2), Matrix.zeros(2, 2), M([[0, 1], [0, 0], [0, 0]]), False))
@example((M([[1], [0], [0]]), M([[0, 2]]), M([[0, 0], [0, 0], [0, 0]]), False))
@settings(max_examples=80, deadline=None)
def test_holds_matches_contains(case):
    # `inside` draws the columns from the span of the generators.
    generators, mix, other, inside = case
    s = Subspace.from_columns(generators)
    columns = generators * mix if inside else other
    assert s.holds(columns) == contains(s, Subspace.from_columns(columns))
    assert s.holds(columns) or not inside


def test_holds_checks_the_ambient_dimension():
    with pytest.raises(ValueError):
        span(3, (1, 0, 0)).holds(Matrix.zeros(2, 1))
