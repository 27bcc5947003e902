import json
import random
import timeit
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kzrat import (
    FMatrix,
    format_scalar,
    Poly,
    RatFunc,
    SolveKind,
    charpoly,
    det,
    solve_linear,
)
from kzrat.cli import _entry_json, _matrix_json
from kzrat.matrix import (
    ColumnRelations,
    column_relations,
    faddeev_leverrier,
    flat,
    graded,
    int_form,
    int_relations,
    minimal_polynomial,
    nonzero_product,
    nonzero_terms,
    scaled,
    stripped,
)
from kzrat.poly import exact_quotient, rational_roots
from support import (
    I3,
    P1,
    P2,
    FieldRatFunc,
    coefficients,
    entries_built,
    fraction_charpoly,
    fraction_column_relations,
    leibniz_det,
    tracked_solve_linear,
)


def columns_of(vectors, n):
    return FMatrix.from_columns(list(vectors), n)


def test_multiplication_examples():
    assert P1 * P1 == I3
    assert I3 * P2 == P2
    assert P1 * P2 == FMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def test_multiplication_dimension_mismatch():
    with pytest.raises(ValueError):
        FMatrix([[1, 2]]) * FMatrix([[1, 2]])


def test_solve_unique():
    res = solve_linear(I3, P2)
    assert res.kind is SolveKind.UNIQUE
    assert res.particular == P2
    assert res.kernel_basis == ()


def test_solve_affine_kernel_and_identities():
    b = FMatrix([[1, -1, 0], [-1, 1, 0], [0, 0, 0]])
    res = solve_linear(I3 - P1, b)
    assert res.kind is SolveKind.AFFINE
    assert (I3 - P1) * res.particular == b
    assert res.kernel_basis == (
        (Fraction(1), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )
    for v in res.kernel_basis:
        assert ((I3 - P1) * columns_of([v], 3)).is_zero()


def test_solve_inconsistent_certificate():
    res = solve_linear(I3 - P1, I3)
    assert res.kind is SolveKind.INCONSISTENT
    assert res.certificate == (Fraction(1), Fraction(1), Fraction(0))
    y = FMatrix([list(res.certificate)])
    assert (y * (I3 - P1)).is_zero()
    assert not (y * I3).is_zero()


def test_affine_particular_has_zero_free_components():
    res = solve_linear(I3 - P1, FMatrix([[2, 0, 0], [-2, 0, 0], [0, 0, 0]]))
    # free columns of I - P1 are 1 and 2; rows 1, 2 of the particular are zero
    assert res.particular.row(1) == (0, 0, 0)
    assert res.particular.row(2) == (0, 0, 0)


def _random_matrix(rng, n, m):
    return FMatrix(
        [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
            for _ in range(n)
        ]
    )


def _check_result_identities(a, b, res):
    if res.kind is SolveKind.INCONSISTENT:
        y = FMatrix([list(res.certificate)])
        assert (y * a).is_zero()
        assert not (y * b).is_zero()
        return
    assert a * res.particular == b
    for v in res.kernel_basis:
        assert (a * FMatrix.from_columns([v], a.rows)).is_zero()
    if res.kind is SolveKind.UNIQUE:
        assert res.kernel_basis == ()
    else:
        assert len(res.kernel_basis) >= 1


def test_solve_identities_randomized():
    rng = random.Random(20240811)
    for _ in range(80):
        n = rng.randint(1, 4)
        a = _random_matrix(rng, n, n)
        if rng.random() < 0.5:
            # force singularity by duplicating or zeroing a row
            rows = [list(r) for r in a.entries]
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i] = [Fraction(0)] * n if rng.random() < 0.3 else list(rows[j])
            a = FMatrix(rows)
        b = _random_matrix(rng, n, rng.randint(1, 3))
        _check_result_identities(a, b, solve_linear(a, b))


small_entries = st.sampled_from((0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)))


@st.composite
def rank_deficient_systems(draw):
    """(a, b) with a = L R of rank below n, L n x r and R r x n; b = a X for
    a consistent system, else drawn freely (then inconsistent as a rule);
    a graded to d-degree 0 at times, and b then Fractions or monomials of
    one power."""
    n = draw(st.integers(1, 4))
    r = draw(st.integers(0, n - 1))
    m = draw(st.integers(1, 3))

    def matrix(rows, cols):
        row = st.lists(small_entries, min_size=cols, max_size=cols)
        return draw(st.lists(row, min_size=rows, max_size=rows))

    a = FMatrix(matrix(n, r)) * FMatrix(matrix(r, n)) if r else FMatrix.zeros(n, n)
    b = a * FMatrix(matrix(n, m)) if draw(st.booleans()) else FMatrix(matrix(n, m))
    if draw(st.booleans()):
        a = graded(a, 0)
        power = draw(st.sampled_from((None, 0, -2)))
        if power is not None:
            b = graded(b, power)
    return a, b


def _typed(vectors):
    return [[(type(e), e) for e in v] for v in vectors]


@given(rank_deficient_systems())
@settings(max_examples=200, deadline=None)
def test_solve_linear_matches_the_tracked_elimination(system):
    a, b = system
    res = solve_linear(a, b)
    expected = tracked_solve_linear(a, b)
    assert res.kind is expected.kind
    if res.kind is SolveKind.INCONSISTENT:
        assert _typed([res.certificate]) == _typed([expected.certificate])
        assert res.particular is None and res.kernel_basis == ()
        return
    assert res.particular == expected.particular
    assert _typed(res.kernel_basis) == _typed(expected.kernel_basis)
    _check_result_identities(a, b, res)


@given(
    base=st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(small_entries, min_size=n, max_size=n), min_size=1, max_size=3
        )
    ),
    plan=st.lists(st.sampled_from(("zero", "copy", "negated", "combined")), max_size=4),
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_column_relations_match_the_fraction_rref(base, plan, order):
    # columns: the drawn ones (full rank or not), zero columns, copies,
    # negations and combinations of them, in a drawn order
    columns = [list(map(Fraction, c)) for c in base]
    for i, kind in enumerate(plan):
        c = columns[i % len(base)]
        if kind == "zero":
            columns.append([Fraction(0)] * len(c))
        elif kind == "copy":
            columns.append(list(c))
        elif kind == "negated":
            columns.append([-e for e in c])
        else:
            columns.append([x * 2 - y / 3 for x, y in zip(c, columns[-1])])
    order.shuffle(columns)
    m = columns_of(columns, len(base[0]))
    assert column_relations(m) == fraction_column_relations(m)


def test_column_relations_of_zero_and_full_rank_matrices():
    for m in (FMatrix.zeros(3, 2), I3, P1, FMatrix([[Fraction(1, 2), 3], [-7, Fraction(2, 9)]])):
        assert column_relations(m) == fraction_column_relations(m)
    assert column_relations(I3) == ColumnRelations.trivial(3)


def test_det():
    assert det(I3) == 1
    assert det(P1) == -1
    assert det(I3 - P1) == 0
    assert det(FMatrix([[2]])) == 2


# three draws in four from entries that make row swaps and singular matrices common
det_small = st.sampled_from((0, 0, 1, -1, 2, -3, Fraction(1, 2)))
det_entries = st.one_of(det_small, det_small, det_small, coefficients).map(Fraction)


@given(
    rows=st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(det_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    ),
    k=st.integers(-3, 3),
)
@settings(max_examples=200, deadline=None)
def test_det_matches_leibniz_oracle(rows, k):
    n = len(rows)
    expected = leibniz_det(rows)
    value = det(FMatrix(rows))
    assert type(value) is Fraction and value == expected
    # homogeneous graded entries c * d^k: det is the monomial of degree n * k
    graded = det(FMatrix([[RatFunc(c, k) for c in row] for row in rows]))
    assert type(graded) is RatFunc
    assert (graded.coeff, graded.power) == (expected, n * k if expected else 0)


def test_charpoly_of_doubled_transposition():
    # spectrum {2, 2, -2}: (x - 2)^2 (x + 2) = x^3 - 2x^2 - 4x + 8
    assert charpoly(2 * P1) == Poly((8, -4, -2, 1))
    assert charpoly(I3) == Poly((-1, 3, -3, 1))


@given(
    a=st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(coefficients, min_size=n, max_size=n), min_size=n, max_size=n)
    ),
    scale=coefficients,
)
@settings(max_examples=150, deadline=None)
def test_charpoly_matches_fraction_oracle(a, scale):
    a = FMatrix(a)
    assert charpoly(a) == fraction_charpoly(a)
    # scaled on the integers, as by the product with the Fraction
    assert charpoly(a, scale) == fraction_charpoly(a * scale)
    assert scaled(a, scale) == flat(a * scale)
    every = ColumnRelations.trivial(a.cols)
    ints, den = flat(a)
    assert FMatrix.from_basis(ints, den, every) == a
    ints, den = stripped([3 * e for e in ints], 3 * den)
    assert den > 0 and FMatrix.from_basis(ints, den, every) == a


@st.composite
def cleared_forms(draw):
    """(ints, den, relations) for from_basis: relations with every column a
    pivot, or those of a drawn seed (denominator > 1, columns of several
    terms, zero columns); pivot-column entries zero and negative, den 1,
    input not in lowest terms, and at times one entry past CPython's
    int -> str digit cap."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    relations = ColumnRelations.trivial(cols)
    if draw(st.booleans()):
        seed_entries = st.sampled_from((0, 0, 1, -1, 2, 3, Fraction(1, 2)))
        row = st.lists(seed_entries, min_size=cols, max_size=cols)
        seed = draw(st.lists(row, min_size=rows, max_size=rows))
        seed[0][draw(st.integers(0, cols - 1))] = 1
        relations = column_relations(FMatrix(seed))
    size = rows * len(relations.pivots)
    entries = st.just(0) | st.integers(-60, 60)
    ints = draw(st.lists(entries, min_size=size, max_size=size))
    if draw(st.booleans()):
        ints[draw(st.integers(0, len(ints) - 1))] = -(10**4400) - 7
    den = draw(st.sampled_from((1, 1, 2, 12, 35, 10**30)))
    scale = draw(st.sampled_from((1, 1, 6, 10**25)))
    return [e * scale for e in ints], den * scale, relations


def _outcome(fn):
    """fn() or, when it raises ValueError (a digit cap), that type."""
    try:
        return fn()
    except ValueError as exc:
        return type(exc)


@given(cleared_forms())
# the seed relations of kz-s3 conjugated by diag(1, 2, 1), (2, -1, 0) / 2,
# and of a rank-2 projector seed, column 3 = -column 1 - column 2
@example(([3, -6, 1], 5, ColumnRelations((0,), ((2, -1, 0),), 2)))
@example(([1, 0, 2, -3, 0, 4], 3, ColumnRelations((0, 1), ((1, 0, -1), (0, 1, -1)), 1)))
@settings(max_examples=150, deadline=None)
def test_from_basis_cannot_be_told_from_its_fractions(form):
    ints, den, relations = form
    r = len(relations.pivots)
    rows = [ints[i : i + r] for i in range(0, len(ints), r)]
    basis = FMatrix([[Fraction(e, den) for e in row] for row in rows])
    eager = basis * FMatrix(relations.rows) * Fraction(1, relations.den)
    # the shape and the integer readers first, while no entry has been built
    lazy = FMatrix.from_basis(ints, den, relations)
    assert (lazy.rows, lazy.cols) == (eager.rows, eager.cols)
    assert _matrix_json(lazy).cells == [[format_scalar(e) for e in row] for row in eager.entries]
    assert int_form(lazy) == (rows, den, relations, None)
    assert not entries_built(lazy)
    assert flat(lazy) == flat(eager)
    # a matrix held as its entries reads as its least common denominator,
    # every column a pivot, in each entry kind: Fraction, Poly, RatFunc
    full, common = flat(eager)
    n = eager.cols
    full_rows = [full[i : i + n] for i in range(0, len(full), n)]
    trivial = ColumnRelations.trivial(n)
    assert int_form(eager) == (full_rows, common, trivial, None)
    vectors = [[[0, x] if x else [] for x in row] for row in full_rows]
    assert int_form(eager.map(lambda e: Poly([0, e]))) == (vectors, common, trivial, None)
    power = 3 if any(full) else 0
    assert int_form(eager.map(lambda e: RatFunc(e, 3))) == (full_rows, common, trivial, power)
    assert FMatrix.from_basis(ints, den, relations) == eager
    assert eager == FMatrix.from_basis(ints, den, relations)
    assert FMatrix.from_basis(ints, den, relations).transpose() == eager.transpose()
    fresh_repr = _outcome(lambda: repr(FMatrix.from_basis(ints, den, relations)))
    assert fresh_repr == _outcome(lambda: repr(eager))
    assert lazy.entries == eager.entries
    assert all(type(e) is Fraction for row in lazy.entries for e in row)
    assert (lazy.rows, lazy.cols) == (eager.rows, eager.cols)
    assert _matrix_json(lazy).text == _matrix_json(eager).text and flat(lazy) == flat(eager)


@given(cleared_forms(), st.integers(-4, 4))
@example(([3, -6, 1], 5, ColumnRelations((0,), ((2, -1, 0),), 2)), -3)
@example(([0, 0], 7, ColumnRelations((0,), ((1, -1),), 1)), -2)
@settings(max_examples=150, deadline=None)
def test_a_graded_view_cannot_be_told_from_its_monomials(form, power):
    ints, den, relations = form
    r = len(relations.pivots)
    rows = [ints[i : i + r] for i in range(0, len(ints), r)]
    fractions = FMatrix.from_basis(ints, den, relations).entries
    eager = FMatrix([[RatFunc(e, power) for e in row] for row in fractions])
    view = graded(FMatrix.from_basis(ints, den, relations), power)
    # a matrix of Fractions held as its entries is graded as a view too,
    # every column a pivot
    cleared_view = graded(FMatrix(fractions), power)
    # the integer reader first, while no entry has been built
    power_read = power if any(ints) else 0
    assert int_form(view) == (rows, den, relations, power_read)
    decoded = json.loads(_matrix_json(view).text)
    assert decoded == [[_entry_json(e) for e in row] for row in eager.entries]
    assert _matrix_json(cleared_view).text == _matrix_json(view).text == _matrix_json(eager).text
    assert not entries_built(view) and not entries_built(cleared_view)
    # all three read as the same integers, and the same power
    for m in (view, cleared_view, eager):
        rows_m, den_m, relations_m, power_m = int_form(m)
        full, common = relations_m.flat(rows_m, den_m)
        assert [Fraction(x, common) for x in full] == [e for row in fractions for e in row]
        assert power_m == power_read
    assert int_form(cleared_view)[2] == ColumnRelations.trivial(len(fractions[0]))
    assert view.entries == cleared_view.entries == eager.entries
    assert all(type(e) is RatFunc for row in view.entries for e in row)
    assert int_form(FMatrix(fractions))[3] is None


def test_int_form_reads_no_matrix_of_mixed_entries():
    for rows in (
        [[Fraction(1), RatFunc(1, -1)]],
        [[RatFunc(1, -1), RatFunc(2, -2)]],
        [[Poly([1]), Fraction(1)]],
    ):
        with pytest.raises(ValueError, match="no integer form"):
            int_form(FMatrix(rows))


def test_only_a_matrix_of_fractions_is_graded():
    # a matrix of Polys, eager or lazy, or one already graded is refused
    # at the call, not on the first read of the view
    for m in (
        FMatrix([[Poly([1, 2]), Poly()]]),
        FMatrix.from_poly_basis([[[1, 2]]], 3, ColumnRelations.trivial(1)),
        graded(FMatrix([[1]]), -1),
    ):
        with pytest.raises(TypeError, match="only a matrix of Fractions is graded"):
            graded(m, 1)


small_ints = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 10**20))


def _rows(ints, n):
    """A flat n x n int matrix as an FMatrix."""
    return FMatrix.from_basis(ints, 1, ColumnRelations.trivial(n))


def _step_sum(mu, x):
    """p_0(x) .. p_(d-1)(x) of the level step, for mu = c_0 .. c_d:
    p_(d-1) = 1 and p_i = x p_(i+1) + c_(i+1)."""
    ps = [1]
    for c in mu[-2:0:-1]:
        ps.append(ps[-1] * x + c)
    return ps[::-1]


@given(
    na=st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(small_ints, min_size=n * n, max_size=n * n))
    ),
    x=st.integers(-10**12, 10**12),
)
@settings(max_examples=150, deadline=None)
def test_faddeev_leverrier_gives_determinant_and_the_level_step(na, x):
    n, a = na
    coeffs = faddeev_leverrier(a, n)
    step = FMatrix.identity(n) * x - _rows(a, n)
    chi = sum(c * x ** (n - k) for k, c in enumerate(coeffs))
    assert chi == det(step)
    # the level step of compute_series: (xI - A) sum_i p_i(x) A^i = mu(x) I
    mu = minimal_polynomial(a, n)
    ps = _step_sum(mu, x)
    mu_x = sum(c * x**j for j, c in enumerate(mu))
    assert ps[0] * x + mu[0] == mu_x
    total, power = FMatrix.zeros(n, n), FMatrix.identity(n)
    for p in ps:
        total, power = total + power * p, power * _rows(a, n)
    assert step * total == FMatrix.identity(n) * mu_x
    # the flat products on the same draws, both ways round, on one column,
    # and stacked: the terms of a second factor at an offset after the first
    a2 = nonzero_product(nonzero_terms(a, n, n), a, n * n)
    assert _rows(a2, n) == _rows(a, n) * _rows(a, n)
    for left, right in ((a, a2), (a2, a)):
        expected = _rows(left, n) * _rows(right, n)
        assert _rows(nonzero_product(nonzero_terms(left, n, n), right, n * n), n) == expected
        column = nonzero_product(nonzero_terms(left, n, 1), right[::n], n)
        assert column == list(expected.column(0))
        terms = nonzero_terms(left, n, n) + nonzero_terms(right, n, n, n * n)
        stacked = nonzero_product(terms, right, 2 * n * n)
        assert _rows(stacked[n * n :], n) == _rows(right, n) * _rows(right, n)
        assert _rows(stacked[: n * n], n) == expected


def _int_mul(a, b):
    """The product of two int matrices given as lists of rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _square(rows):
    return [x for row in rows for x in row]


def _adjugate(p, n):
    """adj(P) for an invertible int matrix P, as rows of ints."""
    inverse = solve_linear(_rows(p, n), FMatrix.identity(n)).particular
    d = det(_rows(p, n))
    return [[int(e * d) for e in row] for row in inverse.entries]


mp_entries = st.integers(-4, 4)


@st.composite
def minimal_polynomial_cases(draw):
    """(a, n): flat int matrices of the kinds whose minimal polynomial is
    not their characteristic one, and dense ones whose is."""
    n = draw(st.integers(1, 6))
    kind = draw(
        st.sampled_from(("dense", "diagonal", "jordan", "permutation", "scalar", "conjugate"))
    )
    if kind == "dense":
        return draw(st.lists(mp_entries, min_size=n * n, max_size=n * n)), n
    if kind == "permutation":
        perm = draw(st.permutations(range(n)))
        return [int(perm[i] == k) for i in range(n) for k in range(n)], n
    if kind == "scalar":
        c = draw(st.integers(-3, 3))
        return [c * (i % (n + 1) == 0) for i in range(n * n)], n
    # a Jordan block for one eigenvalue, then a diagonal part, its
    # entries drawn from few values so that they repeat
    size = draw(st.integers(1, n)) if kind != "diagonal" else 0
    lam = draw(st.integers(-2, 2))
    diagonal = [lam] * size + draw(st.lists(st.integers(-2, 2), min_size=n - size, max_size=n - size))
    d = [[diagonal[i] * (i == k) + (k == i + 1 < size) for k in range(n)] for i in range(n)]
    if kind != "conjugate":
        return _square(d), n
    p = draw(st.lists(mp_entries, min_size=n * n, max_size=n * n))
    assume(det(_rows(p, n)))
    rows = [p[i : i + n] for i in range(0, n * n, n)]
    return _square(_int_mul(_int_mul(rows, d), _adjugate(p, n))), n


def assert_minimal_polynomial(a, n, mu):
    d = len(mu) - 1
    assert mu[-1] == 1 and all(type(c) is int for c in mu)
    rows = [a[i : i + n] for i in range(0, n * n, n)]
    # zero at A, by Horner on integer matrices
    acc = [[0] * n for _ in range(n)]
    for c in reversed(mu):
        acc = _int_mul(acc, rows)
        for i in range(n):
            acc[i][i] += c
    assert acc == [[0] * n for _ in range(n)]
    chi = faddeev_leverrier(a, n)[::-1]
    assert exact_quotient(chi, mu) is not None
    roots, _ = rational_roots(Poly([Fraction(c) for c in chi]))
    assert all(Poly([Fraction(c) for c in mu])(r) == 0 for r, _ in roots)
    # minimal: I .. A^(d-1) are independent
    powers, power = [], [int(i % (n + 1) == 0) for i in range(n * n)]
    for _ in range(d):
        powers.append(power)
        power = _square(_int_mul([power[i : i + n] for i in range(0, n * n, n)], rows))
    assert len(int_relations([list(col) for col in zip(*powers)]).pivots) == d


@given(minimal_polynomial_cases())
@example(([1, 1, 0, 0, 1, 0, 0, 0, -1], 3))  # mu = (x - 1)^2 (x + 1)
@example(([0, 1, 0, 0, 0, 1, 0, 0, 0], 3))  # nilpotent, mu = x^3
@example(([0] * 4, 2))
@settings(max_examples=200, deadline=None)
def test_minimal_polynomial(case):
    a, n = case
    assert_minimal_polynomial(a, n, minimal_polynomial(a, n))


def test_minimal_polynomial_costs_no_more_than_faddeev_leverrier():
    # a dense 16 x 16, whose minimal polynomial is its characteristic one:
    # the Krylov search takes every power, and stays O(d^2 n^2) in its
    # elimination
    rnd = random.Random(16)
    n = 16
    a = [rnd.randint(-9, 9) for _ in range(n * n)]
    mu = minimal_polynomial(a, n)
    assert mu == faddeev_leverrier(a, n)[::-1]

    def best(fn):
        return min(timeit.repeat(lambda: fn(a, n), number=1, repeat=5))

    assert best(minimal_polynomial) <= 3 * best(faddeev_leverrier)


def test_solver_over_rational_function_field():
    d = FieldRatFunc.var()
    one, zero = FieldRatFunc(1), FieldRatFunc(0)
    a = FMatrix([[d + 1, one], [zero, d]])
    b = FMatrix([[one], [d - 2]])
    res = solve_linear(a, b)
    assert res.kind is SolveKind.UNIQUE
    assert a * res.particular == b
    assert res.particular[1, 0] == (d - 2) / d
    singular = FMatrix([[d, d + 1], [d, d + 1]])
    res2 = solve_linear(singular, FMatrix([[d], [d]]))
    assert res2.kind is SolveKind.AFFINE
    assert singular * res2.particular == FMatrix([[d], [d]])
    res3 = solve_linear(singular, FMatrix([[d], [zero]]))
    assert res3.kind is SolveKind.INCONSISTENT


entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def matrices(n):
    return st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(FMatrix)


@given(a=matrices(3), b=matrices(3), c=matrices(3))
@settings(max_examples=50, deadline=None)
def test_associativity_exact(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
