import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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
    dense_product,
    faddeev_leverrier,
    flat,
    graded,
    int_form,
    sparse_product,
    sparse_rows,
    stripped,
)
from support import (
    I3,
    P1,
    P2,
    FieldRatFunc,
    coefficients,
    entries_built,
    fraction_charpoly,
    leibniz_det,
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
    )
)
@settings(max_examples=150, deadline=None)
def test_charpoly_matches_fraction_oracle(a):
    a = FMatrix(a)
    assert charpoly(a) == fraction_charpoly(a)
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
    assert _matrix_json(lazy) == [[format_scalar(e) for e in row] for row in eager.entries]
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
    assert _matrix_json(lazy) == _matrix_json(eager) and flat(lazy) == flat(eager)


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
    assert _matrix_json(view) == [[_entry_json(e) for e in row] for row in eager.entries]
    assert _matrix_json(cleared_view) == _matrix_json(view) == _matrix_json(eager)
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


@given(
    na=st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(small_ints, min_size=n * n, max_size=n * n))
    ),
    x=st.integers(-10**12, 10**12),
)
@settings(max_examples=150, deadline=None)
def test_faddeev_leverrier_gives_determinant_and_adjugate(na, x):
    n, a = na
    coeffs, adj = faddeev_leverrier(a, n)
    step = FMatrix.identity(n) * x - _rows(a, n)
    chi = sum(c * x ** (n - k) for k, c in enumerate(coeffs))
    assert chi == det(step)
    adj_x = _rows([sum(e * x ** (n - 1 - k) for k, e in enumerate(es)) for es in zip(*adj)], n)
    assert step * adj_x == FMatrix.identity(n) * chi
    assert adj_x * step == FMatrix.identity(n) * chi
    # the flat products on the same draws, both ways round
    for left, right in ((a, adj[-1]), (adj[-1], a)):
        expected = _rows(left, n) * _rows(right, n)
        assert _rows(sparse_product(sparse_rows(left, n), right, n), n) == expected
        assert _rows(dense_product(left, right, n), n) == expected


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
