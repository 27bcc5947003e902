import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzrat import (
    FMatrix,
    Poly,
    SingularMatrixError,
    SolveKind,
    charpoly,
    det,
    inverse,
    solve_linear,
)
from kzrat.matrix import (
    dense_product,
    faddeev_leverrier,
    flat,
    sparse_product,
    sparse_rows,
    stripped,
)
from support import I3, P1, P2, FieldRatFunc, coefficients, fraction_charpoly


def columns_of(vectors, n):
    return FMatrix.from_columns(list(vectors), n)


def test_multiplication_examples():
    assert P1 * P1 == I3
    assert I3 * P2 == P2
    assert P1 * P2 == FMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def test_multiplication_dimension_mismatch():
    with pytest.raises(ValueError):
        FMatrix([[1, 2]]) * FMatrix([[1, 2]])


def test_inverse_examples():
    third = Fraction(1, 3)
    assert inverse(I3 + 2 * P1) == FMatrix(
        [[-third, 2 * third, 0], [2 * third, -third, 0], [0, 0, third]]
    )
    assert inverse(I3) == I3
    with pytest.raises(SingularMatrixError):
        inverse(I3 - P1)


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


def test_hundred_random_invertible_inverses():
    rng = random.Random(7)
    seen = 0
    while seen < 100:
        n = rng.randint(1, 4)
        a = _random_matrix(rng, n, n)
        try:
            ai = inverse(a)
        except SingularMatrixError:
            continue
        assert a * ai == FMatrix.identity(n)
        assert ai * a == FMatrix.identity(n)
        seen += 1


def test_det():
    assert det(I3) == 1
    assert det(P1) == -1
    assert det(I3 - P1) == 0
    assert det(FMatrix([[2]])) == 2


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
    ints, den = flat(a)
    assert FMatrix.from_cleared(ints, den, a.cols) == a
    ints, den = stripped([3 * e for e in ints], 3 * den)
    assert den > 0 and FMatrix.from_cleared(ints, den, a.cols) == a


small_ints = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 10**20))


def _rows(ints, n):
    """A flat n x n int matrix as an FMatrix."""
    return FMatrix.from_cleared(ints, 1, n)


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
