from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzrat import (
    DERIVED_TAYLOR,
    FMatrix,
    InsufficientSeriesError,
    NoPolynomialDenominator,
    NotRepresentable,
    PoleError,
    Poly,
    build_kz_s3,
    compute_series,
    evaluate,
    kz_system,
    local_expansion,
    poly_gcd,
    propose_denominator,
    rational_matrix,
    reconstruct,
    verify_ode,
)
from kzrat.reconstruct import _series_of_ratio
from support import (
    I3,
    P1,
    P2,
    coefficients,
    fraction_series_of_ratio,
    matrix_expansion_matches,
)

TWO = Fraction(2)


def paper_numeric_series(order):
    sys_ = build_kz_s3(0, 1, TWO)
    exp = local_expansion(sys_, 1, DERIVED_TAYLOR, order=order)
    return sys_, compute_series(exp, TWO, order=order)


def single_pole_pipeline():
    sys_ = kz_system([0], [P1], TWO)
    exp = local_expansion(sys_, 1, DERIVED_TAYLOR, order=6)
    return sys_, compute_series(exp, TWO, order=5)


Z = Poly.monomial(1)


def test_propose_denominator_examples():
    assert propose_denominator(build_kz_s3(0, 1, TWO)) == (Z**2) * (Z - 1) ** 2
    assert propose_denominator(kz_system([0], [P1], TWO)) == Z**2
    assert propose_denominator(build_kz_s3(0, 1, Fraction(1))) == Z * (Z - 1)
    with pytest.raises(NoPolynomialDenominator):
        propose_denominator(build_kz_s3(0, 1, Fraction(2, 3)))


def test_reconstruct_single_pole_terminating():
    sys_, series = single_pole_pipeline()
    w = reconstruct(series, Z**2, max_num_degree=0)
    assert w.numerator == (I3 - P1).map(lambda e: Poly((e,)))
    assert w.denominator == Z**2


def test_reconstruct_paper_preset_needs_degree_eight():
    # The level-2 particular with zero kernel components has a z^4-growth
    # component at infinity (top eigenvalue of coupling*(P1+P2) is 4), so
    # numerator degrees 6 and 7 fail while degree 8 succeeds.
    sys_, series = paper_numeric_series(20)
    den = propose_denominator(sys_)
    with pytest.raises(NotRepresentable) as ei:
        reconstruct(series, den, max_num_degree=6)
    assert ei.value.first_unmatched_level == 5
    w = reconstruct(series, den, max_num_degree=8)
    assert max(p.degree for row in w.numerator.entries for p in row) == 8
    assert verify_ode(w, sys_).satisfied


def test_reconstruct_insufficient_series():
    sys_, series = paper_numeric_series(2)
    with pytest.raises(InsufficientSeriesError):
        reconstruct(series, propose_denominator(sys_), max_num_degree=6)


def test_reconstruct_rejects_symbolic_series():
    from kzrat import LITERAL_PAPER, SYMBOLIC

    sym = build_kz_s3(SYMBOLIC, SYMBOLIC, TWO)
    series = compute_series(local_expansion(sym, 1, LITERAL_PAPER, 8), TWO, order=5)
    with pytest.raises(ValueError):
        reconstruct(series, Z**2, max_num_degree=0)


def test_roundtrip_reexpansion_matches_every_coefficient():
    sys_, series = paper_numeric_series(14)
    w = reconstruct(series, propose_denominator(sys_), max_num_degree=8)
    coeffs = [series.coefficient(p) for p in series.levels()]
    assert matrix_expansion_matches(w, Fraction(0), -2, coeffs)
    back = w.laurent_coefficients(Fraction(0), -2, len(coeffs))
    assert all(a == b for a, b in zip(back, coeffs))


def test_denominator_root_containment():
    sys_, series = paper_numeric_series(14)
    proposal = propose_denominator(sys_)
    w = reconstruct(series, proposal, max_num_degree=8)
    # the reconstructed denominator divides the proposal exactly
    assert (proposal % w.denominator).is_zero()
    # and shares no factor outside the singular-point set
    assert poly_gcd(w.denominator, proposal) == w.denominator


def test_verify_ode_single_pole():
    sys_, series = single_pole_pipeline()
    w = reconstruct(series, Z**2, max_num_degree=0)
    verdict = verify_ode(w, sys_)
    assert verdict.satisfied
    assert verdict.residual.is_zero()
    assert verdict.det_identically_zero


def _poly_rows(*rows):
    return FMatrix([[e if isinstance(e, Poly) else Poly((e,)) for e in row] for row in rows])


def _rank_deficient():
    # the first row is (z^2 - 1) times the last; no row or column is zero
    r = [Z, Z + 1, 1]
    return _poly_rows([(Z**2 - 1) * e for e in r], [1, Z**2, Z - 3], r)


def _integer_rooted():
    # unit lower times upper triangular: det = z (z - 1) (z + 2)
    lower = _poly_rows([1, 0, 0], [Z, 1, 0], [1, Z**2, 1])
    upper = _poly_rows([Z, 1, 2], [0, Z - 1, Z], [0, 0, Z + 2])
    return lower * upper


@pytest.mark.parametrize(
    "build, singular",
    [(_rank_deficient, True), (_integer_rooted, False)],
    ids=("rank-deficient", "integer-roots"),
)
def test_verify_ode_det_flag_on_polynomial_entries(build, singular):
    w = rational_matrix(build(), Poly.one())
    assert verify_ode(w, build_kz_s3(0, 1, TWO)).det_identically_zero is singular


def test_verify_ode_identity_with_zero_coupling():
    sys0 = build_kz_s3(0, 1, Fraction(0))
    w = rational_matrix(I3.map(lambda e: Poly((e,))), Poly.one())
    verdict = verify_ode(w, sys0)
    assert verdict.satisfied
    assert not verdict.det_identically_zero


def test_verify_ode_detects_mutation():
    sys_, series = single_pole_pipeline()
    w = reconstruct(series, Z**2, max_num_degree=0)
    rows = [list(r) for r in w.numerator.entries]
    rows[0][0] = -rows[0][0]  # flip one entry's sign
    mutated = rational_matrix(FMatrix(rows), w.denominator)
    verdict = verify_ode(mutated, sys_)
    assert not verdict.satisfied
    assert not verdict.residual.is_zero()


def test_evaluate_examples():
    sys_, series = single_pole_pipeline()
    w = reconstruct(series, Z**2, max_num_degree=0)
    assert evaluate(w, 1) == I3 - P1
    assert evaluate(w, 2) == (I3 - P1) * Fraction(1, 4)
    with pytest.raises(PoleError):
        evaluate(w, 0)


def test_rational_matrix_normalization():
    num = I3.map(lambda e: Poly((0, e)))  # z * I
    w = rational_matrix(num, Z**2)
    assert w.denominator == Z
    assert w.numerator == I3.map(lambda e: Poly((e,)))
    zero = rational_matrix(FMatrix([[Poly()]]), Z**3)
    assert zero.denominator == Poly.one()


def test_reconstruct_from_second_center():
    sys_ = build_kz_s3(0, 1, TWO)
    exp = local_expansion(sys_, 2, DERIVED_TAYLOR, order=20)
    series = compute_series(exp, TWO, order=20)
    w = reconstruct(series, propose_denominator(sys_), max_num_degree=8)
    assert verify_ode(w, sys_).satisfied


def test_verify_ode_rejects_symbolic_system():
    from kzrat import SYMBOLIC

    sys_, series = single_pole_pipeline()
    w = reconstruct(series, Z**2, max_num_degree=0)
    with pytest.raises(ValueError):
        verify_ode(w, build_kz_s3(SYMBOLIC, SYMBOLIC, TWO))


def test_series_of_ratio_at_a_pole_with_large_coefficients():
    big = Fraction(2**599 + 1, 3**200)
    # den = u^2 (big - u)^3 over 7: the center is a double pole
    den = Poly.monomial(2) * Poly((big, Fraction(-1))) ** 3 / 7
    num = Poly((Fraction(-(2**500), 11), 0, 0, big))
    for lo, count in ((-2, 12), (-5, 4), (3, 6), (0, 0)):
        got = _series_of_ratio(num, den, lo, count)
        assert got == fraction_series_of_ratio(num, den, lo, count)
    assert _series_of_ratio(Poly(), den, -2, 3) == [Fraction(0)] * 3
    with pytest.raises(ZeroDivisionError):
        _series_of_ratio(num, Poly(), 0, 3)


@given(
    num=st.lists(coefficients, max_size=8).map(Poly),
    den=st.lists(coefficients, min_size=1, max_size=6).map(Poly).filter(bool),
    pole=st.integers(0, 3),
    lo=st.integers(-5, 4),
    count=st.integers(0, 12),
)
@settings(max_examples=200, deadline=None)
def test_series_of_ratio_matches_fraction_oracle(num, den, pole, lo, count):
    den = Poly.monomial(pole) * den  # u-valuation > 0 makes the center a pole
    got = _series_of_ratio(num, den, lo, count)
    assert got == fraction_series_of_ratio(num, den, lo, count)
    assert all(isinstance(x, Fraction) for x in got)
