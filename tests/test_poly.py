from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzrat import Poly, poly_gcd, rational_roots
from support import trial_division_rational_roots


def P(*coeffs):
    return Poly(coeffs)


def test_constructor_trims_trailing_zeros():
    assert P(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))
    assert P(0, 0).is_zero()
    assert Poly().degree == -1


def test_arithmetic():
    a = P(1, 1)  # 1 + x
    b = P(-1, 1)  # -1 + x
    assert a * b == P(-1, 0, 1)
    assert a + b == P(0, 2)
    assert a - a == Poly()
    assert (a * b)(Fraction(3)) == 8
    assert -a == P(-1, -1)
    assert a * 2 == P(2, 2)
    assert 2 * a == P(2, 2)
    assert a / 2 == P(Fraction(1, 2), Fraction(1, 2))


def test_pow_and_monomial():
    assert Poly.monomial(3) == P(0, 0, 0, 1)
    assert P(-1, 1) ** 2 == P(1, -2, 1)
    assert P(2) ** 0 == Poly.one()


def test_divmod_exact():
    num = P(-1, 0, 1)  # x^2 - 1
    q, r = divmod(num, P(-1, 1))
    assert q == P(1, 1)
    assert r.is_zero()
    q, r = divmod(P(1, 1, 1), P(0, 1))
    assert q == P(1, 1)
    assert r == P(1)
    with pytest.raises(ZeroDivisionError):
        divmod(num, Poly())


def test_shifted():
    p = P(1, -2, 3)
    for x in (Fraction(0), Fraction(2, 3), Fraction(-5)):
        for c in (Fraction(1), Fraction(-1, 2)):
            assert p.shifted(c)(x) == p(x + c)


def test_derivative_and_valuation():
    assert P(5, 3, 0, 2).derivative() == P(3, 0, 6)
    assert P(0, 0, 7).valuation() == 2
    assert Poly().valuation() == -1


def test_gcd_examples():
    # gcd(d^2 - 1, d - 1) = d - 1
    assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)
    # gcd(d^3, d^2) = d^2
    assert poly_gcd(Poly.monomial(3), Poly.monomial(2)) == Poly.monomial(2)
    # gcd(d^2 + 1, d) = 1
    assert poly_gcd(P(1, 0, 1), P(0, 1)) == Poly.one()
    assert poly_gcd(Poly(), Poly()).is_zero()
    assert poly_gcd(P(0, 4), Poly()) == P(0, 1)


def test_gcd_is_monic():
    g = poly_gcd(P(-2, 0, 2), P(-2, 2))
    assert g == P(-1, 1)
    assert g.leading == 1


def test_rational_roots_with_multiplicity():
    # (x - 2)^2 (x + 2) = x^3 - 2x^2 - 4x + 8
    roots, rem = rational_roots(P(8, -4, -2, 1))
    assert roots == ((Fraction(-2), 1), (Fraction(2), 2))
    assert rem == Poly.one()


def test_rational_roots_zero_root_and_fractions():
    # x^2 (2x - 1) = 2x^3 - x^2
    roots, rem = rational_roots(P(0, 0, -1, 2))
    assert roots == ((Fraction(0), 2), (Fraction(1, 2), 1))
    assert rem == Poly.one()


def test_rational_roots_irrational_remainder():
    roots, rem = rational_roots(P(-2, 0, 1))  # x^2 - 2
    assert roots == ()
    assert rem == P(-2, 0, 1)
    roots, rem = rational_roots(P(-2, 0, 1) * P(-3, 1))
    assert roots == ((Fraction(3), 1),)
    assert rem == P(-2, 0, 1)


linear_factors = st.tuples(
    st.integers(-12, 12), st.integers(-12, 12).filter(bool), st.integers(1, 3)
)
# a x^2 + b x + c with a discriminant that is not a square: no rational root
irreducible_quadratics = st.tuples(
    st.integers(1, 6), st.integers(-9, 9), st.integers(-9, 9)
).filter(lambda t: not _is_square(t[1] ** 2 - 4 * t[0] * t[2]))


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


@given(
    factors=st.lists(linear_factors, max_size=3),
    quadratic=st.none() | irreducible_quadratics,
    scale=st.fractions(max_denominator=7).filter(bool),
)
@settings(max_examples=80, deadline=None)
def test_rational_roots_match_trial_division(factors, quadratic, scale):
    p = Poly((scale,))
    expected = {}
    for num, den, k in factors:
        p = p * P(-num, den) ** k
        root = Fraction(num, den)
        expected[root] = expected.get(root, 0) + k
    if quadratic is not None:
        a, b, c = quadratic
        p = p * P(c, b, a)
    roots, rem = rational_roots(p)
    assert (roots, rem) == trial_division_rational_roots(p)
    assert roots == tuple(sorted(expected.items()))
    assert rem == (P(c, b, a).monic() if quadratic is not None else Poly.one())


def test_rational_roots_large_coefficients():
    big = 2**61 - 1
    p = P(-big, 3) ** 2 * P(7, 5) * P(-2, 0, 1)
    roots, rem = rational_roots(p)
    assert roots == ((Fraction(-7, 5), 1), (Fraction(big, 3), 2))
    assert rem == P(-2, 0, 1)
    # two roots congruent mod 2, 3, 5 and 7: the lifting must start at 11
    roots, _ = rational_roots(P(-big, 1) * P(-(big + 2 * 3 * 5 * 7), 1))
    assert roots == ((Fraction(big), 1), (Fraction(big + 210), 1))


def test_rational_roots_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        rational_roots(Poly())


def test_to_str():
    assert P(1, -2, 3).to_str("z") == "3*z^2 - 2*z + 1"
    assert Poly().to_str() == "0"
    assert Poly.monomial(1).to_str("d") == "d"
