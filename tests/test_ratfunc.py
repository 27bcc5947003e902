from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzrat import Poly, RatFunc


def test_normalization_is_canonical():
    # (2d) / (4d^2) reduces to (1/2)/d with a monic denominator
    f = RatFunc(Poly((0, 2)), Poly((0, 0, 4)))
    assert f.num == Poly((Fraction(1, 2),))
    assert f.den == Poly((0, 1))
    assert f == RatFunc(Poly((Fraction(1, 2),)), Poly((0, 1)))


def test_zero_is_zero_over_one():
    z = RatFunc(Poly(), Poly((0, 0, 5)))
    assert z.is_zero()
    assert z.den == Poly.one()
    assert not z


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(Poly.one(), Poly())


def test_arithmetic_and_coercion():
    d = RatFunc.var()
    inv = 1 / d
    assert inv == RatFunc.monomial(-1)
    assert d * inv == 1
    assert (d + 1) * (d - 1) == d * d - 1
    assert 2 * inv - inv == inv
    assert inv + Fraction(1, 2) == RatFunc(Poly((1, Fraction(1, 2))), Poly((0, 1)))
    assert Fraction(3, 2) * d == RatFunc(Poly((0, Fraction(3, 2))))
    with pytest.raises(ZeroDivisionError):
        d / RatFunc.zero()


def test_monomial_parts():
    assert RatFunc.monomial(-3, Fraction(4, 3)).monomial_parts() == (Fraction(4, 3), -3)
    assert RatFunc.monomial(2).monomial_parts() == (Fraction(1), 2)
    assert RatFunc.zero().monomial_parts() == (Fraction(0), 0)
    assert (RatFunc.var() + 1).monomial_parts() is None


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@given(a=small_fractions, b=small_fractions, c=small_fractions, k=st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_routes_to_same_value_share_one_representation(a, b, c, k):
    d = RatFunc.var()
    m = RatFunc.monomial(k)
    lhs = (a * m + b * m) * (d + c)
    rhs = m * (d + c) * a + (d + c) * m * b
    assert lhs == rhs
    assert (lhs.num, lhs.den) == (rhs.num, rhs.den)
    assert lhs.den.is_zero() or lhs.den.leading == 1


@given(a=small_fractions, b=small_fractions)
@settings(max_examples=60, deadline=None)
def test_field_identities(a, b):
    d = RatFunc.var()
    x = a + 1 / (d + 5)
    y = b - d
    assert x + y - y == x
    if y:
        assert (x * y) / y == x
    assert x * 0 == RatFunc.zero()
