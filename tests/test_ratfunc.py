from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzrat import Poly, RatFunc
from support import FieldRatFunc


def test_normalization_is_canonical():
    # (2d) * 1/(4d^2) is (1/2)/d: numerator [1/2], monic denominator d
    f = RatFunc.monomial(1, 2) * (1 / RatFunc.monomial(2, 4))
    assert (f.coeff, f.power) == (Fraction(1, 2), -1)
    assert f.num == Poly((Fraction(1, 2),))
    assert f.den == Poly((0, 1))
    assert f == RatFunc(Fraction(1, 2), -1)
    g = RatFunc.monomial(3, Fraction(-5, 2))
    assert g.num == Poly((0, 0, 0, Fraction(-5, 2)))
    assert g.den == Poly.one()
    assert RatFunc(7).num == Poly((7,)) and RatFunc(7).den == Poly.one()


def test_zero_is_zero_over_one():
    for z in (RatFunc(0, 5), RatFunc.monomial(3) * 0, RatFunc.monomial(-2) - RatFunc.monomial(-2)):
        assert z == RatFunc.zero()
        assert (z.coeff, z.power) == (0, 0)
        assert z.num == Poly()
        assert z.den == Poly.one()
        assert not z


def test_zero_denominator_rejected():
    for divide in (
        lambda: RatFunc.one() / RatFunc.zero(),
        lambda: 1 / RatFunc(0, -3),
        lambda: RatFunc.monomial(2) / 0,
        lambda: Fraction(1, 2) / RatFunc.zero(),
    ):
        with pytest.raises(ZeroDivisionError):
            divide()


def test_arithmetic_and_coercion():
    d = RatFunc.monomial(1)
    inv = 1 / d
    assert inv == RatFunc.monomial(-1)
    assert d * inv == 1
    assert 2 * inv - inv == inv
    assert Fraction(3, 2) * d == RatFunc(Fraction(3, 2), 1)
    assert Fraction(1, 2) + RatFunc.one() == Fraction(3, 2)
    assert 3 - RatFunc.one() == 2
    assert inv + 0 == inv and 0 + inv == inv and inv - RatFunc.zero() == inv
    assert RatFunc.zero() - inv == -inv
    # sums leave the grading: two nonzero terms of different d-degree
    for mixed in (lambda: inv + Fraction(1, 2), lambda: d + 1, lambda: d - inv, lambda: 1 - d):
        with pytest.raises(ValueError):
            mixed()
    with pytest.raises(TypeError):
        RatFunc.one() + Poly.one()
    with pytest.raises(TypeError):
        RatFunc(Poly.one())


def test_monomial_parts():
    m = RatFunc.monomial(-3, Fraction(4, 3))
    assert (m.coeff, m.power) == (Fraction(4, 3), -3)
    assert (RatFunc.monomial(2).coeff, RatFunc.monomial(2).power) == (1, 2)
    assert (RatFunc.zero().coeff, RatFunc.zero().power) == (0, 0)
    assert m.to_str() == "4/3*d^-3"
    assert RatFunc.monomial(1, -1).to_str("d") == "-1*d"
    assert RatFunc(Fraction(-2, 5)).to_str() == "-2/5"


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
degrees = st.integers(-4, 4)


@given(a=small_fractions, b=small_fractions, c=small_fractions, k=degrees)
@settings(max_examples=60, deadline=None)
def test_routes_to_same_value_share_one_representation(a, b, c, k):
    m = RatFunc.monomial(k)
    x = RatFunc.monomial(-1, c)
    lhs = (a * m + b * m) * x
    rhs = m * x * a + x * m * b
    assert lhs == rhs
    assert (lhs.num, lhs.den) == (rhs.num, rhs.den)
    assert lhs.den.leading == 1
    assert hash(lhs) == hash(rhs)
    assert hash(RatFunc(a)) == hash(a)


@given(a=small_fractions, b=small_fractions, j=degrees, k=degrees)
@settings(max_examples=60, deadline=None)
def test_field_identities(a, b, j, k):
    x = RatFunc.monomial(j, a)
    y = RatFunc.monomial(j, b)
    z = RatFunc.monomial(k, b)
    assert x + y - y == x
    assert x + y == y + x
    if z:
        assert (x * z) / z == x
        assert z / z == 1
    assert x * 0 == RatFunc.zero()
    assert x * (y + y) == x * y + x * y


@given(a=small_fractions, b=small_fractions, j=degrees, k=degrees)
@settings(max_examples=60, deadline=None)
def test_mixed_degree_sums_raise(a, b, j, k):
    x, y = RatFunc.monomial(j, a), RatFunc.monomial(k, b)
    if a and b and j != k:
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x - y
    else:
        assert (x + y).num == (FieldRatFunc.monomial(j, a) + FieldRatFunc.monomial(k, b)).num


@st.composite
def homogeneous(draw, degree: int, depth: int):
    """(graded, oracle) for one random expression of d-degree `degree`:
    sums and differences of equal degree, products, quotients, negation,
    and plain int/Fraction operands at degree 0."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        c = draw(small_fractions)
        if degree == 0 and draw(st.booleans()):
            c = int(c) if draw(st.booleans()) else c
            return c, c
        return RatFunc.monomial(degree, c), FieldRatFunc.monomial(degree, c)
    op = draw(st.sampled_from(["+", "-", "neg", "*", "/"]))
    if op in "+-":
        (x, ox), (y, oy) = (draw(homogeneous(degree, depth - 1)) for _ in range(2))
        return (x + y, ox + oy) if op == "+" else (x - y, ox - oy)
    if op == "neg":
        x, ox = draw(homogeneous(degree, depth - 1))
        return -x, -ox
    j = draw(degrees)
    if op == "*":
        x, ox = draw(homogeneous(j, depth - 1))
        y, oy = draw(homogeneous(degree - j, depth - 1))
        return x * y, ox * oy
    x, ox = draw(homogeneous(degree + j, depth - 1))
    y, oy = draw(homogeneous(j, depth - 1))
    if not y:
        y, oy = RatFunc.monomial(j, 3), FieldRatFunc.monomial(j, 3)
    if isinstance(x, int) and isinstance(y, int):  # int / int would be a float
        x, ox = Fraction(x), Fraction(ox)
    return x / y, ox / oy


@given(data=st.data(), degree=degrees)
@settings(max_examples=200, deadline=None)
def test_graded_arithmetic_matches_field_oracle(data, degree):
    value, oracle = data.draw(homogeneous(degree, 4))
    value, oracle = value * RatFunc.one(), oracle * FieldRatFunc(1)
    assert value.num == oracle.num
    assert value.den == oracle.den
    assert value.power == degree or not value
