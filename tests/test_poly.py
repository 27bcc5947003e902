from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kzrat import Poly, format_scalar, poly_gcd, rational_roots
from kzrat.poly import taylor_shift
from support import (
    BIG,
    coefficients,
    euclid_gcd,
    fraction_product,
    fraction_shifted,
    root_theorem_rational_roots,
)


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


def test_pow_squares_no_further_than_the_top_bit(monkeypatch):
    calls = 0
    product = Poly.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return product(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    base = P(Fraction(-2, 3), 1)
    for n in (1, 2, 6, 1009):
        calls = 0
        p = base**n
        assert calls <= (n.bit_length() - 1) + bin(n).count("1")
        assert p.degree == n and p.coeff(0) == Fraction(-2, 3) ** n


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


def test_product_edge_operands():
    sparse = Poly.monomial(4, Fraction(-7, 9))  # like d^4 in symbolic mode
    dense = P(Fraction(1, 3), -2, Fraction(5, 7))
    for a, b in (
        (Poly(), dense),
        (dense, Poly()),
        (P(Fraction(-3, 4)), dense),
        (dense, P(5)),
        (sparse, dense),
        (sparse, sparse),
        (P(0, 3, 0, 0, Fraction(1, 2)), P(Fraction(2, 5), 0, 0, 6)),
    ):
        assert a * b == fraction_product(a, b)
    assert dense * 0 == Poly() and 0 * dense == Poly()
    assert dense * -3 == fraction_product(dense, P(-3))
    assert Fraction(2, 3) * dense == fraction_product(dense, P(Fraction(2, 3)))


polys = st.lists(coefficients, max_size=9).map(Poly)


@given(a=polys, b=polys, k=st.integers(-(2**70), 2**70))
@settings(max_examples=200, deadline=None)
def test_product_matches_fraction_oracle(a, b, k):
    assert a * b == fraction_product(a, b)
    assert b * a == fraction_product(a, b)
    assert a * k == fraction_product(a, P(k))
    assert k * a == fraction_product(a, P(k))


@given(
    ints=st.lists(st.integers(-BIG, BIG), max_size=9),
    r=st.one_of(st.integers(-2000, 2000), st.integers(-BIG, BIG)),
    s=st.one_of(st.integers(1, 50), st.integers(1, 2**80)),
)
@example(ints=[], r=5, s=3)
@example(ints=[4], r=-12, s=1)
@example(ints=[0, 0, 0, 0, 1], r=8633, s=7)  # x^4 / 6, cleared to integers
@settings(max_examples=200, deadline=None)
def test_taylor_shift_matches_fraction_oracle(ints, r, s):
    # taylor_shift gives T = s^n P(x + r/s), in ints; shifting T by -r/s
    # gives s^(2n) P back
    n = len(ints) - 1
    out = taylor_shift(ints, r, s)
    assert all(type(x) is int for x in out)
    assert Poly([Fraction(x, s**n) for x in out]) == fraction_shifted(Poly(ints), Fraction(r, s))
    assert taylor_shift(out, -r, s) == [x * s ** (2 * n) for x in ints]


@given(ints=st.lists(st.integers(-BIG, BIG), max_size=9), s=st.integers(1, 2**80))
@settings(max_examples=200, deadline=None)
def test_zero_taylor_shift_only_scales(ints, s):
    # s^n P(x + 0/s) = s^n P(x), with no Horner pass to get there
    assert taylor_shift(ints, 0, s) == [x * s ** (len(ints) - 1) for x in ints]


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


small_polys = st.lists(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)), max_size=4
).map(Poly)


@given(
    common=small_polys,
    a=small_polys,
    b=small_polys,
    scale=st.sampled_from((1, -3, Fraction(2, 7), 2**61 - 1)),
)
@settings(max_examples=150, deadline=None)
def test_gcd_matches_euclid(common, a, b, scale):
    # a shared factor, so that the gcd is often nontrivial, and a scale, so
    # that the pseudo-remainders carry content to strip
    x, y = common * a * scale, common * b
    assert poly_gcd(x, y) == euclid_gcd(x, y)


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
    assert (roots, rem) == root_theorem_rational_roots(p)
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


# numerators and denominators of roots and leading coefficients, at the
# scale of the coupling 10007 and of 2^61 - 1, both prime
ROOT_PRIMES = (2, 3, 5, 7, 10007, 2**61 - 1)
atoms = st.sampled_from((1, 1) + ROOT_PRIMES)
signed_ratios = st.builds(
    lambda s, a, b: Fraction(s * a, b), st.sampled_from((1, -1)), atoms, atoms
)
# integer vectors, lowest degree first, with no rational root, whose end
# coefficients factor over ROOT_PRIMES
IRREDUCIBLE = (
    (1, 0, 1),
    (-2, 0, 1),
    (1, 1, 1),
    (-5, 0, 3),
    (-10007, 0, 1),
    (10007, 0, 7),
    (-(2**61 - 1), 0, 1),
    (-2, 0, 0, 1),
    (1, 0, 0, 0, 1),
)


@given(
    lead=signed_ratios,
    zeros=st.integers(0, 2),
    factors=st.lists(st.tuples(signed_ratios, st.integers(1, 2)), max_size=3),
    irreducible=st.none() | st.sampled_from(IRREDUCIBLE),
)
@example(lead=Fraction(-3, 7), zeros=1, factors=[(Fraction(2), 2)], irreducible=(-2, 0, 1))
@settings(max_examples=120, deadline=None)
def test_rational_roots_match_the_root_theorem(lead, zeros, factors, irreducible):
    # repeated roots, the root 0, a negative or fractional leading
    # coefficient, irreducible factors and 2^61-scale coefficients
    p = Poly((lead,)) * Poly.monomial(zeros)
    expected = {Fraction(0): zeros} if zeros else {}
    for root, k in factors:
        p = p * P(-root, 1) ** k
        expected[root] = expected.get(root, 0) + k
    if irreducible is not None:
        p = p * Poly(irreducible)
    roots, rem = rational_roots(p)
    assert (roots, rem) == root_theorem_rational_roots(p, ROOT_PRIMES)
    assert roots == tuple(sorted(expected.items()))
    assert rem == (Poly(irreducible).monic() if irreducible is not None else Poly.one())


def test_rational_roots_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        rational_roots(Poly())


def test_to_str():
    assert P(1, -2, 3).to_str("z") == "3*z^2 - 2*z + 1"
    assert Poly().to_str() == "0"
    assert Poly.monomial(1).to_str("d") == "d"


def reference_to_str(p: Poly, var: str) -> str:
    """Poly.to_str with each term's sign and magnitude taken by Fraction
    arithmetic on the coefficient."""
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            term = format_scalar(mag)
        else:
            head = "" if mag == 1 else format_scalar(mag) + "*"
            term = f"{head}{var}" if k == 1 else f"{head}{var}^{k}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) or "0"


# past CPython's 4,300-digit int <-> str cap; drawn as a position in the
# list, since Fraction's repr cannot print it
HUGE = Fraction(-(10**4400) - 1, 3)


@given(
    cs=st.lists(st.just(0) | st.sampled_from((1, -1)) | coefficients, max_size=10),
    huge_at=st.none() | st.integers(0, 10),
    var=st.sampled_from(("x", "z", "d")),
)
@example(cs=[0, 0, -1, 1], huge_at=4, var="z")
@settings(max_examples=300, deadline=None)
def test_to_str_matches_reference(cs, huge_at, var):
    if huge_at is not None:
        cs.insert(huge_at, HUGE)
    assert Poly(cs).to_str(var) == reference_to_str(Poly(cs), var)
