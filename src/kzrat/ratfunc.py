"""Rational functions in one formal variable over exact rationals."""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, poly_gcd


def _as_poly(value) -> Poly | None:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly((Fraction(value),))
    return None


class RatFunc:
    """Quotient of two polynomials in canonical form.

    Canonical means: the denominator is monic, gcd(num, den) = 1, and zero
    is 0/1.  Every arithmetic route to the same value therefore produces an
    identical representation, so equality is plain tuple comparison.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        n = _as_poly(num)
        d = _as_poly(den)
        if n is None or d is None:
            raise TypeError("RatFunc components must be Poly, int, or Fraction")
        if d.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if n.is_zero():
            self.num = Poly()
            self.den = Poly.one()
            return
        g = poly_gcd(n, d)
        if g.degree >= 1:
            n = n // g
            d = d // g
        lead = d.leading
        if lead != 1:
            n = n / lead
            d = d / lead
        self.num = n
        self.den = d

    @classmethod
    def zero(cls) -> RatFunc:
        return cls(0)

    @classmethod
    def one(cls) -> RatFunc:
        return cls(1)

    @classmethod
    def var(cls) -> RatFunc:
        """The formal variable itself."""
        return cls(Poly.monomial(1))

    @classmethod
    def monomial(cls, power: int, coeff=1) -> RatFunc:
        """coeff * var**power, with power of either sign."""
        if power >= 0:
            return cls(Poly.monomial(power, coeff))
        return cls(Poly((Fraction(coeff),)), Poly.monomial(-power))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def monomial_parts(self) -> tuple[Fraction, int] | None:
        """(coeff, power) when the value is coeff * var**power, else None.

        Zero is reported as (0, 0).
        """
        if self.is_zero():
            return Fraction(0), 0
        nv = self.num.valuation()
        if nv != self.num.degree:
            return None
        dv = self.den.valuation()
        if dv != self.den.degree:
            return None
        return self.num.coeffs[nv], nv - dv

    def _coerce(self, other) -> RatFunc | None:
        if isinstance(other, RatFunc):
            return other
        p = _as_poly(other)
        if p is None:
            return None
        return RatFunc(p)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __neg__(self) -> RatFunc:
        return RatFunc(-self.num, self.den)

    def __add__(self, other) -> RatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other) -> RatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> RatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> RatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> RatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def to_str(self, var: str = "d") -> str:
        parts = self.monomial_parts()
        if parts is not None:
            c, k = parts
            cs = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            if k == 0:
                return cs
            head = f"{var}" if k == 1 else f"{var}^{k}"
            return f"{cs}*{head}"
        if self.den == Poly.one():
            return f"({self.num.to_str(var)})"
        return f"({self.num.to_str(var)})/({self.den.to_str(var)})"

    def __repr__(self) -> str:
        return f"RatFunc({self.to_str()})"
