"""Graded monomials c * d^k in the formal variable d = point2 - point1.

In two-point symbolic mode every value the package emits is homogeneous
in d: a_r has d-degree -(r + 1) and b_p has d-degree -(p - rho).  So a
symbolic value is one Fraction coefficient and one integer power.
Products and quotients add and subtract powers; a sum needs equal powers
unless one term is zero, and otherwise raises ValueError rather than
leave the grading.  ``num`` and ``den`` give the value's canonical form
as a rational function (monic denominator, no common factor), which is
how reports encode it.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly
from .scalars import format_scalar


def _graded(value) -> RatFunc | None:
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, (int, Fraction)):
        return RatFunc(value)
    return None


class RatFunc:
    """The monomial coeff * d**power; zero is 0 * d**0."""

    __slots__ = ("coeff", "power")

    def __init__(self, coeff=0, power: int = 0):
        if not isinstance(coeff, (int, Fraction)):
            raise TypeError("a graded monomial needs an int or Fraction coefficient")
        self.coeff = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
        self.power = power if coeff else 0

    @classmethod
    def zero(cls) -> RatFunc:
        return cls()

    @classmethod
    def one(cls) -> RatFunc:
        return cls(1)

    @classmethod
    def monomial(cls, power: int, coeff=1) -> RatFunc:
        """coeff * d**power, with power of either sign."""
        return cls(coeff, power)

    @property
    def num(self) -> Poly:
        """Numerator of the canonical form: [0..0, c] for k >= 0, else [c]."""
        if self.power > 0:
            return Poly.monomial(self.power, self.coeff)
        return Poly((self.coeff,))

    @property
    def den(self) -> Poly:
        """Monic denominator of the canonical form: d**(-k) for k < 0, else 1."""
        return Poly.monomial(max(0, -self.power))

    def __bool__(self) -> bool:
        return bool(self.coeff)

    def __eq__(self, other) -> bool:
        o = _graded(other)
        if o is None:
            return NotImplemented
        return self.coeff == o.coeff and self.power == o.power

    def __hash__(self) -> int:
        return hash((self.coeff, self.power)) if self.power else hash(self.coeff)

    def __neg__(self) -> RatFunc:
        return RatFunc(-self.coeff, self.power)

    def __add__(self, other) -> RatFunc:
        o = _graded(other)
        if o is None:
            return NotImplemented
        if not o.coeff:
            return self
        if not self.coeff:
            return o
        if self.power != o.power:
            raise ValueError(
                f"sum of d-degrees {self.power} and {o.power} is not a graded monomial"
            )
        return RatFunc(self.coeff + o.coeff, self.power)

    __radd__ = __add__

    def __sub__(self, other) -> RatFunc:
        o = _graded(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> RatFunc:
        o = _graded(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> RatFunc:
        o = _graded(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.coeff * o.coeff, self.power + o.power)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RatFunc:
        o = _graded(other)
        if o is None:
            return NotImplemented
        if not o.coeff:
            raise ZeroDivisionError("division by the zero monomial")
        return RatFunc(self.coeff / o.coeff, self.power - o.power)

    def __rtruediv__(self, other) -> RatFunc:
        o = _graded(other)
        if o is None:
            return NotImplemented
        return o / self

    def to_str(self, var: str = "d") -> str:
        if not self.power:
            return format_scalar(self.coeff)
        head = var if self.power == 1 else f"{var}^{self.power}"
        return f"{format_scalar(self.coeff)}*{head}"

    def __repr__(self) -> str:
        return f"RatFunc({self.to_str()})"
