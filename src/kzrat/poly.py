"""Dense univariate polynomials over exact rationals.

Coefficients are Fractions, but products run on integer vectors: the
operands are cleared to integer numerators over their least common
denominator (`cleared`), the work is done in plain int, and one Fraction
is normalised per output coefficient at the end.  The Taylor shift
(`taylor_shift`) and exact division by a known factor (`exact_quotient`)
take integer vectors as they are; general division, gcd and evaluation
stay in Fraction arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Union

from .scalars import format_scalar

ScalarLike = Union[int, Fraction]

_ZERO = Fraction(0)


def _as_fraction(value) -> Fraction | None:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return None


def cleared(coeffs) -> tuple[list[int], int]:
    """(ints, den) with coeffs[k] == ints[k] / den and den the least common
    denominator of the Fraction coefficients."""
    den = 1
    for c in coeffs:
        den = lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def int_convolve(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer coefficient vectors; [] when either is empty.
    Zero coefficients of the first factor are skipped."""
    if not a or not b:
        return []
    terms = [(i, x) for i, x in enumerate(a) if x]
    res = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in terms:
                res[i + j] += x * y
    return res


def exact_quotient(f: list[int], g: list[int]) -> list[int] | None:
    """f / g for integer vectors without trailing zeros (g nonzero) when the
    quotient has integer coefficients, else None.  Long division from the
    top, so each step needs the leading coefficient of g to divide exactly."""
    if not f:
        return []
    dg = len(g) - 1
    top = len(f) - 1 - dg
    if top < 0:
        return None
    lead = g[-1]
    rem = list(f)
    quo = [0] * (top + 1)
    for k in range(top, -1, -1):
        c, r = divmod(rem[k + dg], lead)
        if r:
            return None
        quo[k] = c
        if c:
            for i in range(dg):
                rem[k + i] -= c * g[i]
    if any(rem[:dg]):
        return None
    return quo


def taylor_shift(ints: list[int], r: int, s: int) -> list[int]:
    """T with T(x) = s^n P(x + r/s) for the integer vector P of degree n
    (s > 0): P(x + r/s) s^n = Q(s x + r) with Q(y) = s^n P(y/s), whose
    coefficients p_k s^(n-k) are integers; the integer Taylor shift of Q
    by r (Horner's rule, in place, skipped for r = 0) gives U(y) = Q(y + r),
    and T_k = U_k s^k."""
    n = len(ints) - 1
    powers = [s**k for k in range(n + 1)]
    a = [x * powers[n - k] for k, x in enumerate(ints)]
    for i in range(n if r else 0):
        for j in range(n - 1, i - 1, -1):
            a[j] += r * a[j + 1]
    return [x * p for x, p in zip(a, powers)]


class Poly:
    """Polynomial with Fraction coefficients, index = degree.

    The zero polynomial stores an empty tuple; otherwise the leading
    coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls) -> Poly:
        return cls((Fraction(1),))

    @classmethod
    def monomial(cls, degree: int, coeff: ScalarLike = 1) -> Poly:
        if degree < 0:
            raise ValueError("monomial degree must be >= 0")
        c = Fraction(coeff)
        if c == 0:
            return cls()
        return cls((Fraction(0),) * degree + (c,))

    @property
    def degree(self) -> int:
        """Degree, with the convention deg(0) = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient; -1 for the zero polynomial."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return -1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        c = _as_fraction(other)
        if c is None:
            return NotImplemented
        return self == Poly((c,))

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def _coerce(self, other) -> Poly | None:
        if isinstance(other, Poly):
            return other
        c = _as_fraction(other)
        if c is None:
            return None
        return Poly((c,))

    def __add__(self, other) -> Poly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        res = list(a)
        for i, c in enumerate(b):
            res[i] += c
        return Poly(res)

    __radd__ = __add__

    def __sub__(self, other) -> Poly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> Poly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> Poly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return Poly()
        if len(b) == 1:
            scale = b[0]
            return Poly([c * scale if c else c for c in a])
        ia, da = cleared(a)
        ib, db = cleared(b)
        den = da * db
        return Poly([Fraction(c, den) if c else _ZERO for c in int_convolve(ia, ib)])

    __rmul__ = __mul__

    def __truediv__(self, other) -> Poly:
        c = _as_fraction(other)
        if c is None:
            return NotImplemented
        if c == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return Poly(tuple(x / c for x in self.coeffs))

    def __pow__(self, n: int) -> Poly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Poly.one()
        base = self
        while True:
            if n & 1:
                result = result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        if not isinstance(other, Poly):
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            other = o
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = self.degree, other.degree
        if dn < dd:
            return Poly(), self
        quo = [Fraction(0)] * (dn - dd + 1)
        inv_lead = 1 / other.leading
        for k in range(dn - dd, -1, -1):
            c = rem[k + dd] * inv_lead
            quo[k] = c
            if c:
                for i, oc in enumerate(other.coeffs):
                    rem[k + i] -= c * oc
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def __call__(self, x: ScalarLike) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> Poly:
        return Poly(tuple(c * k for k, c in enumerate(self.coeffs) if k >= 1))

    def monic(self) -> Poly:
        if self.is_zero():
            return self
        return self / self.leading

    def to_str(self, var: str = "x") -> str:
        return poly_str([format_scalar(c) for c in self.coeffs], var)

    def __repr__(self) -> str:
        return f"Poly({self.to_str()})"


def poly_str(texts, var: str) -> str:
    """The printed polynomial whose coefficients, lowest degree first, are
    written `texts` (format_scalar strings); each is read once for its sign
    and magnitude."""
    parts = []
    for k in range(len(texts) - 1, -1, -1):
        text = texts[k]
        if text == "0":
            continue
        sign, mag = ("- ", text[1:]) if text[0] == "-" else ("+ ", text)
        if k:
            mag = ("" if mag == "1" else mag + "*") + (var if k == 1 else f"{var}^{k}")
        parts.append(sign + mag)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    x, y = a, b
    while not y.is_zero():
        x, y = y, (x % y).monic()
    return x.monic()


def rational_roots(p: Poly) -> tuple[tuple[tuple[Fraction, int], ...], Poly]:
    """All rational roots of p with multiplicities, plus the root-free remainder.

    Returns (roots, remainder) with roots sorted ascending and remainder
    monic, so that p / lc(p) = prod (x - r)^m * remainder and remainder has
    no rational roots.

    The roots come from p-adic lifting (Loos 1983), in integer arithmetic
    and in time polynomial in the bit size of the coefficients.  The
    square-free part s of p, cleared to integer coefficients c_0..c_n,
    becomes the monic integer polynomial g(y) = c_n^(n-1) s(y / c_n): the
    rational roots of s are y / c_n for the integer roots y of g, and each
    such y divides g(0) != 0 (the root 0 is split off first).  At the
    smallest prime p where every root of g mod p is simple (only primes
    dividing disc(g) fail), each of them lifts uniquely by Newton steps
    mod p^(2^k) until the modulus exceeds 2 |g(0)|; its symmetric residue
    is then the one integer candidate, and an exact evaluation decides it.
    Multiplicities and the remainder come from exact integer division of
    p, cleared to integers once, by (q x - r) for each root r/q in turn.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has every value as a root")
    roots: dict[Fraction, int] = {}
    work = p.monic()

    v = work.valuation()
    if v > 0:
        roots[Fraction(0)] = v
        work = Poly(work.coeffs[v:])

    if work.degree >= 1:
        square_free = work // poly_gcd(work, work.derivative())
        ints, _ = cleared(work.coeffs)
        for root in _simple_roots(square_free):
            line = [-root.numerator, root.denominator]
            while (quo := exact_quotient(ints, line)) is not None:
                roots[root] = roots.get(root, 0) + 1
                ints = quo
        work = Poly(ints)

    ordered = tuple(sorted(roots.items()))
    return ordered, work.monic()


def _simple_roots(s: Poly) -> list[Fraction]:
    """Rational roots, ascending, of a monic square-free s of degree >= 1
    with s(0) != 0, by the lifting that rational_roots describes."""
    lead = lcm(*(c.denominator for c in s.coeffs))
    c = [int(ci * lead) for ci in s.coeffs]
    n = len(c) - 1
    g = [ci * lead ** (n - 1 - i) for i, ci in enumerate(c[:n])] + [1]
    dg = [i * gi for i, gi in enumerate(g) if i]
    bound = 2 * abs(g[0])

    prime = 2
    while True:
        if all(prime % d for d in range(2, isqrt(prime) + 1)):
            residues = [r for r in range(prime) if eval_int(g, r, prime) == 0]
            if all(eval_int(dg, r, prime) for r in residues):
                break
        prime += 1

    roots = []
    for r in residues:
        modulus = prime
        while modulus <= bound:
            modulus *= modulus
            step = eval_int(g, r, modulus) * pow(eval_int(dg, r, modulus), -1, modulus)
            r = (r - step) % modulus
        y = r if 2 * r <= modulus else r - modulus
        if eval_int(g, y) == 0:
            roots.append(Fraction(y, lead))
    return sorted(roots)


def eval_int(coeffs: list[int], x: int, modulus: int | None = None) -> int:
    """Horner evaluation of an integer polynomial, reduced mod modulus if given."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
        if modulus is not None:
            acc %= modulus
    return acc
