"""Exact rational scalars and their canonical string form."""

from __future__ import annotations

import re
from fractions import Fraction

# The base exact field. Fraction already maintains the invariants we need:
# gcd(|num|, den) = 1, den > 0, and zero is 0/1.
Scalar = Fraction

# ASCII digits only: \d and int() also accept every other Unicode digit.
_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$", re.ASCII)


def parse_scalar(text: str) -> Fraction:
    """Parse an exact rational written as ``p`` or ``p/q``.

    Decimal notation is rejected: '0.5' must be written '1/2'.
    """
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(
            f"decimal notation is not exact: {text!r} (write '1/2' instead of '0.5')"
        )
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r} (expected 'p' or 'p/q')")
    num, _, den = s.partition("/")
    return Fraction(_int_of(num), _int_of(den or "1"))


def format_scalar(x: Fraction) -> str:
    """Canonical string form: ``p`` for integers, ``p/q`` otherwise."""
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError:  # a part runs past CPython's int -> str digit cap
        num = _decimal(x.numerator)
        return num if x.denominator == 1 else f"{num}/{_decimal(x.denominator)}"


# CPython (3.10.7 and later) caps int <-> decimal str conversion at 4300
# digits by default, and exact values run past it.  Longer numbers are
# split into pieces below the cap, so neither direction depends on
# sys.set_int_max_str_digits.
_PIECE = 4000


def _int_of(digits: str) -> int:
    """int(digits) for a signed decimal literal of any length."""
    if len(digits) <= _PIECE:
        return int(digits)
    if digits[0] in "+-":
        value = _int_of(digits[1:])
        return -value if digits[0] == "-" else value
    k = len(digits) // 2
    return _int_of(digits[:-k]) * 10**k + _int_of(digits[-k:])


def _decimal(n: int) -> str:
    """str(n) for an int of any size."""
    if n.bit_length() <= 3 * _PIECE:  # under _PIECE digits
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)
