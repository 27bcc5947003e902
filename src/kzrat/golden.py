"""Built-in reference values for the kz-s3 preset regression.

The tables pin the symbolic series at the first singular point with
coupling 2, leading exponent -2, literal-paper convention: coefficient
matrices for levels -2 .. 1, and the right side of the resonant level-2
step in its normalized form (step matrix scaled down to I - P, so the
right side is the plain convolution of the tables through order 2).

Each table is an integer matrix times a scale times a power of d, kept
in that form.  The comparison reads a series level the same way, as its
integers over one denominator and its power (``int_form``), and builds
none of its entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .frobenius import SeriesSolution
from .kzmodel import DERIVED_TAYLOR, LocalExpansion
from .matrix import FMatrix, flat, int_form, nonzero_product, nonzero_terms


class GoldenTable(NamedTuple):
    """The reference matrix ints * scale * d^power, its ints flat and row-major."""

    ints: list[int]
    scale: Fraction
    power: int


def _fixture(ints: list[list[int]], scale: Fraction, power: int) -> GoldenTable:
    return GoldenTable([e for row in ints for e in row], scale, power)


_MINUS_NINTH = Fraction(-1, 9)

GOLDEN_COEFFS: dict[int, GoldenTable] = {
    -2: _fixture([[1, -1, 0], [-1, 1, 0], [0, 0, 0]], Fraction(1), 0),
    -1: _fixture([[-12, 12, 0], [6, -6, 0], [6, -6, 0]], _MINUS_NINTH, -1),
    0: _fixture([[3, -3, 0], [-6, 6, 0], [3, -3, 0]], _MINUS_NINTH, -2),
    1: _fixture([[6, -6, 0], [6, -6, 0], [-12, 12, 0]], _MINUS_NINTH, -3),
}

# Convolving the four tables above through the order-2 step gives exactly
# this right side; any nonzero scalar multiple leaves its solvability
# (range membership for I - P) unchanged.
GOLDEN_LEVEL2_RHS: GoldenTable = _fixture(
    [[1, -1, 0], [-1, 1, 0], [0, 0, 0]], Fraction(1), -4
)

GOLDEN_LEVELS = (-2, -1, 0, 1)


class GoldenOutcome(NamedTuple):
    matched: bool
    lines: tuple[str, ...]


def _integers(m: FMatrix) -> tuple[list[int], int, int]:
    """m, a graded matrix, as (ints, den, power), m = (ints / den) * d^power
    with ints flat and row-major."""
    rows, den, relations, power = int_form(m)
    return (*relations.flat(rows, den), power)


def _equals(value: tuple[list[int], int, int] | None, table: GoldenTable, sign: int) -> bool:
    """Whether (ints, den, power) is sign times the table, on integers."""
    if value is None:
        return False
    ints, den, power = value
    num = sign * table.scale.numerator * den
    scale_den = table.scale.denominator
    return power == table.power and [x * scale_den for x in ints] == [t * num for t in table.ints]


def _level2_normalized_rhs(levels: dict, exp: LocalExpansion) -> tuple[list[int], int, int] | None:
    """Convolution sum at the level-2 step (the recursion right side divided
    by the coupling constant 2, matching the I - P normalization), from
    the levels -2 .. 1 read by _integers, as (ints, den, power).  With
    a_j = -R u^(j+1) d^-(j+1) it is -R sum_j u^(j+1) b_(1-j), summed at
    d = 1; None unless its nonzero terms share one power."""
    ((u, residue),) = exp.poles
    terms, powers = [], set()
    for level, (ints, den, power) in levels.items():
        k = 2 - level  # j + 1 for j = 1 - level
        if any(ints):
            powers.add(power - k)
        terms.append(([x * u.numerator**k for x in ints], den * u.denominator**k))
    if len(powers) != 1:
        return None
    den = lcm(*(d for _, d in terms))
    total = [sum(xs) for xs in zip(*([x * (den // d) for x in ints] for ints, d in terms))]
    r, r_den = flat(residue)
    product = nonzero_product(nonzero_terms(r, exp.n, exp.n), total, len(total))
    return [-x for x in product], den * r_den, powers.pop()


def _require_comparable(series: SeriesSolution, exp: LocalExpansion) -> str | None:
    if not series.symbolic:
        return "golden comparison needs symbolic mode"
    if exp.center_index != 1:
        return f"golden comparison needs center 1, got center {exp.center_index}"
    if series.leading_exponent != -2:
        return f"golden comparison needs leading exponent -2, got {series.leading_exponent}"
    if series.order < 3:
        return "golden comparison needs series levels -2..1 (order >= 3)"
    return None


def compare_series(series: SeriesSolution, exp: LocalExpansion) -> GoldenOutcome:
    """Exact comparison against the reference tables: directly for a
    literal-paper series, through the d -> -d duality (compare_series_dual)
    for a derived-taylor one."""
    return _compare(series, exp, dual=series.convention == DERIVED_TAYLOR)


def compare_series_dual(series: SeriesSolution, exp: LocalExpansion) -> GoldenOutcome:
    """Comparison for a derived-taylor series via the exact d -> -d duality:
    b_p (derived) must equal (-1)^p times the literal-paper table."""
    return _compare(series, exp, dual=True)


def _compare(series: SeriesSolution, exp: LocalExpansion, dual: bool) -> GoldenOutcome:
    problem = _require_comparable(series, exp)
    if problem is None and dual and series.convention != DERIVED_TAYLOR:
        problem = (
            f"dual golden comparison needs the derived-taylor convention, "
            f"got {series.convention}"
        )
    if problem is not None:
        return GoldenOutcome(matched=False, lines=(problem,))
    label = " (dual)" if dual else ""
    lines = []
    ok = True
    levels = {level: _integers(series.coefficient(level)) for level in GOLDEN_LEVELS}
    for level, value in levels.items():
        sign = -1 if dual and level % 2 else 1
        match = _equals(value, GOLDEN_COEFFS[level], sign)
        ok = ok and match
        lines.append(f"b[{level}]{label}: {'match' if match else 'MISMATCH'}")
    rhs_match = _equals(_level2_normalized_rhs(levels, exp), GOLDEN_LEVEL2_RHS, 1)
    ok = ok and rhs_match
    lines.append(f"level-2 rhs: {'match' if rhs_match else 'MISMATCH'}")
    if not ok:
        lines.append("golden: MISMATCH")
    elif dual:
        lines.append("golden: match up to d->-d duality")
    else:
        lines.append("golden: match (4 coefficients + resonant RHS)")
    return GoldenOutcome(matched=ok, lines=tuple(lines))
