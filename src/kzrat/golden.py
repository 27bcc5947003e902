"""Built-in reference values for the kz-s3 preset regression.

The tables pin the symbolic series at the first singular point with
coupling 2, leading exponent -2, literal-paper convention: coefficient
matrices for levels -2 .. 1, and the right side of the resonant level-2
step in its normalized form (step matrix scaled down to I - P, so the
right side is the plain convolution of the tables through order 2).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .frobenius import SeriesSolution, convolution_rhs
from .kzmodel import DERIVED_TAYLOR, LITERAL_PAPER, LocalExpansion
from .matrix import FMatrix
from .ratfunc import RatFunc


def _fixture(ints: list[list[int]], scale: Fraction, power: int) -> FMatrix:
    factor = RatFunc.monomial(power, scale)
    return FMatrix([[Fraction(e) for e in row] for row in ints]) * factor


_MINUS_NINTH = Fraction(-1, 9)

GOLDEN_COEFFS: dict[int, FMatrix] = {
    -2: _fixture([[1, -1, 0], [-1, 1, 0], [0, 0, 0]], Fraction(1), 0),
    -1: _fixture([[-12, 12, 0], [6, -6, 0], [6, -6, 0]], _MINUS_NINTH, -1),
    0: _fixture([[3, -3, 0], [-6, 6, 0], [3, -3, 0]], _MINUS_NINTH, -2),
    1: _fixture([[6, -6, 0], [6, -6, 0], [-12, 12, 0]], _MINUS_NINTH, -3),
}

# Convolving the four tables above through the order-2 step gives exactly
# this right side; any nonzero scalar multiple leaves its solvability
# (range membership for I - P) unchanged.
GOLDEN_LEVEL2_RHS: FMatrix = _fixture(
    [[1, -1, 0], [-1, 1, 0], [0, 0, 0]], Fraction(1), -4
)

GOLDEN_LEVELS = (-2, -1, 0, 1)


class GoldenOutcome(NamedTuple):
    matched: bool
    lines: tuple[str, ...]


def _level2_normalized_rhs(series: SeriesSolution, exp: LocalExpansion) -> FMatrix:
    """Convolution sum at the level-2 step (the recursion right side divided
    by the coupling constant 2, matching the I - P normalization)."""
    table = {p: series.coefficient(p) for p in series.levels() if p <= 1}
    return convolution_rhs(exp, table, 2)


def _require_comparable(series: SeriesSolution) -> str | None:
    if not series.symbolic:
        return "golden comparison needs symbolic mode"
    if series.leading_exponent != -2:
        return f"golden comparison needs leading exponent -2, got {series.leading_exponent}"
    if series.order < 3:
        return "golden comparison needs series levels -2..1 (order >= 3)"
    return None


def compare_series(series: SeriesSolution, exp: LocalExpansion) -> GoldenOutcome:
    """Exact comparison against the reference tables (literal-paper series)."""
    return _compare(series, exp, dual=False)


def compare_series_dual(series: SeriesSolution, exp: LocalExpansion) -> GoldenOutcome:
    """Comparison for a derived-taylor series via the exact d -> -d duality:
    b_p (derived) must equal (-1)^p times the literal-paper table."""
    return _compare(series, exp, dual=True)


def _compare(series: SeriesSolution, exp: LocalExpansion, dual: bool) -> GoldenOutcome:
    problem = _require_comparable(series)
    if problem is None and series.convention != (DERIVED_TAYLOR if dual else LITERAL_PAPER):
        problem = (
            f"dual golden comparison needs the derived-taylor convention, "
            f"got {series.convention}"
            if dual
            else f"golden comparison is stated for the literal-paper convention, "
            f"got {series.convention}; pass --golden-dual for the derived-taylor twin"
        )
    if problem is not None:
        return GoldenOutcome(matched=False, lines=(problem,))
    label = " (dual)" if dual else ""
    lines = []
    ok = True
    for level in GOLDEN_LEVELS:
        expected = GOLDEN_COEFFS[level]
        if dual:
            expected = expected * (Fraction(-1) ** level)
        match = series.coefficient(level) == expected
        ok = ok and match
        lines.append(f"b[{level}]{label}: {'match' if match else 'MISMATCH'}")
    rhs_match = _level2_normalized_rhs(series, exp) == GOLDEN_LEVEL2_RHS
    ok = ok and rhs_match
    lines.append(f"level-2 rhs: {'match' if rhs_match else 'MISMATCH'}")
    if not ok:
        lines.append("golden: MISMATCH")
    elif dual:
        lines.append("golden: match up to d->-d duality")
    else:
        lines.append("golden: match (4 coefficients + resonant RHS)")
    return GoldenOutcome(matched=ok, lines=tuple(lines))
