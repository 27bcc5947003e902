"""KZ-type Fuchsian systems and their local expansions at a singular point.

A system is dW/dz = coupling * A(z) * W with A(z) a sum of residue
matrices over simple poles.  Points are exact rationals, or the formal
marker "symbolic" (exactly two points), in which case the expansion
coefficients are graded monomials c * d^k in d = point2 - point1.

Symbolic mode is a grading of the numeric engine, not a second
arithmetic: with two points every a_r is a monomial of d-degree -(r + 1),
so the expansion is held at d = 1 (u = +-1) over Fraction, and
``LocalExpansion.grade`` multiplies a value by its power of d only where
it leaves the engine.  Every graded value is a lazy view of its pivot
columns (``kzrat.matrix.graded``), so a series level leaves the engine
still in integer form, and is read that way (``kzrat.matrix.int_form``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .matrix import FMatrix, graded
from .scalars import format_scalar

SYMBOLIC = "symbolic"

DERIVED_TAYLOR = "derived-taylor"
LITERAL_PAPER = "literal-paper"
CONVENTIONS = (DERIVED_TAYLOR, LITERAL_PAPER)


class KZSystem(NamedTuple):
    """Singular points, residue matrices, and the coupling constant."""

    points: tuple
    residues: tuple[FMatrix, ...]
    coupling: Fraction

    @property
    def n(self) -> int:
        return self.residues[0].rows

    @property
    def is_symbolic(self) -> bool:
        return any(p == SYMBOLIC for p in self.points)


def kz_system(points, residues, coupling=Fraction(2)) -> KZSystem:
    """Validating constructor for a general system."""
    pts = tuple(p if p == SYMBOLIC else Fraction(p) for p in points)
    res = tuple(residues)
    if not pts:
        raise ValueError("a system needs at least one singular point")
    if len(pts) != len(res):
        raise ValueError("one residue matrix is required per singular point")
    n = res[0].rows
    for r in res:
        if r.rows != r.cols or r.rows != n:
            raise ValueError("residues must be square matrices of one common dimension")
    symbolic = [p == SYMBOLIC for p in pts]
    if any(symbolic):
        if len(pts) != 2 or not all(symbolic):
            raise ValueError("symbolic mode requires exactly two points, both symbolic")
    elif len(set(pts)) != len(pts):
        raise ValueError("singular points must be pairwise distinct")
    return KZSystem(points=pts, residues=res, coupling=Fraction(coupling))


def transposition_matrix(n: int, i: int, j: int) -> FMatrix:
    """Permutation matrix swapping coordinates i and j (1-based), fixing the rest."""
    if not (1 <= i < j <= n):
        raise ValueError(f"transposition indices must satisfy 1 <= i < j <= n, got ({n},{i},{j})")
    rows = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    a, b = i - 1, j - 1
    rows[a], rows[b] = rows[b], rows[a]
    return FMatrix(rows)


def build_kz_s3(z1, z2, coupling=Fraction(2)) -> KZSystem:
    """The 3x3 preset: residues swap coordinates (1,2) and (1,3)."""
    return kz_system(
        points=(z1, z2),
        residues=(transposition_matrix(3, 1, 2), transposition_matrix(3, 1, 3)),
        coupling=coupling,
    )


def system_matrix_at(sys: KZSystem, z) -> FMatrix:
    """A(z) = sum residues[i] / (z - points[i]), evaluated exactly."""
    if sys.is_symbolic:
        raise ValueError("system_matrix_at needs a numeric-mode system")
    zv = Fraction(z)
    if zv in sys.points:
        raise ValueError(f"evaluation at the singular point z = {format_scalar(zv)}")
    n = sys.n
    total = FMatrix.zeros(n, n)
    for p, res in zip(sys.points, sys.residues):
        total = total + res * (Fraction(1) / (zv - p))
    return total


class LocalExpansion(NamedTuple):
    """A(z) = a_minus1/(z - z_c) + a_0 + a_1 (z - z_c) + ... at the center.

    ``residue`` (the residue at the center) and ``poles``, one pair
    (u_i, R_i) per other singular point with a_r = -sum_i R_i * u_i^(r+1),
    are Fraction data; numerically u_i = 1/(z_i - z_c).  In symbolic mode
    they are taken at d = 1, u = +-1, and the public coefficients are
    graded: a_r is a matrix of monomials in d, all of d-degree -(r + 1).
    ``regular(r)`` derives a_r for any r >= 0; ``order`` only sets how many
    of them (a_0 .. a_order) the expansion report lists.
    """

    center_index: int
    center_point: object
    residue: FMatrix
    order: int
    convention: str
    symbolic: bool
    poles: tuple[tuple[Fraction, FMatrix], ...]

    @property
    def n(self) -> int:
        return self.residue.rows

    def grade(self, m: FMatrix, power: int) -> FMatrix:
        """An engine value as it leaves the engine: m * d^power in symbolic
        mode, where the engine ran at d = 1; m itself numerically.  It is
        graded as a view of its pivot columns, whose RatFunc entries are
        built only if something reads them."""
        return graded(m, power) if self.symbolic else m

    @property
    def a_minus1(self) -> FMatrix:
        return self.grade(self.residue, 0)

    def regular(self, r: int) -> FMatrix:
        if r < 0:
            raise IndexError(f"regular coefficients start at a_0, not a_{r}")
        terms = [res * -(u ** (r + 1)) for u, res in self.poles]
        a_r = sum(terms[1:], terms[0]) if terms else FMatrix.zeros(self.n, self.n)
        return self.grade(a_r, -(r + 1))


def local_expansion(
    sys: KZSystem,
    center: int,
    convention: str = DERIVED_TAYLOR,
    order: int = 0,
) -> LocalExpansion:
    """Expansion data for a_{-1} and every a_r at the chosen point; ``order``
    is how many regular coefficients, a_0 .. a_order, the report lists.

    derived-taylor gives the true geometric-series expansion
    a_r = -sum_{i != c} residues[i] / (points[i] - points[c])^(r+1).
    literal-paper (two-point symbolic mode only) instead applies an
    alternating sign, a_r = (-1)^r * other / delta^(r+1); the two
    conventions are exchanged by the substitution d -> -d.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    if not (1 <= center <= len(sys.points)):
        raise ValueError(f"center index {center} out of range")
    if order < 0:
        raise ValueError("expansion order must be >= 0")
    c = center - 1

    if sys.is_symbolic:
        # delta = points[other] - points[center]; with d = point2 - point1
        # this is d when expanding at the first point and -d at the second.
        # literal-paper is derived-taylor under d -> -d, so u = -1/delta.
        sign = (1 if c == 0 else -1) * (1 if convention == DERIVED_TAYLOR else -1)
        poles = ((Fraction(sign), sys.residues[1 - c]),)
    elif convention == LITERAL_PAPER:
        raise ValueError("the literal-paper convention is defined only in two-point symbolic mode")
    else:
        poles = tuple(
            (Fraction(1) / (p - sys.points[c]), res)
            for i, (p, res) in enumerate(zip(sys.points, sys.residues))
            if i != c
        )
    return LocalExpansion(
        center_index=center,
        center_point=sys.points[c],
        residue=sys.residues[c],
        order=order,
        convention=convention,
        symbolic=sys.is_symbolic,
        poles=poles,
    )
