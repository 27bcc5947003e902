"""Rational matrix functions from truncated Laurent series, with exact
ODE verification.

Reconstruction is linear matching on the coefficient lattice: all entries
share one prescribed scalar denominator, so the numerator polynomials drop
out of an exact product and are then over-checked against every available
series coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .frobenius import SeriesSolution
from .kzmodel import KZSystem
from .matrix import FMatrix, charpoly
from .poly import Poly, cleared, poly_gcd, rational_roots


class NotRepresentable(Exception):
    """The series does not match any numerator/denominator of the requested shape."""

    def __init__(self, first_unmatched_level: int):
        super().__init__(
            f"series departs from the rational ansatz first at level {first_unmatched_level}"
        )
        self.first_unmatched_level = first_unmatched_level


class InsufficientSeriesError(ValueError):
    """Too few series coefficients to determine and over-check the numerator."""

    def __init__(self, have: int, need: int):
        super().__init__(
            f"reconstruction needs at least {need} series coefficients, got {have}; "
            f"recompute the series with order >= {need - 1}"
        )
        self.have = have
        self.need = need


class NoPolynomialDenominator(ValueError):
    """Some singular point has no integer local exponent."""


class PoleError(ZeroDivisionError):
    """Evaluation of a rational matrix function at a pole."""


def _series_of_ratio(num: Poly, den: Poly, lo: int, count: int) -> list[Fraction]:
    """Laurent coefficients of num/den at u = 0 for levels lo .. lo+count-1.

    With den = u^v g / dg and num = f / df for integer vectors g, f, the
    quotient is u^(-v) (dg / df) h with h = f / g, and h_t = H_t / g_0^(t+1)
    where H_t = g_0^t f_t - sum_(d>=1) g_d g_0^(d-1) H_(t-d) is an integer
    recurrence; only the wanted h_t become Fractions.
    """
    if den.is_zero():
        raise ZeroDivisionError("series expansion with zero denominator")
    if num.is_zero():
        return [Fraction(0)] * count
    v = den.valuation()
    g, dg = cleared(den.coeffs[v:])
    f, df = cleared(num.coeffs)
    g0 = g[0]
    steps = []
    g0_power = 1
    for d in range(1, len(g)):
        if g[d]:
            steps.append((d, g[d] * g0_power))
        g0_power *= g0
    first = lo + v
    t_max = first + count - 1
    out = [Fraction(0)] * count
    h_int: list[int] = []
    g0_power = 1  # g_0^t
    for t in range(t_max + 1):
        acc = g0_power * f[t] if t < len(f) else 0
        for d, step in steps:
            if d > t:
                break
            acc -= step * h_int[t - d]
        h_int.append(acc)
        g0_power *= g0
        if t >= first:
            out[t - first] = Fraction(acc * dg, g0_power * df)
    return out


@dataclass(frozen=True, eq=False)
class RationalMatrixFunction:
    """Matrix of polynomials in z over one monic scalar denominator.

    Use :func:`rational_matrix` to construct a normalized value: no common
    polynomial factor survives between the denominator and all numerator
    entries together.
    """

    numerator: FMatrix
    denominator: Poly

    @property
    def n(self) -> int:
        return self.numerator.rows

    def evaluate(self, z) -> FMatrix:
        zv = Fraction(z)
        d = self.denominator(zv)
        if d == 0:
            raise PoleError(f"z = {zv} is a pole of the denominator")
        return FMatrix(
            [[p(zv) / d for p in row] for row in self.numerator.entries]
        )

    def laurent_coefficients(self, center, lo: int, count: int) -> list[FMatrix]:
        """Expansion coefficients at the center for levels lo .. lo+count-1."""
        c = Fraction(center)
        den_u = self.denominator.shifted(c)
        grids = [
            [_series_of_ratio(p.shifted(c), den_u, lo, count) for p in row]
            for row in self.numerator.entries
        ]
        return [
            FMatrix([[grids[i][j][k] for j in range(self.numerator.cols)]
                     for i in range(self.numerator.rows)])
            for k in range(count)
        ]

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.numerator.entries for p in row)


def rational_matrix(numerator: FMatrix, denominator: Poly) -> RationalMatrixFunction:
    """Normalize: strip the common factor of all entries and the denominator,
    then make the denominator monic."""
    if denominator.is_zero():
        raise ZeroDivisionError("rational matrix function with zero denominator")
    g = denominator
    for row in numerator.entries:
        for p in row:
            g = poly_gcd(g, p)
            if g.degree == 0:
                break
        if g.degree == 0:
            break
    num = numerator
    den = denominator
    if g.degree >= 1:
        num = num.map(lambda p: p // g)
        den = den // g
    lead = den.leading
    if lead != 1:
        num = num.map(lambda p: p / lead)
        den = den / lead
    return RationalMatrixFunction(numerator=num, denominator=den)


def denominator_exponents(sys: KZSystem, coupling=None) -> tuple[int, ...]:
    """m_i = max(0, -rho_i) per singular point, with rho_i the minimal
    integer eigenvalue of coupling * residue_i."""
    if sys.is_symbolic:
        raise ValueError("a denominator proposal needs a numeric-mode system")
    kappa = Fraction(coupling) if coupling is not None else sys.coupling
    exponents = []
    for point, residue in zip(sys.points, sys.residues):
        roots, _ = rational_roots(charpoly(residue * kappa))
        integer_eigs = [r for r, _ in roots if r.denominator == 1]
        if not integer_eigs:
            raise NoPolynomialDenominator(
                f"coupling * residue at z = {point} has no integer eigenvalue; "
                "no polynomial denominator exists for the Laurent ansatz"
            )
        exponents.append(max(0, -int(min(integer_eigs))))
    return tuple(exponents)


def denominator_from_exponents(points, exponents) -> Poly:
    """prod (z - z_i)^{m_i}."""
    den = Poly.one()
    for point, m in zip(points, exponents):
        if m:
            den = den * Poly((-Fraction(point), Fraction(1))) ** m
    return den


def propose_denominator(sys: KZSystem, coupling=None) -> Poly:
    """prod (z - z_i)^{m_i} with the exponents of denominator_exponents."""
    return denominator_from_exponents(sys.points, denominator_exponents(sys, coupling))


def numerator_growth(sys: KZSystem, coupling=None) -> int:
    """The largest nonnegative integer eigenvalue of coupling * (sum of
    residues).

    A solution column behaves like z**m at infinity with m an eigenvalue of
    that matrix, so the numerator may exceed the denominator degree by
    this much.
    """
    kappa = Fraction(coupling) if coupling is not None else sys.coupling
    total = sys.residues[0]
    for r in sys.residues[1:]:
        total = total + r
    roots, _ = rational_roots(charpoly(total * kappa))
    return max((int(r) for r, _ in roots if r.denominator == 1 and r > 0), default=0)


def suggest_numerator_degree(sys: KZSystem, denominator: Poly, coupling=None) -> int:
    """Degree bound implied by the growth allowance at infinity: the
    denominator degree plus numerator_growth."""
    return denominator.degree + numerator_growth(sys, coupling)


def check_series_length(series: SeriesSolution, max_num_degree: int, den_degree: int) -> None:
    """Raise InsufficientSeriesError unless the series can determine and
    over-check a numerator of degree max_num_degree over a denominator of
    degree den_degree."""
    have = series.order + 1
    need = max_num_degree + den_degree + 2
    if have < need:
        raise InsufficientSeriesError(have, need)


def reconstruct(
    series: SeriesSolution, denominator: Poly, max_num_degree: int
) -> RationalMatrixFunction:
    """Solve for numerator polynomials matching every series coefficient.

    Raises InsufficientSeriesError when the series is too short to
    over-determine the answer, and NotRepresentable (with the first
    unmatched level) when no numerator of the requested degree matches.
    """
    if series.symbolic:
        raise ValueError("reconstruction needs a numeric-mode series")
    if max_num_degree < 0:
        raise ValueError("max_num_degree must be >= 0")
    if denominator.is_zero():
        raise ZeroDivisionError("zero denominator")
    check_series_length(series, max_num_degree, denominator.degree)
    have = series.order + 1

    center = Fraction(series.center_point)
    rho = series.leading_exponent
    den_u = denominator.shifted(center)
    n_rows = series.coeffs[0].rows
    n_cols = series.coeffs[0].cols

    num_entries_u: list[list[Poly]] = []
    first_bad: int | None = None
    for i in range(n_rows):
        row = []
        for j in range(n_cols):
            w_poly = Poly([series.coeffs[k][i, j] for k in range(have)])
            q = den_u * w_poly
            candidate = Poly([q.coeff(t - rho) for t in range(max_num_degree + 1)])
            back = _series_of_ratio(candidate, den_u, rho, have)
            for k, (got, want) in enumerate(zip(back, w_poly.coeffs + (Fraction(0),) * have)):
                if got != want:
                    level = rho + k
                    if first_bad is None or level < first_bad:
                        first_bad = level
                    break
            row.append(candidate)
        num_entries_u.append(row)
    if first_bad is not None:
        raise NotRepresentable(first_bad)

    num_z = FMatrix(
        [[p.shifted(-center) for p in row] for row in num_entries_u]
    )
    return rational_matrix(num_z, denominator)


@dataclass(frozen=True, eq=False)
class OdeVerdict:
    """Outcome of the exact check of dW/dz = coupling * A(z) * W(z)."""

    satisfied: bool
    residual: RationalMatrixFunction
    det_identically_zero: bool


def verify_ode(w: RationalMatrixFunction, sys: KZSystem) -> OdeVerdict:
    """Form dW/dz - coupling * A(z) * W(z) over a common denominator and test
    the numerator for identical vanishing; also flag det(W) identically zero."""
    if sys.is_symbolic:
        raise ValueError("verify_ode needs a numeric-mode system")
    kappa = sys.coupling
    pi = Poly.one()
    for p in sys.points:
        pi = pi * Poly((-p, Fraction(1)))
    n = w.n
    s = FMatrix([[Poly() for _ in range(n)] for _ in range(n)])
    for point, residue in zip(sys.points, sys.residues):
        cofactor = pi // Poly((-point, Fraction(1)))
        s = s + residue.map(lambda e, c=cofactor: c * e)

    num = w.numerator
    den = w.denominator
    dnum = num.map(lambda p: p.derivative())
    dden = den.derivative()
    residual_num = (dnum * den - num * dden) * pi - (s * num) * (den * kappa)
    residual = rational_matrix(residual_num, den * den * pi)
    satisfied = residual.is_zero()

    return OdeVerdict(
        satisfied=satisfied,
        residual=residual,
        det_identically_zero=_det_is_zero(num),
    )


def _det_is_zero(m: FMatrix) -> bool:
    """Whether det(m) of a square Poly matrix vanishes identically, by
    fraction-free (Bareiss) elimination: each step divides exactly by the
    previous pivot, so entries stay polynomials."""
    work = [list(row) for row in m.entries]
    n = len(work)
    prev = Poly.one()
    for k in range(n):
        pivot = next((r for r in range(k, n) if work[r][k]), None)
        if pivot is None:
            return True
        work[k], work[pivot] = work[pivot], work[k]
        p = work[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * p - work[i][k] * work[k][j]) // prev
        prev = p
    return False


def evaluate(w: RationalMatrixFunction, z) -> FMatrix:
    """Exact evaluation; raises PoleError at a denominator root."""
    return w.evaluate(z)
