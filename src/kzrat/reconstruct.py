"""Rational matrix functions from truncated Laurent series, with exact
ODE verification.

Reconstruction is linear matching on the coefficient lattice: all entries
share one prescribed scalar denominator D, so each numerator is the
product D W cut to the allowed degrees, and the excess coefficients of the
same product, those cut off, over-check it against every series level.

Everything after the series runs on integer vectors.  `reconstruct` clears
each series entry once, convolves it with the cleared D(u), reads the
numerator and the over-check from that integer product, shifts the
numerators back to z by an integer Taylor shift, and normalizes the
integer matrix directly; one Fraction is built per output coefficient.

Normalisation works on the factored denominator.  Callers that know
rational roots of D with their multiplicities (the CLI knows all of
them: D = prod (z - z_i)^(m_i)) pass them; each is divided out of D
exactly, and only what is left goes through `rational_roots`.  Each root
r = p/q cancels as often as (q z - p) divides every entry, by exact
integer division; only the root-free rest goes through `poly_gcd`.
`verify_ode` writes D = E prod (z - z_i)^(e_i) over the system's points
and forms (dW/dz - coupling A W) D pi E from the log-derivative of D,
with no D or D^2 products (see `verify_ode`).  Its det(W) flag is decided
by one integer rank test: on the stacked coefficient matrices, and only
when that finds no constant kernel, at integer points (see `_det_is_zero`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .frobenius import SeriesSolution
from .kzmodel import KZSystem
from .matrix import FMatrix, charpoly
from .poly import (
    Poly,
    cleared,
    eval_int,
    exact_quotient,
    int_convolve,
    poly_gcd,
    rational_roots,
    taylor_shift,
)
from .scalars import format_scalar


class NotRepresentable(Exception):
    """The series does not match any numerator/denominator of the requested shape."""

    def __init__(self, first_unmatched_level: int):
        super().__init__(
            "series departs from the rational ansatz first at level "
            f"{format_scalar(first_unmatched_level)}"
        )
        self.first_unmatched_level = first_unmatched_level


class InsufficientSeriesError(ValueError):
    """Too few series coefficients to determine and over-check the numerator."""

    def __init__(self, have: int, need: int):
        super().__init__(
            f"reconstruction needs at least {format_scalar(need)} series coefficients, "
            f"got {format_scalar(have)}; recompute the series with order >= "
            f"{format_scalar(need - 1)}"
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


class RationalMatrixFunction(NamedTuple):
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
        """Exact evaluation; raises PoleError at a denominator root."""
        zv = Fraction(z)
        d = self.denominator(zv)
        if d == 0:
            raise PoleError(f"z = {format_scalar(zv)} is a pole of the denominator")
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


def rational_matrix(
    numerator: FMatrix, denominator: Poly, roots=()
) -> RationalMatrixFunction:
    """Normalize: strip the common factor of all entries and the denominator,
    then make the denominator monic.

    `roots` are known rational roots of the denominator, as (root,
    multiplicity) pairs; they save factoring it and never change the
    result (see `_normalized`).
    """
    if denominator.is_zero():
        raise ZeroDivisionError("rational matrix function with zero denominator")
    num, num_den = _cleared_entries(numerator)
    den, den_den = cleared(denominator.coeffs)
    return _normalized(num, num_den, den, den_den, roots)


def _normalized(
    num: list[list[list[int]]], num_den: int, den: list[int], den_den: int, roots
) -> RationalMatrixFunction:
    """(num / num_den) / (den / den_den), normalized, for integer vectors
    without trailing zeros; one Fraction is built per output coefficient.

    The denominator is factored as c * prod (q z - p)^m * E with E free of
    rational roots.  Each hinted root is divided out of den first, by exact
    integer division, and a hint that does not divide raises ValueError;
    `rational_roots` factors only what is left.  Each root r = p/q then
    cancels as often as (q z - p) divides every entry, tested by exact
    division (Gauss's lemma: over Z as over Q, since q z - p is
    primitive); only E is matched against the entries by poly_gcd.
    """
    mults: dict = {}
    rest = den
    for root, m in roots:
        if m < 0:
            raise ValueError(f"root {format_scalar(root)}: negative multiplicity {m}")
        line = [-root.numerator, root.denominator]
        for _ in range(m):
            rest = exact_quotient(rest, line)
            if rest is None:
                raise ValueError(
                    f"z = {format_scalar(root)} is no root of multiplicity {m} of the denominator"
                )
        mults[root] = mults.get(root, 0) + m
    if not any(f for row in num for f in row):
        return RationalMatrixFunction(
            numerator=FMatrix([[Poly() for _ in row] for row in num]), denominator=Poly.one()
        )
    rest_free = Poly()  # what rational_roots leaves; none when rest is constant
    if len(rest) > 1:
        found, rest_free = rational_roots(Poly(rest))
        for root, m in found:
            mults[root] = mults.get(root, 0) + m
    for root, m in mults.items():
        line = [-root.numerator, root.denominator]
        for _ in range(m):
            quotients = _divided(num, line)
            if quotients is None:
                break
            num = quotients
            den = exact_quotient(den, line)
    if rest_free.degree >= 1:
        g = rest_free
        for f in (f for row in num for f in row):
            g = poly_gcd(g, Poly(f))
            if g.degree == 0:
                break
        if g.degree >= 1:
            g_ints, _ = cleared(g.coeffs)  # primitive, as g is monic
            num = _divided(num, g_ints)
            den = exact_quotient(den, g_ints)
    lead = den[-1]
    scale = num_den * lead
    return RationalMatrixFunction(
        numerator=FMatrix(
            [[Poly([Fraction(x * den_den, scale) for x in f]) for f in row] for row in num]
        ),
        denominator=Poly([Fraction(x, lead) for x in den]),
    )


def _divided(num: list[list[list[int]]], g: list[int]) -> list[list[list[int]]] | None:
    """Every entry of num divided exactly by g, or None as soon as one is
    not divisible."""
    out = []
    for row in num:
        out_row = []
        for f in row:
            quo = exact_quotient(f, g)
            if quo is None:
                return None
            out_row.append(quo)
        out.append(out_row)
    return out


def _cleared_entries(m: FMatrix) -> tuple[list[list[list[int]]], int]:
    """(ints, den) with entry (i, j) of the Poly matrix m equal to
    ints[i][j] / den, den the least common denominator of all coefficients."""
    flat, den = cleared([c for row in m.entries for p in row for c in p.coeffs])
    out = []
    pos = 0
    for row in m.entries:
        out_row = []
        for p in row:
            out_row.append(flat[pos : pos + len(p.coeffs)])
            pos += len(p.coeffs)
        out.append(out_row)
    return out, den


def _sub(a: list[int], b: list[int]) -> list[int]:
    """a - b for integer vectors, without trailing zeros."""
    res = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        res[i] -= y
    while res and not res[-1]:
        res.pop()
    return res


def _derivative(f: list[int]) -> list[int]:
    return [k * x for k, x in enumerate(f)][1:]


def denominator_exponents(sys: KZSystem) -> tuple[int, ...]:
    """m_i = max(0, -rho_i) per singular point, with rho_i the minimal
    integer eigenvalue of coupling * residue_i."""
    if sys.is_symbolic:
        raise ValueError("a denominator proposal needs a numeric-mode system")
    exponents = []
    roots_of = {}  # KZ residues often share one characteristic polynomial
    for point, residue in zip(sys.points, sys.residues):
        chi = charpoly(residue * sys.coupling)
        if chi.coeffs not in roots_of:
            roots_of[chi.coeffs] = rational_roots(chi)[0]
        integer_eigs = [r for r, _ in roots_of[chi.coeffs] if r.denominator == 1]
        if not integer_eigs:
            raise NoPolynomialDenominator(
                f"coupling * residue at z = {format_scalar(point)} has no integer eigenvalue; "
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


def propose_denominator(sys: KZSystem) -> Poly:
    """prod (z - z_i)^{m_i} with the exponents of denominator_exponents."""
    return denominator_from_exponents(sys.points, denominator_exponents(sys))


def numerator_growth(sys: KZSystem) -> int:
    """The largest nonnegative integer eigenvalue of coupling * (sum of
    residues).

    A solution column behaves like z**m at infinity with m an eigenvalue of
    that matrix, so the numerator may exceed the denominator degree by
    this much.
    """
    total = sys.residues[0]
    for r in sys.residues[1:]:
        total = total + r
    roots, _ = rational_roots(charpoly(total * sys.coupling))
    return max((int(r) for r, _ in roots if r.denominator == 1 and r > 0), default=0)


def suggest_numerator_degree(sys: KZSystem, denominator: Poly) -> int:
    """Degree bound implied by the growth allowance at infinity: the
    denominator degree plus numerator_growth."""
    return denominator.degree + numerator_growth(sys)


def check_series_length(series: SeriesSolution, max_num_degree: int, den_degree: int) -> None:
    """Raise InsufficientSeriesError unless the series can determine and
    over-check a numerator of degree max_num_degree over a denominator of
    degree den_degree."""
    have = series.order + 1
    need = max_num_degree + den_degree + 2
    if have < need:
        raise InsufficientSeriesError(have, need)


def reconstruct(
    series: SeriesSolution, denominator: Poly, max_num_degree: int, roots=()
) -> RationalMatrixFunction:
    """Solve for numerator polynomials matching every series coefficient.

    Each numerator N is D W cut to degrees 0 .. max_num_degree in
    u = z - center, W the series at levels rho .. rho+have-1.  As
    N/D - W = (N - D W)/D and D = u^v g with g(0) != 0, N/D first departs
    from W at level t - v, t the lowest degree of a nonzero excess
    coefficient of D W (one cut off), if t - v <= rho + have - 1.

    All of it runs on integer vectors: D(u) is the integer Taylor shift of
    D, each entry of W is cleared once, and the numerators are shifted back
    to z over one common denominator.  `roots` are known rational roots of
    the denominator with their multiplicities, as for `rational_matrix`.

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

    center = series.center_point
    r, s = center.numerator, center.denominator
    rho = series.leading_exponent
    den, _ = cleared(denominator.coeffs)
    # D = den / L of degree deg; in u = z - r/s, D(u) = g(u) / (L s^deg)
    g = taylor_shift(den, r, s)
    v = next(t for t, x in enumerate(g) if x)
    levels = [m.entries for m in series.coeffs]
    products = []
    bad_levels = []
    for i in range(len(levels[0])):
        row = []
        for j in range(len(levels[0][0])):
            f, f_den = cleared([m[i][j] for m in levels])
            # q[t] / (L s^deg f_den) is the coefficient of u^(t + rho) in D W
            q = int_convolve(g, f)
            row.append((q, f_den))
            for t, x in enumerate(q[: v + have]):
                if x and not 0 <= t + rho <= max_num_degree:
                    bad_levels.append(t + rho - v)
                    break
        products.append(row)
    if bad_levels:
        raise NotRepresentable(min(bad_levels))

    # With nu the cut of q over the common denominator of the entries,
    # N(u) = nu(u) / (L s^deg common) and N(z) = N(u = z - r/s) is
    # taylor_shift(nu, -r, s)(z) / (L s^(deg + max_num_degree) common),
    # so N/D = taylor_shift(nu, -r, s) / (s^(deg + max_num_degree) common den).
    common = lcm(*(f_den for row in products for _, f_den in row))
    num = []
    for row in products:
        out_row = []
        for q, f_den in row:
            scale = common // f_den
            nu = [
                q[t - rho] * scale if 0 <= t - rho < len(q) else 0
                for t in range(max_num_degree + 1)
            ]
            f = taylor_shift(nu, -r, s) if any(nu) else []
            while f and not f[-1]:
                f.pop()
            out_row.append(f)
        num.append(out_row)
    num_den = common * s ** (len(den) - 1 + max_num_degree)
    return _normalized(num, num_den, den, 1, roots)


class OdeVerdict(NamedTuple):
    """Outcome of the exact check of dW/dz = coupling * A(z) * W(z)."""

    satisfied: bool
    residual: RationalMatrixFunction
    det_identically_zero: bool


def verify_ode(w: RationalMatrixFunction, sys: KZSystem) -> OdeVerdict:
    """Test dW/dz - coupling * A(z) * W(z) for identical vanishing, exactly;
    also flag det(W) identically zero.

    With W = N / D, D = E * prod (z - z_i)^(e_i) over the system's points,
    pi = prod (z - z_i) and c_i = pi / (z - z_i), the log-derivative
    D'/D = E'/E + sum e_i / (z - z_i) gives

        (dW/dz - coupling A W) D pi E
            = E (pi N' - sum_i c_i (e_i I + coupling R_i) N) - pi E' N,

    a polynomial matrix formed on integer vectors with no D or D^2
    products.  The residual is that matrix over D pi E, normalized.
    """
    if sys.is_symbolic:
        raise ValueError("verify_ode needs a numeric-mode system")
    n = w.n
    if sys.n != n:
        raise ValueError(f"dimension mismatch: W is {n}x{n}, the system {sys.n}x{sys.n}")
    num, num_den = _cleared_entries(w.numerator)
    d_ints, d_den = cleared(w.denominator.coeffs)
    e_ints = d_ints
    lines = [[-z.numerator, z.denominator] for z in sys.points]
    exponents = []
    for line in lines:
        e = 0
        while (quo := exact_quotient(e_ints, line)) is not None:
            e_ints = quo
            e += 1
        exponents.append(e)

    # pi and the c_i, both times prod q_i for z_i = p_i / q_i
    pi = [1]
    for line in lines:
        pi = int_convolve(pi, line)
    cofactors = [[line[1] * x for x in exact_quotient(pi, line)] for line in lines]
    kappa = sys.coupling
    shifted, shift_den = cleared([
        kappa * x + (e if r == c else 0)
        for e, residue in zip(exponents, sys.residues)
        for r, row in enumerate(residue.entries)
        for c, x in enumerate(row)
    ])
    # s = sum_i c_i (e_i I + coupling R_i), times prod q_i and shift_den
    s = [
        [
            [
                sum(shifted[i * n * n + r * n + c] * cof[t] for i, cof in enumerate(cofactors))
                for t in range(len(pi) - 1)
            ]
            for c in range(n)
        ]
        for r in range(n)
    ]
    pi = [shift_den * x for x in pi]
    pi_de = int_convolve(pi, _derivative(e_ints))
    residual_ints = []
    for r in range(n):
        row = []
        for c in range(n):
            acc = int_convolve(pi, _derivative(num[r][c]))
            for k in range(n):
                acc = _sub(acc, int_convolve(s[r][k], num[k][c]))
            row.append(_sub(int_convolve(e_ints, acc), int_convolve(pi_de, num[r][c])))
        residual_ints.append(row)
    residual = _normalized(
        residual_ints,
        num_den,
        int_convolve(int_convolve(d_ints, pi), e_ints),
        d_den,
        [(z, e + 1) for z, e in zip(sys.points, exponents)],
    )
    return OdeVerdict(
        satisfied=not any(f for row in residual_ints for f in row),
        residual=residual,
        det_identically_zero=_det_is_zero(num),
    )


def _det_is_zero(m: list[list[list[int]]]) -> bool:
    """Whether det(m) of a square matrix of integer polynomial vectors
    vanishes identically; for a Poly matrix cleared to m over L,
    det = det(m) / L^n.

    Both answers rest on one rank test, `_spans`.  The coefficient
    matrices [m_0; m_1; ...] stacked having rank < n proves det m = 0:
    some constant c != 0 has m(z) c = 0.  Otherwise m(t) is tested at the
    integers t = 2, 3, ...: the first nonsingular m(t) proves det m != 0,
    and n d + 1 singular ones prove det m = 0, since det m has degree at
    most n d for entries of degree at most d.
    """
    n = len(m)
    depth = max(len(f) for row in m for f in row)
    stacked = ([f[k] if k < len(f) else 0 for f in row] for k in range(depth) for row in m)
    if not _spans(stacked, n):
        return True
    points = range(2, 3 + n * (depth - 1))  # n d + 1 of them
    return not any(_spans(([eval_int(f, t) for f in row] for row in m), n) for t in points)


def _spans(rows, n: int) -> bool:
    """Whether the integer vectors of length n span Q^n: fraction-free
    elimination against an echelon basis, made primitive row by row, that
    stops at the n-th pivot."""
    basis = []
    for row in rows:
        for col, b in basis:
            if row[col]:
                row = [b[col] * x - row[col] * y for x, y in zip(row, b)]
        col = next((c for c, x in enumerate(row) if x), None)
        if col is not None:
            content = gcd(*row)
            basis.append((col, [x // content for x in row]))
            if len(basis) == n:
                return True
    return False
