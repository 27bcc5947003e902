"""Rational matrix functions from truncated Laurent series, with exact
ODE verification.

Reconstruction is linear matching on the coefficient lattice: all entries
share one prescribed scalar denominator D, so each numerator is the
product D W cut to the allowed degrees, and the excess coefficients of the
same product, those cut off, over-check it against every series level.

Everything after the series runs on integer vectors, and on the pivot
columns of the series' seed (kzrat.frobenius): every level, and so W, is
its pivot columns times the constant relations C.  `reconstruct` takes
each level's pivot columns in their integer form, convolves them with
the integer D(u), reads the numerator and the over-check from that
integer product, shifts the numerators back to z by an integer Taylor
shift and normalizes them over one denominator.  The numerator keeps
those pivot columns, as rows of r integer vectors, and C
(`FMatrix.from_poly_basis`); its Poly entries, the other columns as N C,
are built only when something reads them.  The over-check and the
normalization find what they find on all columns, since the pivot
columns are columns of W and the others constant combinations of them.
Each matrix is read by `kzrat.matrix.int_form`, which counts every
column of a matrix held as its entries a pivot, C = I; a series whose
levels do not all carry the same relations (built by hand or changed)
is read that way too.  `verify_ode` reads the numerator's pivot columns as
they are and checks them only: the residual is linear in N and C is
constant.

A denominator D is carried factored, as its rational roots p/q with
their multiplicities m and a rest E with no rational root.  `reconstruct`
takes D as (point, exponent) pairs, as the CLI builds it (E = 1), or as a
Poly, factored once by `rational_roots`; D(u) is built from the factors by
binomials, and only E is Taylor-shifted.  `_normalized` cancels a root as
often as (q z - p) divides every entry, by lowering its multiplicity, and
only E goes through `poly_gcd`; it expands the monic denominator once, at
the end, and that Poly carries its factors on to `verify_ode`, which reads
D = E prod (z - z_i)^(e_i) over the system's points from them.  It forms
(dW/dz - coupling A W) D pi E from the log-derivative of D, with no D or
D^2 products.  Its det(W) flag is true at once when C has fewer rows than
columns; otherwise it is decided by one integer rank test: on the stacked
coefficient matrices, and only when that finds no constant kernel, at
integer points (see `_det_is_zero`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import NamedTuple

from .frobenius import SeriesSolution
from .kzmodel import KZSystem
from .matrix import ColumnRelations, FMatrix, charpoly, holds_polys, int_form
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

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.numerator.entries for p in row)


def rational_matrix(numerator: FMatrix, denominator: Poly) -> RationalMatrixFunction:
    """Normalize: strip the common factor of all entries and the denominator,
    then make the denominator monic."""
    if not holds_polys(numerator):
        raise TypeError("rational_matrix needs a numerator of Polys")
    num, num_den, relations, _ = int_form(numerator)
    lead, mults, rest = _factored(denominator)
    return _normalized(num, Fraction(num_den, lead), mults, rest, relations)


class _FactoredPoly(Poly):
    """A Poly that carries its factors, as `_factored` returns them."""

    __slots__ = ("factors",)


def _factored(den: Poly) -> tuple:
    """(L, mults, rest) with den = prod (q z - p)^m * rest / L over the
    rational roots p/q of den, mults mapping each to its multiplicity m,
    and rest a primitive integer vector with no rational root: the factors
    den carries, or else those `rational_roots` finds."""
    if isinstance(den, _FactoredPoly):
        return den.factors
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    roots, rest_monic = rational_roots(den)
    rest, lead = cleared(rest_monic.coeffs)  # lead == rest[-1]
    lead *= prod(root.denominator**m for root, m in roots)
    return lead / den.leading, dict(roots), rest


def _expanded(mults: dict, rest: list[int], r: int = 0, s: int = 1) -> list[int]:
    """s^deg P(u + r/s) for P = prod (q z - p)^m * rest: each
    s (q z - p) = b u + a is raised to its power by the running binomial
    c_(k+1) = c_k (m - k) b / ((k + 1) a), which divides exactly, and only
    rest is Taylor-shifted."""
    out = taylor_shift(rest, r, s)
    for root, m in mults.items():
        b, a = root.denominator * s, root.denominator * r - root.numerator * s
        power = [a**m] if a else [0] * m + [b**m]
        for k in range(m if a else 0):
            power.append(power[-1] * (m - k) * b // ((k + 1) * a))
        out = int_convolve(power, out)
    return out


def _normalized(
    num: list[list[list[int]]], scale, mults: dict, rest: list[int], relations: ColumnRelations
) -> RationalMatrixFunction:
    """(num C) / (scale P), normalized, for integer vectors without
    trailing zeros, num the pivot columns and C the relations, and
    P = prod (q z - p)^m * rest as `_factored` gives it.  The numerator
    holds the pivot columns over one positive denominator, content
    stripped, and builds no Fraction until its entries are read.

    Each root r = p/q cancels as often as (q z - p) divides every entry,
    tested by exact division (Gauss's lemma: over Z as over Q, since
    q z - p is primitive), and its multiplicity drops by as much; only
    rest, free of rational roots, is matched against the entries by
    poly_gcd.  What is left of P is expanded once, at the end.

    The other columns are constant combinations of the pivot columns, so
    a factor divides every entry exactly when it divides every pivot
    entry: the pivot columns are normalized, and the others are built
    from them with the numerator's entries.  The numerator carries the
    pivot columns and the relations, and the denominator its factors, for
    `verify_ode`.
    """
    if not any(f for row in num for f in row):
        return _zero_function(len(num), relations.cols)
    left = {}
    for root, m in mults.items():
        line = [-root.numerator, root.denominator]
        while m and (quotients := _divided(num, line)) is not None:
            num = quotients
            m -= 1
        if m:
            left[root] = m
    if len(rest) > 1:
        g = Poly(rest)
        for f in (f for row in num for f in row):
            g = poly_gcd(g, Poly(f))
            if g.degree == 0:
                break
        if g.degree >= 1:
            g_ints, _ = cleared(g.coeffs)  # primitive, as g is monic
            num = _divided(num, g_ints)
            rest = exact_quotient(rest, g_ints)
    den = _expanded(left, rest)
    lead = den[-1]
    denominator = _FactoredPoly([Fraction(x, lead) for x in den])
    denominator.factors = (lead, left, rest)
    # num * over / under, over one positive denominator with the content stripped
    over, under = scale.denominator, scale.numerator * lead
    if under < 0:
        over, under = -over, -under
    if over != 1:
        num = [[[x * over for x in f] for f in row] for row in num]
    g = gcd(under, *(x for row in num for f in row for x in f))
    if g > 1:
        num = [[[x // g for x in f] for f in row] for row in num]
    return RationalMatrixFunction(
        numerator=FMatrix.from_poly_basis(num, under // g, relations),
        denominator=denominator,
    )


def _zero_function(rows: int, cols: int) -> RationalMatrixFunction:
    return RationalMatrixFunction(
        numerator=FMatrix([[Poly() for _ in range(cols)] for _ in range(rows)]),
        denominator=Poly.one(),
    )


def _divided(num: list[list[list[int]]], g: list[int]) -> list[list[list[int]]] | None:
    """Every entry of num divided exactly by g, or None as soon as a row
    holds one that is not divisible."""
    out = []
    for row in num:
        out.append([exact_quotient(f, g) for f in row])
        if None in out[-1]:
            return None
    return out


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


def denominator_exponents(sys: KZSystem, spectra: dict | None = None) -> tuple[int, ...]:
    """m_i = max(0, -rho_i) per singular point, with rho_i the minimal
    integer eigenvalue of coupling * residue_i.

    KZ residues often share one characteristic polynomial, which is
    factored once.  `spectra` maps characteristic polynomials, by
    coefficient tuple, to their `rational_roots` found before, as
    `indicial_data` leaves them, and receives those found here.
    """
    if sys.is_symbolic:
        raise ValueError("a denominator proposal needs a numeric-mode system")
    exponents = []
    roots_of = {} if spectra is None else spectra
    for point, residue in zip(sys.points, sys.residues):
        chi = charpoly(residue * sys.coupling)
        if chi.coeffs not in roots_of:
            roots_of[chi.coeffs] = rational_roots(chi)
        integer_eigs = [r for r, _ in roots_of[chi.coeffs][0] if r.denominator == 1]
        if not integer_eigs:
            raise NoPolynomialDenominator(
                f"coupling * residue at z = {format_scalar(point)} has no integer eigenvalue; "
                "no polynomial denominator exists for the Laurent ansatz"
            )
        exponents.append(max(0, -int(min(integer_eigs))))
    return tuple(exponents)


def denominator_from_exponents(points, exponents) -> Poly:
    """prod (z - z_i)^{m_i}, expanded by binomials."""
    ints = _expanded(_exponent_mults(zip(points, exponents)), [1])
    return Poly([Fraction(x, ints[-1]) for x in ints])


def _exponent_mults(pairs) -> dict:
    """{z_i: m_i} for (point, exponent) pairs, zero exponents left out."""
    mults = {}
    for point, m in pairs:
        if m < 0:
            raise ValueError(f"z = {format_scalar(point)}: negative exponent {format_scalar(m)}")
        if m:
            mults[point] = mults.get(point, 0) + m
    return mults


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
    series: SeriesSolution, denominator, max_num_degree: int
) -> RationalMatrixFunction:
    """Solve for numerator polynomials matching every series coefficient.

    Each numerator N is D W cut to degrees 0 .. max_num_degree in
    u = z - center, W the series at levels rho .. rho+have-1.  As
    N/D - W = (N - D W)/D and D = u^v g with g(0) != 0, N/D first departs
    from W at level t - v, t the lowest degree of a nonzero excess
    coefficient of D W (one cut off), if t - v <= rho + have - 1.

    D is given as (point, exponent) pairs, D = prod (z - z_i)^(m_i), or as
    a Poly, which `rational_roots` factors once.  All of it runs on integer
    vectors and on the pivot columns of the levels: D(u) is built from the
    factors of D, each level of W is taken on the rows of pivot entries
    that compute_series stored (`int_form`, no Fraction built) and
    scaled to the lcm of the level denominators, and the numerators are
    shifted back to z over that common denominator; the numerator keeps
    the normalized pivot columns (see `_normalized`).  When the levels do
    not share their relations, every column is a pivot.

    Raises InsufficientSeriesError when the series is too short to
    over-determine the answer, and NotRepresentable (with the first
    unmatched level) when no numerator of the requested degree matches.
    """
    forms = [int_form(m) for m in series.coeffs]
    if series.symbolic or any(form[3] is not None for form in forms):
        raise ValueError("reconstruction needs a numeric-mode series")
    if max_num_degree < 0:
        raise ValueError("max_num_degree must be >= 0")
    if isinstance(denominator, Poly):
        if denominator.is_zero():
            raise ZeroDivisionError("zero denominator")
        check_series_length(series, max_num_degree, denominator.degree)
        _, mults, rest = _factored(denominator)
    else:
        mults, rest = _exponent_mults(denominator), [1]
        check_series_length(series, max_num_degree, sum(mults.values()))
    have = series.order + 1

    center = series.center_point
    r, s = center.numerator, center.denominator
    rho = series.leading_exponent
    # D = P / L for P = prod (q z - p)^m * rest of degree deg; in
    # u = z - r/s, D(u) = g(u) / (L s^deg)
    g = _expanded(mults, rest, r, s)
    v = next(t for t, x in enumerate(g) if x)
    # the pivot columns of every level, over the lcm of the level
    # denominators, read from their integer form; q[t] / (L s^deg common)
    # is the coefficient of u^(t + rho) of a pivot entry of D W
    relations = forms[0][2]
    levels = [form[:2] for form in forms]
    if any(form[2] != relations for form in forms):
        # levels sharing no relations: every column a pivot
        n = relations.cols
        levels = [form[2].flat(*form[:2]) for form in forms]
        levels = [([ints[i : i + n] for i in range(0, len(ints), n)], den) for ints, den in levels]
        relations = ColumnRelations.trivial(n)
    common = lcm(*(den for _, den in levels))
    levels = [(rows, common // den) for rows, den in levels]
    products = [
        [int_convolve(g, [rows[i][k] * scale for rows, scale in levels]) for k in range(len(row))]
        for i, row in enumerate(levels[0][0])
    ]
    bad_levels = []
    for q in (q for row in products for q in row):
        for t, x in enumerate(q[: v + have]):
            if x and not 0 <= t + rho <= max_num_degree:
                bad_levels.append(t + rho - v)
                break
    if bad_levels:
        raise NotRepresentable(min(bad_levels))

    # With nu the cut of q, N(u) = nu(u) / (L s^deg common) and
    # N(z) = N(u = z - r/s) is taylor_shift(nu, -r, s)(z) / (L s^(deg +
    # max_num_degree) common), so N/D = taylor_shift(nu, -r, s) /
    # (s^(deg + max_num_degree) common P).
    num = []
    for row in products:
        num.append([])
        for q in row:
            nu = [q[t - rho] if 0 <= t - rho < len(q) else 0 for t in range(max_num_degree + 1)]
            f = taylor_shift(nu, -r, s) if any(nu) else []
            while f and not f[-1]:
                f.pop()
            num[-1].append(f)
    num_den = common * s ** (len(g) - 1 + max_num_degree)
    return _normalized(num, num_den, mults, rest, relations)


class OdeVerdict(NamedTuple):
    """Outcome of the exact check of dW/dz = coupling * A(z) * W(z)."""

    satisfied: bool
    residual: RationalMatrixFunction
    det_identically_zero: bool


def verify_ode(w: RationalMatrixFunction, sys: KZSystem) -> OdeVerdict:
    """Test dW/dz - coupling * A(z) * W(z) for identical vanishing, exactly;
    also flag det(W) identically zero.

    With W = N / D, D = E * prod (z - z_i)^(e_i) over the system's points
    (read from the factors of D, see `_factored`),
    pi = prod (z - z_i) and c_i = pi / (z - z_i), the log-derivative
    D'/D = E'/E + sum e_i / (z - z_i) gives

        (dW/dz - coupling A W) D pi E
            = E (pi N' - sum_i c_i (e_i I + coupling R_i) N) - pi E' N,

    a polynomial matrix formed on integer vectors with no D or D^2
    products, for the pivot columns of N only, read by `int_form` as the
    numerator holds them; the other columns of the residual are the same
    combinations of them.  The residual is that matrix over D pi E,
    normalized; a zero one needs no normalizing.
    """
    if sys.is_symbolic:
        raise ValueError("verify_ode needs a numeric-mode system")
    n = w.n
    if sys.n != n:
        raise ValueError(f"dimension mismatch: W is {n}x{n}, the system {sys.n}x{sys.n}")
    num, num_den, relations, power = int_form(w.numerator)
    if power is not None:
        raise ValueError("reconstruction needs a numeric-mode series")
    r = len(relations.pivots)
    lead, mults, rest = _factored(w.denominator)
    exponents = [mults.get(z, 0) for z in sys.points]
    extra = {root: m for root, m in mults.items() if root not in sys.points}
    e_ints = _expanded(extra, rest)
    lines = [[-z.numerator, z.denominator] for z in sys.points]

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
    for i in range(n):
        row = []
        for c in range(r):
            acc = int_convolve(pi, _derivative(num[i][c]))
            for k in range(n):
                acc = _sub(acc, int_convolve(s[i][k], num[k][c]))
            row.append(_sub(int_convolve(e_ints, acc), int_convolve(pi_de, num[i][c])))
        residual_ints.append(row)
    satisfied = not any(f for row in residual_ints for f in row)
    if satisfied:
        residual = _zero_function(n, n)
    else:
        # over D pi E = prod (z - z_i)^(e_i + 1) E^2 / L, pi times shift_den
        roots = {z: e + 1 for z, e in zip(sys.points, exponents)}
        roots.update((root, 2 * m) for root, m in extra.items())
        scale = Fraction(num_den * shift_den, lead)
        residual = _normalized(residual_ints, scale, roots, int_convolve(rest, rest), relations)
    return OdeVerdict(
        satisfied=satisfied,
        residual=residual,
        det_identically_zero=r < n or _det_is_zero(num),
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
