"""Independent oracles and shared builders for the test suite.

Everything here recomputes expected values by a different route than the
code under test: pole expansions by long division, products instead of
divisions for series matching, and convolutions by raw nested loops.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from hypothesis import strategies as st

from kzrat import (
    FMatrix,
    Poly,
    RatFunc,
    ResonanceObstruction,
    SolveKind,
    convolution_rhs,
    leading_coefficient,
    solve_linear,
    transposition_matrix,
)

P1 = transposition_matrix(3, 1, 2)
P2 = transposition_matrix(3, 1, 3)
I3 = FMatrix.identity(3)

# Reference coefficient tables for the kz-s3 preset, literal convention,
# coupling 2: integer parts and shared prefactors, by level.
RAW_TABLES = {
    -2: ([[1, -1, 0], [-1, 1, 0], [0, 0, 0]], Fraction(1), 0),
    -1: ([[-12, 12, 0], [6, -6, 0], [6, -6, 0]], Fraction(-1, 9), -1),
    0: ([[3, -3, 0], [-6, 6, 0], [3, -3, 0]], Fraction(-1, 9), -2),
    1: ([[6, -6, 0], [6, -6, 0], [-12, 12, 0]], Fraction(-1, 9), -3),
}


def table_matrix(level: int) -> FMatrix:
    ints, scale, power = RAW_TABLES[level]
    return FMatrix([[Fraction(e) for e in row] for row in ints]) * RatFunc.monomial(
        power, scale
    )


def raw_matmul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    n, m, k = len(a), len(b[0]), len(b)
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def level2_convolution_oracle() -> tuple[list[list[Fraction]], int]:
    """sum_{j+l=1} a_j b_l from the reference tables, by raw loops.

    Works on (rational matrix, d-power) pairs since every term is a
    monomial in d.  Returns the summed matrix and its common power.
    """
    p2 = [[Fraction(int(e)) for e in row] for row in P2.entries]
    total = [[Fraction(0)] * 3 for _ in range(3)]
    power = None
    for j in range(0, 4):
        l = 1 - j
        if l < -2:
            continue
        ints, scale, bpow = RAW_TABLES[l]
        b_mat = [[Fraction(e) * scale for e in row] for row in ints]
        a_mat = [[Fraction(-1) ** j * e for e in row] for row in p2]
        term = raw_matmul(a_mat, b_mat)
        term_power = -(j + 1) + bpow
        if power is None:
            power = term_power
        assert term_power == power
        for i in range(3):
            for c in range(3):
                total[i][c] += term[i][c]
    return total, power


def direct_series(exp, coupling, order: int, leading_exponent: int):
    """Reference solver: every level recomputes coupling * sum_j a_j b_{q-j}
    by direct convolution over all earlier coefficients, O(N^2) products.

    Returns the coefficients b_leading .. b_{leading+order} and the
    (level, kind, kernel) of each consistent resonant step; raises
    ResonanceObstruction at an inconsistent one, as compute_series does.
    """
    coupling = Fraction(coupling)

    def lift(m: FMatrix) -> FMatrix:
        return m * RatFunc.one() if exp.symbolic else m

    coeffs = {leading_exponent: leading_coefficient(exp, coupling, leading_exponent)}
    records = []
    for level in range(leading_exponent + 1, leading_exponent + order + 1):
        rhs = convolution_rhs(exp, coeffs, level) * coupling
        step = FMatrix.identity(exp.n) * Fraction(level) - exp.a_minus1 * coupling
        res = solve_linear(lift(step), rhs)
        if res.kind is SolveKind.INCONSISTENT:
            raise ResonanceObstruction(level, res.certificate, rhs)
        if res.kind is SolveKind.AFFINE:
            records.append((level, res.kind, res.kernel_basis))
        coeffs[level] = lift(res.particular)
    return [coeffs[p] for p in sorted(coeffs)], records


def pole_series_coeffs(center, pole, count: int) -> list[Fraction]:
    """Taylor coefficients of 1/(z - pole) at z = center, by long division:
    solve (u + (center - pole)) * h(u) = 1 coefficient by coefficient."""
    delta = Fraction(center) - Fraction(pole)
    h: list[Fraction] = []
    for t in range(count):
        h.append(Fraction(1) / delta if t == 0 else -h[t - 1] / delta)
    return h


def brute_force_regular_coeffs(points, residues, center_index: int, count: int):
    """Oracle for the regular expansion coefficients of sum residue/(z - p)."""
    n = residues[0].rows
    series = [
        pole_series_coeffs(points[center_index], p, count) if i != center_index else None
        for i, p in enumerate(points)
    ]
    out = []
    for r in range(count):
        acc = FMatrix.zeros(n, n)
        for i, res in enumerate(residues):
            if i == center_index:
                continue
            acc = acc + res * series[i][r]
        out.append(acc)
    return out


def product_expansion_matches(
    num: Poly, den: Poly, center, lo: int, coeffs: list[Fraction]
) -> bool:
    """Check num/den = sum c_p u^p through the available precision, using a
    polynomial product rather than any series division."""
    c = Fraction(center)
    num_u = num.shifted(c)
    den_u = den.shifted(c)
    hi = lo + len(coeffs) - 1
    prod = den_u * Poly(coeffs)  # equals u^{-lo} * den * (truncated series)
    bound = hi + den_u.valuation()  # product is exact for u-degrees <= bound
    for t in range(0, bound - lo + 1):
        got = prod.coeff(t)
        want = num_u.coeff(t + lo) if t + lo >= 0 else Fraction(0)
        if got != want:
            return False
    return True


def matrix_expansion_matches(w, center, lo: int, coeff_matrices) -> bool:
    """Entrywise product_expansion_matches for a RationalMatrixFunction."""
    rows = w.numerator.rows
    cols = w.numerator.cols
    for i in range(rows):
        for j in range(cols):
            entry_coeffs = [m[i, j] for m in coeff_matrices]
            if not product_expansion_matches(
                w.numerator.entries[i][j], w.denominator, center, lo, entry_coeffs
            ):
                return False
    return True


def dual_twist(m: FMatrix) -> FMatrix:
    """Apply d -> -d to a matrix of d-monomial entries."""

    def twist(e: RatFunc) -> RatFunc:
        parts = e.monomial_parts()
        assert parts is not None
        coeff, power = parts
        return RatFunc.monomial(power, coeff * Fraction(-1) ** power)

    return m.map(twist)


# A two-point system whose level-2 resonant step is inconsistent (found by
# exact search; frozen here so the obstruction path stays covered).
OBSTRUCTED_RESIDUE2 = FMatrix([[1, 0, 1], [-1, 0, 0], [-1, 0, 1]])


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small]


def trial_division_rational_roots(p: Poly):
    """Oracle for rational_roots on small inputs, exponential in bit size.

    Clears p to primitive integer coefficients, removes the root 0, tries
    every +-a/b with a dividing the constant term and b the leading
    coefficient, and divides each root out by long division as often as
    it goes.
    """
    roots = {}
    work = p.monic()
    v = work.valuation()
    if v > 0:
        roots[Fraction(0)] = v
        work = Poly(work.coeffs[v:])
    if work.degree >= 1:
        den = lcm(*(c.denominator for c in work.coeffs))
        ints = [int(c * den) for c in work.coeffs]
        content = gcd(*ints)
        ints = [c // content for c in ints]
        candidates = {
            sign * Fraction(a, b)
            for a in _divisors(ints[0])
            for b in _divisors(ints[-1])
            for sign in (1, -1)
        }
        for cand in sorted(candidates):
            while work.degree >= 1 and work(cand) == 0:
                roots[cand] = roots.get(cand, 0) + 1
                work = work // Poly((-cand, Fraction(1)))
    return tuple(sorted(roots.items())), work.monic()


def fraction_product(a: Poly, b: Poly) -> Poly:
    """Oracle for Poly.__mul__: schoolbook product, one Fraction at a time."""
    if not a.coeffs or not b.coeffs:
        return Poly()
    res = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if not x:
            continue
        for j, y in enumerate(b.coeffs):
            if y:
                res[i + j] += x * y
    return Poly(res)


def fraction_shifted(p: Poly, c) -> Poly:
    """Oracle for Poly.shifted: Horner's rule in Fraction arithmetic,
    acc = acc * (x + c) + coeff, with the product written out."""
    c = Fraction(c)
    acc: list[Fraction] = []
    for coeff in reversed(p.coeffs):
        nxt = [Fraction(0)] * (len(acc) + 1)
        for k, a in enumerate(acc):
            nxt[k] += a * c
            nxt[k + 1] += a
        nxt[0] += coeff
        acc = nxt
    return Poly(acc)


def fraction_series_of_ratio(num: Poly, den: Poly, lo: int, count: int) -> list[Fraction]:
    """Oracle for reconstruct._series_of_ratio: power-series division one
    Fraction at a time, h_t = (num_t - sum_s h_s g_(t-s)) / g_0 with g the
    denominator divided by its lowest power of u."""
    if num.is_zero():
        return [Fraction(0)] * count
    v = den.valuation()
    g = Poly(den.coeffs[v:])
    t_max = lo + count - 1 + v
    h: list[Fraction] = []
    for t in range(t_max + 1):
        c = num.coeff(t)
        for s in range(max(0, t - g.degree), t):
            c -= h[s] * g.coeff(t - s)
        h.append(c / g.coeff(0))
    return [h[p + v] if 0 <= p + v <= t_max else Fraction(0) for p in range(lo, lo + count)]


# Polynomial coefficients from zero up to about 600 bits, with denominators
# that are small primes and their powers or as large as the numerators.
BIG = 2**600
coefficients = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-100, 100), st.sampled_from((1, 2, 3, 7, 9, 343, 3**40))),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
