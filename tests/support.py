"""Independent oracles and shared builders for the test suite.

Everything here recomputes expected values by a different route than the
code under test: pole expansions by long division, products instead of
divisions for series matching, and convolutions by raw nested loops.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, isqrt, lcm, prod

from hypothesis import strategies as st

from kzrat import (
    CONVENTIONS,
    DERIVED_TAYLOR,
    SYMBOLIC,
    FMatrix,
    OdeVerdict,
    Poly,
    RatFunc,
    RationalMatrixFunction,
    ResonanceObstruction,
    ResonanceRecord,
    SeriesSolution,
    SolveKind,
    convolution_rhs,
    infinity_record,
    kz_system,
    leading_coefficient,
    point_records,
    rational_roots,
    solve_linear,
    transposition_matrix,
)
from kzrat.frobenius import _seed
from kzrat.matrix import ColumnRelations, SolveResult, _canonical_kernel, _rref, scaled
from kzrat.reconstruct import (
    NotRepresentable,
    check_series_length,
    denominator_exponents,
    numerator_growth,
    rational_matrix,
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


def entries_built(m: FMatrix) -> bool:
    """Whether m's entries are set, read without building them."""
    try:
        FMatrix.entries.__get__(m)
    except AttributeError:
        return False
    return True


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


def fraction_charpoly(a: FMatrix) -> Poly:
    """Oracle for charpoly: Faddeev-LeVerrier over FMatrix products of
    Fractions, dividing by k at every step."""
    n = a.rows
    coeffs_desc = [Fraction(1)]
    m = None
    ident = FMatrix.identity(n)
    for k in range(1, n + 1):
        m = a if m is None else a * (m + coeffs_desc[-1] * ident)
        coeffs_desc.append(-(m.trace()) * Fraction(1, k))
    return Poly(list(reversed(coeffs_desc)))


def graded_entries(exp, m: FMatrix, power: int) -> FMatrix:
    """exp.grade(m, power) made entry by entry: in symbolic mode an FMatrix
    of the RatFunc monomials e * d^power, and m itself numerically."""
    if not exp.symbolic:
        return m
    return FMatrix([[RatFunc(e, power) for e in row] for row in m.entries])


def fraction_compute_series(exp, coupling, order: int) -> SeriesSolution:
    """Oracle for compute_series: the same partial-sum recurrence, run on
    FMatrix products and sums of Fractions, with every level solved by
    elimination (solve_linear) and classified by its SolveKind, and its
    values graded entry by entry (graded_entries)."""
    coupling = Fraction(coupling)
    roots, _ = rational_roots(fraction_charpoly(exp.residue * coupling))
    leading_exponent = min(int(r) for r, _ in roots if r.denominator == 1)
    n = exp.n
    zero = FMatrix.zeros(n, n)
    coeffs = [_seed(*scaled(exp.residue, coupling), n, coupling, leading_exponent)]
    weights = [res * -coupling for _, res in exp.poles]
    sums = [zero] * len(exp.poles)
    records = []
    for step in range(1, order + 1):
        level = leading_exponent + step
        sums = [(s + coeffs[-1]) * u for s, (u, _) in zip(sums, exp.poles)]
        terms = [w * s for w, s in zip(weights, sums)]
        rhs = sum(terms[1:], terms[0]) if terms else zero
        a = FMatrix.identity(n) * Fraction(level) - exp.residue * coupling
        res = solve_linear(a, rhs)
        if res.kind is not SolveKind.UNIQUE:
            rhs = graded_entries(exp, rhs, -step)
            graded = solve_linear(graded_entries(exp, a, 0), rhs) if exp.symbolic else res
            if res.kind is SolveKind.INCONSISTENT:
                raise ResonanceObstruction(level, graded.certificate, rhs)
            records.append(ResonanceRecord(level=level, kind=res.kind, kernel=graded.kernel_basis))
        coeffs.append(res.particular)
    return SeriesSolution(
        leading_exponent=leading_exponent,
        coeffs=tuple(graded_entries(exp, b, -p) for p, b in enumerate(coeffs)),
        resonances=tuple(records),
        convention=exp.convention,
        center_point=exp.center_point,
        symbolic=exp.symbolic,
    )


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
    polynomial product rather than any series division, in Fraction
    arithmetic throughout: no integer kernel that reconstruct runs on."""
    c = Fraction(center)
    num_u = fraction_shifted(num, c)
    den_u = fraction_shifted(den, c)
    hi = lo + len(coeffs) - 1
    prod = fraction_product(den_u, Poly(coeffs))  # u^{-lo} * den * (truncated series)
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
    return m.map(lambda e: RatFunc.monomial(e.power, e.coeff * Fraction(-1) ** e.power))


# A two-point system whose level-2 resonant step is inconsistent (found by
# exact search; frozen here so the obstruction path stays covered).
OBSTRUCTED_RESIDUE2 = FMatrix([[1, 0, 1], [-1, 0, 0], [-1, 0, 1]])


def _divisors(n: int, primes=None) -> list[int]:
    """The positive divisors of n != 0: by trial division up to sqrt(n), or,
    when primes is given, from the factorization of n over those primes,
    which must divide it completely."""
    n = abs(n)
    if primes is None:
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        return small + [n // d for d in small]
    divisors = [1]
    for prime in primes:
        power = 1
        powers = []
        while n % prime == 0:
            n //= prime
            power *= prime
            powers.append(power)
        divisors += [d * q for d in divisors for q in powers]
    assert n == 1, "a coefficient has a prime factor outside the given primes"
    return divisors


def root_theorem_rational_roots(p: Poly, primes=None):
    """Oracle for rational_roots that shares no code with it: the rational
    root theorem, with Fraction Horner.

    The root 0 is split off by the zero low coefficients; the rest is
    cleared to primitive integers c_0 .. c_n, and every root is one of the
    candidates +-a/b with a dividing c_0 and b dividing c_n (`_divisors`,
    over the given primes for coefficients too large for trial division).
    Each candidate is tested by Horner's rule over Fractions, whose partial
    sums are also the quotient by (x - candidate), and divided out as often
    as it is a root.  Exponential in the bit size of the coefficients
    without `primes`.
    """
    cs = list(p.coeffs)
    roots = {}
    zeros = next(k for k, c in enumerate(cs) if c)
    if zeros:
        roots[Fraction(0)] = zeros
        cs = cs[zeros:]
    den = lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs]
    content = gcd(*ints)
    candidates = {
        sign * Fraction(a, b)
        for a in _divisors(ints[0] // content, primes)
        for b in _divisors(ints[-1] // content, primes)
        for sign in (1, -1)
    }
    for x in sorted(candidates):
        while len(cs) > 1:
            partial = []
            acc = Fraction(0)
            for c in reversed(cs):
                acc = acc * x + c
                partial.append(acc)
            if acc:
                break
            roots[x] = roots.get(x, 0) + 1
            cs = partial[-2::-1]
    lead = cs[-1]
    return tuple(sorted(roots.items())), Poly([c / lead for c in cs])


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


def integer_product(a: Poly, b: Poly) -> Poly:
    """Oracle for Poly.__mul__ on long series: each factor cleared to
    integers over the lcm of its denominators, a schoolbook product of
    the two integer vectors with no zero skipped, and one Fraction per
    coefficient of the result."""
    if not a.coeffs or not b.coeffs:
        return Poly()
    vectors = []
    for p in (a, b):
        den = lcm(*(c.denominator for c in p.coeffs))
        vectors.append(([c.numerator * (den // c.denominator) for c in p.coeffs], den))
    (x, x_den), (y, y_den) = vectors
    res = [0] * (len(x) + len(y) - 1)
    for i, u in enumerate(x):
        for j, v in enumerate(y):
            res[i + j] += u * v
    return Poly([Fraction(r, x_den * y_den) for r in res])


def fraction_shifted(p: Poly, c) -> Poly:
    """p(x + c), the oracle for taylor_shift: Horner's rule in Fraction
    arithmetic, acc = acc * (x + c) + coeff, with the product written out."""
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
    """The Laurent coefficients of num/den at u = 0 for levels lo ..
    lo+count-1: power-series division one Fraction at a time,
    h_t = (num_t - sum_s h_s g_(t-s)) / g_0 with g the denominator divided
    by its lowest power of u."""
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


# Points of height up to 10^18, and couplings that may be negative, zero or
# fractional.
HEIGHT = 10**18
points = st.one_of(
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-HEIGHT, HEIGHT), st.integers(1, HEIGHT)),
)
couplings = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3)))


@st.composite
def integer_residues(draw, n: int, coupling: Fraction) -> FMatrix:
    """An integer residue R such that coupling * R has an integer eigenvalue.

    R = U T U^-1 with U unimodular and T upper triangular, its first
    diagonal entry a multiple of the coupling's denominator; equal diagonal
    entries joined by a nonzero entry above them give a Jordan block, so
    the step matrices are not all diagonalisable.  For n = 3 and an integer
    coupling R may instead be the transposition P1, which with
    OBSTRUCTED_RESIDUE2 at a second point gives an inconsistent step.
    """
    if n == 3 and coupling.denominator == 1 and draw(st.booleans()):
        return P1
    diag = [coupling.denominator * draw(st.integers(-3, 3))]
    diag += [draw(st.sampled_from((diag[0], 0, 1, -2, 4))) for _ in range(n - 1)]
    upper = st.sampled_from((0, 1, 1, -2))
    t = FMatrix(
        [[diag[i] if i == j else draw(upper) if j > i else 0 for j in range(n)] for i in range(n)]
    )
    u = u_inv = FMatrix.identity(n)
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.integers(-2, 2))
        e = [[int(r == s) + (c if (r, s) == (i, j) else 0) for s in range(n)] for r in range(n)]
        e_inv = [[int(r == s) - (c if (r, s) == (i, j) else 0) for s in range(n)] for r in range(n)]
        u, u_inv = u * FMatrix(e), FMatrix(e_inv) * u_inv
    return u * t * u_inv


@st.composite
def kz_systems(draw, symbolic: bool):
    """(system, center, convention, order) for an integer-residue system
    with n <= 4.  The center's residue comes from integer_residues, so the
    seed's column rank runs from 1 to n."""
    n = draw(st.integers(1, 4))
    coupling = draw(couplings)
    if symbolic:
        pts = [SYMBOLIC, SYMBOLIC]
        convention = draw(st.sampled_from(CONVENTIONS))
    else:
        pts = draw(st.lists(points, min_size=1, max_size=4, unique=True))
        convention = DERIVED_TAYLOR
    center = draw(st.integers(1, len(pts)))
    residues = [draw(pole_residues(n)) for _ in pts]
    residues[center - 1] = draw(integer_residues(n, coupling))
    order = draw(st.integers(0, 10))
    return kz_system(pts, residues, coupling), center, convention, order


@st.composite
def pole_residues(draw, n: int) -> FMatrix:
    """A sparse small-integer residue, or for n = 3 one of P1, P2 and
    OBSTRUCTED_RESIDUE2."""
    if n == 3 and draw(st.booleans()):
        return draw(st.sampled_from((P1, P2, OBSTRUCTED_RESIDUE2)))
    entries = st.sampled_from((0, 0, 0, 1, -1, 2))
    return FMatrix([[draw(entries) for _ in range(n)] for _ in range(n)])


def euclid_gcd(a: Poly, b: Poly) -> Poly:
    """Oracle for poly_gcd: Euclid's algorithm over Fractions, each
    remainder made monic; gcd(0, 0) = 0."""
    x, y = a, b
    while not y.is_zero():
        x, y = y, (x % y).monic()
    return x.monic()


def euclid_rational_matrix(numerator: FMatrix, denominator: Poly) -> RationalMatrixFunction:
    """Oracle for rational_matrix: the gcd of the denominator and every
    entry by Euclid's algorithm over Fractions (euclid_gcd), divided out with
    Poly floor division, then the denominator made monic."""
    if denominator.is_zero():
        raise ZeroDivisionError("rational matrix function with zero denominator")
    g = denominator
    for row in numerator.entries:
        for p in row:
            g = euclid_gcd(g, p)
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


def power_product_denominator(points, exponents) -> Poly:
    """Oracle for denominator_from_exponents: prod (z - z_i)^(m_i) as a
    product of Poly powers."""
    den = Poly.one()
    for point, m in zip(points, exponents):
        if m:
            den = den * Poly((-Fraction(point), Fraction(1))) ** m
    return den


def system_exponents(sys_) -> tuple[int, ...]:
    """The CLI's denominator exponents of a numeric system, read from the
    records at its points."""
    return denominator_exponents(sys_.points, point_records(sys_))


def system_growth(sys_) -> int:
    """The CLI's numerator growth of a numeric system, read from its record
    at infinity."""
    return numerator_growth(infinity_record(point_records(sys_), sys_.n))


def division_reconstruct(
    series: SeriesSolution, denominator: Poly, max_num_degree: int
) -> RationalMatrixFunction:
    """Oracle for reconstruct: each candidate numerator N, read off D W,
    is expanded back as the power series N/D (fraction_series_of_ratio) and
    compared with W level by level; the lowest level that differs in any
    entry is the NotRepresentable level."""
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
    den_u = fraction_shifted(denominator, center)
    rows = []
    first_bad = None
    for i in range(series.coeffs[0].rows):
        row = []
        for j in range(series.coeffs[0].cols):
            w_poly = Poly([series.coeffs[k][i, j] for k in range(have)])
            q = integer_product(den_u, w_poly)
            candidate = Poly([q.coeff(t - rho) for t in range(max_num_degree + 1)])
            back = fraction_series_of_ratio(candidate, den_u, rho, have)
            for k, (got, want) in enumerate(zip(back, w_poly.coeffs + (Fraction(0),) * have)):
                if got != want:
                    if first_bad is None or rho + k < first_bad:
                        first_bad = rho + k
                    break
            row.append(fraction_shifted(candidate, -center))
        rows.append(row)
    if first_bad is not None:
        raise NotRepresentable(first_bad)
    return rational_matrix(FMatrix(rows), denominator)


def tracked_solve_linear(a: FMatrix, b: FMatrix) -> SolveResult:
    """Oracle for solve_linear: one elimination of A alone with the row
    transform T tracked (T A = rref(A)), the right side read off T B; the
    system is inconsistent when a row of T B past the rank is nonzero,
    with that row of T as the certificate."""
    n, m = a.rows, b.cols
    work, transform, pivot_cols, _ = _rref([list(row) for row in a.entries], track=True)
    rank = len(pivot_cols)
    tb = (FMatrix(transform) * b).entries
    for r in range(rank, n):
        if any(tb[r]):
            return SolveResult(kind=SolveKind.INCONSISTENT, certificate=tuple(transform[r]))
    particular = [[Fraction(0)] * m for _ in range(n)]
    for r, pc in enumerate(pivot_cols):
        particular[pc] = list(tb[r])
    if rank == n:
        return SolveResult(kind=SolveKind.UNIQUE, particular=FMatrix(particular))
    raw = []
    for f in (c for c in range(n) if c not in pivot_cols):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, pc in enumerate(pivot_cols):
            v[pc] = -work[r][f]
        raw.append(v)
    return SolveResult(
        kind=SolveKind.AFFINE, particular=FMatrix(particular), kernel_basis=_canonical_kernel(raw)
    )


def fraction_column_relations(m: FMatrix) -> ColumnRelations:
    """Oracle for column_relations: the reduced row echelon form of m over
    Fractions, its nonzero rows cleared over their least common denominator."""
    reduced, _, pivots, _ = _rref([list(row) for row in m.entries], track=False)
    rows = reduced[: len(pivots)]
    den = lcm(*(e.denominator for row in rows for e in row))
    ints = tuple(tuple(int(e * den) for e in row) for row in rows)
    return ColumnRelations(tuple(pivots), ints, den)


def leibniz_det(rows) -> Fraction:
    """Oracle for det: the sum over all permutations p of
    sign(p) * prod_i rows[i][p(i)], with the sign from the inversions of p."""
    n = len(rows)
    total = Fraction(0)
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i, j in combinations(range(n), 2))
        total += (-1) ** inversions * prod(rows[i][p[i]] for i in range(n))
    return total


def fraction_det_is_zero(m: FMatrix) -> bool:
    """Oracle for the det flag of verify_ode: Bareiss elimination over Poly
    entries, dividing by the previous pivot with Fraction long division."""
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


def fmatrix_verify_ode(w: RationalMatrixFunction, sys) -> OdeVerdict:
    """Oracle for verify_ode: the residual (N'D - ND') pi - S N D coupling
    over D^2 pi, with S = sum_i R_i pi / (z - z_i), formed by FMatrix
    products over Poly entries and normalised by euclid_rational_matrix."""
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
    residual = euclid_rational_matrix(residual_num, den * den * pi)
    return OdeVerdict(
        satisfied=residual.is_zero(),
        residual=residual,
        det_identically_zero=fraction_det_is_zero(num),
    )


class FieldRatFunc:
    """Quotient of two polynomials in canonical form: the general
    rational-function field that the graded monomials of kzrat.ratfunc
    replaced, kept as their oracle and as a non-Fraction field for the
    linear solver.

    Canonical means: the denominator is monic, gcd(num, den) = 1 (Euclid,
    euclid_gcd), and zero is 0/1, so equality is plain tuple comparison.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        n = num if isinstance(num, Poly) else Poly((Fraction(num),))
        d = den if isinstance(den, Poly) else Poly((Fraction(den),))
        if d.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if n.is_zero():
            self.num, self.den = Poly(), Poly.one()
            return
        g = euclid_gcd(n, d)
        if g.degree >= 1:
            n, d = n // g, d // g
        self.num, self.den = n / d.leading, d / d.leading

    @classmethod
    def var(cls) -> FieldRatFunc:
        return cls(Poly.monomial(1))

    @classmethod
    def monomial(cls, power: int, coeff=1) -> FieldRatFunc:
        if power >= 0:
            return cls(Poly.monomial(power, coeff))
        return cls(Poly((Fraction(coeff),)), Poly.monomial(-power))

    @staticmethod
    def _coerce(other) -> FieldRatFunc | None:
        if isinstance(other, FieldRatFunc):
            return other
        if isinstance(other, (int, Fraction, Poly)):
            return FieldRatFunc(other)
        return None

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    __hash__ = None

    def __neg__(self) -> FieldRatFunc:
        return FieldRatFunc(-self.num, self.den)

    def __add__(self, other) -> FieldRatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldRatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other) -> FieldRatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> FieldRatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> FieldRatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldRatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> FieldRatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return FieldRatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> FieldRatFunc:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __repr__(self) -> str:
        return f"FieldRatFunc(({self.num.to_str('d')})/({self.den.to_str('d')}))"
