"""Order-by-order solution of the matrix Frobenius recursion.

Each order solves [(q+1) I - coupling * a_{-1}] b_{q+1} =
coupling * sum_{j + l = q, j >= 0, l >= leading} a_j b_l.  Steps whose
matrix is singular are resonant: a consistent one contributes its kernel
as a solvability record, an inconsistent one aborts with an exact
certificate (the series would need logarithms, which is out of scope).

The solver never forms that convolution.  With a_j = -sum_i R_i u_i^(j+1)
over the other poles, the right side is -coupling * sum_i R_i S_i(q) where
S_i(q) = u_i (S_i(q-1) + b_q): a recurrence of length m, so an order-N
series costs O(m N) matrix products.  verify_recursion re-derives every
level by the direct O(N^2) convolution over Fraction, as an independent
check, reading a_0 .. a_(N-1) from a table it builds once.

The recursion runs on the seed's column basis.  Every b_q is L_q b_rho
for a left factor L_q, so every level obeys the constant relations among
the columns of b_rho: with `pivots` its pivot columns and C the nonzero
rows of its reduced row echelon form (r x n, the identity at the
pivots), b_q = b_q[:, pivots] C.  The engine carries the n x r pivot
columns only; r is 1 for the projector seed of kz-s3.  Each b_q is
returned as FMatrix.from_basis of them, whose pivot columns are the only
integers it holds; it builds its Fractions from them only when something
reads its entries (verify_recursion, a library caller).  The report
formats the pivot columns times C, and reconstruct and verify_ode work
on the pivot columns, so a numeric CLI run builds no Fraction.  A
resonant step solves the n x r right side.  The row transform of that
elimination does not depend on the right side, and C has full row rank,
so an obstruction reports the full right side rhs C with the
certificate of the full step.

The recursion state runs on integers, in the flat matrix form of
kzrat.matrix: each n x r matrix is a row-major list of n r ints over one
positive denominator, multiplied by nonzero_product over the nonzero
terms of its left factor.  With -coupling R_i = w_i / w_den cleared to
one common w_den, and u_i = c_i / Q over the least common denominator Q
of the u_i, the state is T_i = w_i S_i, every T_i over one shared t_den,
and the right side is the elementwise sum of the T_i over t_den w_den.
The terms of the w_i are stacked at their T_i's offsets, so one product
serves every pole.  A level takes one gcd of t_den with b_q's
denominator and strips no T_i: t_den grows by Q and by b_q's
denominator, as b_q's own denominators grow, and b_q has its content gcd
stripped once per level, however many poles there are.  Steps are solved
with the resolvent of M = coupling * a_{-1} = m / m_den from the minimal
polynomial mu = sum_j c_j x^j of m, of degree d, found once on integers:
(xI - m)^-1 = sum_(i<d) p_i(x) m^i / mu(x), with p_(d-1) = 1 and
p_i = x p_(i+1) + c_(i+1).  Each level takes one Horner pass, which
applies that sum to the right side with d - 1 products by m (one for an
involution) and ends with mu(x), and a division by mu(x).  mu(x) == 0
exactly when chi(x) == 0, so a level is resonant exactly there; only
there does solve_linear classify the step and give the kernel or the
certificate.

The seed b_rho at the leading exponent rho is the paper's projector
I - a_{-1} where that is a kernel of the leading step (a_{-1} an involution
other than I, rho = -coupling != 0), and the canonical kernel columns of
the step everywhere else, I at coupling 0.  compute_series clears M once
for the seed, the resolvent and the resonant steps.  The projector is
formed on those integers, its column relations come from a fraction-free
elimination on them (kzrat.matrix.int_relations), and b_rho's pivot
columns are read from them: the projector seed makes no Fraction.  The
series order is not bounded by the expansion order: a_r is derived on
demand from the poles.

In two-point symbolic mode every quantity is a monomial in d: the engine
solves at d = 1 (u = +-1) for B_p, and the series it returns is graded,
b_p = B_p * d^(-(p - rho)), each level a lazy graded view of the same
pivot columns (LocalExpansion.grade).  verify_recursion reads its graded
entries; the CLI's report and printed lines and the golden check read its
integers and power, and build no entry.  A resonant step is classified
once, by one elimination (solve_linear) over the step matrix graded to
d-degree 0, so that the kernel and the certificate carry the entry types
that reports encode.  Its right side has a single degree, so it is solved
at d = 1, where the particular solution is the engine's.

The spectrum of M = coupling * R at one point is one record, IndicialData,
made by spectral_record: for the center (indicial_data), each singular
point (point_records) and infinity (infinity_record).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import NamedTuple

from .kzmodel import KZSystem, LocalExpansion
from .matrix import (
    ColumnRelations,
    FMatrix,
    SolveKind,
    det,
    flat,
    flat_charpoly,
    int_form,
    int_relations,
    minimal_polynomial,
    nonzero_product,
    nonzero_terms,
    scaled,
    solve_linear,
    stripped,
)
from .poly import Poly, rational_roots
from .ratfunc import RatFunc
from .scalars import format_scalar


class ResonanceObstruction(Exception):
    """A resonant step is inconsistent: certificate * step_matrix == 0 while
    certificate * rhs != 0, both exactly."""

    def __init__(self, level: int, certificate: tuple, rhs: FMatrix):
        super().__init__(f"inconsistent resonant step at level {format_scalar(level)}")
        self.level = level
        self.certificate = certificate
        self.rhs = rhs


class IndicialData(NamedTuple):
    """The spectral record of one point: M = coupling * R = m / m_den, R the
    residue there (at infinity, the sum of the residues); the rational
    ``eigenvalues`` with multiplicities, the integer ``resonant_levels``,
    and the monic ``unresolved_factor`` of the characteristic polynomial
    ``chi`` with no rational roots, so that no resonant integer hides."""

    eigenvalues: tuple[tuple[Fraction, int], ...]
    resonant_levels: frozenset[int]
    unresolved_factor: Poly
    chi: Poly
    m: list[int]
    m_den: int


class ResonanceRecord(NamedTuple):
    level: int
    kind: SolveKind
    kernel: tuple[tuple, ...]
    certificate: tuple | None = None


class SeriesSolution(NamedTuple):
    """Laurent coefficients b_leading .. b_{leading+N} with resonance records."""

    leading_exponent: int
    coeffs: tuple[FMatrix, ...]
    resonances: tuple[ResonanceRecord, ...]
    convention: str
    center_point: object
    symbolic: bool

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def levels(self) -> range:
        return range(self.leading_exponent, self.leading_exponent + len(self.coeffs))

    def coefficient(self, p: int) -> FMatrix:
        if p not in self.levels():
            raise IndexError(f"level {p} was not computed")
        return self.coeffs[p - self.leading_exponent]

    def resonance_at(self, level: int) -> ResonanceRecord | None:
        for rec in self.resonances:
            if rec.level == level:
                return rec
        return None


def spectral_record(m: list[int], m_den: int, n: int, known=()) -> IndicialData:
    """The record of the n x n matrix M = m / m_den.  A record in `known`
    of the same M is returned as it is, and one with the same chi lends
    its roots: rational_roots runs once per distinct chi."""
    for record in known:
        if record.m_den == m_den and record.m == m:
            return record
    chi = flat_charpoly(m, m_den, n)
    same = next((record for record in known if record.chi == chi), None)
    roots, rest = (same.eigenvalues, same.unresolved_factor) if same else rational_roots(chi)
    resonant = frozenset(int(r) for r, _ in roots if r.denominator == 1)
    return IndicialData(roots, resonant, rest, chi, m, m_den)


def indicial_data(exp: LocalExpansion, coupling: Fraction) -> IndicialData:
    """The center's record: exact eigenvalues of coupling * a_{-1}."""
    return spectral_record(*scaled(exp.residue, coupling), exp.n)


def point_records(sys: KZSystem, known=()) -> tuple[IndicialData, ...]:
    """The record of each singular point, in order; those in `known` and
    the earlier points' are reused (spectral_record)."""
    records: list[IndicialData] = []
    for residue in sys.residues:
        records.append(spectral_record(*scaled(residue, sys.coupling), sys.n, (*known, *records)))
    return tuple(records)


def infinity_record(records, n: int) -> IndicialData:
    """The record at infinity, from the points' records: their integers
    summed over one denominator."""
    den = lcm(*(r.m_den for r in records))
    total = [sum(col) for col in zip(*([x * (den // r.m_den) for x in r.m] for r in records))]
    return spectral_record(*stripped(total, den), n, records)


def _step_matrix(m: list[int], m_den: int, n: int, level) -> FMatrix:
    """level * I - coupling * a_{-1}, held as its cleared integers
    (FMatrix.from_basis): (p m_den I - q m) / (q m_den) for
    coupling * a_{-1} = m / m_den and level = p / q."""
    level = Fraction(level)
    p, q = level.numerator, level.denominator
    ints = [p * m_den * (i % (n + 1) == 0) - q * x for i, x in enumerate(m)]
    return FMatrix.from_basis(*stripped(ints, q * m_den), ColumnRelations.trivial(n))


def leading_coefficient(exp: LocalExpansion, coupling: Fraction, exponent: int) -> FMatrix:
    """A nonzero seed b with (exponent * I - coupling * a_{-1}) b = 0.

    The paper's projector I - a_{-1} when a_{-1} is an involution other
    than the identity and the exponent equals -coupling != 0; otherwise
    the canonical kernel basis of the step matrix packed into leading
    columns, padded with zero columns: I at coupling 0, where the step
    matrix is zero.  Raises ValueError when the kernel is trivial.
    """
    return exp.grade(_seed(*scaled(exp.residue, coupling), exp.n, coupling, exponent), 0)


def _seed(m: list[int], m_den: int, n: int, coupling: Fraction, exponent: int) -> FMatrix:
    """leading_coefficient over Fraction, before grading, for
    coupling * a_{-1} = m / m_den.  The projector is (den I - a) / den for
    a_{-1} = a / den, den > 0, held as those integers (FMatrix.from_basis)."""
    if exponent == -coupling != 0:
        sign, q = (1 if coupling > 0 else -1), coupling.denominator
        a, den = [sign * q * x for x in m], abs(coupling.numerator) * m_den
        diagonal = [den * (i % (n + 1) == 0) for i in range(n * n)]
        # a_{-1}^2 = I on the cleared integers: a^2 = den^2 I
        square = nonzero_product(nonzero_terms(a, n, n), a, n * n)
        if a != diagonal and square == [den * x for x in diagonal]:
            ints = [x - y for x, y in zip(diagonal, a)]
            return FMatrix.from_basis(*stripped(ints, den), ColumnRelations.trivial(n))

    res = solve_linear(_step_matrix(m, m_den, n, exponent), FMatrix.zeros(n, 1))
    if res.kind is SolveKind.UNIQUE:
        raise ValueError(
            f"{exponent} is not an eigenvalue of coupling * a_{{-1}}; the kernel is trivial"
        )
    columns = list(res.kernel_basis) + [(Fraction(0),) * n] * (n - len(res.kernel_basis))
    return FMatrix.from_columns(columns, n)


def convolution_rhs(exp: LocalExpansion, coeffs: dict[int, FMatrix], level: int) -> FMatrix:
    """sum_{j + l = level - 1, j >= 0, l in coeffs} a_j b_l (without coupling)."""
    return _convolve(_regular_table(exp, level - min(coeffs)), coeffs, level, exp.n)


def _regular_table(exp: LocalExpansion, count: int) -> list[FMatrix]:
    """a_0 .. a_(count - 1), each derived once."""
    return [exp.regular(j) for j in range(count)]


def _convolve(a: list[FMatrix], coeffs: dict[int, FMatrix], level: int, n: int) -> FMatrix:
    """sum_{j + l = level - 1, l in coeffs} a[j] b_l, with n x n entries."""
    q = level - 1
    acc = FMatrix.zeros(n, n)
    for j in range(0, q - min(coeffs) + 1):
        if q - j in coeffs:
            acc = acc + a[j] * coeffs[q - j]
    return acc


def _at_unit(e) -> Fraction:
    """A graded entry read back at d = 1; a Fraction passes through."""
    return e.coeff if isinstance(e, RatFunc) else e


def compute_series(
    exp: LocalExpansion,
    coupling: Fraction,
    order: int,
    leading_exponent: int | None = None,
) -> SeriesSolution:
    """Solve the recursion for b_leading .. b_{leading+order}.

    The seed b_leading is leading_coefficient's.  Nonresonant steps have
    a unique solution.  A consistent resonant step takes the particular
    solution with all free kernel components set to zero and records the
    kernel; an inconsistent one raises ResonanceObstruction with its
    certificate.  The order may exceed the expansion's own.
    """
    if order < 0:
        raise ValueError("series order must be >= 0")
    coupling = Fraction(coupling)
    n = exp.n
    # M = coupling * a_{-1} = m / m_den, for the seed, resolvent and steps
    m, m_den = scaled(exp.residue, coupling)
    if leading_exponent is None:
        resonant = spectral_record(m, m_den, n).resonant_levels
        if not resonant:
            raise ValueError(
                "coupling * a_{-1} has no integer eigenvalue, so there is no "
                "integer leading exponent to seed the Laurent series"
            )
        leading_exponent = min(resonant)

    # every b_q is L_q b_rho, so the recursion runs on the pivot columns
    # of b_rho, r of them, and each level is b_q[:, pivots] * C
    seed, seed_den, _, _ = int_form(_seed(m, m_den, n, coupling, leading_exponent))
    relations = int_relations(seed)
    r = len(relations.pivots)
    b, b_den = stripped([row[j] for row in seed for j in relations.pivots], seed_den)
    coeffs = [FMatrix.from_basis(b, b_den, relations)]
    span = n * r
    # the resolvent from mu, the minimal polynomial of m (module docstring):
    # at level L, x = L m_den, (L I - M)^-1 = m_den sum_(i<d) p_i(x) m^i / mu(x)
    mu = minimal_polynomial(m, n)
    mu_high = mu[-2:0:-1]  # c_(d-1) .. c_1
    m_terms = nonzero_terms(m, n, r)
    # rhs(q+1) = sum_i T_i(q) / (t_den w_den), T_i(q) = c_i (T_i(q-1) + w_i b_q)
    # with u_i = c_i / big_q and -coupling R_i = w_i / w_den: every T_i is
    # over the one t_den, which grows by big_q and by b_q's denominator.
    # T_1 .. T_m lie stacked in `state`, span ints each, and the terms of
    # w_1 .. w_m at their offsets in `weights`, so each level takes one
    # product for all
    cleared = [scaled(res, -coupling) for _, res in exp.poles]
    w_den = lcm(*(d for _, d in cleared))
    big_q = lcm(*(u.denominator for u, _ in exp.poles))
    weights = [
        t
        for i, (w, d) in enumerate(cleared)
        for t in nonzero_terms([x * (w_den // d) for x in w], n, r, i * span)
    ]
    scales = [u.numerator * (big_q // u.denominator) for u, _ in exp.poles for _ in range(span)]
    state, t_den = [0] * len(scales), 1
    records: list[ResonanceRecord] = []
    for step in range(1, order + 1):
        level = leading_exponent + step
        g = gcd(t_den, b_den)
        ft, fb = b_den // g, t_den // g
        products = nonzero_product(weights, b, len(scales))
        state = [(e * ft + f * fb) * c for e, f, c in zip(state, products, scales)]
        t_den *= ft * big_q
        # with no other pole, the right side is zero
        rhs, rhs_den = state[:span] or [0] * span, t_den * w_den
        for lo in range(span, len(state), span):
            rhs = list(map(add, rhs, state[lo : lo + span]))
        # Horner on m and on the p_i together: acc = sum_i p_i(x) m^i rhs
        x = level * m_den
        p, acc = 1, rhs
        for c in mu_high:
            p = p * x + c
            acc = [s + p * y for s, y in zip(nonzero_product(m_terms, acc, span), rhs)]
        mu_x = p * x + mu[0]
        if mu_x:
            sign = m_den if mu_x > 0 else -m_den
            b, b_den = stripped([sign * e for e in acc], rhs_den * abs(mu_x))
            coeffs.append(FMatrix.from_basis(b, b_den, relations))
            continue
        # mu(x) == 0 exactly when chi(x) == 0: a resonant step, classified
        # once by elimination.  The step matrix is graded, of d-degree 0, so
        # that the kernel and the certificate keep the entry types that
        # reports encode; the right side has the single degree -step, so it
        # is solved at d = 1, where the particular solution is the engine's.
        # The row transform of the elimination does not depend on the right
        # side and C has full row rank, so the n x r right side gives the
        # certificate of the full one, and the particular solution times C.
        basis_rhs = FMatrix.from_basis(rhs, rhs_den, ColumnRelations.trivial(r))
        res = solve_linear(exp.grade(_step_matrix(m, m_den, n, level), 0), basis_rhs)
        if res.kind is SolveKind.INCONSISTENT:
            full_rhs = exp.grade(FMatrix.from_basis(rhs, rhs_den, relations), -step)
            raise ResonanceObstruction(level, res.certificate, full_rhs)
        records.append(ResonanceRecord(level=level, kind=res.kind, kernel=res.kernel_basis))
        b, b_den = flat(res.particular.map(_at_unit))
        coeffs.append(FMatrix.from_basis(b, b_den, relations))

    return SeriesSolution(
        leading_exponent=leading_exponent,
        coeffs=tuple(exp.grade(b, -p) for p, b in enumerate(coeffs)),
        resonances=tuple(records),
        convention=exp.convention,
        center_point=exp.center_point,
        symbolic=exp.symbolic,
    )


class LevelCheck(NamedTuple):
    level: int
    resonant: bool
    residual_zero: bool
    rhs: FMatrix


class RecursionReport(NamedTuple):
    checks: tuple[LevelCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.residual_zero for c in self.checks)

    def at(self, level: int) -> LevelCheck:
        for c in self.checks:
            if c.level == level:
                return c
        raise KeyError(level)


def verify_recursion(
    series: SeriesSolution, exp: LocalExpansion, coupling: Fraction
) -> RecursionReport:
    """Re-evaluate every order's identity from scratch.

    Nothing is reused from the solver: each level recomputes its right side
    by direct convolution with a_0 .. a_(N-1), derived once per call, and
    its residual by direct multiplication.  The stored right side is the
    recursion's own, coupling * convolution.
    """
    coupling = Fraction(coupling)
    table = {p: series.coefficient(p) for p in series.levels()}
    a = _regular_table(exp, series.order)
    m, m_den = scaled(exp.residue, coupling)
    checks = []
    for level in series.levels():
        step = _step_matrix(m, m_den, exp.n, level)
        if level == series.leading_exponent:
            rhs = exp.grade(FMatrix.zeros(exp.n, exp.n), 0)
        else:
            rhs = _convolve(a, table, level, exp.n) * coupling
        residual = step * table[level] - rhs
        checks.append(
            LevelCheck(
                level=level,
                resonant=not det(step),
                residual_zero=residual.is_zero(),
                rhs=rhs,
            )
        )
    return RecursionReport(checks=tuple(checks))
