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
returned as FMatrix.from_basis of them, which builds its full n x n
integers only when something reads them (the report, the golden check)
and its Fractions only when something reads its entries: reconstruct and
verify_ode work on the pivot columns, and the CLI builds no Fraction.  A
resonant step solves the n x r right side.  The row transform of that
elimination does not depend on the right side, and C has full row rank,
so an obstruction reports the full right side rhs C with the
certificate of the full step.

The recursion state runs on integers, in the flat matrix form of
kzrat.matrix: each n x r matrix is a row-major list of n r ints over one
positive denominator, multiplied with its products.  With -coupling
R_i = w_i / w_den_i cleared, the state is T_i = w_i S_i, and the right
side is sum_i T_i / w_den_i; T_i and b_q have their content gcd stripped
once per level.  Steps are solved with the resolvent of
M = coupling * a_{-1}: Faddeev-LeVerrier on the cleared integer matrix,
the routine behind charpoly, gives
chi(x) = det(xI - M) and adj(xI - M) = sum_k x^(n-1-k) N_k once, so each
level takes one Horner evaluation of chi and of the adjugate, one integer
product with the right side and a division by chi(level).  A level is
resonant exactly when chi(level) == 0; only there does solve_linear
classify the step and give the kernel or the certificate.

The seed b_rho at the leading exponent rho is the paper's projector
I - a_{-1} where that is a kernel of the leading step (a_{-1} an involution
other than I, rho = -coupling), and the canonical kernel columns of the
step everywhere else.  The series order is not bounded by the expansion
order: a_r is derived on demand from the poles.

In two-point symbolic mode every quantity is a monomial in d: the engine
solves at d = 1 (u = +-1) for B_p, and the series it returns is graded,
b_p = B_p * d^(-(p - rho)); verify_recursion and the golden tables check
those graded values.  A resonant step is classified once, over graded
values: the step matrix has d-degree 0 and the right side a single
degree, so elimination picks the same pivots as at d = 1, and the
particular solution read back at d = 1 is the engine's.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .kzmodel import LocalExpansion
from .matrix import (
    FMatrix,
    SolveKind,
    charpoly,
    column_relations,
    dense_product,
    det,
    faddeev_leverrier,
    flat,
    solve_linear,
    sparse_product,
    sparse_rows,
    stripped,
)
from .poly import Poly, cleared, eval_int, rational_roots
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
    """Exact spectrum of coupling * a_{-1} and its integer part.

    ``eigenvalues`` lists the rational eigenvalues with multiplicities;
    ``unresolved_factor`` is the monic factor of the characteristic
    polynomial with no rational roots (1 when the spectrum is fully
    rational), so no resonant integer can hide in it.
    """

    eigenvalues: tuple[tuple[Fraction, int], ...]
    resonant_levels: frozenset[int]
    unresolved_factor: Poly


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


def indicial_data(
    exp: LocalExpansion, coupling: Fraction, spectra: dict | None = None
) -> IndicialData:
    """Exact eigenvalues of coupling * a_{-1} via rational root extraction.

    `spectra` maps characteristic polynomials, by coefficient tuple, to
    their `rational_roots`: a polynomial found there is not factored
    again, and one factored here is added, so that one run can share it
    with `denominator_exponents`.
    """
    chi = charpoly(exp.residue * Fraction(coupling))
    if spectra is None:
        spectra = {}
    if chi.coeffs not in spectra:
        spectra[chi.coeffs] = rational_roots(chi)
    roots, remainder = spectra[chi.coeffs]
    resonant = frozenset(int(r) for r, _ in roots if r.denominator == 1)
    return IndicialData(
        eigenvalues=roots,
        resonant_levels=resonant,
        unresolved_factor=remainder,
    )


def _step_matrix(exp: LocalExpansion, coupling: Fraction, level: int) -> FMatrix:
    """level * I - coupling * a_{-1}."""
    return FMatrix(
        [
            [Fraction(level * (i == j)) - coupling * e for j, e in enumerate(row)]
            for i, row in enumerate(exp.residue.entries)
        ]
    )


def leading_coefficient(exp: LocalExpansion, coupling: Fraction, exponent: int) -> FMatrix:
    """A nonzero seed b with (exponent * I - coupling * a_{-1}) b = 0.

    The paper's projector I - a_{-1} when a_{-1} is an involution other
    than the identity and the exponent equals -coupling; otherwise the
    canonical kernel basis of the step matrix packed into leading columns,
    padded with zero columns.  Raises ValueError when the kernel is trivial.
    """
    return exp.grade(_seed(exp, coupling, exponent), 0)


def _seed(exp: LocalExpansion, coupling: Fraction, exponent: int) -> FMatrix:
    """leading_coefficient over Fraction, before grading."""
    n = exp.n
    ident = FMatrix.identity(n)
    a0 = exp.residue
    if a0 * a0 == ident and a0 != ident and Fraction(exponent) == -Fraction(coupling):
        return ident - a0

    res = solve_linear(_step_matrix(exp, Fraction(coupling), exponent), FMatrix.zeros(n, n))
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
    if leading_exponent is None:
        ind = indicial_data(exp, coupling)
        if not ind.resonant_levels:
            raise ValueError(
                "coupling * a_{-1} has no integer eigenvalue, so there is no "
                "integer leading exponent to seed the Laurent series"
            )
        leading_exponent = min(ind.resonant_levels)

    n = exp.n
    # Resolvent of M = coupling * a_{-1} = m_ints / m_den: at level L,
    # (L I - M)^-1 = m_den adj(x I - m_ints) / chi(x) with x = L m_den.
    # Horner's rule on +-m_den N_k gives the signed, scaled adjugate.
    m_ints, m_den = flat(exp.residue * coupling)
    chi, adj = faddeev_leverrier(m_ints, n)
    chi_low = chi[::-1]
    plus = [[m_den * e for e in nk] for nk in adj]
    minus = [[-e for e in nk] for nk in plus]
    # every b_q is L_q b_rho, so the recursion runs on the pivot columns
    # of b_rho, r of them, and each level is b_q[:, pivots] * C
    seed = _seed(exp, coupling, leading_exponent)
    relations = column_relations(seed)
    r = len(relations.pivots)
    b, b_den = cleared([row[j] for row in seed.entries for j in relations.pivots])
    coeffs = [FMatrix.from_basis(b, b_den, relations)]
    # rhs(q+1) = sum_i T_i(q) / w_den_i, T_i(q) = u_i (T_i(q-1) + w_i b_q)
    weights = []
    for u, res in exp.poles:
        w, w_den = flat(res * -coupling)
        weights.append((sparse_rows(w, n), w_den, u.numerator, u.denominator))
    terms = [([0] * (n * r), 1)] * len(exp.poles)
    records: list[ResonanceRecord] = []
    for step in range(1, order + 1):
        level = leading_exponent + step
        rhs, rhs_den = [0] * (n * r), 1
        for i, ((rows, w_den, p, q), (t, t_den)) in enumerate(zip(weights, terms)):
            g = gcd(t_den, b_den)
            ft, fb = b_den // g, t_den // g
            t = [(e * ft + f * fb) * p for e, f in zip(t, sparse_product(rows, b, r))]
            t, t_den = stripped(t, t_den * ft * q)
            terms[i] = t, t_den
            d = t_den * w_den
            g = gcd(rhs_den, d)
            fr, ft = d // g, rhs_den // g
            rhs = [e * fr + f * ft for e, f in zip(rhs, t)] if i else t
            rhs_den *= fr
        x = level * m_den
        det_x = eval_int(chi_low, x)
        if det_x:
            resolvent = plus if det_x > 0 else minus
            adj_x = resolvent[0]
            for nk in resolvent[1:]:
                adj_x = [e * x + f for e, f in zip(adj_x, nk)]
            b, b_den = stripped(dense_product(adj_x, rhs, r), rhs_den * abs(det_x))
            coeffs.append(FMatrix.from_basis(b, b_den, relations))
            continue
        # chi(level) == 0: a resonant step, classified once by elimination
        # over graded values.  The step matrix has d-degree 0 and the right
        # side -step, so the pivots are those at d = 1: the kernel and the
        # certificate keep the entry types that reports encode, and the
        # particular solution read back at d = 1 is the engine's.  The row
        # transform of the elimination does not depend on the right side
        # and C has full row rank, so the n x r right side gives the
        # certificate of the full one, and the particular solution times C.
        basis_rhs = exp.grade(FMatrix.from_cleared(rhs, rhs_den, r), -step)
        res = solve_linear(exp.grade(_step_matrix(exp, coupling, level), 0), basis_rhs)
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
    checks = []
    for level in series.levels():
        step = _step_matrix(exp, coupling, level)
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
