import functools
import io
import json
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from kzrat import (
    DERIVED_TAYLOR,
    FMatrix,
    InsufficientSeriesError,
    NoPolynomialDenominator,
    NotRepresentable,
    Poly,
    RatFunc,
    RationalMatrixFunction,
    ResonanceObstruction,
    build_kz_s3,
    compute_series,
    kz_system,
    local_expansion,
    numerator_growth,
    poly_gcd,
    propose_denominator,
    rational_matrix,
    reconstruct,
    transposition_matrix,
    verify_ode,
)
from kzrat.cli import _numerator_json, _poly_json, load_config
from kzrat.matrix import ColumnRelations, _ClearedPolyMatrix, column_relations, int_form
from kzrat.reconstruct import (
    _det_is_zero,
    _factored,
    _normalized,
    denominator_exponents,
    denominator_from_exponents,
)
from support import (
    I3,
    P1,
    P2,
    coefficients,
    couplings,
    division_reconstruct,
    entries_built,
    euclid_rational_matrix,
    fmatrix_verify_ode,
    fraction_det_is_zero,
    fraction_shifted,
    kz_systems,
    matrix_expansion_matches,
    points,
    power_product_denominator,
)

poly_module = sys.modules["kzrat.poly"]
reconstruct_module = sys.modules["kzrat.reconstruct"]

TWO = Fraction(2)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def paper_numeric_series(order):
    sys_ = build_kz_s3(0, 1, TWO)
    exp = local_expansion(sys_, 1, DERIVED_TAYLOR, order=order)
    return sys_, compute_series(exp, TWO, order=order)


def single_pole_pipeline():
    sys_ = kz_system([0], [P1], TWO)
    exp = local_expansion(sys_, 1, DERIVED_TAYLOR, order=6)
    return sys_, compute_series(exp, TWO, order=5)


Z = Poly.monomial(1)


def test_propose_denominator_examples():
    assert propose_denominator(build_kz_s3(0, 1, TWO)) == (Z**2) * (Z - 1) ** 2
    assert propose_denominator(kz_system([0], [P1], TWO)) == Z**2
    assert propose_denominator(build_kz_s3(0, 1, Fraction(1))) == Z * (Z - 1)
    with pytest.raises(NoPolynomialDenominator):
        propose_denominator(build_kz_s3(0, 1, Fraction(2, 3)))


def test_propose_denominator_at_large_coupling():
    # z^k (z - 1)^k at k = 10007, of degree 20014: the binomials of each
    # factor come from a running recurrence, not from powers of a Poly
    k = 10007
    start = time.perf_counter()
    den = propose_denominator(build_kz_s3(0, 1, Fraction(k)))
    elapsed = time.perf_counter() - start
    assert den.degree == 2 * k
    assert den.leading == 1
    assert den.coeff(k + k // 2) == comb(k, k // 2) * (-1) ** (k - k // 2)
    assert den.coeff(k) == -1
    assert not any(den.coeffs[:k])
    assert elapsed < 2.0, f"propose_denominator took {elapsed:.2f} s"


@given(pairs=st.lists(st.tuples(points, st.integers(0, 5)), max_size=4))
@settings(max_examples=100, deadline=None)
def test_denominator_from_exponents_matches_power_product(pairs):
    pts, exponents = [p for p, _ in pairs], [m for _, m in pairs]
    den = denominator_from_exponents(pts, exponents)
    assert den == power_product_denominator(pts, exponents)
    assert all(isinstance(c, Fraction) for c in den.coeffs)


def test_negative_exponents_are_rejected():
    with pytest.raises(ValueError, match="z = 1: negative exponent -1"):
        denominator_from_exponents([0, 1], [2, -1])
    _, series = paper_numeric_series(14)
    with pytest.raises(ValueError, match="z = 0: negative exponent -2"):
        reconstruct(series, [(Fraction(0), -2), (Fraction(1), 2)], 8)


def test_denominator_exponents_finds_roots_once_per_characteristic_polynomial(monkeypatch):
    calls = []
    original = reconstruct_module.rational_roots
    monkeypatch.setattr(
        reconstruct_module, "rational_roots", lambda p: calls.append(p) or original(p)
    )
    # every residue of kz-s3 and of the three-point system is a transposition
    assert denominator_exponents(build_kz_s3(0, 1, TWO)) == (2, 2)
    assert denominator_exponents(dict(BASES)["three-point"]()) == (6, 6, 6)
    assert len(calls) == 2
    calls.clear()
    assert denominator_exponents(kz_system([0, 1, 2], [P1, P2 * 2, P1], TWO)) == (2, 4, 2)
    assert len(calls) == 2
    # the first point without an integer eigenvalue is the one named
    third = P1 * Fraction(1, 3)
    with pytest.raises(NoPolynomialDenominator, match="z = 5 "):
        denominator_exponents(kz_system([0, 5, 7], [P1, third, third * 2], TWO))


def test_reconstruct_single_pole_terminating():
    sys_, series = single_pole_pipeline()
    w = reconstruct(series, Z**2, max_num_degree=0)
    assert w.numerator == (I3 - P1).map(lambda e: Poly((e,)))
    assert w.denominator == Z**2


def test_reconstruct_paper_preset_needs_degree_eight():
    # The level-2 particular with zero kernel components has a z^4-growth
    # component at infinity (top eigenvalue of coupling*(P1+P2) is 4), so
    # numerator degrees 6 and 7 fail while degree 8 succeeds.
    sys_, series = paper_numeric_series(20)
    den = propose_denominator(sys_)
    with pytest.raises(NotRepresentable) as ei:
        reconstruct(series, den, max_num_degree=6)
    assert ei.value.first_unmatched_level == 5
    w = reconstruct(series, den, max_num_degree=8)
    assert max(p.degree for row in w.numerator.entries for p in row) == 8
    assert verify_ode(w, sys_).satisfied


def _with_entry_changed(series, k, i, j, delta):
    """The series with delta added to entry (i, j) of its k-th coefficient."""
    rows = [list(row) for row in series.coeffs[k].entries]
    rows[i][j] += delta
    coeffs = series.coeffs[:k] + (FMatrix(rows),) + series.coeffs[k + 1 :]
    return series._replace(coeffs=coeffs)


@pytest.mark.parametrize("level", [7, 10, 12])
def test_reconstruct_flags_a_change_at_an_over_checked_level(level):
    # Order 14 holds levels -2 .. 12.  Adding u^level to an entry adds
    # u^(level + 2) (u - 1)^2 to D W, beyond the numerator degree 8 from
    # level 7 on, so the change shows first at its own level; the top
    # level is over-checked too.
    sys_, series = paper_numeric_series(14)
    changed = _with_entry_changed(series, level - series.leading_exponent, 2, 0, 1)
    with pytest.raises(NotRepresentable) as ei:
        reconstruct(changed, propose_denominator(sys_), max_num_degree=8)
    assert ei.value.first_unmatched_level == level


def test_reconstruct_insufficient_series():
    sys_, series = paper_numeric_series(2)
    with pytest.raises(InsufficientSeriesError):
        reconstruct(series, propose_denominator(sys_), max_num_degree=6)


def test_reconstruct_rejects_symbolic_series():
    from kzrat import LITERAL_PAPER, SYMBOLIC

    sym = build_kz_s3(SYMBOLIC, SYMBOLIC, TWO)
    series = compute_series(local_expansion(sym, 1, LITERAL_PAPER, 8), TWO, order=5)
    # a graded level reads with its power, not as numbers
    assert all(int_form(m)[3] is not None for m in series.coeffs)
    with pytest.raises(ValueError, match="reconstruction needs a numeric-mode series"):
        reconstruct(series, Z**2, max_num_degree=0)


def test_graded_levels_and_numerators_are_refused_under_a_numeric_label():
    # a symbolic series relabelled numeric still holds graded levels, and
    # their integers are those at d = 1: reconstruct and verify_ode refuse
    # them rather than read them as numbers
    from kzrat import LITERAL_PAPER, SYMBOLIC

    sym = build_kz_s3(SYMBOLIC, SYMBOLIC, TWO)
    series = compute_series(local_expansion(sym, 1, LITERAL_PAPER, 12), TWO, order=12)
    relabelled = series._replace(symbolic=False, center_point=Fraction(0))
    with pytest.raises(ValueError, match="reconstruction needs a numeric-mode series"):
        reconstruct(relabelled, [(0, 2), (1, 2)], 4)
    w = RationalMatrixFunction(numerator=series.coeffs[1], denominator=Poly.one())
    with pytest.raises(ValueError, match="reconstruction needs a numeric-mode series"):
        verify_ode(w, build_kz_s3(Fraction(0), Fraction(1), TWO))


def test_roundtrip_reexpansion_matches_every_coefficient():
    sys_, series = paper_numeric_series(14)
    w = reconstruct(series, propose_denominator(sys_), max_num_degree=8)
    coeffs = [series.coefficient(p) for p in series.levels()]
    assert matrix_expansion_matches(w, Fraction(0), -2, coeffs)


def test_denominator_root_containment():
    sys_, series = paper_numeric_series(14)
    proposal = propose_denominator(sys_)
    w = reconstruct(series, proposal, max_num_degree=8)
    # the reconstructed denominator divides the proposal exactly
    assert (proposal % w.denominator).is_zero()
    # and shares no factor outside the singular-point set
    assert poly_gcd(w.denominator, proposal) == w.denominator


def test_verify_ode_single_pole():
    sys_, series = single_pole_pipeline()
    w = reconstruct(series, Z**2, max_num_degree=0)
    verdict = verify_ode(w, sys_)
    assert verdict.satisfied
    assert verdict.residual.is_zero()
    assert verdict.det_identically_zero


def _poly_rows(*rows):
    return FMatrix([[e if isinstance(e, Poly) else Poly((e,)) for e in row] for row in rows])


def _rank_deficient():
    # the first row is (z^2 - 1) times the last; no row or column is zero
    r = [Z, Z + 1, 1]
    return _poly_rows([(Z**2 - 1) * e for e in r], [1, Z**2, Z - 3], r)


def _integer_rooted():
    # unit lower times upper triangular: det = z (z - 1) (z + 2)
    lower = _poly_rows([1, 0, 0], [Z, 1, 0], [1, Z**2, 1])
    upper = _poly_rows([Z, 1, 2], [0, Z - 1, Z], [0, 0, Z + 2])
    return lower * upper


@pytest.mark.parametrize(
    "build, singular",
    [(_rank_deficient, True), (_integer_rooted, False)],
    ids=("rank-deficient", "integer-roots"),
)
def test_verify_ode_det_flag_on_polynomial_entries(build, singular):
    w = rational_matrix(build(), Poly.one())
    assert verify_ode(w, build_kz_s3(0, 1, TWO)).det_identically_zero is singular


def test_zero_denominators_are_rejected():
    numerator = I3.map(lambda e: Poly((e,)))
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        rational_matrix(numerator, Poly())
    w = RationalMatrixFunction(numerator=numerator, denominator=Poly())
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        verify_ode(w, build_kz_s3(0, 1, TWO))


def test_verify_ode_identity_with_zero_coupling():
    sys0 = build_kz_s3(0, 1, Fraction(0))
    w = rational_matrix(I3.map(lambda e: Poly((e,))), Poly.one())
    verdict = verify_ode(w, sys0)
    assert verdict.satisfied
    assert not verdict.det_identically_zero


def test_verify_ode_detects_mutation():
    sys_, series = single_pole_pipeline()
    w = reconstruct(series, Z**2, max_num_degree=0)
    rows = [list(r) for r in w.numerator.entries]
    rows[0][0] = -rows[0][0]  # flip one entry's sign
    mutated = rational_matrix(FMatrix(rows), w.denominator)
    verdict = verify_ode(mutated, sys_)
    assert not verdict.satisfied
    assert not verdict.residual.is_zero()


BIG = Fraction(10**5000)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: denominator_from_exponents([BIG], [-1]),
            ValueError,
            "z = 1{zeros}: negative exponent -1",
        ),
    ],
)
def test_messages_past_the_int_str_digit_cap(call, error, message):
    # a message that formats its value with str() would raise the cap's
    # own ValueError in its place
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message.format(zeros="0" * 5000)


def test_rational_matrix_refuses_a_numerator_that_is_not_polys():
    # constants, a lazy matrix of Fractions and graded monomials are no
    # numerator, however int_form reads them
    for numerator in (
        FMatrix([[Fraction(1, 2), 3]]),
        FMatrix.from_basis([1, 2], 3, ColumnRelations.trivial(2)),
        FMatrix([[RatFunc(1, 2)]]),
    ):
        with pytest.raises(TypeError, match="rational_matrix needs a numerator of Polys"):
            rational_matrix(numerator, Poly.one())


def test_rational_matrix_normalization():
    num = I3.map(lambda e: Poly((0, e)))  # z * I
    w = rational_matrix(num, Z**2)
    assert w.denominator == Z
    assert w.numerator == I3.map(lambda e: Poly((e,)))
    zero = rational_matrix(FMatrix([[Poly()]]), Z**3)
    assert zero.denominator == Poly.one()


def test_reconstruct_from_second_center():
    sys_ = build_kz_s3(0, 1, TWO)
    exp = local_expansion(sys_, 2, DERIVED_TAYLOR, order=20)
    series = compute_series(exp, TWO, order=20)
    w = reconstruct(series, propose_denominator(sys_), max_num_degree=8)
    assert verify_ode(w, sys_).satisfied


def test_verify_ode_rejects_symbolic_system():
    from kzrat import SYMBOLIC

    sys_, series = single_pole_pipeline()
    w = reconstruct(series, Z**2, max_num_degree=0)
    with pytest.raises(ValueError):
        verify_ode(w, build_kz_s3(SYMBOLIC, SYMBOLIC, TWO))


# Real reconstructions: systems whose series reconstruct to a rational W,
# from one to four points.  An affine change z -> a z + b maps a solution
# W(z) of the system at z_i to W((z - b) / a), a solution of the system at
# a z_i + b, so the bases below yield real solutions at any height.
def _permutation_system(n, points, coupling):
    return kz_system(
        points, [transposition_matrix(n, 1, j) for j in range(2, len(points) + 2)], coupling
    )


BASES = (
    ("single-pole", lambda: kz_system([0], [P1], TWO)),
    ("kz-s3", lambda: build_kz_s3(0, 1, TWO)),
    (
        "three-point",
        lambda: kz_system(
            [0, Fraction(2, 3), Fraction(-5, 7)],
            [P1, P2, transposition_matrix(3, 2, 3)],
            Fraction(6),
        ),
    ),
    ("four-point", lambda: _permutation_system(5, [0, 1, -2, Fraction(1, 3)], TWO)),
)
@functools.cache
def real_reconstruction(name):
    """(system, W) for one of BASES, computed once."""
    return least_order_reconstruction(dict(BASES)[name]())


def least_order_reconstruction(sys_):
    """(system, W) at center 1 with the proposed denominator, the CLI's
    numerator degree and the least order that over-checks them."""
    den = denominator_from_exponents(sys_.points, denominator_exponents(sys_))
    degree = den.degree + numerator_growth(sys_)
    order = degree + den.degree + 1
    series = compute_series(local_expansion(sys_, 1, DERIVED_TAYLOR, order), sys_.coupling, order)
    return sys_, reconstruct(series, den, degree)


def _affine(p: Poly, a: Fraction, b: Fraction) -> Poly:
    """p((z - b) / a)."""
    return fraction_shifted(Poly([c / a**k for k, c in enumerate(p.coeffs)]), -b)


SQRT2_MINIMAL = Poly((-2, 0, 1))  # z^2 - 2: no rational root
EXTRA_ROOT = Z + Fraction(7, 2)  # a rational root that is no system point
nonzero = points.filter(bool)


def _assert_same_function(got, want):
    assert got.denominator == want.denominator
    assert got.numerator == want.numerator
    assert all(isinstance(p, Poly) for row in got.numerator.entries for p in row)


def _assert_same_verdict(got, want):
    assert got.satisfied is want.satisfied
    assert got.det_identically_zero is want.det_identically_zero
    _assert_same_function(got.residual, want.residual)


@given(
    base=st.sampled_from([name for name, _ in BASES]),
    a=nonzero,
    b=points,
    mutation=st.sampled_from(
        ("none", "sign", "term", "point-common", "point-den", "extra-root", "irreducible-common",
         "irreducible-den")
    ),
    pick=st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None)
def test_verify_ode_matches_fmatrix_oracle_on_real_reconstructions(base, a, b, mutation, pick):
    base_sys, base_w = real_reconstruction(base)
    sys_ = kz_system([a * p + b for p in base_sys.points], base_sys.residues, base_sys.coupling)
    rows = [[_affine(p, a, b) for p in row] for row in base_w.numerator.entries]
    den = _affine(base_w.denominator, a, b)
    cells = [(i, j) for i, row in enumerate(rows) for j, p in enumerate(row) if p]
    r, c = cells[pick % len(cells)]
    point = sys_.points[pick % len(sys_.points)]
    if mutation == "sign":
        rows[r][c] = -rows[r][c]
    elif mutation == "term":
        rows[r][c] = rows[r][c] + Poly.monomial(pick % 5, Fraction(pick % 7 - 3, 5) or 1)
    elif mutation == "point-common":
        rows = [[p * (Z - point) for p in row] for row in rows]
        den = den * (Z - point)
    elif mutation == "point-den":
        den = den * (Z - point)
    elif mutation == "extra-root":
        den = den * EXTRA_ROOT
    elif mutation == "irreducible-common":
        rows = [[p * SQRT2_MINIMAL for p in row] for row in rows]
        den = den * SQRT2_MINIMAL
    elif mutation == "irreducible-den":
        den = den * SQRT2_MINIMAL
    w = RationalMatrixFunction(numerator=FMatrix(rows), denominator=den)
    got = verify_ode(w, sys_)
    _assert_same_verdict(got, fmatrix_verify_ode(w, sys_))
    if mutation not in ("sign", "term"):
        assert got.satisfied is (mutation in ("none", "point-common", "irreducible-common"))


small_coefficients = st.one_of(
    st.integers(-4, 4), st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 7)))
)
small_polys = st.lists(small_coefficients, max_size=4).map(Poly)


@st.composite
def rooted_denominators(draw, pts):
    """(D, roots): D = c * prod (z - z_i)^(e_i) * (z + 7/2)^k * (z^2 - 2)^l,
    possibly constant, and roots its rational roots with multiplicities."""
    den = Poly((draw(nonzero),))
    roots = [(p, draw(st.integers(0, 2))) for p in pts]
    roots.append((Fraction(-7, 2), draw(st.integers(0, 1))))
    for p, e in roots:
        den = den * (Z - p) ** e
    return den * SQRT2_MINIMAL ** draw(st.integers(0, 1)), roots


def factored_denominators(pts):
    return rooted_denominators(pts).map(lambda pair: pair[0])


@given(data=st.data(), n=st.integers(1, 3), count=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_verify_ode_matches_fmatrix_oracle_on_random_systems(data, n, count):
    pts = data.draw(st.lists(points, min_size=count, max_size=count, unique=True))
    residue = st.lists(st.lists(small_coefficients, min_size=n, max_size=n), min_size=n, max_size=n)
    sys_ = kz_system(pts, [FMatrix(data.draw(residue)) for _ in pts], data.draw(couplings))
    shape = data.draw(st.sampled_from(("random", "zero", "rank-deficient")))
    rows = [[data.draw(small_polys) for _ in range(n)] for _ in range(n)]
    if shape == "zero":
        rows = [[Poly() for _ in range(n)] for _ in range(n)]
    elif shape == "rank-deficient" and n > 1:
        factor = data.draw(small_polys)
        rows[-1] = [factor * p for p in rows[0]]
    w = RationalMatrixFunction(
        numerator=FMatrix(rows), denominator=data.draw(factored_denominators(pts))
    )
    _assert_same_verdict(verify_ode(w, sys_), fmatrix_verify_ode(w, sys_))


@given(data=st.data(), count=st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_rational_matrix_matches_euclid_oracle(data, count):
    pts = data.draw(st.lists(points, min_size=count, max_size=count, unique=True))
    den = data.draw(factored_denominators(pts))
    # a shared factor built from the denominator's own factors, so that
    # cancellation happens at some roots and not at others
    shared = Poly.one()
    for p in pts + [Fraction(-7, 2)]:
        shared = shared * (Z - p) ** data.draw(st.integers(0, 2))
    shared = shared * SQRT2_MINIMAL ** data.draw(st.integers(0, 1))
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    entries = [[shared * data.draw(small_polys) for _ in range(cols)] for _ in range(rows)]
    numerator = FMatrix(entries)
    _assert_same_function(rational_matrix(numerator, den), euclid_rational_matrix(numerator, den))


@given(n=st.integers(1, 4), data=st.data())
@settings(max_examples=100, deadline=None)
def test_det_flag_matches_fraction_bareiss(n, data):
    rows = [[data.draw(st.lists(coefficients, max_size=4).map(Poly)) for _ in range(n)] for _ in range(n)]
    if n > 1 and data.draw(st.booleans()):
        factor, k = data.draw(small_polys), data.draw(st.integers(1, n - 1))
        rows[k] = [factor * p for p in rows[0]]
    m = FMatrix(rows)
    assert _det_is_zero(int_form(m)[0]) is fraction_det_is_zero(m)


def _scan_points(monkeypatch):
    """The integer points t, in order, at which _det_is_zero evaluates m(t)."""
    points = []
    original = reconstruct_module.eval_int

    def recording(f, t, *args):
        if t not in points:
            points.append(t)
        return original(f, t, *args)

    monkeypatch.setattr(reconstruct_module, "eval_int", recording)
    return points


@pytest.mark.parametrize(
    "rows, singular, scanned",
    [
        # kernels (z, -1) and (z, -1, 0): none constant, and det(t) = 0 at
        # every t, so all n d + 1 points are scanned
        ([[1, Z], [Z, Z**2]], True, 5),
        ([[Z, Z**2, 1], [1, Z, 0], [0, 0, Z - 5]], True, 7),
        # nonsingular, with a root at the first point probed, t = 2
        ([[Z - 2, 0], [0, 1]], False, 2),
        ([[Z, 1], [Z**2 - 4, Z - 2]], False, 2),
    ],
    ids=("2x2-singular", "3x3-singular", "2x2-probe-root", "2x2-probe-root-dense"),
)
def test_det_flag_falls_back_to_bareiss_without_a_certificate(
    monkeypatch, rows, singular, scanned
):
    # With no constant kernel the flag falls back to the point scan; the
    # fraction Bareiss oracle gives the expected answer.
    m = _poly_rows(*rows)
    points = _scan_points(monkeypatch)
    assert _det_is_zero(int_form(m)[0]) is singular
    assert fraction_det_is_zero(m) is singular
    assert points == list(range(2, 2 + scanned))


def test_det_flag_scan_needs_all_n_d_plus_1_points(monkeypatch):
    # det = (z - 2)(z - 3) ... (z - 7) has degree n d = 6 and vanishes at the
    # first six scan points; only the seventh shows it is not identically 0
    m = _poly_rows(
        [(Z - 2) * (Z - 3) * (Z - 4), 0],
        [0, (Z - 5) * (Z - 6) * (Z - 7)],
    )
    points = _scan_points(monkeypatch)
    assert _det_is_zero(int_form(m)[0]) is False
    assert fraction_det_is_zero(m) is False
    assert points == list(range(2, 9))


def test_det_flag_of_cli_verify_runs_needs_no_bareiss(monkeypatch, tmp_path):
    # Every series column lies in the image of the seed b_rho, whose kernel
    # is constant, so the stacked rank test decides the flag: no fallback
    # runs, and no point is scanned.
    from kzrat.cli import main

    points = _scan_points(monkeypatch)
    three_point = {
        "mode": "numeric",
        "points": ["0", "2/3", "-5/7"],
        "residues": [
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
            [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
            [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
        ],
        "coupling": "6",
        "order": 55,
    }
    configs = [CONFIGS / "kz-s3-numeric.json", CONFIGS / "single-pole.json"]
    for center in (1, 2, 3):
        path = tmp_path / f"three-point-{center}.json"
        path.write_text(json.dumps(dict(three_point, center=center)), encoding="utf-8")
        configs.append(path)
    for path in configs:
        report = tmp_path / "report.json"
        with redirect_stdout(io.StringIO()):
            assert main(["verify", "--config", str(path), "--json", str(report)]) == 0
        assert json.loads(report.read_text())["ode"]["det_identically_zero"] is True
    assert points == []


def test_reconstruct_at_a_rational_center_matches_division_oracle():
    # The three-point system expanded at z = 2/3, at the minimum order.
    sys_ = dict(BASES)["three-point"]()
    exponents = denominator_exponents(sys_)
    den = denominator_from_exponents(sys_.points, exponents)
    degree = den.degree + numerator_growth(sys_)
    order = degree + den.degree + 1
    series = compute_series(local_expansion(sys_, 2, DERIVED_TAYLOR, order), sys_.coupling, order)
    assert series.center_point == Fraction(2, 3)
    got = reconstruct(series, zip(sys_.points, exponents), degree)
    _assert_same_function(got, division_reconstruct(series, den, degree))
    assert verify_ode(got, sys_).satisfied
    with pytest.raises(NotRepresentable) as ei:
        reconstruct(series, den, degree - 1)
    with pytest.raises(NotRepresentable) as want_ei:
        division_reconstruct(series, den, degree - 1)
    assert ei.value.first_unmatched_level == want_ei.value.first_unmatched_level


def test_reconstruct_builds_one_fraction_per_output_coefficient(monkeypatch):
    sys_ = dict(BASES)["three-point"]()
    exponents = denominator_exponents(sys_)
    den = denominator_from_exponents(sys_.points, exponents)
    degree = den.degree + numerator_growth(sys_)
    series = compute_series(local_expansion(sys_, 2, DERIVED_TAYLOR, 55), sys_.coupling, 55)
    built = Counter()
    original_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built["fractions"] += 1
        return original_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if "_from_coprime_ints" in vars(Fraction):  # Python >= 3.12 arithmetic
        original_coprime = Fraction._from_coprime_ints

        def counting_coprime(cls, *args):
            built["fractions"] += 1
            return original_coprime(*args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    w = reconstruct(series, zip(sys_.points, exponents), degree)
    monkeypatch.undo()
    outputs = sum(len(p.coeffs) for row in w.numerator.entries for p in row)
    assert built["fractions"] <= outputs + len(w.denominator.coeffs)


def test_verify_path_runs_no_matrix_products_and_no_gcd(monkeypatch):
    # The three-point system at 0, 2/3, -5/7, coupling 6, order 55.
    sys_, _ = real_reconstruction("three-point")
    exponents = denominator_exponents(sys_)
    den = denominator_from_exponents(sys_.points, exponents)
    degree = den.degree + numerator_growth(sys_)
    series = compute_series(local_expansion(sys_, 1, DERIVED_TAYLOR, 55), sys_.coupling, 55)
    calls = Counter()

    def counting(name, original):
        def wrapped(*args):
            calls[name] += 1
            return original(*args)

        return wrapped

    monkeypatch.setattr(poly_module, "poly_gcd", counting("rational_roots", poly_module.poly_gcd))
    monkeypatch.setattr(reconstruct_module, "poly_gcd", counting("reconstruct", poly_gcd))
    # the pairs the CLI passes: the denominator in factored form
    w = reconstruct(series, zip(sys_.points, exponents), degree)
    monkeypatch.setattr(FMatrix, "__mul__", counting("mul", FMatrix.__mul__))
    verdict = verify_ode(w, sys_)
    assert verdict.satisfied
    assert calls["reconstruct"] == 0
    assert calls["rational_roots"] == 0
    assert calls["mul"] == 0


small_points = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))
gaps = st.builds(Fraction, st.integers(1, 20), st.integers(1, 9))


@st.composite
def perturbed_reconstructions(draw):
    """(series, denominator, degree, pairs): kz-s3 (coupling 2) or the
    three-point transposition system (coupling 6) at random distinct
    points, a random center and order, the system's denominator exponents
    each offset by -1 .. +1, with the denominator expanded and as (point,
    exponent) pairs, a numerator degree 0 .. 14, and, in half the draws,
    one entry of one level changed, often the top level, the last one
    over-checked."""
    count = draw(st.sampled_from((2, 3)))
    pts = [draw(small_points)]
    for _ in range(count - 1):
        pts.append(pts[-1] + draw(gaps))
    pts = draw(st.permutations(pts))
    if count == 2:
        sys_ = build_kz_s3(pts[0], pts[1], TWO)
    else:
        sys_ = kz_system(pts, [P1, P2, transposition_matrix(3, 2, 3)], Fraction(6))
    exponents = [max(0, e + draw(st.integers(-1, 1))) for e in denominator_exponents(sys_)]
    den = denominator_from_exponents(sys_.points, exponents)
    degree = draw(st.integers(0, 14))
    order = degree + den.degree + draw(st.integers(0, 12))
    exp = local_expansion(sys_, draw(st.integers(1, count)), DERIVED_TAYLOR, order)
    series = compute_series(exp, sys_.coupling, order)
    if draw(st.booleans()):
        series = _with_entry_changed(
            series,
            draw(st.one_of(st.just(order), st.integers(0, order))),
            draw(st.integers(0, 2)),
            draw(st.integers(0, 2)),
            draw(st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))),
        )
    return series, den, degree, list(zip(sys_.points, exponents))


def _reconstruction_outcome(solve):
    try:
        w = solve()
    except NotRepresentable as exc:
        return ("not-representable", exc.first_unmatched_level)
    except (ValueError, ZeroDivisionError) as exc:
        return (type(exc),)
    return ("ok", w.denominator, w.numerator)


def _eager_copy(series):
    """The series with each coefficient an FMatrix of its Fraction entries."""
    return series._replace(coeffs=tuple(FMatrix(m.entries) for m in series.coeffs))


def _typed_outcome(solve):
    """_reconstruction_outcome, with the type of every output coefficient."""
    got = _reconstruction_outcome(solve)
    if got[0] != "ok":
        return got
    polys = [got[1], *(p for row in got[2].entries for p in row)]
    return got + (type(got[2]), [type(c) for p in polys for c in p.coeffs])


@given(perturbed_reconstructions())
@settings(max_examples=150, deadline=None)
def test_reconstruct_matches_division_oracle_on_perturbed_series(case):
    series, den, degree, pairs = case
    got = _reconstruction_outcome(lambda: reconstruct(series, den, degree))
    event(str(got[0]))
    assert got == _reconstruction_outcome(lambda: division_reconstruct(series, den, degree))
    # the same from the factored denominator the CLI passes
    assert got == _reconstruction_outcome(lambda: reconstruct(series, pairs, degree))
    # the same from the integer form of the levels and from their Fractions
    eager = _eager_copy(series)
    assert _typed_outcome(lambda: reconstruct(series, den, degree)) == _typed_outcome(
        lambda: reconstruct(eager, den, degree)
    )


NUMERIC_CONFIGS = [
    path
    for path in sorted(CONFIGS.glob("*.json"))
    if json.loads(path.read_text(encoding="utf-8"))["mode"] == "numeric"
]


@pytest.mark.parametrize("path", NUMERIC_CONFIGS, ids=lambda path: path.stem)
def test_reconstruct_is_independent_of_the_coefficient_form(path):
    """Levels compute_series keeps in integer form and Fraction copies of
    them reconstruct alike, and alike report the first unmatched level once
    the top level, which is over-checked, is changed."""
    cfg = load_config(str(path), {})
    sys_ = cfg.build_system()
    exponents = cfg.denominator_exponents or denominator_exponents(sys_)
    den = denominator_from_exponents(sys_.points, exponents)
    degree = cfg.numerator_degree
    if degree is None:
        degree = den.degree + numerator_growth(sys_)
    exp = local_expansion(sys_, cfg.center, cfg.convention, cfg.order)
    series = compute_series(exp, cfg.coupling, cfg.order)
    changed = _with_entry_changed(series, cfg.order, 0, 0, Fraction(1, 3))
    outcomes = []
    for lazy in (series, changed):
        eager = _eager_copy(lazy)
        assert any(type(m) is not FMatrix for m in lazy.coeffs)  # pivot columns held
        assert all(type(m) is FMatrix for m in eager.coeffs)
        got = _typed_outcome(lambda: reconstruct(lazy, zip(sys_.points, exponents), degree))
        assert got == _typed_outcome(
            lambda: reconstruct(eager, zip(sys_.points, exponents), degree)
        )
        outcomes.append(got[0])
    assert outcomes == ["ok", "not-representable"]


# kz-s3 conjugated by diag(1, 2, 1): the projector seed's relations have
# denominator 2, column 2 = -1/2 column 1
_SCALE = FMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
_SCALE_INV = FMatrix([[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]])
SCALED_KZ_S3 = kz_system([0, 1], [_SCALE * p * _SCALE_INV for p in (P1, P2)], TWO)
# a rank-2 projector seed: pivots (0, 1), column 3 = -column 1 - column 2
_J = FMatrix([[1] * 3] * 3)
RANK_TWO_SEED = kz_system([0, 1], [_J * Fraction(2, 3) - I3, P1], TWO)
# (perturb, level, row, column, delta, degree pick)
UNPERTURBED_CLI_DEGREE = (False, 0, 0, 0, 1, 10**6)


@given(
    case=kz_systems(symbolic=False),
    choice=st.tuples(
        st.booleans(),
        st.integers(0, 10**6),
        st.integers(0, 3),
        st.integers(0, 3),
        st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 5)), st.integers(1, 4)),
        st.integers(0, 10**6),
    ),
)
@example(case=(build_kz_s3(0, 1, TWO), 1, DERIVED_TAYLOR, 0), choice=UNPERTURBED_CLI_DEGREE)
@example(case=(SCALED_KZ_S3, 1, DERIVED_TAYLOR, 0), choice=UNPERTURBED_CLI_DEGREE)
@example(case=(RANK_TWO_SEED, 1, DERIVED_TAYLOR, 0), choice=UNPERTURBED_CLI_DEGREE)
@example(case=(dict(BASES)["four-point"](), 3, DERIVED_TAYLOR, 0), choice=UNPERTURBED_CLI_DEGREE)
@settings(max_examples=150, deadline=None)
def test_column_basis_path_matches_the_all_columns_path(case, choice):
    """reconstruct and verify_ode on the pivot columns of the seed give the
    function, the first unmatched level, the verdict and the det flag that
    they give on eager copies of the levels, where every column is a
    pivot; a perturbed level leaves no relations shared by all levels."""
    sys_, center, convention, _ = case
    perturb, level, row, column, delta, pick = choice
    try:
        exponents = denominator_exponents(sys_)
    except NoPolynomialDenominator:
        exponents = (0,) * len(sys_.points)
    den = denominator_from_exponents(sys_.points, exponents)
    # at most the CLI's numerator degree
    degree = min(pick, den.degree + numerator_growth(sys_))
    order = degree + den.degree + 1 + pick % 3
    try:
        exp = local_expansion(sys_, center, convention, order)
        series = compute_series(exp, sys_.coupling, order)
    except ResonanceObstruction:
        return
    event(f"column rank {len(int_form(series.coeffs[0])[2].pivots)} of {sys_.n}")
    if perturb:
        n = sys_.n
        series = _with_entry_changed(series, level % (order + 1), row % n, column % n, delta)
    roots = list(zip(sys_.points, exponents))
    eager = _eager_copy(series)
    got = _typed_outcome(lambda: reconstruct(series, roots, degree))
    event(str(got[0]))
    assert got == _typed_outcome(lambda: reconstruct(eager, roots, degree))
    if got[0] != "ok":
        return
    w = reconstruct(series, roots, degree)
    w_eager = reconstruct(eager, roots, degree)
    for system in (sys_, sys_._replace(coupling=sys_.coupling + 1)):
        verdict = verify_ode(w, system)
        event(f"satisfied {verdict.satisfied}")
        _assert_same_verdict(verdict, verify_ode(w_eager, system))


def _trimmed(f: list[int]) -> list[int]:
    while f and not f[-1]:
        f = f[:-1]
    return f


@st.composite
def carried_numerators(draw):
    """(system, arguments of `_normalized`) for a W whose numerator is
    held on its pivot columns: relations with every column a pivot, or
    those of a drawn seed (denominator > 1, columns of several terms, zero
    columns); pivot entries with zero and negative coefficients, at times
    one past CPython's int -> str digit cap; a scale not in lowest terms."""
    n = draw(st.integers(1, 3))
    relations = ColumnRelations.trivial(n)
    if draw(st.booleans()):
        seed_entries = st.sampled_from((0, 0, 1, -1, 2, 3, Fraction(1, 2)))
        row = st.lists(seed_entries, min_size=n, max_size=n)
        seed = draw(st.lists(row, min_size=n, max_size=n))
        seed[0][draw(st.integers(0, n - 1))] = 1
        relations = column_relations(FMatrix(seed))
    coefficient = st.sampled_from((0, 0, 1, -1, 2, -3, 10**20))
    vectors = st.lists(coefficient, max_size=4).map(_trimmed)
    num = [[draw(vectors) for _ in relations.pivots] for _ in range(n)]
    num[0][0] = num[0][0] or [1]
    if draw(st.booleans()):
        num[-1][-1] = [5, 0, -(10**4400) - 7]
    pts = draw(st.lists(points, min_size=1, max_size=3, unique=True))
    entries = st.sampled_from((0, 0, 1, -1, Fraction(1, 2)))
    residue = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    sys_ = kz_system(pts, [FMatrix(draw(residue)) for _ in pts], draw(couplings))
    mults = {z: draw(st.integers(0, 2)) for z in pts}
    scale = draw(st.sampled_from((1, 6, Fraction(-4, 9), 10**25)))
    return sys_, (num, scale, mults, [1], relations)


@given(carried_numerators())
# the kz-s3-scaled and rank-two seeds that tests/test_pinned_reports.py
# pins, with W reconstructed as `kzrat verify` does (no arguments): the
# ODE holds
@example((SCALED_KZ_S3, None))
@example((RANK_TWO_SEED, None))
@settings(max_examples=100, deadline=None)
def test_carried_numerator_cannot_be_told_from_its_fractions(case):
    sys_, args = case
    w = least_order_reconstruction(sys_)[1] if args is None else _normalized(*args)
    m = w.numerator
    # the shape, the report and the ODE check first, while no entry is built
    shape = (w.n, m.rows, m.cols)
    report = _numerator_json(m)
    verdict = verify_ode(w, sys_)
    assert not entries_built(m)
    assert shape == (sys_.n,) * 3
    rows, den, relations, power = int_form(m)
    assert power is None
    # one denominator, the content stripped: the integers verify_ode reads
    assert den > 0 and gcd(den, *(x for row in rows for f in row for x in f)) == 1
    eager = [
        [
            sum(
                (Poly([Fraction(x, den) for x in f]) * Fraction(c, relations.den)
                 for f, c in zip(row, column)),
                Poly(),
            )
            for column in zip(*relations.rows)
        ]
        for row in rows
    ]
    assert [list(row) for row in m.entries] == eager
    assert all(type(c) is Fraction for row in m.entries for p in row for c in p.coeffs)
    assert report == [[_poly_json(p) for p in row] for row in eager]
    event(f"satisfied {verdict.satisfied}")
    _assert_same_verdict(verdict, verify_ode(w._replace(numerator=FMatrix(m.entries)), sys_))


def test_satisfied_ode_check_normalizes_no_residual(monkeypatch):
    # the residual of a satisfied check is zero: nothing to normalize
    sys_, w = real_reconstruction("three-point")
    calls = []
    original = reconstruct_module._normalized
    monkeypatch.setattr(
        reconstruct_module, "_normalized", lambda *args: calls.append(args) or original(*args)
    )
    verdict = verify_ode(w, sys_)
    assert verdict.satisfied and verdict.residual.is_zero()
    assert verdict.residual.denominator == Poly.one()
    assert calls == []


def test_verify_divides_no_denominator_to_find_its_factors(monkeypatch, tmp_path):
    # kz-s3 at points 1000, 1001 and coupling 100, D = (z - 1000)^100
    # (z - 1001)^100: the denominator goes from the exponents to the ODE
    # check in factored form.  Dividing D by the roots it was built from
    # took about 4 * coupling exact divisions; what is left is the
    # spectra in rational_roots and one trial cancellation per root.
    from kzrat.cli import main

    calls = Counter()

    def counting(name, original):
        def wrapped(*args):
            calls[name] += 1
            return original(*args)

        return wrapped

    quotient = counting("exact_quotient", poly_module.exact_quotient)
    monkeypatch.setattr(poly_module, "exact_quotient", quotient)
    monkeypatch.setattr(reconstruct_module, "exact_quotient", quotient)
    monkeypatch.setattr(Poly, "__pow__", counting("pow", Poly.__pow__))
    shifted = []
    original_shift = reconstruct_module.taylor_shift
    monkeypatch.setattr(
        reconstruct_module,
        "taylor_shift",
        lambda ints, r, s: shifted.append(len(ints)) or original_shift(ints, r, s),
    )
    config = tmp_path / "kz-s3-1000.json"
    config.write_text(
        json.dumps({"mode": "numeric", "points": ["1000", "1001"], "coupling": "100", "order": 601}),
        encoding="utf-8",
    )
    report = tmp_path / "report.json"
    with redirect_stdout(io.StringIO()):
        assert main(["verify", "--config", str(config), "--json", str(report)]) == 0
    written = json.loads(report.read_text())
    assert written["ode"]["satisfied"] is True
    assert calls["exact_quotient"] <= 20
    assert calls["pow"] == 0
    # the numerators are shifted back to z; of D only the root-free rest
    # E = 1 is
    assert set(shifted) == {1, written["reconstruction"]["numerator_degree_bound"] + 1}


def test_verify_builds_no_numerator_entry(monkeypatch, tmp_path):
    # three points, residues that are not kz-s3's, and the center at 1000,
    # so that the numerators are shifted back to z by a nonzero shift: the
    # report and the ODE check read the numerator's pivot integers, and
    # nothing builds its Poly entries, which clearing them back to integers
    # would need.  The spy is on the numerator's lazy entry build, not on
    # ColumnRelations.derived, which the report calls too
    from kzrat.cli import main

    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def spy(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, spy)

    count(_ClearedPolyMatrix, "_built")
    config = tmp_path / "three-point.json"
    t12 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    t13 = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    t23 = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    config.write_text(
        json.dumps({
            "mode": "numeric",
            "points": ["1000", "3002/3", "6995/7"],
            "residues": [t12, t13, t23],
            "coupling": "6",
            "order": 55,
        }),
        encoding="utf-8",
    )
    report = tmp_path / "report.json"
    with redirect_stdout(io.StringIO()):
        assert main(["verify", "--config", str(config), "--json", str(report)]) == 0
    assert json.loads(report.read_text())["ode"]["satisfied"] is True
    assert calls == Counter()
    # the spy sees a numerator's entries being built
    FMatrix.from_poly_basis([[[1]]], 1, ColumnRelations.trivial(1)).entries
    assert calls == Counter({"_built": 1})


def test_a_replaced_denominator_is_checked_by_its_own_factors():
    # The denominator carries its factors, so one put in its place, by
    # _replace or by arithmetic on it, is factored anew
    sys_, w = real_reconstruction("three-point")
    den = w.denominator
    point = sys_.points[1]
    replacements = {
        "copy": Poly(den.coeffs),
        "times a point": den * (Z - point),
        "times another root": den * EXTRA_ROOT,
        "over a point": den // (Z - point),
        "irreducible": den * SQRT2_MINIMAL,
        "other function": real_reconstruction("kz-s3")[1].denominator,
    }
    for name, replaced in replacements.items():
        changed = w._replace(denominator=replaced)
        verdict = verify_ode(changed, sys_)
        _assert_same_verdict(verdict, fmatrix_verify_ode(changed, sys_))
        assert verdict.satisfied is (name == "copy"), name


def test_the_normalized_denominator_carries_what_is_left_after_cancelling():
    # each exponent proposed one too high: normalization cancels one power
    # of every root, and W carries the factors of its own denominator
    sys_, want = real_reconstruction("three-point")
    exponents = denominator_exponents(sys_)
    pairs = [(z, e + 1) for z, e in zip(sys_.points, exponents)]
    degree = sum(e for _, e in pairs) + numerator_growth(sys_)
    order = degree + sum(e for _, e in pairs) + 1
    series = compute_series(local_expansion(sys_, 1, DERIVED_TAYLOR, order), sys_.coupling, order)
    w = reconstruct(series, pairs, degree)
    _assert_same_function(w, want)
    assert w.denominator.factors == _factored(Poly(w.denominator.coeffs))
    assert verify_ode(w, sys_).satisfied
