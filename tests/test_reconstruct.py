import functools
import io
import json
import sys
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
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
    PoleError,
    Poly,
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
from kzrat.cli import load_config
from kzrat.matrix import integer_form, known_relations
from kzrat.reconstruct import (
    _cleared_entries,
    _det_is_zero,
    _series_of_ratio,
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
    euclid_rational_matrix,
    fmatrix_verify_ode,
    fraction_det_is_zero,
    fraction_series_of_ratio,
    kz_systems,
    matrix_expansion_matches,
    points,
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
    with pytest.raises(ValueError):
        reconstruct(series, Z**2, max_num_degree=0)


def test_roundtrip_reexpansion_matches_every_coefficient():
    sys_, series = paper_numeric_series(14)
    w = reconstruct(series, propose_denominator(sys_), max_num_degree=8)
    coeffs = [series.coefficient(p) for p in series.levels()]
    assert matrix_expansion_matches(w, Fraction(0), -2, coeffs)
    back = w.laurent_coefficients(Fraction(0), -2, len(coeffs))
    assert all(a == b for a, b in zip(back, coeffs))


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


def test_evaluate_examples():
    sys_, series = single_pole_pipeline()
    w = reconstruct(series, Z**2, max_num_degree=0)
    assert w.evaluate(1) == I3 - P1
    assert w.evaluate(2) == (I3 - P1) * Fraction(1, 4)
    with pytest.raises(PoleError):
        w.evaluate(0)


BIG = Fraction(10**5000)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: rational_matrix(FMatrix([[Poly.one()]]), Poly((-BIG, 1))).evaluate(BIG),
            PoleError,
            "z = 1{zeros} is a pole of the denominator",
        ),
        (
            lambda: rational_matrix(FMatrix([[Poly.one()]]), Poly.one(), [(BIG, 1)]),
            ValueError,
            "z = 1{zeros} is no root of multiplicity 1 of the denominator",
        ),
        (
            lambda: rational_matrix(FMatrix([[Poly.one()]]), Poly.one(), [(BIG, -1)]),
            ValueError,
            "root 1{zeros}: negative multiplicity -1",
        ),
    ],
)
def test_messages_past_the_int_str_digit_cap(call, error, message):
    # a message that formats its value with str() would raise the cap's
    # own ValueError in its place
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message.format(zeros="0" * 5000)


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


def test_series_of_ratio_at_a_pole_with_large_coefficients():
    big = Fraction(2**599 + 1, 3**200)
    # den = u^2 (big - u)^3 over 7: the center is a double pole
    den = Poly.monomial(2) * Poly((big, Fraction(-1))) ** 3 / 7
    num = Poly((Fraction(-(2**500), 11), 0, 0, big))
    for lo, count in ((-2, 12), (-5, 4), (3, 6), (0, 0)):
        got = _series_of_ratio(num, den, lo, count)
        assert got == fraction_series_of_ratio(num, den, lo, count)
    assert _series_of_ratio(Poly(), den, -2, 3) == [Fraction(0)] * 3
    with pytest.raises(ZeroDivisionError):
        _series_of_ratio(num, Poly(), 0, 3)


@given(
    num=st.lists(coefficients, max_size=8).map(Poly),
    den=st.lists(coefficients, min_size=1, max_size=6).map(Poly).filter(bool),
    pole=st.integers(0, 3),
    lo=st.integers(-5, 4),
    count=st.integers(0, 12),
)
@settings(max_examples=200, deadline=None)
def test_series_of_ratio_matches_fraction_oracle(num, den, pole, lo, count):
    den = Poly.monomial(pole) * den  # u-valuation > 0 makes the center a pole
    got = _series_of_ratio(num, den, lo, count)
    assert got == fraction_series_of_ratio(num, den, lo, count)
    assert all(isinstance(x, Fraction) for x in got)


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
    sys_ = dict(BASES)[name]()
    den = denominator_from_exponents(sys_.points, denominator_exponents(sys_))
    degree = den.degree + numerator_growth(sys_)
    order = degree + den.degree + 1
    series = compute_series(local_expansion(sys_, 1, DERIVED_TAYLOR, order), sys_.coupling, order)
    return sys_, reconstruct(series, den, degree)


def _affine(p: Poly, a: Fraction, b: Fraction) -> Poly:
    """p((z - b) / a)."""
    return Poly([c / a**k for k, c in enumerate(p.coeffs)]).shifted(-b)


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


@given(data=st.data(), count=st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_rational_matrix_root_hints_never_change_the_result(data, count):
    pts = data.draw(st.lists(points, min_size=count, max_size=count, unique=True))
    den, roots = data.draw(rooted_denominators(pts))
    shared = Poly.one()
    for p in pts + [Fraction(-7, 2)]:
        shared = shared * (Z - p) ** data.draw(st.integers(0, 2))
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    entries = [[shared * data.draw(small_polys) for _ in range(cols)] for _ in range(rows)]
    numerator = FMatrix(entries)
    partial = [(p, data.draw(st.integers(0, e))) for p, e in roots]
    want = euclid_rational_matrix(numerator, den)
    for hint in (roots, partial, ()):
        _assert_same_function(rational_matrix(numerator, den, hint), want)


@given(data=st.data(), count=st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_rational_matrix_rejects_a_root_hint_that_does_not_divide(data, count):
    pts = data.draw(st.lists(points, min_size=count, max_size=count, unique=True))
    den, roots = data.draw(rooted_denominators(pts))
    k = data.draw(st.integers(0, len(roots) - 1))
    root, e = roots[k]
    wrong = roots[:k] + [(root, e + data.draw(st.integers(1, 2)))] + roots[k + 1 :]
    numerator = FMatrix([[data.draw(small_polys)]])
    with pytest.raises(ValueError, match="no root"):
        rational_matrix(numerator, den, wrong)


@given(n=st.integers(1, 4), data=st.data())
@settings(max_examples=100, deadline=None)
def test_det_flag_matches_fraction_bareiss(n, data):
    rows = [[data.draw(st.lists(coefficients, max_size=4).map(Poly)) for _ in range(n)] for _ in range(n)]
    if n > 1 and data.draw(st.booleans()):
        factor, k = data.draw(small_polys), data.draw(st.integers(1, n - 1))
        rows[k] = [factor * p for p in rows[0]]
    m = FMatrix(rows)
    assert _det_is_zero(_cleared_entries(m)[0]) is fraction_det_is_zero(m)


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
    assert _det_is_zero(_cleared_entries(m)[0]) is singular
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
    assert _det_is_zero(_cleared_entries(m)[0]) is False
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
    got = reconstruct(series, den, degree, roots=zip(sys_.points, exponents))
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
    w = reconstruct(series, den, degree, roots=zip(sys_.points, exponents))
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
    # the hint the CLI passes: every root of the denominator is known
    w = reconstruct(series, den, degree, roots=zip(sys_.points, exponents))
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
    """(series, denominator, degree): kz-s3 (coupling 2) or the three-point
    transposition system (coupling 6) at random distinct points, a random
    center and order, the system's denominator exponents each offset by
    -1 .. +1, a numerator degree 0 .. 14, and, in half the draws, one
    entry of one level changed, often the top level, the last one
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
    return series, den, degree


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
    series, den, degree = case
    got = _reconstruction_outcome(lambda: reconstruct(series, den, degree))
    event(str(got[0]))
    assert got == _reconstruction_outcome(lambda: division_reconstruct(series, den, degree))
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
        assert any(integer_form(m) for m in lazy.coeffs)
        assert not any(integer_form(m) for m in eager.coeffs)
        got = _typed_outcome(lambda: reconstruct(lazy, den, degree, zip(sys_.points, exponents)))
        assert got == _typed_outcome(
            lambda: reconstruct(eager, den, degree, zip(sys_.points, exponents))
        )
        outcomes.append(got[0])
    assert outcomes == ["ok", "not-representable"]


# kz-s3 conjugated by diag(1, 2, 1): the projector seed's relations have
# denominator 2, column 2 = -1/2 column 1
_SCALE = FMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
_SCALE_INV = FMatrix([[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]])
SCALED_KZ_S3 = kz_system([0, 1], [_SCALE * p * _SCALE_INV for p in (P1, P2)], TWO)
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
    event(f"column rank {len(known_relations(series.coeffs[0]).pivots)} of {sys_.n}")
    if perturb:
        n = sys_.n
        series = _with_entry_changed(series, level % (order + 1), row % n, column % n, delta)
    roots = list(zip(sys_.points, exponents))
    eager = _eager_copy(series)
    got = _typed_outcome(lambda: reconstruct(series, den, degree, roots))
    event(str(got[0]))
    assert got == _typed_outcome(lambda: reconstruct(eager, den, degree, roots))
    if got[0] != "ok":
        return
    w = reconstruct(series, den, degree, roots)
    w_eager = reconstruct(eager, den, degree, roots)
    for system in (sys_, sys_._replace(coupling=sys_.coupling + 1)):
        verdict = verify_ode(w, system)
        event(f"satisfied {verdict.satisfied}")
        _assert_same_verdict(verdict, verify_ode(w_eager, system))


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
