from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kzrat import (
    DERIVED_TAYLOR,
    LITERAL_PAPER,
    SYMBOLIC,
    FMatrix,
    Poly,
    RatFunc,
    ResonanceObstruction,
    SolveKind,
    build_kz_s3,
    compute_series,
    transposition_matrix,
    indicial_data,
    kz_system,
    leading_coefficient,
    local_expansion,
    solve_linear,
    verify_recursion,
)
from kzrat import frobenius
from kzrat.matrix import column_relations
from support import (
    I3,
    OBSTRUCTED_RESIDUE2,
    P1,
    P2,
    direct_series,
    fraction_compute_series,
    kz_systems,
    level2_convolution_oracle,
    table_matrix,
)

TWO = Fraction(2)


def symbolic_expansion(convention, order):
    return local_expansion(build_kz_s3(SYMBOLIC, SYMBOLIC, TWO), 1, convention, order)


def test_indicial_examples():
    exp = symbolic_expansion(LITERAL_PAPER, 1)
    ind = indicial_data(exp, TWO)
    assert ind.eigenvalues == ((Fraction(-2), 1), (Fraction(2), 2))
    assert ind.resonant_levels == {-2, 2}
    assert ind.unresolved_factor == Poly.one()

    sys_i = kz_system([0], [I3], TWO)
    ind_i = indicial_data(local_expansion(sys_i, 1, order=0), TWO)
    assert ind_i.eigenvalues == ((Fraction(2), 3),)
    assert ind_i.resonant_levels == {2}

    ind_1 = indicial_data(exp, Fraction(1))
    assert ind_1.eigenvalues == ((Fraction(-1), 1), (Fraction(1), 2))
    assert ind_1.resonant_levels == {-1, 1}


def test_indicial_irrational_spectrum():
    residue = FMatrix([[0, 2], [1, 0]])  # eigenvalues +-sqrt(2)
    sys_ = kz_system([0], [residue], Fraction(1))
    ind = indicial_data(local_expansion(sys_, 1, order=0), Fraction(1))
    assert ind.eigenvalues == ()
    assert ind.resonant_levels == frozenset()
    assert ind.unresolved_factor == Poly((-2, 0, 1))


def test_leading_coefficient_policies():
    exp = symbolic_expansion(LITERAL_PAPER, 1)
    # the paper's projector where the exponent is -coupling
    proj = leading_coefficient(exp, TWO, -2)
    assert proj == (I3 - P1) * RatFunc.one()
    # kernel columns everywhere else: the +1 eigenspace of P1, zero-padded
    kern = leading_coefficient(exp, TWO, 2)
    expected = FMatrix([[1, 0, 0], [1, 0, 0], [0, 1, 0]]) * RatFunc.one()
    assert kern == expected
    with pytest.raises(ValueError):
        leading_coefficient(exp, TWO, 0)
    # the identity is an involution, but I - I is no seed: -2 is no eigenvalue
    with pytest.raises(ValueError):
        leading_coefficient(local_expansion(kz_system([0], [I3], TWO), 1), TWO, -2)


def test_series_matches_reference_tables():
    exp = symbolic_expansion(LITERAL_PAPER, 4)
    series = compute_series(exp, TWO, order=3)
    for level in (-2, -1, 0, 1):
        assert series.coefficient(level) == table_matrix(level), level


def test_series_duality_against_reference_tables():
    exp = symbolic_expansion(DERIVED_TAYLOR, 4)
    series = compute_series(exp, TWO, order=3)
    for level in (-2, -1, 0, 1):
        assert series.coefficient(level) == table_matrix(level) * (
            Fraction(-1) ** level
        )


def test_single_point_series_terminates():
    sys_ = kz_system([0], [P1], TWO)
    exp = local_expansion(sys_, 1, DERIVED_TAYLOR, order=6)
    series = compute_series(exp, TWO, order=5)
    assert series.coefficient(-2) == I3 - P1
    for p in range(-1, 4):
        assert series.coefficient(p).is_zero()
    rec = series.resonance_at(2)
    assert rec is not None and rec.kind is SolveKind.AFFINE


def test_leading_identity():
    exp = symbolic_expansion(LITERAL_PAPER, 1)
    series = compute_series(exp, TWO, order=0)
    b = series.coefficient(-2)
    step = I3 * Fraction(-2) - P1 * TWO
    assert ((step * RatFunc.one()) * b).is_zero()


def test_resonant_level2_is_affine_with_plus1_eigenspace_kernel():
    for convention in (LITERAL_PAPER, DERIVED_TAYLOR):
        exp = symbolic_expansion(convention, 5)
        series = compute_series(exp, TWO, order=5)
        rec = series.resonance_at(2)
        assert rec is not None
        assert rec.kind is SolveKind.AFFINE
        assert rec.certificate is None
        assert rec.kernel == (
            (Fraction(1), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        )
        # the recorded kernel spans the +1 eigenspace of the residue
        for v in rec.kernel:
            col = FMatrix.from_columns([v], 3)
            assert P1 * col == col
    # numeric twin
    sysn = build_kz_s3(0, 1, TWO)
    expn = local_expansion(sysn, 1, DERIVED_TAYLOR, order=5)
    recn = compute_series(expn, TWO, order=5).resonance_at(2)
    assert recn is not None and recn.kind is SolveKind.AFFINE
    assert len(recn.kernel) == 2


def test_level2_particular_has_zero_kernel_coefficients():
    exp = symbolic_expansion(LITERAL_PAPER, 5)
    series = compute_series(exp, TWO, order=5)
    rec = series.resonance_at(2)
    b2 = series.coefficient(2)
    # free coordinates of the level-2 step matrix are rows 1 and 2; the
    # kernel restricted there is invertible, so the expansion coefficients
    # of the particular against the kernel solve a 2x2 exact system
    free = (1, 2)
    k_free = FMatrix([[rec.kernel[a][f] for a in range(2)] for f in free])
    for j in range(3):
        rhs = FMatrix([[b2[f, j]] for f in free])
        res = solve_linear(k_free, rhs)
        assert res.kind is SolveKind.UNIQUE
        assert res.particular.is_zero()


def test_verify_recursion_level2_rhs_matches_convolution_oracle():
    exp = symbolic_expansion(LITERAL_PAPER, 5)
    series = compute_series(exp, TWO, order=5)
    report = verify_recursion(series, exp, TWO)
    assert report.all_ok
    check = report.at(2)
    assert check.resonant
    oracle_ints, power = level2_convolution_oracle()
    oracle = FMatrix(oracle_ints) * RatFunc.monomial(power)
    # the stored right side is coupling * convolution
    assert check.rhs == oracle * TWO
    assert check.rhs * Fraction(1, 2) == oracle
    # frozen value: the normalized right side is d^-4 times a rank-1 table
    assert oracle == FMatrix([[1, -1, 0], [-1, 1, 0], [0, 0, 0]]) * RatFunc.monomial(-4)


def test_verify_recursion_flags_tampered_series():
    exp = symbolic_expansion(LITERAL_PAPER, 6)
    series = compute_series(exp, TWO, order=5)
    top = series.levels()[-1]
    rows = [list(r) for r in series.coefficient(top).entries]
    # a monomial of the entry's own d-degree, so the series stays graded
    rows[0][0] = rows[0][0] + RatFunc.monomial(-(top - series.leading_exponent))
    tampered = series._replace(coeffs=series.coeffs[:-1] + (FMatrix(rows),))
    report = verify_recursion(tampered, exp, TWO)
    assert not report.all_ok
    bad = [c.level for c in report.checks if not c.residual_zero]
    assert bad == [top]


def test_nonresonant_levels_are_unique_beyond_the_window():
    exp = symbolic_expansion(LITERAL_PAPER, 21)
    series = compute_series(exp, TWO, order=20)
    assert [rec.level for rec in series.resonances] == [2]
    report = verify_recursion(series, exp, TWO)
    resonant_levels = [c.level for c in report.checks if c.resonant]
    assert resonant_levels == [-2, 2]


def test_symbolic_homogeneity_to_order_twenty():
    for convention in (LITERAL_PAPER, DERIVED_TAYLOR):
        exp = symbolic_expansion(convention, 21)
        series = compute_series(exp, TWO, order=20)
        for p in series.levels():
            for row in series.coefficient(p).entries:
                for e in row:
                    coeff, power = e.coeff, e.power
                    assert coeff == 0 or power == -(p + 2), (convention, p)


def test_series_convention_duality():
    lit = compute_series(symbolic_expansion(LITERAL_PAPER, 13), TWO, order=12)
    der = compute_series(symbolic_expansion(DERIVED_TAYLOR, 13), TWO, order=12)
    for p in range(-2, 11):
        assert lit.coefficient(p) == der.coefficient(p) * (Fraction(-1) ** p), p


def test_numeric_coefficients_are_order_independent():
    sysn = build_kz_s3(0, 1, TWO)
    small = compute_series(local_expansion(sysn, 1, DERIVED_TAYLOR, 8), TWO, order=8)
    large = compute_series(local_expansion(sysn, 1, DERIVED_TAYLOR, 16), TWO, order=16)
    for p in small.levels():
        assert small.coefficient(p) == large.coefficient(p)
    z = Fraction(1, 10)
    partial_small = sum(
        (small.coefficient(p) * z**p for p in small.levels()), FMatrix.zeros(3, 3)
    )
    partial_large = sum(
        (large.coefficient(p) * z**p for p in small.levels()), FMatrix.zeros(3, 3)
    )
    assert partial_small == partial_large


def test_obstructed_resonance_raises_with_certificate():
    sys_ = kz_system([0, 1], [P1, OBSTRUCTED_RESIDUE2], TWO)
    exp = local_expansion(sys_, 1, DERIVED_TAYLOR, order=8)
    with pytest.raises(ResonanceObstruction) as ei:
        compute_series(exp, TWO, order=8)
    exc = ei.value
    assert exc.level == 2
    y = FMatrix([list(exc.certificate)])
    step = I3 * Fraction(2) - P1 * TWO
    assert (y * step).is_zero()
    assert not (y * exc.rhs).is_zero()


def test_seed_from_positive_exponent():
    sysn = build_kz_s3(0, 1, TWO)
    exp = local_expansion(sysn, 1, DERIVED_TAYLOR, order=8)
    series = compute_series(exp, TWO, order=6, leading_exponent=2)
    assert series.leading_exponent == 2
    assert not series.coefficient(2).is_zero()
    assert verify_recursion(series, exp, TWO).all_ok


def test_series_at_second_center():
    sysn = build_kz_s3(0, 1, TWO)
    exp = local_expansion(sysn, 2, DERIVED_TAYLOR, order=8)
    series = compute_series(exp, TWO, order=8)
    assert series.leading_exponent == -2
    assert verify_recursion(series, exp, TWO).all_ok


def test_series_order_is_not_bounded_by_the_expansion_order():
    short = symbolic_expansion(LITERAL_PAPER, 2)
    # a_r is derived on demand; the expansion order only bounds what
    # `expand` lists
    series = compute_series(short, TWO, order=5)
    full = symbolic_expansion(LITERAL_PAPER, 5)
    assert outcome(lambda: series) == outcome(lambda: compute_series(full, TWO, order=5))
    assert verify_recursion(series, short, TWO).all_ok


def test_no_integer_exponent_rejected():
    sysn = build_kz_s3(0, 1, Fraction(2, 3))
    exp = local_expansion(sysn, 1, DERIVED_TAYLOR, order=3)
    with pytest.raises(ValueError):
        compute_series(exp, Fraction(2, 3), order=3)


def typed(vectors) -> list[list[tuple]]:
    """(type, value) per entry: reports encode each entry type differently."""
    return [[(type(e), e) for e in v] for v in vectors]


def same_matrix(a: FMatrix, b: FMatrix) -> bool:
    """Equal values and equal entry types."""
    return typed(a.entries) == typed(b.entries)


def assert_matches_direct_convolution(exp, coupling, order):
    """compute_series agrees with the O(N^2) reference solver exactly:
    coefficients, resonance records with kernels, or the obstruction."""
    ind = indicial_data(exp, coupling)
    lead = min(ind.resonant_levels)
    try:
        want_coeffs, want_records = direct_series(exp, coupling, order, lead)
    except ResonanceObstruction as want:
        with pytest.raises(ResonanceObstruction) as got:
            compute_series(exp, coupling, order)
        assert got.value.level == want.level
        assert typed([got.value.certificate]) == typed([want.certificate])
        assert same_matrix(got.value.rhs, want.rhs)
        return
    series = compute_series(exp, coupling, order)
    assert series.leading_exponent == lead
    assert len(series.coeffs) == len(want_coeffs)
    for got_b, want_b in zip(series.coeffs, want_coeffs):
        assert same_matrix(got_b, want_b)
    assert [(r.level, r.kind, typed(r.kernel)) for r in series.resonances] == [
        (level, kind, typed(kernel)) for level, kind, kernel in want_records
    ]


TRANSPOSITIONS = [transposition_matrix(3, i, j) for i, j in ((1, 2), (1, 3), (2, 3))]


@st.composite
def numeric_systems(draw):
    """Transposition residues, those of the other poles scaled by rational
    factors; a rational coupling scales the center's residue by its
    denominator, so the center stays resonant.  So -coupling * R_i may clear
    to integers over a denominator > 1."""
    points = draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    factors = st.sampled_from((1, 1, Fraction(1, 3), Fraction(-3, 5), Fraction(5, 2)))
    residues = [draw(st.sampled_from(TRANSPOSITIONS)) * draw(factors) for _ in points]
    center = draw(st.integers(1, len(points)))
    coupling = Fraction(draw(st.sampled_from((1, 2, 3, 6, Fraction(1, 2), Fraction(-2, 3)))))
    residues[center - 1] = draw(st.sampled_from(TRANSPOSITIONS)) * coupling.denominator
    return kz_system(points, residues, coupling), center, coupling


@given(case=numeric_systems(), order=st.integers(0, 14))
@settings(max_examples=60, deadline=None)
def test_recurrence_matches_direct_convolution_numeric(case, order):
    sys_, center, coupling = case
    exp = local_expansion(sys_, center, DERIVED_TAYLOR, order)
    assume(indicial_data(exp, coupling).resonant_levels)
    assert_matches_direct_convolution(exp, coupling, order)


@pytest.mark.parametrize(
    "other, order, convention, center",
    [
        pytest.param(other, order, convention, center, id=f"{prefix}{convention}-{center}")
        for prefix, other, order in (
            ("", P2, 10),
            ("order20-", P2, 20),
            ("obstructed-", OBSTRUCTED_RESIDUE2, 8),
        )
        for convention in (LITERAL_PAPER, DERIVED_TAYLOR)
        for center in (1, 2)
    ],
)
def test_recurrence_matches_direct_convolution_symbolic(other, order, convention, center):
    sys_ = kz_system([SYMBOLIC, SYMBOLIC], [P1, other], TWO)
    assert_matches_direct_convolution(
        local_expansion(sys_, center, convention, order), TWO, order
    )


def test_recurrence_matches_direct_convolution_obstructed():
    sys_ = kz_system([0, 1], [P1, OBSTRUCTED_RESIDUE2], TWO)
    assert_matches_direct_convolution(local_expansion(sys_, 1, DERIVED_TAYLOR, 8), TWO, 8)


@pytest.mark.parametrize(
    "points, residues, coupling",
    [
        ((0, 1), (P1, P2), TWO),
        ((0, Fraction(2, 3), Fraction(-5, 7)), tuple(TRANSPOSITIONS), Fraction(6)),
    ],
    ids=("kz-s3", "three-point"),
)
def test_compute_series_matrix_products_grow_linearly(monkeypatch, points, residues, coupling):
    order = 160
    exp = local_expansion(kz_system(points, residues, coupling), 1, DERIVED_TAYLOR, order)
    calls = 0
    int_calls = 0
    solve_levels = []
    original = FMatrix.__mul__
    original_solve = frobenius.solve_linear

    def counting_mul(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    def counting(product):
        def wrapped(*args):
            nonlocal int_calls
            int_calls += 1
            return product(*args)

        return wrapped

    def recording_solve(a, b):
        # a = level * I - coupling * a_{-1}
        solve_levels.append((a.trace() + coupling * exp.residue.trace()) / exp.n)
        return original_solve(a, b)

    monkeypatch.setattr(FMatrix, "__mul__", counting_mul)
    # the integer kernel's products: w_i * b_q per pole, adjugate * rhs per level
    for name in ("sparse_product", "dense_product"):
        monkeypatch.setattr(frobenius, name, counting(getattr(frobenius, name)))
    monkeypatch.setattr(frobenius, "solve_linear", recording_solve)
    compute_series(exp, coupling, order)
    # m singular points leave a recurrence of length m; the direct
    # convolution would need order^2 / 2 products here
    assert calls <= (len(points) + 3) * order
    assert 0 < int_calls <= (len(points) + 3) * order
    # elimination runs only where chi(level) = 0, at the resonant levels
    ind = indicial_data(exp, coupling)
    assert solve_levels == sorted(p for p in ind.resonant_levels if p > min(ind.resonant_levels))


@pytest.mark.parametrize(
    "points, residues, coupling",
    [
        ((0, 1), (P1, P2), TWO),
        ((0, Fraction(2, 3), Fraction(-5, 7)), tuple(TRANSPOSITIONS), Fraction(6)),
    ],
    ids=("kz-s3", "three-point"),
)
def test_nonresonant_level_builds_one_fraction_per_entry(monkeypatch, points, residues, coupling):
    order = 30
    exp = local_expansion(kz_system(points, residues, coupling), 1, DERIVED_TAYLOR, order + 1)
    resonant = indicial_data(exp, coupling).resonant_levels
    assert min(resonant) + order + 1 not in resonant
    built = 0
    original_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return original_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if "_from_coprime_ints" in vars(Fraction):  # Python >= 3.12 arithmetic
        original_coprime = Fraction._from_coprime_ints

        def counting_coprime(cls, *args):
            nonlocal built
            built += 1
            return original_coprime(*args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))

    def fractions_built(action):
        nonlocal built
        built = 0
        result = action()
        return built, result

    # one more non-resonant level builds no Fraction: the level stays in
    # integer form until its entries are read, one Fraction per entry
    shorter, _ = fractions_built(lambda: compute_series(exp, coupling, order))
    longer, series = fractions_built(lambda: compute_series(exp, coupling, order + 1))
    assert longer == shorter
    last = series.coeffs[-1]
    assert fractions_built(lambda: last.entries)[0] == exp.n**2
    assert fractions_built(lambda: last.entries)[0] == 0


@pytest.mark.parametrize(
    "points, other, convention, order",
    [
        ((SYMBOLIC, SYMBOLIC), P2, LITERAL_PAPER, 20),
        ((SYMBOLIC, SYMBOLIC), OBSTRUCTED_RESIDUE2, LITERAL_PAPER, 8),
        ((0, 1), P2, DERIVED_TAYLOR, 20),
    ],
    ids=("symbolic-golden", "symbolic-obstructed", "numeric-kz-s3"),
)
def test_one_solve_per_resonant_level(monkeypatch, points, other, convention, order):
    exp = local_expansion(kz_system(points, [P1, other], TWO), 1, convention, order)
    levels = []
    original = frobenius.solve_linear

    def recording_solve(a, b):
        # a = level * I - coupling * a_{-1}, graded in symbolic mode
        levels.append((a.trace() + TWO * exp.residue.trace()) / exp.n)
        return original(a, b)

    monkeypatch.setattr(frobenius, "solve_linear", recording_solve)
    try:
        compute_series(exp, TWO, order)
    except ResonanceObstruction as e:
        assert e.level == 2
    # the projector seed needs no solve; level 2 is the one resonant step
    assert levels == [2]


def test_verify_recursion_derives_each_regular_coefficient_once(monkeypatch):
    order = 40
    exp = local_expansion(
        kz_system((0, Fraction(2, 3), Fraction(-5, 7)), tuple(TRANSPOSITIONS), Fraction(6)),
        1,
        DERIVED_TAYLOR,
        order,
    )
    series = compute_series(exp, Fraction(6), order)
    calls = []
    original = type(exp).regular
    monkeypatch.setattr(
        type(exp), "regular", lambda self, r: calls.append(r) or original(self, r)
    )
    assert verify_recursion(series, exp, Fraction(6)).all_ok
    # the convolution reads a_0 .. a_(order-1); re-deriving them per term
    # would take order^2 / 2 calls
    assert sorted(calls) == list(range(order))


def outcome(solve):
    """What a solver produced, with entry types: the leading exponent,
    coefficients and resonance records, or the obstruction's level,
    certificate and right side."""
    try:
        series = solve()
    except ResonanceObstruction as e:
        return ("obstruction", e.level, typed([e.certificate]), typed(e.rhs.entries))
    return (
        series.leading_exponent,
        [typed(b.entries) for b in series.coeffs],
        [(r.level, r.kind, typed(r.kernel), r.certificate) for r in series.resonances],
    )


def assert_matches_fraction_engine(exp, coupling, order):
    assert outcome(lambda: compute_series(exp, coupling, order)) == outcome(
        lambda: fraction_compute_series(exp, coupling, order)
    )


def kz_cases(symbolic: bool):
    """(expansion, coupling, order) for an integer-residue system with n <= 4."""
    return kz_systems(symbolic).map(
        lambda case: (local_expansion(*case), case[0].coupling, case[3])
    )


def obstructed_case(pts, convention):
    exp = local_expansion(kz_system(pts, [P1, OBSTRUCTED_RESIDUE2], TWO), 1, convention, 8)
    return exp, TWO, 8


@pytest.mark.parametrize(
    "pts, convention",
    [((0, 1), DERIVED_TAYLOR), ((SYMBOLIC, SYMBOLIC), LITERAL_PAPER)],
    ids=("numeric", "symbolic"),
)
def test_obstruction_on_a_rank_one_seed_reports_the_full_step(pts, convention):
    # The recursion runs on the one pivot column of the projector seed; the
    # obstruction still reports the full 3 x 3 right side, and the
    # certificate of the full step, as computed on all columns
    exp, coupling, order = obstructed_case(pts, convention)
    assert column_relations(frobenius._seed(exp, coupling, -2)).pivots == (0,)
    with pytest.raises(ResonanceObstruction) as ei:
        compute_series(exp, coupling, order)
    rhs = FMatrix([[22, -22, 0], [-4, 4, 0], [14, -14, 0]]) * Fraction(1, 9)
    assert ei.value.level == 2
    assert same_matrix(ei.value.rhs, exp.grade(rhs, -4))
    certificate = exp.grade(FMatrix([[1, 1, 0]]), 0).row(0)
    assert typed([ei.value.certificate]) == typed([certificate])


@given(case=kz_cases(symbolic=False))
@example(case=obstructed_case((10**18, Fraction(3 * 10**18 + 1, 3)), DERIVED_TAYLOR))
@settings(max_examples=150, deadline=None)
def test_integer_engine_matches_fraction_oracle_numeric(case):
    assert_matches_fraction_engine(*case)


@given(case=kz_cases(symbolic=True))
@example(case=obstructed_case((SYMBOLIC, SYMBOLIC), LITERAL_PAPER))
@example(case=obstructed_case((SYMBOLIC, SYMBOLIC), DERIVED_TAYLOR))
@settings(max_examples=60, deadline=None)
def test_integer_engine_matches_fraction_oracle_symbolic(case):
    assert_matches_fraction_engine(*case)
