"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime bound.  All comparisons are exact (zero tolerance);
expected values come from the transcribed reference tables and from
independent oracles computed in this file or in support.py."""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from kzrat import (
    DERIVED_TAYLOR,
    LITERAL_PAPER,
    SYMBOLIC,
    FMatrix,
    NotRepresentable,
    Poly,
    RatFunc,
    SolveKind,
    build_kz_s3,
    compute_series,
    denominator_exponents,
    indicial_data,
    kz_system,
    local_expansion,
    point_records,
    propose_denominator,
    reconstruct,
    solve_linear,
    suggest_numerator_degree,
    verify_ode,
    verify_recursion,
)
from kzrat.cli import main, report_to_json
from support import (
    I3,
    P1,
    P2,
    brute_force_regular_coeffs,
    level2_convolution_oracle,
    matrix_expansion_matches,
    table_matrix,
)

TWO = Fraction(2)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL ({description})")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS ({description}) [{elapsed:.3f}s]")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_1_golden_reproduction():
    with criterion(1, "golden reproduction of the reference tables", 1.0):
        sym = build_kz_s3(SYMBOLIC, SYMBOLIC, TWO)
        exp = local_expansion(sym, 1, LITERAL_PAPER, order=4)
        series = compute_series(exp, TWO, order=4)
        assert series.leading_exponent == -2
        for level in (-2, -1, 0, 1):
            assert series.coefficient(level) == table_matrix(level), level
        # level-2 right side, normalized so the step matrix is I - P1:
        # must equal the raw-loop convolution of the tables themselves
        report = verify_recursion(series, exp, TWO)
        normalized = report.at(2).rhs * Fraction(1, 2)
        oracle_ints, power = level2_convolution_oracle()
        assert normalized == FMatrix(oracle_ints) * RatFunc.monomial(power)
        assert normalized == FMatrix(
            [[1, -1, 0], [-1, 1, 0], [0, 0, 0]]
        ) * RatFunc.monomial(-4)


def test_criterion_2_resonant_solvability():
    with criterion(2, "level-2 resonant step is consistent (affine)", 1.0):
        plus1_eigenspace = (
            (Fraction(1), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        )
        for mode_points in ((SYMBOLIC, SYMBOLIC), (0, 1)):
            sys_ = build_kz_s3(*mode_points, TWO)
            conv = LITERAL_PAPER if sys_.is_symbolic else DERIVED_TAYLOR
            exp = local_expansion(sys_, 1, conv, order=5)
            series = compute_series(exp, TWO, order=5)
            rec = series.resonance_at(2)
            assert rec is not None
            assert rec.kind is SolveKind.AFFINE
            assert len(rec.kernel) == 2
            assert rec.kernel == plus1_eigenspace
            for v in rec.kernel:
                col = FMatrix.from_columns([v], 3)
                assert P1 * col == col


def test_criterion_3_rationality_verdict():
    with criterion(3, "rational reconstruction + exact ODE verification", 5.0):
        sys_ = build_kz_s3(0, 1, TWO)
        exp = local_expansion(sys_, 1, DERIVED_TAYLOR, order=14)
        series = compute_series(exp, TWO, order=14)
        den = propose_denominator(sys_)
        assert den == Poly.monomial(2) * (Poly.monomial(1) - 1) ** 2
        # The canonical series carries the z^4-growth component allowed by
        # the spectrum {-2, 2, 4} at infinity, so a numerator bounded by
        # degree 6 is infeasible (first departure at level 5) and the true
        # bound is deg(den) + 4 = 8.
        try:
            reconstruct(series, den, max_num_degree=6)
            raise AssertionError("degree-6 ansatz unexpectedly succeeded")
        except NotRepresentable as exc:
            assert exc.first_unmatched_level == 5
        w = reconstruct(series, den, max_num_degree=8)
        verdict = verify_ode(w, sys_)
        assert verdict.satisfied
        assert verdict.residual.is_zero()
        coeffs = [series.coefficient(p) for p in series.levels()]
        assert matrix_expansion_matches(w, Fraction(0), -2, coeffs)


def test_criterion_4_convention_duality():
    with criterion(4, "literal/derived duality b_p -> (-1)^p b_p", 2.0):
        sym = build_kz_s3(SYMBOLIC, SYMBOLIC, TWO)
        lit = compute_series(
            local_expansion(sym, 1, LITERAL_PAPER, order=13), TWO, order=12
        )
        der = compute_series(
            local_expansion(sym, 1, DERIVED_TAYLOR, order=13), TWO, order=12
        )
        for p in range(-2, 11):
            assert lit.coefficient(p) == der.coefficient(p) * (Fraction(-1) ** p), p


def test_criterion_5_expansion_oracle():
    with criterion(5, "expansion equals brute-force pole series, r <= 15", 1.0):
        for points in ([Fraction(0), Fraction(1)], [Fraction(-1, 2), Fraction(3, 4)]):
            sys_ = kz_system(points, [P1, P2], TWO)
            exp = local_expansion(sys_, 1, DERIVED_TAYLOR, order=15)
            oracle = brute_force_regular_coeffs(points, [P1, P2], 0, 16)
            for r in range(16):
                assert exp.regular(r) == oracle[r], (points, r)


def test_criterion_6_single_singularity_closed_form():
    with criterion(6, "single-pole system terminates and verifies", 1.0):
        for z1 in (Fraction(0), Fraction(2, 5)):
            sys_ = kz_system([z1], [P1], TWO)
            exp = local_expansion(sys_, 1, DERIVED_TAYLOR, order=6)
            series = compute_series(exp, TWO, order=5)
            assert series.coefficient(-2) == I3 - P1
            assert all(series.coefficient(p).is_zero() for p in range(-1, 4))
            den = propose_denominator(sys_)
            assert den == (Poly.monomial(1) - z1) ** 2
            w = reconstruct(series, den, max_num_degree=0)
            assert w.numerator == (I3 - P1).map(lambda e: Poly((e,)))
            verdict = verify_ode(w, sys_)
            assert verdict.satisfied
            assert verdict.residual.is_zero()


def _random_matrix(rng, n, m):
    return FMatrix(
        [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
            for _ in range(n)
        ]
    )


def test_criterion_7_property_suites(tmp_path):
    with criterion(7, "homogeneity, 200 solve certificates, report bytes", 10.0):
        # homogeneity of b_p up to order 20: d-degree is exactly -(p + 2)
        sym = build_kz_s3(SYMBOLIC, SYMBOLIC, TWO)
        exp = local_expansion(sym, 1, LITERAL_PAPER, order=21)
        series = compute_series(exp, TWO, order=20)
        for p in series.levels():
            for row in series.coefficient(p).entries:
                for e in row:
                    coeff, power = e.coeff, e.power
                    assert coeff == 0 or power == -(p + 2), p

        # 200 randomized solves: the defining identities hold exactly
        rng = random.Random(8128)
        for trial in range(200):
            n = rng.randint(1, 4)
            a = _random_matrix(rng, n, n)
            if trial % 2:
                rows = [list(r) for r in a.entries]
                i, j = rng.randrange(n), rng.randrange(n)
                rows[i] = [Fraction(0)] * n if trial % 6 == 1 else list(rows[j])
                a = FMatrix(rows)
            b = _random_matrix(rng, n, rng.randint(1, 2))
            res = solve_linear(a, b)
            if res.kind is SolveKind.INCONSISTENT:
                y = FMatrix([list(res.certificate)])
                assert (y * a).is_zero()
                assert not (y * b).is_zero()
            else:
                assert a * res.particular == b
                for v in res.kernel_basis:
                    assert (a * FMatrix.from_columns([v], n)).is_zero()

        # report round-trip byte identity through the CLI
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "mode": "symbolic",
                    "points": ["symbolic", "symbolic"],
                    "residues": "kz-s3",
                    "coupling": "2",
                    "convention": "literal-paper",
                    "order": 3,
                }
            ),
            encoding="utf-8",
        )
        report_path = tmp_path / "report.json"
        rc = main(
            ["series", "--config", str(cfg_path), "--golden", "--json", str(report_path)]
        )
        assert rc == 0
        text = Path(report_path).read_text()
        assert report_to_json(json.loads(text)) == text


@pytest.mark.parametrize("coupling", (100003, 10000019, 2**61 - 1))
def test_criterion_8_large_coupling(tmp_path, coupling):
    kappa = Fraction(coupling)
    sys_ = build_kz_s3(0, 1, kappa)
    with criterion(8, f"indicial data at coupling {coupling}", 2.0):
        ind = indicial_data(local_expansion(sys_, 1), kappa)
        assert ind.eigenvalues == ((-kappa, 1), (kappa, 2))
        assert ind.unresolved_factor == Poly.one()
    # propose_denominator itself expands z^k (z - 1)^k, of degree 2k; its
    # bit-size-dependent part is the exponent computation
    with criterion(8, f"denominator exponents at coupling {coupling}", 2.0):
        assert denominator_exponents(sys_.points, point_records(sys_)) == (coupling, coupling)
    with criterion(8, f"numerator degree bound at coupling {coupling}", 2.0):
        assert suggest_numerator_degree(sys_, Poly.monomial(2)) == 2 + 2 * coupling
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {"mode": "numeric", "points": ["0", "1"], "coupling": str(coupling)}
        ),
        encoding="utf-8",
    )
    report_path = tmp_path / "report.json"
    with criterion(8, f"kzrat series --order 40 at coupling {coupling}", 2.0):
        rc = main(
            ["series", "--config", str(cfg_path), "--order", "40", "--json", str(report_path)]
        )
        assert rc == 0
        series = json.loads(report_path.read_text())["series"]
        assert series["leading_exponent"] == -coupling
        assert len(series["coefficients"]) == 41
