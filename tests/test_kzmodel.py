from fractions import Fraction

import pytest

from kzrat import (
    DERIVED_TAYLOR,
    LITERAL_PAPER,
    SYMBOLIC,
    FMatrix,
    RatFunc,
    build_kz_s3,
    kz_system,
    local_expansion,
    system_matrix_at,
    transposition_matrix,
)
from support import I3, P1, P2, brute_force_regular_coeffs, dual_twist


def test_transposition_examples():
    assert transposition_matrix(3, 1, 2) == FMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert transposition_matrix(3, 1, 3) == FMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert transposition_matrix(2, 1, 2) == FMatrix([[0, 1], [1, 0]])


def test_transposition_index_errors():
    for n, i, j in ((3, 0, 2), (3, 2, 2), (3, 2, 1), (3, 1, 4)):
        with pytest.raises(ValueError):
            transposition_matrix(n, i, j)


def test_transpositions_are_symmetric_involutions():
    for n in range(2, 9):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                t = transposition_matrix(n, i, j)
                assert t * t == FMatrix.identity(n)
                assert t == t.transpose()


def test_build_preset():
    sys_ = build_kz_s3(0, 1, Fraction(2))
    assert sys_.points == (Fraction(0), Fraction(1))
    assert sys_.residues == (P1, P2)
    assert sys_.coupling == 2
    assert not sys_.is_symbolic


def test_build_symbolic_and_coincident():
    sym = build_kz_s3(SYMBOLIC, SYMBOLIC, Fraction(2))
    assert sym.is_symbolic
    assert sym.residues == (P1, P2)
    with pytest.raises(ValueError):
        build_kz_s3(0, 0, Fraction(2))
    with pytest.raises(ValueError):
        build_kz_s3(SYMBOLIC, 1, Fraction(2))


def test_kz_system_validation():
    with pytest.raises(ValueError):
        kz_system([0, 1], [P1], Fraction(2))
    with pytest.raises(ValueError):
        kz_system([0, 1], [P1, FMatrix([[1, 0], [0, 1]])], Fraction(2))
    with pytest.raises(ValueError):
        kz_system([], [], Fraction(2))


def test_system_matrix_examples():
    sys_ = build_kz_s3(0, 1, Fraction(2))
    half = Fraction(1, 2)
    assert system_matrix_at(sys_, 2) == FMatrix(
        [[0, half, 1], [half, 1, 0], [1, 0, half]]
    )
    with pytest.raises(ValueError):
        system_matrix_at(sys_, 0)
    # direct evaluation at z = 1/2: P1/(1/2) + P2/(-1/2) = 2*P1 - 2*P2
    expected = 2 * P1 - 2 * P2
    assert expected == FMatrix([[0, 2, -2], [2, -2, 0], [-2, 0, 2]])
    assert system_matrix_at(sys_, half) == expected


def test_system_matrix_requires_numeric_mode():
    with pytest.raises(ValueError):
        system_matrix_at(build_kz_s3(SYMBOLIC, SYMBOLIC), 2)


def test_local_expansion_symbolic_examples():
    sym = build_kz_s3(SYMBOLIC, SYMBOLIC, Fraction(2))
    lit = local_expansion(sym, 1, LITERAL_PAPER, order=3)
    der = local_expansion(sym, 1, DERIVED_TAYLOR, order=3)
    # a_{-1} equals the residue at the center under either convention
    assert lit.a_minus1 == P1 * RatFunc.one()
    assert der.a_minus1 == P1 * RatFunc.one()
    # literal: a_2 = +P2 / d^3
    assert lit.regular(2) == P2 * RatFunc.monomial(-3)
    # derived: a_0 = -P2 / d
    assert der.regular(0) == P2 * RatFunc.monomial(-1, -1)


def test_literal_requires_symbolic_two_point_mode():
    with pytest.raises(ValueError):
        local_expansion(build_kz_s3(0, 1), 1, LITERAL_PAPER, order=2)


def test_numeric_expansion_matches_brute_force_oracle():
    # paper preset plus a three-point system, orders up to 15
    cases = [
        ([Fraction(0), Fraction(1)], [P1, P2], 0),
        ([Fraction(0), Fraction(1)], [P1, P2], 1),
        ([Fraction(-1, 2), Fraction(3, 4), Fraction(5)], [P1, P2, P1 * P2], 1),
    ]
    for points, residues, center in cases:
        sys_ = kz_system(points, residues, Fraction(2))
        exp = local_expansion(sys_, center + 1, DERIVED_TAYLOR, order=15)
        oracle = brute_force_regular_coeffs(points, residues, center, 16)
        for r in range(16):
            assert exp.regular(r) == oracle[r], (points, center, r)
        assert exp.a_minus1 == residues[center]


def test_truncated_expansion_reproduces_system_matrix():
    # For points (0, 1) the regular part is a_r = -P2, so the truncation
    # error is the closed-form geometric tail -P2 * z^(N+1)/(1-z); the
    # truncated expansion must reproduce A(z) up to exactly that tail.
    sys_ = build_kz_s3(Fraction(0), Fraction(1), Fraction(2))
    n = 12
    exp = local_expansion(sys_, 1, DERIVED_TAYLOR, order=n)
    z = Fraction(1, 10)
    acc = exp.a_minus1 * (Fraction(1) / z)
    for r in range(n + 1):
        acc = acc + exp.regular(r) * z**r
    tail = P2 * (-(z ** (n + 1)) / (1 - z))
    assert acc + tail == system_matrix_at(sys_, z)


def test_convention_duality_on_expansion():
    sym = build_kz_s3(SYMBOLIC, SYMBOLIC, Fraction(2))
    lit = local_expansion(sym, 1, LITERAL_PAPER, order=15)
    der = local_expansion(sym, 1, DERIVED_TAYLOR, order=15)
    for r in range(16):
        # literal(d) = derived(-d), equivalently literal = (-1)^(r+1) derived
        assert lit.regular(r) == dual_twist(der.regular(r))
        assert lit.regular(r) == der.regular(r) * (Fraction(-1) ** (r + 1))


def test_symbolic_homogeneity():
    sym = build_kz_s3(SYMBOLIC, SYMBOLIC, Fraction(2))
    for convention in (LITERAL_PAPER, DERIVED_TAYLOR):
        exp = local_expansion(sym, 1, convention, order=12)
        for r in range(13):
            for row in exp.regular(r).entries:
                for e in row:
                    coeff, power = e.coeff, e.power
                    assert coeff == 0 or power == -(r + 1)


def test_expansion_at_second_point():
    sym = build_kz_s3(SYMBOLIC, SYMBOLIC, Fraction(2))
    exp = local_expansion(sym, 2, DERIVED_TAYLOR, order=2)
    assert exp.a_minus1 == P2 * RatFunc.one()
    # delta = z1 - z2 = -d, so a_0 = -P1/(-d) = P1/d
    assert exp.regular(0) == P1 * RatFunc.monomial(-1)
