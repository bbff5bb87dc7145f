import decimal
import math
from fractions import Fraction

import mpmath
import pytest

from tvf.errors import BudgetExceeded
from tvf.schemes import (
    InfeasibleScheme,
    Quad,
    SchemeError,
    SizeScheme,
    build_scheme,
    epsilon_constants,
    format_real,
    validate_scheme,
)


def test_validate_examples():
    assert validate_scheme([5], 20, 5, 2).ok  # 2*2*5 = 20 <= 20
    assert validate_scheme([5, 3], 20, 5, 2).ok  # j=2: 1.5*5 + 4*3 = 19.5
    res = validate_scheme([5, 4], 20, 5, 2)
    assert not res.ok and res.failing_index == 2  # 23.5 > 20


def test_validate_condition_one():
    assert not validate_scheme([], 10, 3, 1).ok
    assert not validate_scheme([1, 1, 1, 1], 100, 3, 1).ok  # k > q
    bad = validate_scheme([1, 0], 100, 3, 1)
    assert not bad.ok and bad.failing_index == 2
    with pytest.raises(SchemeError):
        validate_scheme([1], 10, 3, 0)


def test_validate_is_exact_with_thirds():
    # j=2 term (1/3 + 1)*3 + 2*s2: exact equality accepted, one more rejected
    assert validate_scheme([3, 1], 6, 4, 1).ok  # 4 + 2 = 6 <= 6
    assert not validate_scheme([3, 2], 6, 4, 1).ok  # 8 > 6
    assert validate_scheme([3, 1], Fraction(6), 4, 1).ok


def test_epsilon_constants_closed_forms():
    c = epsilon_constants(3)
    assert abs(c.a - 2.0) < 1e-15
    assert abs(c.gamma - math.log(2) / 2) < 1e-14
    assert abs(c.k_epsilon - (1 + math.log(2))) < 1e-12
    c2 = epsilon_constants(0.21)
    assert abs(c2.a - 1.1) < 1e-12
    assert abs(c2.gamma - 2.1799) < 5e-4
    assert abs(c2.k_epsilon - 4.4599) < 5e-4
    with pytest.raises(SchemeError):
        epsilon_constants(0)
    with pytest.raises(SchemeError):
        epsilon_constants(-1)


def test_epsilon_constants_against_high_precision():
    mpmath.mp.dps = 40
    for eps in (0.1, 0.21, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 20.0):
        a = mpmath.sqrt(1 + mpmath.mpf(eps))
        gamma = -(1 / a) * mpmath.log(1 - 1 / a)
        k = a - 1 + 2 * gamma
        c = epsilon_constants(eps)
        assert abs(c.a - float(a)) <= 1e-9
        assert abs(c.gamma - float(gamma)) <= 1e-9
        assert abs(c.k_epsilon - float(k)) <= 1e-9


@pytest.mark.parametrize("eps", ["1e-6", "1e-8", "1e-12"])
def test_small_epsilon_constants_against_60_digit_decimal(eps):
    # a - 1 and 1 - 1/a cancel in double precision for small eps; the
    # documented relative error of 1e-12 must hold here too
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        e = decimal.Decimal(eps)
        a = (1 + e).sqrt()
        gamma = -(1 / a) * (1 - 1 / a).ln()
        want = (a, gamma, a - 1 + 2 * gamma)
    c = epsilon_constants(Fraction(eps))
    for got, exact in zip((c.a, c.gamma, c.k_epsilon), want):
        assert abs(decimal.Decimal(got) - exact) <= exact * decimal.Decimal("1e-12")


def test_k_epsilon_ordering_is_checked_not_assumed():
    # sampled evaluation: the constant grows again for large eps
    assert epsilon_constants(8).k_epsilon > epsilon_constants(3).k_epsilon


def test_quad_exact_arithmetic():
    q = Quad.make(0, 1, Fraction(4))  # sqrt(4) collapses
    assert q.r == 0 and q.p == 2
    root2 = Quad.make(0, 1, Fraction(2))
    assert (root2 - Quad.make(1, 0, Fraction(2))).sign() == 1
    assert (root2 - Quad.make(2, 0, Fraction(2))).sign() == -1
    assert root2.floor() == 1
    assert Quad.make(0, -3, Fraction(2)).floor() == -5
    assert (root2 * root2).p == 2
    assert Quad.make(Fraction(7, 2), 0, Fraction(2)).floor() == 3


def test_build_scheme_example():
    built = build_scheme(3, 1000, 10, 40)
    assert built.scheme.sizes[0] == 200
    assert built.coverage >= 1000
    assert built.pre_rounding_covers_target
    assert validate_scheme(built.scheme.sizes, built.scheme.n, 40, 10).ok
    assert built.scheme.n == 4000 and not built.fractional_budget


def test_build_scheme_precondition_gate():
    with pytest.raises(SchemeError):
        build_scheme(3, 1000, 10, 16)  # 16 < K_3 * 10 = 16.93
    build_scheme(3, 1000, 10, 17)  # just above the gate


def test_build_scheme_infeasibility():
    with pytest.raises(InfeasibleScheme):
        build_scheme(3, 1, 10, 40)  # s_1 rounds to 0
    with pytest.raises(SchemeError):
        build_scheme(0, 1000, 10, 40)
    with pytest.raises(SchemeError):
        build_scheme(-2, 1000, 10, 40)


def test_build_scheme_epsilon_three_grid():
    # the grid row where the closed-form constant matches its construction
    c = epsilon_constants(3)
    for delta in (5, 10, 20):
        q = math.ceil(c.k_epsilon * delta) + 1
        for N in (10**3, 10**4):
            built = build_scheme(3, N, delta, q)
            assert built.pre_rounding_covers_target
            k = len(built.scheme.sizes)
            assert built.coverage >= N - 10 * k
            assert validate_scheme(built.scheme.sizes, built.scheme.n, q, delta).ok


def test_build_scheme_budget_counts_terms_and_top_up_blocks():
    built = build_scheme(3, 10, 7, 20, budget=7)  # k = 5 terms, then 2 top-up blocks
    assert (built.blocks_initial, built.blocks_extended) == (5, 2)
    assert build_scheme(3, 10, 7, 20) == built
    for budget, used in ((6, 7), (4, 5)):
        with pytest.raises(BudgetExceeded, match=rf"scheme budget exceeded \({used} > {budget} blocks\)"):
            build_scheme(3, 10, 7, 20, budget=budget)


def test_build_scheme_fractional_budget_flag():
    built = build_scheme("0.5", 999, 5, 40)
    assert built.fractional_budget  # 999 * 1.5 = 1498.5
    assert built.scheme.n == 1498


def test_scheme_json_round_trip():
    s = SizeScheme((5, 3), 20, 5, 2)
    assert SizeScheme.from_obj(s.to_obj()) == s
    with pytest.raises(SchemeError):
        SizeScheme.from_obj({"sizes": [1]})


def test_format_real_twelve_significant_digits():
    assert format_real(1 + math.log(2)) == "1.69314718056"
    assert format_real(2.0) == "2"
