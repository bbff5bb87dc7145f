import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvf.ratlp import solve_equality_feasibility

from oracles import fraction_simplex


def _entry(rnd):
    roll = rnd.random()
    if roll < 0.3:
        return 0
    if roll < 0.6:
        return rnd.randint(-3, 3)
    return F(rnd.randint(-9, 9), rnd.randint(1, 7))


def _assert_farkas(A, b, y):
    """y is a coprime integer vector with y^T A >= 0 and y^T b < 0."""
    assert len(y) == len(A) and all(type(v) is int for v in y) and math.gcd(*y) == 1
    n = len(A[0])
    assert all(sum(yi * row[j] for yi, row in zip(y, A)) >= 0 for j in range(n))
    assert sum(yi * bi for yi, bi in zip(y, b)) < 0


def _check(A, b):
    result = solve_equality_feasibility(A, b)
    assert result == fraction_simplex(A, b)
    x, y = result
    assert (x is None) != (y is None)
    if x is not None:
        assert all(type(v) is F and v >= 0 for v in x)
        assert all(sum(a * v for a, v in zip(row, x)) == bi for row, bi in zip(A, b))
    else:
        _assert_farkas(A, b, y)
    return x


def test_matches_reference_on_random_rational_systems():
    rnd = random.Random(11)
    found = {True: 0, False: 0}
    for _ in range(1500):
        m, n = rnd.randint(1, 6), rnd.randint(0, 8)
        A = [[_entry(rnd) for _ in range(n)] for _ in range(m)]
        if rnd.random() < 0.2:
            A[rnd.randrange(m)] = [0] * n
        b = [_entry(rnd) for _ in range(m)]
        found[_check(A, b) is not None] += 1
    assert min(found.values()) > 300  # both answers well represented


def test_matches_reference_on_degenerate_systems():
    # small nonnegative entries, repeated and scaled rows and zero right-hand
    # sides make ratio ties common, so Bland's tie-break decides the pivots
    rnd = random.Random(12)
    for _ in range(800):
        m, n = rnd.randint(2, 5), rnd.randint(2, 7)
        A = [[rnd.choice((0, 0, 1, 2, F(1, 2))) for _ in range(n)] for _ in range(m)]
        b = [rnd.choice((0, 1, 2)) for _ in range(m)]
        src = rnd.randrange(m)
        dst = (src + 1) % m
        scale = rnd.choice((1, 2, F(1, 3)))
        A[dst] = [scale * v for v in A[src]]
        b[dst] = scale * b[src]
        _check(A, b)


def test_negative_right_hand_sides_and_large_denominators():
    rnd = random.Random(13)
    for _ in range(300):
        m, n = rnd.randint(1, 4), rnd.randint(1, 6)
        A = [[F(rnd.randint(-10**6, 10**6), rnd.randint(1, 10**4)) for _ in range(n)] for _ in range(m)]
        b = [F(-rnd.randint(0, 10**6), rnd.randint(1, 10**4)) for _ in range(m)]
        _check(A, b)


def test_hand_examples():
    assert solve_equality_feasibility([[1, 1]], [F(1, 2)]) == ([F(1, 2), F(0)], None)
    assert solve_equality_feasibility([[1, 1]], [-1]) == (None, [1])
    assert solve_equality_feasibility([[F(2, 3), -1]], [-2]) == ([F(0), F(2)], None)
    assert solve_equality_feasibility([[], []], [0, 0]) == ([], None)
    assert solve_equality_feasibility([[]], [1]) == (None, [-1])
    # x1 + x2 = 1 and x1 - x2 = 3 need x2 = -1: the first row minus the
    # second reads 0 x1 + 2 x2 = -2
    assert solve_equality_feasibility([[1, 1], [1, -1]], [1, 3]) == (None, [1, -1])


@pytest.mark.parametrize(
    "A, b",
    [
        ([[1, 1]], [-1]),
        ([[]], [-3]),
        ([[1, 2], [2, 4]], [1, 3]),
        ([[1, 0, -1], [0, 1, 1]], [F(-1, 2), -2]),
        ([[F(1, 3), 1], [-1, F(2, 5)], [0, 1]], [2, -3, F(-7, 4)]),
    ],
    ids=["negative-b", "no-columns", "parallel-rows", "two-negative-rows", "mixed-signs"],
)
def test_farkas_vectors_refute_exactly(A, b):
    x, y = solve_equality_feasibility(A, b)
    assert x is None
    _assert_farkas(A, b, y)
    assert (x, y) == fraction_simplex(A, b)


def test_edge_cases():
    assert solve_equality_feasibility([], []) == ([], None)
    with pytest.raises(ValueError):
        solve_equality_feasibility([[1, 2], [3]], [1, 1])
    with pytest.raises(ValueError):
        solve_equality_feasibility([[1, 2]], [1, 1])


_rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def _systems(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(0, 5))
    A = draw(st.lists(st.lists(_rationals, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(_rationals, min_size=m, max_size=m))
    return A, b


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_matches_reference_property(system):
    _check(*system)
