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


def _check(A, b):
    x = solve_equality_feasibility(A, b)
    assert x == fraction_simplex(A, b)
    if x is not None:
        assert all(type(v) is F and v >= 0 for v in x)
        assert all(sum(a * v for a, v in zip(row, x)) == bi for row, bi in zip(A, b))
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
    assert solve_equality_feasibility([[1, 1]], [F(1, 2)]) == [F(1, 2), F(0)]
    assert solve_equality_feasibility([[1, 1]], [-1]) is None
    assert solve_equality_feasibility([[F(2, 3), -1]], [-2]) == [F(0), F(2)]
    assert solve_equality_feasibility([[], []], [0, 0]) == []
    assert solve_equality_feasibility([[]], [1]) is None


def test_edge_cases():
    assert solve_equality_feasibility([], []) == []
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
