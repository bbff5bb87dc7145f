import json
import random
from fractions import Fraction as F

import pytest

import tvf.tverberg
from tvf.errors import Budget, BudgetExceeded
from tvf.graphs import Graph
from tvf.tverberg import (
    PointConfiguration,
    TverbergError,
    bertrand_prime,
    corollary_pipeline,
    greedy_extension,
    hulls_intersect,
    is_prime_power,
    parse_points,
    prime_utilities,
    search_witness,
    tverberg_number,
    verify_witness,
    witness_to_obj,
)

from oracles import (
    complete_graph,
    fraction_simplex,
    hulls_intersect_oracle,
    unpruned_search_witness,
)


def _rand_point(rnd, d=2):
    return tuple(F(rnd.randint(-12, 12), rnd.randint(1, 6)) for _ in range(d))


def test_tverberg_number():
    assert tverberg_number(1, 2) == 3
    assert tverberg_number(2, 3) == 7
    assert tverberg_number(2, 2) == 4
    with pytest.raises(TverbergError):
        tverberg_number(0, 2)
    with pytest.raises(TverbergError):
        tverberg_number(2, 1)


def test_hulls_intersect_examples():
    cross = hulls_intersect([[(F(0), F(0)), (F(1), F(1))], [(F(0), F(1)), (F(1), F(0))]])
    assert cross is not None and cross.point == (F(1, 2), F(1, 2))
    assert hulls_intersect([[(F(0), F(0))], [(F(1), F(0))]]) is None
    seg = hulls_intersect([[(F(0),), (F(2),)], [(F(1),)]])
    assert seg is not None and seg.point == (F(1),)
    with pytest.raises(TverbergError):
        hulls_intersect([[(F(0),)], []])
    with pytest.raises(TverbergError):
        hulls_intersect([[(F(0),)], [(F(0), F(1))]])


def test_hulls_intersect_witness_recomputes():
    rnd = random.Random(2)
    for _ in range(40):
        parts = [[_rand_point(rnd) for _ in range(rnd.randint(1, 4))] for _ in range(rnd.randint(2, 3))]
        w = hulls_intersect(parts)
        if w is None:
            continue
        for part, lams in zip(parts, w.coefficients):
            assert sum(lams) == 1 and all(lam >= 0 for lam in lams)
            for i in range(2):
                assert sum(l * p[i] for l, p in zip(lams, part)) == w.point[i]


def test_hulls_intersect_agrees_with_planar_oracle():
    rnd = random.Random(4)
    for _ in range(120):
        parts = [[_rand_point(rnd) for _ in range(rnd.randint(1, 4))] for _ in range(rnd.randint(2, 3))]
        assert (hulls_intersect(parts) is not None) == hulls_intersect_oracle(parts)
    for _ in range(40):  # 1-D as well
        parts = [[_rand_point(rnd, 1) for _ in range(rnd.randint(1, 3))] for _ in range(2)]
        assert (hulls_intersect(parts) is not None) == hulls_intersect_oracle(parts)


def test_search_witness_canonical_example():
    G = Graph.empty(3)
    cfg = PointConfiguration(1, {0: (F(0),), 1: (F(1),), 2: (F(2),)})
    w = search_witness(G, cfg, 2)
    assert w is not None
    assert w.color_classes() == {1: (0, 2), 2: (1,)}
    assert w.common_point == (F(1),)
    assert verify_witness(G, cfg, w, 2)


def test_search_witness_radon():
    G = Graph.empty(4)
    cfg = PointConfiguration(
        2, {0: (F(0), F(0)), 1: (F(4), F(0)), 2: (F(0), F(4)), 3: (F(1), F(1))}
    )
    w = search_witness(G, cfg, 2)
    assert w is not None and verify_witness(G, cfg, w, 2)


def test_verify_witness_requires_q_nonempty_classes():
    rnd = random.Random(5)
    G = Graph.empty(7)
    cfg = PointConfiguration(2, {v: _rand_point(rnd) for v in range(7)})
    w = search_witness(G, cfg, 3)
    assert w is not None and verify_witness(G, cfg, w, 3)
    assert len(w.color_classes()) == 3
    assert not verify_witness(G, cfg, w, 4)  # color 4 is never used


def test_search_witness_chromatic_obstruction():
    K3 = complete_graph(3)
    cfg = PointConfiguration(1, {0: (F(0),), 1: (F(1),), 2: (F(2),)})
    assert search_witness(K3, cfg, 2) is None


def test_search_witness_fewer_vertices_than_colors():
    G = Graph.empty(2)
    cfg = PointConfiguration(1, {0: (F(0),), 1: (F(1),)})
    assert search_witness(G, cfg, 3) is None


def test_search_witness_input_order_independence():
    rnd = random.Random(9)
    pts = {v: _rand_point(rnd) for v in range(5)}
    edges = [(0, 3), (1, 4)]
    a = Graph(range(5), edges)
    b = Graph(reversed(range(5)), list(reversed(edges)))
    cfg = PointConfiguration(2, pts)
    wa = search_witness(a, cfg, 2)
    wb = search_witness(b, cfg, 2)
    assert (wa is None) == (wb is None)
    if wa is not None:
        assert wa.coloring == wb.coloring and wa.common_point == wb.common_point


def test_search_witness_budget():
    rnd = random.Random(1)
    G = Graph.empty(7)
    cfg = PointConfiguration(2, {v: _rand_point(rnd) for v in range(7)})
    with pytest.raises(BudgetExceeded):
        search_witness(G, cfg, 3, budget=3)
    # q = 2: one box test, then the full LP, which is also the pair LP
    same = PointConfiguration(1, {0: (F(0),), 1: (F(0),)})
    assert search_witness(Graph.empty(2), same, 2, budget=2) is not None


def test_random_planar_tverberg_instances():
    rnd = random.Random(0)
    G = Graph.empty(7)
    for _ in range(5):
        cfg = PointConfiguration(2, {v: _rand_point(rnd) for v in range(7)})
        w = search_witness(G, cfg, 3)
        assert w is not None and verify_witness(G, cfg, w, 3)


def test_prime_utilities():
    assert prime_utilities(8) == (True, 7)
    assert prime_utilities(12) == (False, 11)
    assert prime_utilities(2) == (True, 2)
    assert is_prime_power(27) and is_prime_power(31) and not is_prime_power(36)
    assert bertrand_prime(30) == 29
    for q in range(2, 120):
        p = bertrand_prime(q)
        assert p <= q and 2 * p > q  # Bertrand: a prime above q/2
    with pytest.raises(TverbergError):
        prime_utilities(1)


def test_prime_utilities_stop_at_the_division_budget():
    for q in range(2, 300):
        divisions = Budget(None, 10**6, "division", "trial divisions")
        want = (is_prime_power(q, divisions), bertrand_prime(q, divisions))
        used = divisions.used
        assert prime_utilities(q, used) == want
        if used:
            with pytest.raises(BudgetExceeded) as exc:
                prime_utilities(q, used - 1)
            assert (exc.value.used, exc.value.limit) == (used, used - 1)
    # the corollary at q <= 4 finds q_p within 3 divisions, so a small
    # TVF_BUDGET still stops it where its search does
    for q in (2, 3, 4):
        divisions = Budget(None, 10**6, "division", "trial divisions")
        bertrand_prime(q, divisions)
        assert divisions.used <= 3
    # a prime near 1e18 would take 1e9 divisions
    with pytest.raises(BudgetExceeded) as exc:
        prime_utilities(10**18 + 3)
    assert str(exc.value) == "division budget exceeded (1000001 > 1000000 trial divisions)"


def test_greedy_extension():
    G = Graph.path(5)
    full = greedy_extension(G, {0: 1}, 3)
    assert all(full[u] != full[v] for u, v in G.edges)
    with pytest.raises(TverbergError):
        greedy_extension(complete_graph(3), {}, 2)


def test_corollary_pipeline_tiny_instance():
    # d=1, q=3 -> N=5; eps=0.2 makes the scaled size exactly 6
    G = Graph.empty(6)
    cfg = PointConfiguration(1, {i: (F(i),) for i in range(6)})
    rep = corollary_pipeline(G, cfg, 3, "0.2")
    assert rep.witness is not None
    assert rep.all_checks_passed
    assert not rep.fractional_size
    assert rep.q_prime == 3
    assert rep.extended_coloring is not None
    assert verify_witness(
        Graph.empty(len(rep.subgraph_vertices)),
        cfg.restrict(rep.subgraph_vertices),
        rep.witness,
        rep.q_prime,
    )


def test_corollary_pipeline_reports_failures_nonfatally():
    P6 = Graph.path(6)
    cfg = PointConfiguration(1, {i: (F(i),) for i in range(6)})
    rep = corollary_pipeline(P6, cfg, 2, 3)
    names = {c.name: c.passed for c in rep.checks}
    assert names["q_exceeds_k_epsilon_delta"] is False
    assert not rep.all_checks_passed  # reported, not raised


def test_search_rechecks_the_witness_it_returns(monkeypatch):
    rnd = random.Random(5)
    G = Graph.empty(7)  # seven points in the plane always have a 3-partition
    cfg = PointConfiguration(2, {v: _rand_point(rnd) for v in range(7)})
    assert search_witness(G, cfg, 3) is not None
    real = tvf.tverberg.hulls_intersect

    def wrong_point(parts):
        hull = real(parts)
        if hull is None:
            return None
        return tvf.tverberg.HullWitness(tuple(c + 1 for c in hull.point), hull.coefficients)

    monkeypatch.setattr(tvf.tverberg, "hulls_intersect", wrong_point)
    with pytest.raises(TverbergError, match="re-check"):
        search_witness(G, cfg, 3)
    with pytest.raises(TverbergError, match="re-check"):
        corollary_pipeline(G, cfg, 3, F(1, 5))


def test_points_file_round_trip():
    cfg = PointConfiguration(2, {0: (F(1, 2), F(-3)), 7: (F(0), F(5, 7))})
    assert parse_points("0 1/2 -3\n7 0 5/7\n") == cfg
    parsed = parse_points("# c\n3 1/2 -2\n")
    assert parsed.points[3] == (F(1, 2), F(-2))
    with pytest.raises(TverbergError):
        parse_points("3 1 2\n3 4 5\n")
    with pytest.raises(TverbergError):
        parse_points("")
    with pytest.raises(TverbergError):
        parse_points("1 2 3\n4 5\n")


@pytest.mark.parametrize(
    "text, line, token",
    [("0 1 2\na 1 2\n", 2, "'a'"), ("1 x 3\n", 1, "1 x 3"), ("0 1 2\n1 1/0 3\n", 2, "1/0")],
    ids=["vertex-not-integer", "bad-coordinate", "zero-denominator"],
)
def test_points_file_errors_name_the_line(text, line, token):
    with pytest.raises(TverbergError) as exc:
        parse_points(text)
    assert f"line {line}" in str(exc.value) and token in str(exc.value)


def _planar(rnd, n, rational):
    if rational:
        return {v: (F(rnd.randint(-40, 40), rnd.randint(1, 9)), F(rnd.randint(-40, 40), rnd.randint(1, 9)))
                for v in range(n)}
    return {v: (rnd.randrange(1000) * 8 + rnd.randint(-3, 3), rnd.randrange(1000) * 8 + rnd.randint(-3, 3))
            for v in range(n)}


def _outputs(instances):
    """JSON text of every search and corollary result, as the CLI prints it."""
    out = []
    for kind, G, cfg, q in instances:
        if kind == "search":
            w = search_witness(G, cfg, q)
            out.append(json.dumps(None if w is None else witness_to_obj(w), sort_keys=True))
        else:
            out.append(json.dumps(corollary_pipeline(G, cfg, q, F(1, 5)).to_obj(), sort_keys=True))
    return out


def test_search_and_corollary_match_the_fraction_simplex(monkeypatch):
    rnd = random.Random(21)
    instances = [
        ("search", Graph.path(10), PointConfiguration(2, _planar(rnd, 10, False)), 4),
        ("search", Graph.empty(7), PointConfiguration(2, _planar(rnd, 7, False)), 3),
        # nine points in general position have no 4-part partition in the
        # plane, so this search refutes exhaustively
        ("search", Graph.path(9), PointConfiguration(2, _planar(rnd, 9, False)), 4),
        ("corollary", Graph.path(12), PointConfiguration(2, _planar(rnd, 12, False)), 4),
    ]
    for n in (7, 7, 8, 8):
        G = Graph(range(n), [(v, v + 1) for v in range(n - 1) if rnd.random() < 0.5])
        instances.append(("search", G, PointConfiguration(2, _planar(rnd, n, True)), 3))
    instances.append(("corollary", Graph.path(8), PointConfiguration(2, _planar(rnd, 8, True)), 3))
    fast = _outputs(instances)
    assert fast[2] == "null" and any(o != "null" for o in fast)
    monkeypatch.setattr(tvf.tverberg, "solve_equality_feasibility", fraction_simplex)
    assert _outputs(instances) == fast


def _p9_refutation():
    """The P9 instance of test_search_and_corollary_match_the_fraction_simplex."""
    rnd = random.Random(21)
    _planar(rnd, 10, False)
    _planar(rnd, 7, False)
    return Graph.path(9), PointConfiguration(2, _planar(rnd, 9, False)), 4


def _count_lps(monkeypatch, d):
    """The number of parts of every LP run from now on, in call order."""
    real = tvf.tverberg.solve_equality_feasibility
    calls = []

    def counted(A, b):
        # p parts make p convexity rows and (p - 1) * d coordinate rows
        calls.append((len(A) + d) // (d + 1))
        return real(A, b)

    monkeypatch.setattr(tvf.tverberg, "solve_equality_feasibility", counted)
    return calls


def test_pruned_search_makes_fewer_multi_part_lps(monkeypatch):
    G, cfg, q = _p9_refutation()
    calls = _count_lps(monkeypatch, cfg.dimension)
    assert search_witness(G, cfg, q) is None
    pruned = sum(k >= 3 for k in calls)
    calls.clear()
    assert unpruned_search_witness(G, cfg, q) is None
    reference = sum(k >= 3 for k in calls)
    assert pruned < reference


def test_certificates_replace_most_lps_of_the_p9_refutation(monkeypatch):
    # Before Farkas rows and solution supports decided later classes, this
    # search ran 576 LPs (444 pair LPs, 132 with more parts); with them it
    # runs 235 (141 and 94).
    G, cfg, q = _p9_refutation()
    calls = _count_lps(monkeypatch, cfg.dimension)
    assert search_witness(G, cfg, q) is None
    assert len(calls) < 576 // 2


def test_certificates_leave_the_budget_unchanged():
    # a decision read from a certificate spends the unit of the LP it
    # replaces, so the smallest budget that completes the P9 refutation is
    # still the 1409 hull tests it took before certificates
    G, cfg, q = _p9_refutation()
    assert search_witness(G, cfg, q, budget=1409) is None
    with pytest.raises(BudgetExceeded):
        search_witness(G, cfg, q, budget=1408)


def _random_instance(rnd):
    q, d = rnd.randint(1, 4), rnd.randint(1, 3)
    # around the Tverberg number (d+1)(q-1)+1, so both outcomes are common
    n = rnd.randint(max(1, q - 1), min(8, (d + 1) * (q - 1) + 2))
    labels = sorted(rnd.sample(range(3 * n), n)) if rnd.random() < 0.3 else list(range(n))
    p = rnd.choice([0.0, 0.0, 0.15, 0.4])
    edges = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:] if rnd.random() < p]
    span = rnd.choice([2, 12])  # a small span gives repeated and collinear points
    cfg = PointConfiguration(
        d, {v: tuple(F(rnd.randint(-span, span), rnd.randint(1, 4)) for _ in range(d)) for v in labels}
    )
    return Graph(labels, edges), cfg, q


def test_pruned_search_matches_the_unpruned_reference():
    rnd = random.Random(16)
    outcomes = {True: 0, False: 0}
    for _ in range(160):
        G, cfg, q = _random_instance(rnd)
        w, ref = search_witness(G, cfg, q), unpruned_search_witness(G, cfg, q)
        assert w == ref, (G.vertices, G.edges, cfg, q)
        outcomes[w is not None] += 1
    assert min(outcomes.values()) >= 40, outcomes
