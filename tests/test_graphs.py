import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvf.errors import BudgetExceeded
from tvf.graphs import (
    Graph,
    GraphError,
    distance_two_set,
    parse_edgelist,
    product_edgelist,
    product_with_complete,
)

from conftest import all_labeled_graphs
from oracles import (
    cartesian_product,
    complete_graph,
    delete_vertices,
    format_edgelist,
    product_graph,
)


def test_constructor_rejects_bad_input():
    with pytest.raises(GraphError):
        Graph([0, 1], [(0, 0)])
    with pytest.raises(GraphError):
        Graph([0, 1], [(0, 2)])
    with pytest.raises(GraphError):
        Graph([0, 0], [])
    with pytest.raises(GraphError):
        Graph([-1], [])


@st.composite
def _edge_lists(draw):
    """Distinct labels and an edge list over them, with repeats and both orientations."""
    labels = draw(st.lists(st.integers(0, 60), unique=True, max_size=9))
    pairs = [(u, v) for u in labels for v in labels if u != v]
    return labels, draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []


@settings(max_examples=200, deadline=None)
@given(_edge_lists())
def test_masks_neighbors_degrees_and_edges_agree(case):
    labels, edges = case
    G = Graph(labels, edges)
    verts = sorted(labels)
    assert G.vertices == tuple(verts) and G.index == {v: i for i, v in enumerate(verts)}
    adjacent = {v: {b for a, b in edges if a == v} | {a for a, b in edges if b == v} for v in verts}
    assert G.edges == tuple(sorted({(min(e), max(e)) for e in edges}))
    assert len(G.nbr) == G.n and G.max_degree() == max(map(len, adjacent.values()), default=0)
    from_masks = set()
    for i, v in enumerate(verts):
        assert G.neighbors(v) == adjacent[v]
        assert G.nbr[i] == sum(1 << G.index[u] for u in adjacent[v])
        from_masks |= {(v, u) for j, u in enumerate(verts) if G.nbr[i] >> j & 1 and v < u}
    assert from_masks == set(G.edges)


def test_open_neighborhood():
    P3 = Graph.path(3)
    assert P3.neighbors(1) == {0, 2}
    assert Graph.empty(2).neighbors(0) == frozenset()
    C5 = Graph.cycle(5)
    for v in C5.vertices:
        assert C5.neighbors(v) == {(v - 1) % 5, (v + 1) % 5}
    with pytest.raises(GraphError):
        P3.neighbors(9)


def test_distance_two_modes():
    P3 = Graph.path(3)
    assert distance_two_set(P3, 0, "walk") == {2}
    K3 = complete_graph(3)
    assert distance_two_set(K3, 0, "walk") == {1, 2}
    assert distance_two_set(K3, 0, "distance") == frozenset()
    C5 = Graph.cycle(5)
    for v in C5.vertices:
        expect = {(v - 2) % 5, (v + 2) % 5}
        assert distance_two_set(C5, v, "walk") == expect
        assert distance_two_set(C5, v, "distance") == expect
    with pytest.raises(GraphError):
        distance_two_set(P3, 0, "hops")


def test_walk_contains_distance_and_equality_when_triangle_free():
    rnd = random.Random(7)
    for _ in range(80):
        n = rnd.randint(1, 7)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e in pairs if rnd.random() < 0.4]
        G = Graph(range(n), edges)
        triangle_free = not any(
            b in G.neighbors(a) and c in G.neighbors(b) and c in G.neighbors(a)
            for a, b, c in itertools.combinations(range(n), 3)
        )
        for v in G.vertices:
            walk = distance_two_set(G, v, "walk")
            dist = distance_two_set(G, v, "distance")
            assert dist <= walk
            if triangle_free:
                assert dist == walk


def test_delete_vertices():
    P3 = Graph.path(3)
    H = delete_vertices(P3, [1])
    assert H.vertices == (0, 2) and H.m == 0
    assert delete_vertices(P3, []) == P3
    C5 = Graph.cycle(5)
    H2 = delete_vertices(C5, C5.neighbors(0) | {0})
    assert H2.n == 2 and H2.m == 1
    with pytest.raises(GraphError):
        delete_vertices(P3, [5])


def test_delete_composition():
    rnd = random.Random(3)
    for _ in range(40):
        n = rnd.randint(2, 7)
        pairs = list(itertools.combinations(range(n), 2))
        G = Graph(range(n), [e for e in pairs if rnd.random() < 0.5])
        verts = list(G.vertices)
        rnd.shuffle(verts)
        cut = rnd.randint(0, n)
        A, B = set(verts[:cut]), set(verts[cut : cut + rnd.randint(0, n - cut)])
        assert delete_vertices(delete_vertices(G, A), B) == delete_vertices(G, A | B)


def test_cartesian_product_shapes():
    K2 = complete_graph(2)
    square = cartesian_product(K2, K2)
    assert square.n == 4 and square.m == 4
    assert all(len(square.neighbors(v)) == 2 for v in square.vertices)  # a 4-cycle
    G = Graph([3, 7], [(3, 7)])
    again = cartesian_product(G, complete_graph(1))
    assert again.n == 2 and again.m == 1
    C5K7 = cartesian_product(Graph.cycle(5), complete_graph(7))
    assert C5K7.n == 35 and C5K7.m == 5 * 21 + 7 * 5


def test_product_degrees_and_max_degree():
    rnd = random.Random(11)
    for _ in range(20):
        n, h = rnd.randint(1, 4), rnd.randint(1, 4)
        gp = list(itertools.combinations(range(n), 2))
        hp = list(itertools.combinations(range(h), 2))
        G = Graph(range(n), [e for e in gp if rnd.random() < 0.5])
        H = Graph(range(h), [e for e in hp if rnd.random() < 0.5])
        P = cartesian_product(G, H)
        for a, u in enumerate(G.vertices):
            for b, w in enumerate(H.vertices):
                degree = len(G.neighbors(u)) + len(H.neighbors(w))
                assert len(P.neighbors(a * H.n + b)) == degree
        q = rnd.randint(1, 5)
        degrees = [mask.bit_count() for mask in product_with_complete(G, q)]
        assert max(degrees) == G.max_degree() + q - 1


@st.composite
def _graphs_and_q(draw):
    """A graph with arbitrary non-negative labels (isolated vertices
    included) and a q in 1..6."""
    labels = draw(st.lists(st.integers(0, 40), unique=True, max_size=7))
    pairs = list(itertools.combinations(labels, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(labels, edges), draw(st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(_graphs_and_q())
def test_product_masks_match_the_reference_product(case):
    G, q = case
    P = product_graph(G, q)
    assert product_with_complete(G, q) == list(P.nbr)
    assert product_edgelist(G, q) == format_edgelist(P)


def test_large_complete_column_text_matches_the_reference_product():
    # K1 x K_1414: 998,991 edges, all in one column, inside the default
    # budget.  It is K_1414 on the same labels, so format_edgelist of the
    # reference product lists every pair in ascending order; building that
    # Graph takes about 7 s and 690 MB, so the pairs stand in for it.
    text = product_edgelist(Graph.empty(1), 1414)
    pairs = itertools.combinations(range(1414), 2)
    assert text == "p 1414 998991\n" + "".join(f"e {u} {v}\n" for u, v in pairs)


def test_product_budget_counts_edges_before_building():
    C5 = Graph.cycle(5)
    edges = sum(mask.bit_count() for mask in product_with_complete(C5, 7, 140)) // 2
    assert edges == 140  # 5*7 row edges, 5*21 column edges
    with pytest.raises(BudgetExceeded) as exc:
        product_with_complete(C5, 7, 139)
    assert (exc.value.used, exc.value.limit) == (140, 139)
    assert str(exc.value) == "product budget exceeded (140 > 139 edges)"
    # K1 x K_20000 would take gigabytes; the check allocates nothing of its size
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as exc:
            product_with_complete(complete_graph(1), 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "product budget exceeded (199990000 > 1000000 edges)"
    assert peak < 1 << 20


def test_edgelist_round_trip_and_errors():
    text = "# comment\np 4 2\n\ne 0 1\ne 2 3\n"
    G = parse_edgelist(text)
    assert G.n == 4 and G.edges == ((0, 1), (2, 3))
    assert parse_edgelist(format_edgelist(G)) == G
    with pytest.raises(GraphError):
        parse_edgelist("e 0 1\n")
    with pytest.raises(GraphError):
        parse_edgelist("p 2 1\ne 0 5\n")
    with pytest.raises(GraphError):
        parse_edgelist("p 2 2\ne 0 1\n")
    with pytest.raises(GraphError, match="line 2"):
        parse_edgelist("p 2 1\ne 0 x\n")
    with pytest.raises(GraphError, match="line 1"):
        parse_edgelist("p x 1\n")
    with pytest.raises(GraphError, match="line 1: vertex and edge counts must not be negative"):
        parse_edgelist("p -1 0\n")
    with pytest.raises(GraphError, match="line 2: vertex and edge counts must not be negative"):
        parse_edgelist("# comment\np 2 -1\n")
    with pytest.raises(GraphError):
        format_edgelist(Graph([1, 2], [(1, 2)]))


def test_graphs_are_immutable_values():
    for G in all_labeled_graphs(4):
        H = delete_vertices(G, [0])
        assert 0 in G and 0 not in H
        assert hash(G) == hash(Graph(G.vertices, G.edges))
