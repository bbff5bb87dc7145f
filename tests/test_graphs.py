import itertools
import random

import pytest

from tvf.graphs import (
    Graph,
    GraphError,
    ProductVertex,
    cartesian_product,
    closed_neighborhood,
    delete_vertices,
    distance_two_set,
    format_edgelist,
    label_to_product_vertex,
    open_neighborhood,
    parse_edgelist,
    product_label,
    product_with_complete,
    relabeled,
)

from conftest import all_labeled_graphs


def test_constructor_rejects_bad_input():
    with pytest.raises(GraphError):
        Graph([0, 1], [(0, 0)])
    with pytest.raises(GraphError):
        Graph([0, 1], [(0, 2)])
    with pytest.raises(GraphError):
        Graph([0, 0], [])
    with pytest.raises(GraphError):
        Graph([-1], [])


def test_open_neighborhood():
    P3 = Graph.path(3)
    assert open_neighborhood(P3, 1) == {0, 2}
    assert open_neighborhood(Graph.empty(2), 0) == frozenset()
    C5 = Graph.cycle(5)
    for v in C5.vertices:
        assert open_neighborhood(C5, v) == {(v - 1) % 5, (v + 1) % 5}
    with pytest.raises(GraphError):
        open_neighborhood(P3, 9)


def test_distance_two_modes():
    P3 = Graph.path(3)
    assert distance_two_set(P3, 0, "walk") == {2}
    K3 = Graph.complete(3)
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
            G.has_edge(a, b) and G.has_edge(b, c) and G.has_edge(a, c)
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
    H2 = delete_vertices(C5, closed_neighborhood(C5, 0))
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
    K2 = Graph.complete(2)
    square = cartesian_product(K2, K2)
    assert square.n == 4 and square.m == 4
    assert all(square.degree(v) == 2 for v in square.vertices)  # a 4-cycle
    G = Graph([3, 7], [(3, 7)])
    again = cartesian_product(G, Graph.complete(1))
    assert again.n == 2 and again.m == 1
    C5K7 = cartesian_product(Graph.cycle(5), Graph.complete(7))
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
                assert P.degree(a * H.n + b) == G.degree(u) + H.degree(w)
        q = rnd.randint(1, 5)
        PK = product_with_complete(G, q)
        assert PK.max_degree() == G.max_degree() + q - 1


def test_product_labeling_round_trip():
    G = Graph([2, 5, 9], [(2, 5)])
    q = 3
    for pv in (ProductVertex(2, 1), ProductVertex(9, 3), ProductVertex(5, 2)):
        assert label_to_product_vertex(G, q, product_label(G, q, pv)) == pv
    with pytest.raises(GraphError):
        product_label(G, q, ProductVertex(2, 4))
    with pytest.raises(GraphError):
        product_label(G, q, ProductVertex(4, 1))


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
    with pytest.raises(GraphError):
        format_edgelist(Graph([1, 2], [(1, 2)]))
    H, mapping = relabeled(Graph([1, 2], [(1, 2)]))
    assert H.vertices == (0, 1) and mapping == {1: 0, 2: 1}


def test_graphs_are_immutable_values():
    for G in all_labeled_graphs(4):
        H = delete_vertices(G, [0])
        assert 0 in G and 0 not in H
        assert hash(G) == hash(Graph(G.vertices, G.edges))
