import copy
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tvf.vd
from tvf.errors import BudgetExceeded
from tvf.graphs import Graph, GraphError, induced_subgraph, mask_labels
from tvf.squids import extract_certificate, run_df1
from tvf.vd import (
    CertificateBuilder,
    CertificateError,
    LeafComponents,
    MaskView,
    Node,
    VdError,
    _Solver,
    assemble_pivot_decomposition,
    build_certificate_degree_bound,
    certificate_from_json,
    certificate_from_obj,
    certificate_to_json,
    is_vd,
    max_vd,
    verify_certificate,
)

import oracles
from conftest import all_labeled_graphs, same_certificate_dag
from oracles import brute_certificate_search, complete_graph, delete_vertices, product_graph

TWO_K2 = Graph([0, 1, 2, 3], [(0, 1), (2, 3)])
L0, L1, L2 = LeafComponents(0), LeafComponents(1), LeafComponents(2)


def _lift_isolated(G, v, cert):
    """Raise cert, for G minus the isolated vertex v, by one level to G."""
    view = MaskView(G)
    return CertificateBuilder(view).lift(view.full, view.index[v], cert)


def test_is_vd_base_cases_and_examples():
    for G in (Graph.empty(0), complete_graph(3), Graph.cycle(4)):
        assert is_vd(G, 0)
    assert is_vd(Graph.empty(3), 3)
    assert is_vd(complete_graph(2), 1)
    assert not is_vd(complete_graph(2), 2)
    assert not is_vd(Graph.path(3), 2)
    with pytest.raises(VdError):
        is_vd(Graph.empty(1), -1)


def test_max_vd_examples():
    assert max_vd(Graph.empty(4)) == 4
    assert max_vd(TWO_K2) == 2
    assert max_vd(Graph.cycle(4)) == 1
    assert max_vd(Graph.empty(0)) == 0


def test_monotonicity_exhaustive_small():
    for n in range(0, 6):
        for G in all_labeled_graphs(n):
            top = max_vd(G)
            for k in range(0, n + 2):
                assert is_vd(G, k) == (k <= top)


def _relabeled(G, rnd):
    labels = rnd.sample(range(10 * G.n + 10), G.n)
    to = dict(zip(G.vertices, labels))
    return Graph(labels, [(to[u], to[v]) for u, v in G.edges])


def _random_graph(rnd, max_n):
    n = rnd.randint(0, max_n)
    p = rnd.random()
    labels = rnd.sample(range(100), n)
    return Graph(labels, [e for e in itertools.combinations(labels, 2) if rnd.random() < p])


def _assert_matches_recursive_solver(G):
    want = oracles.recursive_levels(G)
    assert [is_vd(G, k) for k in range(G.n + 2)] == want, G.edges
    assert max_vd(G) == want.count(True) - 1, G.edges


def test_solver_matches_recursive_solver_on_atlas6(atlas6):
    for G in atlas6:
        _assert_matches_recursive_solver(G)


def test_solver_matches_recursive_solver_on_random_graphs():
    rnd = random.Random(41)
    for _ in range(300):
        _assert_matches_recursive_solver(_random_graph(rnd, 13))


def test_solver_matches_recursive_solver_on_relabeled_benchmark_graphs():
    rnd = random.Random(43)
    C5xK3 = product_graph(Graph.cycle(5), 3)
    for G in (Graph.cycle(13), Graph.path(12), C5xK3):
        _assert_matches_recursive_solver(_relabeled(G, rnd))


@st.composite
def _small_graphs(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(range(n), edges)


@settings(max_examples=200, deadline=None)
@given(_small_graphs())
def test_solver_matches_recursive_solver_property(G):
    _assert_matches_recursive_solver(G)


def test_is_vd_decides_a_2500_vertex_path():
    # the first pivot leaves path components of known level: one search, no nesting
    assert is_vd(Graph.path(2500), 2) is True


def _path_power(n, d):
    """The d-th power of the n-vertex path: i ~ j when 0 < |i - j| <= d."""
    return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, min(n, i + d + 1))])


def test_is_vd_decides_a_deeply_nested_search():
    # each pivot's deletion leaves the graph connected, so the capped searches
    # nest 1056 deep (measured), beyond the interpreter's recursion limit
    assert is_vd(_path_power(1300, 10), 2) is True


def test_level_decisions_stop_at_the_budget():
    # C6 x K3 is at level 4 with a greedy independent-set bound of 6; max_vd
    # and is_vd at k = 5 make 12,505 memo entries, so both stop at 1000
    G = product_graph(Graph.cycle(6), 3)
    with pytest.raises(BudgetExceeded, match=r"^level budget exceeded \(1001 > 1000 memo entries\)$"):
        max_vd(G, budget=1000)
    with pytest.raises(BudgetExceeded):
        is_vd(G, 5, budget=1000)
    assert is_vd(Graph.path(16), 6, budget=1000) is True  # proven within 14 entries


def test_star_with_its_center_labeled_last_is_decided_at_once():
    # lowest-label greedy takes the 16 leaves, bounding the level by 16; the
    # greedy pass from the center bounds it by 1, which level 1 meets
    star = Graph(range(17), [(leaf, 16) for leaf in range(16)])
    assert max_vd(star, budget=50) == 1
    assert is_vd(star, 2, budget=50) is False


def test_level_budget_counts_memo_entries():
    G = product_graph(Graph.cycle(5), 3)
    s = _Solver(G)
    top = s.capped(s.full, G.n)
    entries = len(s._bounds)  # what max_vd's capped search makes
    assert all(s.component(mask) == mask for mask in s._bounds)
    assert max_vd(G, budget=entries) == top == 4
    with pytest.raises(BudgetExceeded) as exc:
        max_vd(G, budget=entries - 1)
    assert (exc.value.used, exc.value.limit) == (entries, entries - 1)


@st.composite
def _interleaved_pairs(draw):
    """Two graphs of at most 5 vertices each, their labels interleaved at random."""
    sizes = draw(st.tuples(st.integers(0, 5), st.integers(0, 5)))
    labels = draw(st.permutations(range(sum(sizes))))
    parts = []
    for vertices in (sorted(labels[: sizes[0]]), sorted(labels[sizes[0] :])):
        pairs = list(itertools.combinations(vertices, 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        parts.append(Graph(vertices, edges))
    return parts


@settings(max_examples=200, deadline=None)
@given(_interleaved_pairs())
def test_levels_add_over_a_disjoint_union(parts):
    G, H = parts
    union = Graph(G.vertices + H.vertices, G.edges + H.edges)
    want = oracles.recursive_levels(union)  # no component split
    level = want.count(True) - 1
    assert level == sum(oracles.recursive_levels(X).count(True) - 1 for X in parts)
    assert max_vd(union) == level
    assert [is_vd(union, k) for k in range(union.n + 2)] == want


def _peeling_keys(G):
    """The (mask, level) pairs that the degree-bound construction memoizes.

    Those are the pairs its peeling reaches on a mask with fewer than k
    components; the others are leaves, built without the memo.
    """
    view = MaskView(G)
    keys = set()

    def walk(mask, k):
        H = induced_subgraph(G, mask_labels(view.verts, mask))
        if oracles.component_count(H) >= k or (mask, k) in keys:
            return
        keys.add((mask, k))
        p = (mask & -mask).bit_length() - 1
        walk(mask & ~view.closed[p], k - 1)
        prefix = 0
        for i in range(len(view.verts)):
            if (view.nbr[p] & mask) >> i & 1:
                walk(mask & ~(view.closed[i] | prefix), k - 1)
                prefix |= 1 << i

    walk(view.full, G.n // (2 * G.max_degree()))
    return keys


@pytest.mark.parametrize("G", [Graph.path(12), Graph.cycle(9), product_graph(Graph.path(12), 2)])
def test_certificate_budget_counts_memo_entries(G, monkeypatch):
    builders = []

    class Recording(CertificateBuilder):
        def __init__(self, *args):
            super().__init__(*args)
            builders.append(self)

    monkeypatch.setattr(tvf.vd, "CertificateBuilder", Recording)
    text = certificate_to_json(build_certificate_degree_bound(G))
    entries = len(builders[0].memo)  # the peeling's keys, and the lifts' beside them
    assert _peeling_keys(G) <= builders[0].memo.keys()
    assert certificate_to_json(build_certificate_degree_bound(G, entries)) == text
    with pytest.raises(BudgetExceeded) as exc:
        build_certificate_degree_bound(G, entries - 1)
    assert (exc.value.used, exc.value.limit) == (entries, entries - 1)
    assert str(exc.value) == f"certificate budget exceeded ({entries} > {entries - 1} memo entries)"


def test_maximal_independent_sets_reach_the_top_level(atlas):
    """Every maximal independent set of a level-k graph has at least k vertices.

    Checked apart from the solver: levels come from the exhaustive
    certificate search and the sets from brute force.
    """
    for G in atlas:
        top = 0
        while brute_certificate_search(G, top + 1) is not None:
            top += 1
        smallest = G.n
        for r in range(G.n + 1):
            for S in itertools.combinations(G.vertices, r):
                chosen = set(S)
                independent = all(not (G.neighbors(v) & chosen) for v in S)
                maximal = all(v in chosen or G.neighbors(v) & chosen for v in G.vertices)
                if independent and maximal:
                    smallest = min(smallest, r)
        assert smallest >= top, G.edges


def test_verify_certificate_hand_cases():
    K2 = complete_graph(2)
    good = Node(0, L1, L0, 1)
    assert verify_certificate(K2, good).ok
    assert verify_certificate(K2, L0).ok
    res = verify_certificate(K2, L2)  # K2 has one component
    assert not res.ok and res.reason == "components leaf at level 2, but the subgraph has 1"


def test_verify_rejects_malformed_trees():
    K2 = complete_graph(2)
    wrong_link_level = Node(0, L1, L1, 1)
    res = verify_certificate(K2, wrong_link_level)
    assert not res.ok and "link child" in res.reason
    wrong_delete_level = Node(0, L0, L0, 1)
    res = verify_certificate(K2, wrong_delete_level)
    assert not res.ok and res.reason == "delete child claims 0, expected 1"
    wrong_pivot = Node(7, L1, L0, 1)
    res = verify_certificate(K2, wrong_pivot)
    assert not res.ok and res.reason == "pivot 7 not in the subgraph"
    # deleting 0 and then 1 leaves the empty graph, which has no component
    emptied = Node(0, Node(1, L1, L0, 1), L0, 1)
    res2 = verify_certificate(K2, emptied)
    assert not res2.ok and res2.path == ("del@0", "del@1")
    assert res2.reason == "components leaf at level 1, but the subgraph has 0"
    level_zero_node = Node(0, L0, L0, 0)
    res3 = verify_certificate(K2, level_zero_node)
    assert not res3.ok and res3.reason == "pivot node at level 0"
    res4 = verify_certificate(K2, (0,))
    assert not res4.ok and res4.reason == "unknown certificate object tuple"


def test_verify_accepts_exactly_the_oracle_trees():
    rnd = random.Random(5)
    for n in range(1, 6):
        graphs = list(all_labeled_graphs(n))
        for G in rnd.sample(graphs, min(12, len(graphs))):
            for k in range(0, n + 1):
                cert = brute_certificate_search(G, k)
                assert (cert is not None) == is_vd(G, k)
                if cert is not None:
                    assert verify_certificate(G, cert).ok


def test_edgeless_certificate_levels():
    # the edgeless graph on n vertices has n components: one leaf at each level up to n
    for n in range(0, 6):
        for k in range(0, n + 1):
            assert verify_certificate(Graph.empty(n), LeafComponents(k)).ok
        res = verify_certificate(Graph.empty(n), LeafComponents(n + 1))
        assert not res.ok and res.reason == f"components leaf at level {n + 1}, but the subgraph has {n}"
        assert build_certificate_degree_bound(Graph.empty(n)) == LeafComponents(n)


def test_build_certificate_examples():
    cert = build_certificate_degree_bound(TWO_K2)  # n=4, delta=1
    assert cert.level == 2 and verify_certificate(TWO_K2, cert).ok
    assert max_vd(TWO_K2) == 2
    C6 = Graph.cycle(6)  # floor(6/4) = 1
    cert6 = build_certificate_degree_bound(C6)
    assert cert6.level == 1 and verify_certificate(C6, cert6).ok
    empty5 = build_certificate_degree_bound(Graph.empty(5))
    assert isinstance(empty5, LeafComponents) and empty5.level == 5


def test_build_certificate_exhaustive_small(atlas):
    graphs = [G for n in range(1, 6) for G in all_labeled_graphs(n)]
    graphs.extend(G for G in atlas if G.n >= 6)  # up to isomorphism beyond that
    for G in graphs:
        cert = build_certificate_degree_bound(G)
        delta = G.max_degree()
        want = G.n if delta == 0 else G.n // (2 * delta)
        assert cert.level == want
        assert verify_certificate(G, cert).ok
        assert max_vd(G) >= want


def test_lift_isolated():
    # single vertex: one component, so the components leaf at level 1
    single = Graph([4], [])
    lifted = _lift_isolated(single, 4, L0)
    assert lifted == LeafComponents(1)
    # K2 plus an isolated vertex, lifting a level-1 certificate to level 2
    G = Graph([0, 1, 2], [(0, 1)])
    base = Node(0, L1, L0, 1)
    assert verify_certificate(delete_vertices(G, [2]), base).ok
    up = _lift_isolated(G, 2, base)
    assert up.level == 2 and verify_certificate(G, up).ok


def test_lift_isolated_randomized_against_verifier():
    rnd = random.Random(23)
    for _ in range(60):
        n = rnd.randint(1, 6)
        graphs = list(all_labeled_graphs(n))
        G = graphs[rnd.randrange(len(graphs))]
        iso = Graph(list(G.vertices) + [n], G.edges)  # n is isolated
        k = max_vd(G)
        cert = brute_certificate_search(G, k)
        assert cert is not None
        up = _lift_isolated(iso, n, cert)
        assert up.level == k + 1
        assert verify_certificate(iso, up).ok
        text = certificate_to_json(up)
        assert text == oracles.certificate_to_json(up)
        assert text == certificate_to_json(oracles.lift_isolated(iso, n, cert))


def test_certificate_json_round_trip():
    G = Graph([0, 1, 2], [(0, 1)])
    cert = _lift_isolated(G, 2, Node(0, L1, L0, 1))
    text = certificate_to_json(cert)
    assert text == (
        '{"level":2,"node":{"del":{"leaf":"components","level":2},'
        '"link":{"leaf":"components","level":1},"pivot":0}}'
    )
    again = certificate_from_json(text)
    assert certificate_to_json(again) == text
    assert verify_certificate(G, again).ok
    # a node may omit its level, which is one above its link child's; a
    # leaf may not, and a leaf level must be a non-negative integer
    assert certificate_from_json('{"node":{"del":{"leaf":"components","level":1},"link":'
                                 '{"leaf":"components","level":0},"pivot":0}}').level == 1
    for bad in ('{"leaf":"components"}', '{"leaf":"components","level":-1}'):
        with pytest.raises(VdError, match="non-negative integer"):
            certificate_from_json(bad)


def test_lift_isolated_has_no_recursion_limit():
    G = Graph(range(2501), [(i, i + 1) for i in range(2499)])  # 2500 is isolated
    cert = _lift_isolated(G, 2500, L0)
    assert cert.level == 1
    assert verify_certificate(G, cert).ok


def test_build_certificate_matches_graph_space_oracle(atlas6):
    for G in atlas6:
        cert = build_certificate_degree_bound(G)
        text = certificate_to_json(cert)
        assert text == oracles.certificate_to_json(cert)
        assert text == certificate_to_json(oracles.build_certificate_degree_bound(G))


def test_assembly_keeps_every_ingredient_check():
    P3 = Graph.path(3)  # pivot 1 with neighbors 0 and 2
    view = MaskView(P3)
    builder = CertificateBuilder(view)
    arms = [L0, L0]

    def assemble(pivot=1, order=(0, 2), arm_certs=arms, link=L0, level=1, mask=view.full):
        return assemble_pivot_decomposition(builder, mask, pivot, list(order), arm_certs, link, level)

    cert = assemble()
    assert certificate_to_json(cert) == certificate_to_json(
        oracles.assemble_pivot_decomposition(P3, 1, [0, 2], arms, L0, 1)
    )
    assert verify_certificate(P3, cert).ok
    for order in ((0,), (0, 2, 2), (0, 0), (2, 0, 9)):
        with pytest.raises(VdError, match="open neighborhood"):
            assemble(order=order)
    with pytest.raises(VdError, match="one arm certificate"):
        assemble(arm_certs=[L0])
    with pytest.raises(VdError, match="level-1"):
        assemble(link=L1)
    with pytest.raises(GraphError):
        assemble(mask=view.full & ~(1 << view.index[1]))  # pivot not in H
    # a lift to level 3 is rebuilt along the pivots, as K2_plus has 2 components
    K2_plus = Graph([0, 1, 2], [(0, 1)])
    with pytest.raises(CertificateError, match="does not exist"):
        _lift_isolated(K2_plus, 2, Node(2, L0, L0, 2))
    with pytest.raises(CertificateError, match="does not exist"):
        _lift_isolated(K2_plus, 2, Node(7, L0, L0, 2))


@pytest.mark.parametrize(
    "text, path",
    [
        ('{"leaf":"any","level":0}', "root"),
        ('{"leaf":"any"}', "root"),
        ('{"leaf":"edgeless","level":1,"vertices":[0]}', "root"),
        ('{"level":1,"node":{"del":{"leaf":"components","level":1},"link":{"leaf":"any","level":0},"pivot":0}}',
         "link"),
        ('{"level":1,"node":{"del":{"leaf":"edgeless","level":1,"vertices":[1]},'
         '"link":{"leaf":"components","level":0},"pivot":0}}', "del"),
    ],
    ids=["any", "any-without-level", "edgeless", "any-as-link", "edgeless-as-delete"],
)
def test_reader_refuses_the_any_and_edgeless_leaves(text, path):
    # both are unrecognized leaf kinds: a components leaf says what either said
    kind = json.loads(text)
    while "node" in kind:
        kind = kind["node"][path]
    with pytest.raises(CertificateError) as exc:
        certificate_from_json(text)
    assert str(exc.value) == f"certificate path {path}: unrecognized leaf kind {kind['leaf']!r}"
    with pytest.raises(CertificateError) as want:
        oracles.certificate_from_json(text)
    assert str(want.value) == str(exc.value)


# ---------------------------------------------------------------------------
# The components leaf
# ---------------------------------------------------------------------------


def _assert_level_is_at_least_the_component_count(G):
    # l(G) >= c(G): each of c(G) components is at level 1, the rest at level 0,
    # and levels add over components
    count = oracles.component_count(G)
    assert oracles.recursive_levels(G)[count], G.edges
    assert verify_certificate(G, LeafComponents(count)).ok
    res = verify_certificate(G, LeafComponents(count + 1))
    assert (res.ok, res.path) == (False, ())
    assert res.reason == f"components leaf at level {count + 1}, but the subgraph has {count}"


def test_level_is_at_least_the_component_count_on_atlas6(atlas6):
    for G in atlas6:
        _assert_level_is_at_least_the_component_count(G)


@settings(max_examples=200, deadline=None)
@given(_small_graphs(10))
def test_level_is_at_least_the_component_count_property(G):
    _assert_level_is_at_least_the_component_count(G)


def test_shared_components_leaf_is_rechecked_at_each_subgraph():
    # One LeafComponents(2) object: valid on the link side, where the
    # subgraph is {1, 2, 3, 4}, and checked again at {4}, where it is wrong.
    leaf = LeafComponents(2)
    inner = Node(2, Node(3, leaf, LeafComponents(1), 2), LeafComponents(1), 2)
    cert = Node(0, Node(1, LeafComponents(3), inner, 3), leaf, 3)
    res = verify_certificate(Graph.empty(5), certificate_from_json(certificate_to_json(cert)))
    assert (res.ok, res.path) == (False, ("del@0", "link@1", "del@2", "del@3"))
    assert res.reason == "components leaf at level 2, but the subgraph has 1"


def test_components_leaf_with_extra_keys_reads_like_the_reference():
    # keys beside leaf and level are ignored, as on the other leaves; such
    # text is not the writer's, so the scanner hands it to the object reader
    for text in ('{"leaf":"components","level":2,"vertices":[0]}', '{"level":2,"leaf":"components","x":null}'):
        got, want = certificate_from_json(text), oracles.certificate_from_json(text)
        assert got == want == LeafComponents(2)
        assert certificate_to_json(got) == '{"leaf":"components","level":2}'


def _c5_certificate_text():
    trace = run_df1(Graph.cycle(5), 7)
    return product_graph(Graph.cycle(5), 7), certificate_to_json(extract_certificate(trace))


def _unique_objects(cert):
    out, stack = {}, [cert]
    while stack:
        c = stack.pop()
        if id(c) not in out:
            out[id(c)] = c
            if isinstance(c, Node):
                stack.extend((c.delete, c.link))
    return out


def test_certificate_text_budget_counts_the_expanded_objects():
    _, text = _c5_certificate_text()
    cert = certificate_from_json(text)
    objects = text.count('"level"')  # one per leaf and per node
    assert len(_unique_objects(cert)) < objects  # a shared subtree counts once per place
    assert certificate_to_json(cert, objects) == text
    error = rf"certificate text budget exceeded \({objects} > {objects - 1} objects\)"
    with pytest.raises(BudgetExceeded, match=error):
        certificate_to_json(cert, objects - 1)


def test_reader_shares_each_distinct_subtree_once():
    _, text = _c5_certificate_text()
    cert = certificate_from_json(text)
    assert certificate_to_json(cert) == text
    objects = _unique_objects(cert)
    # number structures bottom-up, by value only: equal subtrees get equal numbers
    numbers: dict[int, int] = {}
    shapes: dict[tuple, int] = {}
    stack = [(cert, False)]
    while stack:
        c, ready = stack.pop()
        if id(c) in numbers:
            continue
        if isinstance(c, Node) and not ready:
            stack.extend(((c, True), (c.delete, False), (c.link, False)))
            continue
        if isinstance(c, Node):
            shape = ("node", c.pivot, c.level, numbers[id(c.delete)], numbers[id(c.link)])
        else:
            shape = ("components", c.level)
        numbers[id(c)] = shapes.setdefault(shape, len(shapes))
    assert len(shapes) == len(objects)
    assert len(objects) < text.count('"level"')  # the tree itself repeats subtrees


def _first_leveled_leaf(o, path):
    """First leaf above level 0 below JSON object o, del-first, with its path."""
    stack = [(o, path)]
    while stack:
        o, path = stack.pop()
        if "node" in o:
            p = o["node"]["pivot"]
            stack.append((o["node"]["link"], path + (f"link@{p}",)))
            stack.append((o["node"]["del"], path + (f"del@{p}",)))
        elif o["level"] > 0:
            return o, path
    return None


def test_tampered_occurrence_of_shared_subtree_is_reported_at_its_path():
    G, text = _c5_certificate_text()
    obj = json.loads(text)
    cert = certificate_from_json(text)
    # every occurrence of each (shared node, subgraph) pair: JSON steps, verifier path
    occurrences: dict[tuple[int, frozenset], list] = {}
    stack = [(obj, cert, frozenset(G.vertices), (), ())]
    while stack:
        o, c, verts, steps, path = stack.pop()
        if isinstance(c, Node):
            occurrences.setdefault((id(c), verts), []).append((o, steps, path))
            p = c.pivot
            stack.append((o["node"]["del"], c.delete, verts - {p}, steps + ("del",), path + (f"del@{p}",)))
            link_verts = verts - G.neighbors(p) - {p}
            stack.append((o["node"]["link"], c.link, link_verts, steps + ("link",), path + (f"link@{p}",)))
    shared = [
        occ
        for occ in occurrences.values()
        if len(occ) > 1 and _first_leveled_leaf(occ[0][0], ()) is not None
    ]
    occ = max(shared, key=len)  # the verifier skips all but one of these
    for _, steps, path in (occ[0], occ[-1]):
        bad = copy.deepcopy(obj)
        o = bad
        for step in steps:
            o = o["node"][step]
        leaf, leaf_path = _first_leveled_leaf(o, path)
        # the same level, claimed by a pivot node on a vertex the graph lacks
        k = leaf.pop("level")
        leaf.clear()
        leaf.update(level=k, node={
            "del": {"leaf": "components", "level": k}, "link": {"leaf": "components", "level": k - 1}, "pivot": 10**6,
        })
        res = verify_certificate(G, certificate_from_json(json.dumps(bad)))
        assert not res.ok
        assert res.path == leaf_path and res.reason == f"pivot {10**6} not in the subgraph"


def test_shared_leaf_is_rechecked_at_each_subgraph():
    # The reader makes every use of LeafComponents(1) one object.  It is
    # valid where the subgraph is {3} (checked first, on the link side) and
    # wrong where it is empty; skipping it there would accept a false claim.
    link_side = Node(1, Node(2, L1, L0, 1), L0, 1)
    delete_side = Node(1, L2, Node(3, Node(2, L1, L0, 1), L0, 1), 2)
    text = certificate_to_json(Node(0, delete_side, link_side, 2))
    res = verify_certificate(Graph.empty(4), certificate_from_json(text))
    assert not res.ok
    assert res.path == ("del@0", "link@1", "del@3", "del@2")
    assert res.reason == "components leaf at level 1, but the subgraph has 0"


# ---------------------------------------------------------------------------
# The reader and writer against the walkers over the expanded tree
# ---------------------------------------------------------------------------


def _rewrite(o, change):
    """Copy of certificate JSON o with change(obj, is_body) applied to every object."""
    if type(o) is not dict:
        return o
    out = {}
    for key, value in o.items():
        if key == "node" and type(value) is dict:
            body = {k: _rewrite(v, change) if k in ("del", "link") else v for k, v in value.items()}
            change(body, True)
            out[key] = body
        else:
            out[key] = value
    change(out, False)
    return out


def _drop_levels(o, is_body):
    if o.get("leaf") != "components":  # the one level a reader cannot infer
        o.pop("level", None)


def _extra_keys(o, is_body):
    o["note"] = {"leaf": "components", "level": 0}  # a canonical object where no certificate is read


def _reordered_keys(o, is_body):
    items = list(o.items())
    o.clear()
    o.update(reversed(items))


@pytest.mark.parametrize("change", [_drop_levels, _extra_keys, _reordered_keys])
def test_non_canonical_texts_read_like_the_reference(change):
    # tvf's extraction, and the exhaustive search, whose edgeless subgraphs
    # are leaves too
    _, text = _c5_certificate_text()
    P3xK3 = product_graph(Graph.path(3), 3)
    texts = [text, certificate_to_json(brute_certificate_search(P3xK3, max_vd(P3xK3)))]
    objs = [json.loads(text) for text in texts]
    for obj in objs:
        assert any(o.get("leaf") == "components" and o["level"] > 1 for o in _objects(obj))
    rnd = random.Random(5)
    for text, obj in zip(texts, objs):
        everywhere = json.dumps(_rewrite(obj, change))
        somewhere = json.dumps(_rewrite(obj, lambda o, is_body: rnd.random() < 0.3 and change(o, is_body)))
        for variant in (everywhere, somewhere):
            cert = certificate_from_json(variant)
            assert same_certificate_dag(cert, oracles.certificate_from_json(variant))
            assert certificate_to_json(cert) == text


def _objects(o):
    stack = [o]
    while stack:
        o = stack.pop()
        yield o
        if "node" in o:
            stack += [o["node"]["del"], o["node"]["link"]]


_LEAF0 = {"leaf": "components", "level": 0}


def _at(bad, steps, sibling=_LEAF0):
    """Certificate JSON with bad at the del/link path steps, sibling elsewhere."""
    for step in reversed(steps):
        node = {"del": sibling, "link": sibling, "pivot": 0}
        node[step] = bad
        bad = {"level": 1, "node": node}
    return json.dumps(bad)


_VALID = {"level": 1, "node": {"del": {"leaf": "components", "level": 1}, "link": _LEAF0, "pivot": 0}}

_MALFORMED = [
    # the command-line cases
    _at({"level": 1, "node": {"del": _LEAF0, "pivot": 0}}, ["del", "link", "del"]),
    _at({"level": 1, "node": 5}, ["link"]),
    _at({"level": 1, "node": {"del": _LEAF0, "link": _LEAF0, "pivot": "x"}}, ["del"]),
    _at({"leaf": "edgeless", "vertices": ["a"]}, ["del", "del"]),
    '{"level":1,"node":{"del":' * 3000 + '{"leaf": "components", "level": 0}' + ',"link":{"leaf":"components","level":0},"pivot":0}}' * 3000,
    # leaf kinds other than components
    '{"leaf":"edgeless","level":1,"vertices":[0,1]}',
    '{"leaf":"any","level":2}',
    '{"leaf":null,"level":0}',
    # each check, below written subtrees and beside them
    _at({"leaf": "any", "level": 1}, ["link", "del"], _VALID),
    _at({"leaf": "edgeless", "level": 1, "vertices": [0, 1]}, ["del"], _VALID),
    _at({"leaf": "", "level": 0}, ["link"], _VALID),
    _at({"leaf": ["components"], "level": 1}, ["link", "link"], _VALID),
    _at({"leaf": "components", "level": False}, ["del"], _VALID),
    _at({"leaf": "Components", "level": 1}, ["del"], _VALID),
    _at({"level": "2", "node": _VALID["node"]}, ["link"], _VALID),
    _at({"level": 1.0, "node": _VALID["node"]}, ["del"], _VALID),
    _at({"level": 1, "node": {**_VALID["node"], "pivot": True}}, ["del"], _VALID),
    _at({"level": 1, "node": {"del": _VALID, "link": _LEAF0}}, ["link"], _VALID),
    _at({"level": 1, "node": _LEAF0}, ["del"], _VALID),
    _at({"level": 1, "node": [_VALID]}, ["del"], _VALID),
    _at({"leaf": "tree", "level": 0}, ["del", "link"], _VALID),
    _at({}, ["link"], _VALID),
    _at([_LEAF0], ["del"], _VALID),
    _at(3, ["link"], _VALID),
    _at({"leaf": "edgeless", "level": 1, "vertices": [_LEAF0]}, ["del"], _VALID),
    _at({"leaf": "components", "level": _LEAF0}, ["del"], _VALID),
    _at({"level": _LEAF0, "node": _VALID["node"]}, ["del"], _VALID),
    _at({"leaf": _LEAF0, "level": 0}, ["del"], _VALID),
    '[{"leaf":"components","level":0}]',
    "7",
    "null",
    # components leaves: the level is required, a non-negative JSON integer
    '{"leaf":"components","level":-1}',
    '{"leaf":"components"}',
    _at({"leaf": "components", "level": 1.0}, ["del"], _VALID),
    _at({"leaf": "components", "level": True}, ["link", "del"], _VALID),
    _at({"leaf": "components", "level": "1"}, ["link"], _VALID),
    _at({"leaf": "components", "level": None, "vertices": [0]}, ["del", "del"], _VALID),
    _at({"leaf": "components", "level": -3}, ["del"], {"leaf": "components", "level": 0}),
]


@pytest.mark.parametrize("text", _MALFORMED, ids=range(len(_MALFORMED)))
def test_malformed_certificates_fail_like_the_reference(text):
    with pytest.raises(CertificateError) as want:
        oracles.certificate_from_json(text)
    with pytest.raises(CertificateError) as got:
        certificate_from_json(text)
    assert str(got.value) == str(want.value)


def test_writer_rejects_what_the_reference_rejects():
    for bad in (Node(0, L0, (1,), 1), Node(0, 5, L0, 1), None):
        with pytest.raises(CertificateError) as want:
            oracles.certificate_to_json(bad)
        with pytest.raises(CertificateError) as got:
            certificate_to_json(bad)
        assert str(got.value) == str(want.value)


@st.composite
def _certificates(draw):
    """A certificate DAG: each new object may reuse any object made before it."""
    pool = [L0]
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            pool.append(LeafComponents(0))
        elif kind in (1, 4):
            pool.append(LeafComponents(draw(st.integers(0, 6))))
        else:
            delete, link = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
            pool.append(Node(draw(st.integers(0, 9)), delete, link, draw(st.integers(-2, 6))))
    return pool[-1]


@settings(max_examples=300, deadline=None)
@given(_certificates())
def test_certificate_round_trip_matches_the_reference(cert):
    text = certificate_to_json(cert)
    assert text == oracles.certificate_to_json(cert)
    again = certificate_from_json(text)
    assert same_certificate_dag(again, oracles.certificate_from_json(text))
    assert certificate_to_json(again) == text


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 5), st.just(1.0), st.sampled_from(["any", "components", "edgeless", "x"])
)
_LEVELS = st.one_of(st.integers(-1, 4), _SCALARS)


def _json_extend(children):
    """Certificate-shaped JSON over children: mostly as written, often bent or broken."""
    extra = {"level": _LEVELS, "extra": _SCALARS | children}
    vertices = st.lists(st.integers(0, 5), max_size=4) | st.lists(_SCALARS | children, max_size=2) | _SCALARS
    pivot = st.integers(0, 5) | _SCALARS
    body = st.fixed_dictionaries({"del": children, "link": children, "pivot": st.integers(0, 5)})
    bent_body = st.fixed_dictionaries(
        {"del": children, "link": children, "pivot": pivot}, optional={"extra": _SCALARS}
    ) | st.fixed_dictionaries({}, optional={"del": children, "link": children, "pivot": pivot})
    canonical = st.fixed_dictionaries({"level": st.integers(0, 3), "node": body})
    return st.one_of(
        canonical,
        canonical,
        canonical,
        st.fixed_dictionaries({"node": body}, optional=extra),
        st.fixed_dictionaries({"node": bent_body | children | _SCALARS}, optional=extra),
        st.fixed_dictionaries({"leaf": st.just("components")}, optional={**extra, "vertices": vertices}),
        st.fixed_dictionaries({"leaf": _SCALARS | children}, optional={**extra, "vertices": vertices}),
        st.lists(children, max_size=2) | _SCALARS,
    )


_CANONICAL_LEAVES = st.integers(0, 3).map(lambda k: {"leaf": "components", "level": k})


@settings(max_examples=500, deadline=None)
@given(st.recursive(_CANONICAL_LEAVES, _json_extend, max_leaves=12) | _SCALARS)
def test_reader_matches_the_reference_on_any_json(obj):
    # the parse-time reader, and the object reader alone on plain dicts; the
    # compact sorted dump is the writer's layout wherever obj is canonical,
    # so the text scanner reads it
    readers = (certificate_from_json, lambda text: certificate_from_obj(json.loads(text)))
    for text in (json.dumps(obj), json.dumps(obj, separators=(",", ":"), sort_keys=True)):
        try:
            want = oracles.certificate_from_json(text)
        except CertificateError as exc:
            for read in readers:
                with pytest.raises(CertificateError) as got:
                    read(text)
                assert str(got.value) == str(exc)
            continue
        for read in readers:
            got = read(text)
            assert same_certificate_dag(got, want)
            assert certificate_to_json(got) == oracles.certificate_to_json(want)


_BYTES = st.sampled_from('{}[],:"-0123456789 \n\tacdeglmnoprstvx') | st.characters()
_NOT_SPACE = _BYTES.filter(lambda c: c not in " \t\n\r")


@st.composite
def _mutated_certificate_texts(draw):
    """The writer's text of a certificate with one mutation of the kinds the scanner must refuse."""
    text = certificate_to_json(draw(_certificates()))
    kind = draw(st.sampled_from(["delete", "insert", "replace", "integer", "lead", "trail"]))
    if kind == "integer":  # a leading zero, -0 or 5000 digits in place of one integer
        start, end = draw(st.sampled_from([m.span() for m in re.finditer(r"-?[0-9]+", text)]))
        digits = text[start:end].lstrip("-")
        new = draw(st.sampled_from(["0" + digits, "-0" + digits, "-0", "1" * 5000, "-" + "9" * 5000]))
        return text[:start] + new + text[end:]
    if kind == "lead":
        return draw(_NOT_SPACE) + text
    if kind == "trail":
        return text + draw(st.sampled_from(["", " ", "\n"])) + draw(_NOT_SPACE)
    i = draw(st.integers(0, len(text) - (kind != "insert")))
    if kind == "delete":
        return text[:i] + text[i + 1 :]
    return text[:i] + draw(_BYTES) + text[i + (kind == "replace") :]


@settings(max_examples=500, deadline=None)
@given(_mutated_certificate_texts())
def test_mutated_certificate_texts_read_like_the_reference(text):
    # whatever json.loads and the reference make of the text, error or
    # certificate, the reader makes the same
    try:
        want = oracles.certificate_from_json(text)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            certificate_from_json(text)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    assert same_certificate_dag(certificate_from_json(text), want)
