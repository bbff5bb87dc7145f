import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvf.complexes import (
    BettiVector,
    ComplexError,
    SimplicialComplex,
    betti,
    check_prop_isvd,
    check_shelling,
    deletion,
    faces_by_dim,
    format_facets,
    independence_complex,
    is_vertex_decomposable,
    link,
    parse_facets,
    skeleton,
)
from tvf.errors import BudgetExceeded
from tvf.graphs import Graph
from tvf.vd import max_vd

import oracles
from conftest import all_labeled_graphs
from oracles import complete_graph, delete_vertices, dense_betti

TWO_K2 = Graph([0, 1, 2, 3], [(0, 1), (2, 3)])
EMPTY_COMPLEX = SimplicialComplex([()])
# the six-vertex real projective plane: H_1(RP^2; Z) = Z/2, so its reduced
# rational homology vanishes while over GF(2) it has b_1 = b_2 = 1
RP2 = SimplicialComplex(
    [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
     (2, 3, 5), (3, 4, 6), (2, 4, 5), (2, 4, 6), (3, 5, 6)]
)
# RP^2 on 1 2 3 4 6 7 with a cone from 5 over its triangle 4 6 7.  Its
# 2-boundary reduction meets a pivot whose leading entry is 2 with a column
# whose leading entry is 2 as well, which takes the fraction-free step.
RP2_CONED_TRIANGLE = SimplicialComplex(
    [(1, 2, 6), (1, 2, 7), (1, 3, 4), (1, 3, 7), (1, 4, 6),
     (2, 3, 4), (2, 3, 6), (2, 4, 7), (3, 6, 7), (4, 5, 6, 7)]
)
# Two relabeled copies of RP^2 on 0..7 sharing one triangle.  Its reduction
# clears a leading 3 against a pivot whose leading entry is 2, so the
# fraction-free step has to scale the column before subtracting.
TWO_RP2 = SimplicialComplex(
    [tuple(labels[v - 1] for v in f) for labels in ((0, 6, 7, 5, 1, 2), (5, 7, 3, 4, 2, 6))
     for f in RP2.facets]
)


def _random_complex(rnd, n=5):
    faces = []
    for _ in range(rnd.randint(1, 5)):
        size = rnd.randint(1, 4)
        faces.append(rnd.sample(range(n), min(size, n)))
    return SimplicialComplex(faces)


def _agrees_with_reference(S, R, rnd):
    """S from tvf.complexes equals R from the tuple-based oracle in facets,
    links, deletions, decomposition, shelling checks of shuffled facet orders,
    and Betti numbers."""
    assert (S.facets, S.vertices, S.dim, S.is_pure()) == (R.facets, R.vertices, R.dim, R.is_pure())
    for v in R.vertices:
        assert link(S, v).facets == oracles.link(R, v).facets
        assert deletion(S, v).facets == oracles.deletion(R, v).facets
    decomposition = is_vertex_decomposable(S)
    assert decomposition == oracles.is_vertex_decomposable(R)
    top = [f for f in R.facets if len(f) == R.dim + 1]
    orders = [list(R.facets), top]
    if decomposition.ok:
        orders.append(list(decomposition.shelling))
    for order in orders:
        for _ in range(3):
            assert check_shelling(order) == oracles.check_shelling(order), order
            rnd.shuffle(order)
    assert betti(S).numbers == dense_betti(R.facets)


def test_mask_layer_matches_the_reference_on_independence_complexes(atlas6):
    rnd = random.Random(41)
    for G in atlas6:
        S, R = independence_complex(G), oracles.independence_complex(G)
        for k in range(-1, R.dim + 1):
            _agrees_with_reference(skeleton(S, k), oracles.skeleton(R, k), rnd)


def test_mask_layer_matches_the_reference_on_random_complexes():
    rnd = random.Random(43)
    for _ in range(100):
        S = _random_complex(rnd, n=7)
        R = oracles.SimplicialComplex(S.facets)
        _agrees_with_reference(S, R, rnd)
        _agrees_with_reference(SimplicialComplex(reversed(S.facets)), R, rnd)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 7), max_size=6), max_size=10), st.randoms())
def test_mask_layer_matches_the_reference_on_random_facets(facets, rnd):
    _agrees_with_reference(SimplicialComplex(facets), oracles.SimplicialComplex(facets), rnd)


def test_facet_canonicalization():
    S = SimplicialComplex([(2, 1), (1, 2, 3), (3,)])
    assert S.facets == ((1, 2, 3),)
    assert S.dim == 2 and S.vertices == (1, 2, 3)
    assert SimplicialComplex([]).facets == ((),)
    assert EMPTY_COMPLEX.dim == -1


def test_independence_complex_examples():
    assert independence_complex(Graph.empty(3)).facets == ((0, 1, 2),)
    square = independence_complex(TWO_K2)
    assert square.facets == ((0, 2), (0, 3), (1, 2), (1, 3))
    ind_c5 = independence_complex(Graph.cycle(5))
    assert len(ind_c5.facets) == 5 and all(len(f) == 2 for f in ind_c5.facets)
    assert independence_complex(Graph.empty(0)) == EMPTY_COMPLEX


def test_skeleton():
    square = independence_complex(TWO_K2)
    assert skeleton(square, 5) == square
    assert skeleton(square, -1) == EMPTY_COMPLEX
    pts = skeleton(independence_complex(Graph.path(3)), 0)
    assert pts.facets == ((0,), (1,), (2,))
    with pytest.raises(ComplexError):
        skeleton(square, -2)


def test_link_and_delete():
    simplex = SimplicialComplex([(0, 1, 2)])
    lk, dl = link(simplex, 0), deletion(simplex, 0)
    assert lk.facets == ((1, 2),) and dl.facets == ((1, 2),)
    ind_k2 = independence_complex(complete_graph(2))
    lk2, dl2 = link(ind_k2, 0), deletion(ind_k2, 0)
    assert lk2 == EMPTY_COMPLEX and dl2.facets == ((1,),)
    with pytest.raises(ComplexError):
        link(simplex, 9)


def test_link_delete_equal_independence_of_reduced_graphs(atlas6):
    graphs = [G for n in range(1, 6) for G in all_labeled_graphs(n)]
    graphs.extend(atlas6)  # all 6-vertex graphs up to isomorphism
    for G in graphs:
        ind = independence_complex(G)
        for v in G.vertices:
            lk, dl = link(ind, v), deletion(ind, v)
            assert lk == independence_complex(delete_vertices(G, G.neighbors(v) | {v}))
            assert dl == independence_complex(delete_vertices(G, [v]))


def test_skeleton_commutation_identities():
    rnd = random.Random(13)
    for _ in range(60):
        S = _random_complex(rnd)
        verts = S.vertices
        if not verts:
            continue
        v = rnd.choice(verts)
        for k in range(0, S.dim + 2):
            skel = skeleton(S, k)
            if v in set(skel.vertices):
                assert link(skel, v) == skeleton(link(S, v), k - 1)
                assert deletion(skel, v) == skeleton(deletion(S, v), k)


def test_vertex_decomposable_examples():
    assert is_vertex_decomposable(EMPTY_COMPLEX).ok
    assert is_vertex_decomposable(SimplicialComplex([(0, 1, 2, 3)])).ok
    assert is_vertex_decomposable(SimplicialComplex([(0, 1), (1, 2), (0, 2)])).ok
    assert is_vertex_decomposable(independence_complex(TWO_K2)).ok
    assert not is_vertex_decomposable(SimplicialComplex([(0, 1), (2, 3)])).ok


def test_emitted_shellings_validate():
    rnd = random.Random(17)
    cases = [
        EMPTY_COMPLEX,
        SimplicialComplex([(0, 1, 2)]),
        SimplicialComplex([(0, 1), (1, 2), (0, 2)]),
        independence_complex(TWO_K2),
        independence_complex(Graph.cycle(5)),
    ]
    cases.extend(_random_complex(rnd) for _ in range(40))
    for S in cases:
        result = is_vertex_decomposable(S)
        if result.ok:
            assert check_shelling(result.shelling).ok
            assert sorted(result.shelling) == sorted(S.facets)


def test_shelling_validator_rejects_bad_orders():
    square = independence_complex(TWO_K2)
    bad = ((0, 2), (1, 3), (0, 3), (1, 2))  # second facet meets the first in nothing
    res = check_shelling(bad)
    assert not res.ok and res.index == 1
    assert not check_shelling([]).ok
    assert not check_shelling([(0, 1), (0, 1)]).ok
    assert not check_shelling([(0, 1), (2,)]).ok
    assert not check_shelling([(0, 1), (0, 1, 2)]).ok
    good = ((0, 2), (0, 3), (1, 3), (1, 2))
    assert check_shelling(good).ok
    assert sorted(good) == sorted(square.facets)


def test_betti_examples():
    assert betti(SimplicialComplex([(0, 1, 2)])).numbers == (0, 0, 0, 0)
    square = independence_complex(TWO_K2)
    assert betti(square)[1] == 1 and betti(square)[0] == 0
    assert betti(independence_complex(Graph.cycle(5)))[1] == 1
    assert betti(EMPTY_COMPLEX).numbers == (1,)
    two_points = SimplicialComplex([(0,), (1,)])
    assert betti(two_points)[0] == 1  # reduced: one extra component


def test_betti_over_the_rationals_not_mod_two():
    assert betti(RP2).numbers == (0, 0, 0, 0)
    assert betti(RP2_CONED_TRIANGLE).numbers == (0, 0, 0, 0, 0)
    assert betti(TWO_RP2).numbers == (0, 0, 0, 2)
    # Kozlov: Ind(C_3k+1) is homotopy equivalent to S^(k-1), so Ind(C_16) ~ S^4
    ind_c16 = betti(independence_complex(Graph.cycle(16)))
    assert ind_c16.numbers == (0, 0, 0, 0, 0, 1, 0, 0, 0) and ind_c16[4] == 1


def test_betti_matches_dense_oracle(atlas6):
    cases = [RP2, RP2_CONED_TRIANGLE, TWO_RP2]
    for G in atlas6:
        ind = independence_complex(G)
        cases.extend(skeleton(ind, k) for k in range(-1, ind.dim + 1))
    rnd = random.Random(31)
    cases.extend(_random_complex(rnd, n=7) for _ in range(100))
    cases.extend(independence_complex(Graph.cycle(n)) for n in (14, 16))
    for S in cases:
        assert betti(S).numbers == dense_betti(S.facets), S.facets


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 7), max_size=8), max_size=8))
def test_betti_matches_dense_oracle_on_random_facets(facets):
    S = SimplicialComplex(facets)
    assert betti(S).numbers == dense_betti(S.facets)


def test_euler_characteristic_matches_betti():
    rnd = random.Random(29)
    for _ in range(50):
        S = _random_complex(rnd)
        # alternating sums with matching sign conventions:
        by_dim = faces_by_dim(S)
        euler = sum((-1) ** d * len(fs) for d, fs in by_dim.items())
        b = betti(S)
        assert euler == sum((-1) ** d * b[d] for d in range(-1, S.dim + 1))


def test_faces_are_the_independent_set_masks():
    for n in range(1, 6):
        for G in all_labeled_graphs(n):
            by_dim = faces_by_dim(independence_complex(G))
            independent = {m for m in range(1 << n) if not any(m >> u & m >> v & 1 for u, v in G.edges)}
            assert {f for fs in by_dim.values() for f in fs} == independent
            assert all(fs == tuple(sorted(fs)) and {f.bit_count() for f in fs} == {d + 1} for d, fs in by_dim.items())


def test_budget_exceeded():
    big = SimplicialComplex([tuple(range(20))])
    with pytest.raises(BudgetExceeded):
        faces_by_dim(big, budget=1000)
    with pytest.raises(BudgetExceeded):
        betti(big, budget=1000)


def test_check_prop_examples():
    rep = check_prop_isvd(Graph.empty(3), 3)
    assert rep.passed and rep.betti_numbers.numbers == (0, 0, 0, 0)
    rep2 = check_prop_isvd(TWO_K2, 2)
    assert rep2.passed and rep2.betti_numbers[1] == 1
    rep3 = check_prop_isvd(Graph.path(3), 1)
    assert rep3.passed and rep3.betti_numbers[0] == 2
    assert rep3.shelling is not None and check_shelling(rep3.shelling).ok
    from tvf.vd import VdError

    with pytest.raises(VdError):
        check_prop_isvd(complete_graph(2), 2)


def test_check_prop_at_max_level_small():
    for n in range(1, 5):
        for G in all_labeled_graphs(n):
            assert check_prop_isvd(G, max_vd(G)).passed


def test_facet_file_round_trip():
    square = independence_complex(TWO_K2)
    assert parse_facets(format_facets(square)) == square
    assert parse_facets("") == EMPTY_COMPLEX
    assert parse_facets("# c\n\n0 1\n") == SimplicialComplex([(0, 1)])
    with pytest.raises(ComplexError, match="line 3"):
        parse_facets("0 1\n\n0 y\n")
    with pytest.raises(ComplexError) as bad:
        parse_facets("0 1\n2 " + "7" * 5000 + " 3\n")  # past int()'s digit limit
    assert str(bad.value).startswith("line 2: expected an integer label, got '7777")
    assert len(str(bad.value)) < 200


def test_betti_vector_access():
    b = BettiVector((0, 1, 2))
    assert b[-1] == 0 and b[0] == 1 and b[1] == 2 and b[5] == 0
