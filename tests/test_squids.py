import hashlib
import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tvf.squids
import tvf.vd
from tvf.errors import BudgetExceeded
from tvf.graphs import Graph, induced_subgraph
from tvf.schemes import SizeScheme, validate_scheme
from tvf.squids import (
    RemovalTrace,
    SchemeRunError,
    Squid,
    SquidError,
    df1_check,
    df1_threshold,
    extract_certificate,
    run_df1,
    run_dynamic,
)
from tvf.vd import CertificateBuilder, certificate_from_json, certificate_to_json, verify_certificate

import oracles
from conftest import all_labeled_graphs, same_certificate_dag
from oracles import (
    ProductVertex,
    check_squid,
    complete_graph,
    product_graph,
    product_label,
    product_vertices,
    squid_admissible,
    squid_arms,
    squid_hearts,
)


def _pv(b, r):
    return ProductVertex(b, r)


def _mask(G, q, *pairs):
    return sum(1 << product_label(G, q, _pv(b, r)) for b, r in pairs)


def _residual_set(trace, i):
    return product_vertices(trace.graph, trace.q, trace.nodes.residual[i])


def _pair(trace, label):
    (pv,) = product_vertices(trace.graph, trace.q, 1 << label)
    return pv


def test_df1_threshold_and_check():
    C5 = Graph.cycle(5)
    assert df1_threshold(C5) == 6
    assert df1_check(C5, 7) and not df1_check(C5, 6)
    assert df1_check(Graph.empty(4), 1)
    assert df1_threshold(complete_graph(3), "walk") == 6
    assert df1_threshold(complete_graph(3), "distance") == 4
    with pytest.raises(SquidError):
        df1_check(C5, 0)


def test_squid_validation():
    K2, E3 = complete_graph(2), Graph.empty(3)
    ok = Squid(body=0, kind="I", rows=(1,), mask=_mask(K2, 2, (0, 1), (1, 1)), witness=1)
    check_squid(ok, K2, 2)
    with pytest.raises(SquidError):  # heart outside the vertex set
        check_squid(Squid(body=0, kind="I", rows=(1,), mask=_mask(K2, 2, (0, 2)), witness=1), K2, 2)
    with pytest.raises(SquidError):  # arms need a witness
        check_squid(Squid(body=0, kind="I", rows=(1,), mask=_mask(K2, 2, (0, 1), (1, 1))), K2, 2)
    with pytest.raises(SquidError):  # kind II rows must be i < j
        check_squid(Squid(body=0, kind="II", rows=(2, 1), mask=_mask(K2, 2, (0, 1), (0, 2))), K2, 2)
    with pytest.raises(SquidError):  # arm off the marked rows
        check_squid(
            Squid(body=0, kind="II", rows=(1, 2), mask=_mask(K2, 3, (0, 1), (0, 2), (1, 3))),
            K2,
            3,
        )
    with pytest.raises(SquidError):  # witness must be adjacent
        check_squid(Squid(body=0, kind="I", rows=(1,), mask=_mask(E3, 1, (0, 1)), witness=2), E3, 1)
    with pytest.raises(SquidError):  # a label past the product
        check_squid(Squid(body=0, kind="I", rows=(1,), mask=0b10001, witness=1), K2, 2)


def test_run_df1_single_vertex():
    trace = run_df1(complete_graph(1), 1)
    assert trace.m == 1 and trace.nodes.level[0] == 1
    cert = extract_certificate(trace)
    assert cert.level == 1
    assert verify_certificate(trace.product(), cert).ok
    _, bare, _ = trace.children(0)[-1]
    assert bare.witness is None and not squid_arms(bare, trace.graph, trace.q) and bare.kind == "I"


def test_run_df1_requires_threshold():
    with pytest.raises(SquidError):
        run_df1(Graph.cycle(5), 6)


def test_run_df1_edgeless_products():
    for n in range(1, 4):
        for q in (1, 2):
            trace = run_df1(Graph.empty(n), q)
            cert = extract_certificate(trace)
            assert cert.level == n
            assert verify_certificate(trace.product(), cert).ok


def test_run_df1_small_graphs_with_threshold_plus_one():
    for n in range(0, 5):
        for G in all_labeled_graphs(n):
            q = df1_threshold(G) + 1
            trace = run_df1(G, q)
            cert = extract_certificate(trace)
            assert cert.level == G.n
            assert verify_certificate(trace.product(), cert).ok


def test_run_df1_c5_level_five():
    trace = run_df1(Graph.cycle(5), 7)
    cert = extract_certificate(trace)
    assert cert.level == 5
    assert verify_certificate(trace.product(), cert).ok


def _isolated_in(res, pivot, G):
    for pv in res:
        if pv == pivot:
            continue
        if pv.base == pivot.base or (pv.row == pivot.row and pivot.base in G.neighbors(pv.base)):
            return False
    return True


def _assert_squids_admissible(trace):
    degenerate = 0
    for i, p in enumerate(trace.nodes.pivot):
        if p is None:
            continue
        res, pivot = _residual_set(trace, i), _pair(trace, p)
        *arms, (_, link, _) = trace.children(i)
        for _, squid, _ in arms:
            assert squid_admissible(squid, pivot, res, trace.graph, trace.q), (pivot, squid)
        if link.mask.bit_count() == 1 and not squid_arms(link, trace.graph, trace.q):
            # bare pivot: arises exactly when the pivot is isolated in the
            # residual, where neither membership pattern can apply
            assert _isolated_in(res, pivot, trace.graph)
            degenerate += 1
            continue
        assert squid_admissible(link, pivot, res, trace.graph, trace.q)
    return degenerate


def test_generated_squids_are_admissible_and_well_formed():
    for n in range(0, 4):
        for G in all_labeled_graphs(n):
            trace = run_df1(G, df1_threshold(G) + 1)
            _assert_squids_admissible(trace)
            for i in range(len(trace.nodes.level)):
                for _, squid, _ in trace.children(i):
                    check_squid(squid, G, trace.q)
    _assert_squids_admissible(run_df1(Graph.cycle(5), 7))


def test_body_columns_leave_residuals():
    trace = run_df1(Graph.cycle(5), 7)
    for i in range(len(trace.nodes.level)):
        for _, squid, child in trace.children(i):
            child_res = _residual_set(trace, child)
            assert not any(pv.base == squid.body for pv in child_res)


def test_run_dynamic_p4_example():
    scheme = SizeScheme((1, 1), 20, 5, 2)
    trace = run_dynamic(Graph.path(4), 5, scheme)
    assert trace.m == 2
    assert trace.nodes.block_row[0] == 1
    assert _pair(trace, trace.nodes.pivot[0]) == _pv(0, 1)
    cert = extract_certificate(trace)
    assert cert.level == 2
    assert verify_certificate(trace.product(), cert).ok


def test_run_dynamic_forced_single_block():
    scheme = SizeScheme((1,), 4, 2, 1)
    trace = run_dynamic(complete_graph(2), 2, scheme)
    assert _pair(trace, trace.nodes.pivot[0]) == _pv(0, 1)
    assert squid_hearts(trace.children(0)[-1][1])[0] == _pv(0, 1)
    cert = extract_certificate(trace)
    assert cert.level == 1 and verify_certificate(trace.product(), cert).ok


def test_run_dynamic_preconditions():
    with pytest.raises(SquidError):
        run_dynamic(Graph.empty(3), 2, SizeScheme((1,), 6, 2, 1))
    with pytest.raises(SquidError):  # scheme q mismatch
        run_dynamic(complete_graph(2), 3, SizeScheme((1,), 4, 2, 1))
    with pytest.raises(SquidError):  # invalid inequality for the real delta
        run_dynamic(complete_graph(2), 2, SizeScheme((2, 2), 4, 2, 1))
    with pytest.raises(SquidError):  # budget above the product size
        run_dynamic(complete_graph(2), 2, SizeScheme((1,), 99, 2, 1))


def test_run_dynamic_row_exhaustion_diagnostic():
    # (2,) validates against n = |product| = 4 but one branch empties row 1
    with pytest.raises(SchemeRunError):
        run_dynamic(complete_graph(2), 2, SizeScheme((2,), 4, 2, 1))


def test_dynamic_row_choice_rule_per_branch():
    scheme = SizeScheme((1, 1), 20, 5, 2)
    trace = run_dynamic(Graph.path(4), 5, scheme)
    q, table = trace.q, trace.nodes
    for i, p in enumerate(table.pivot):
        if p is None:
            continue
        # recompute the rule at block boundaries: here every step starts a block
        block_row, rows_used = table.block_row[i], table.rows_used[i]
        used = rows_used[: rows_used.index(block_row)]
        res = _residual_set(trace, i)
        counts = {r: sum(1 for pv in res if pv.row == r) for r in range(1, q + 1)}
        unused = [r for r in range(1, q + 1) if r not in used]
        best = max(counts[r] for r in unused)
        assert counts[block_row] == best
        assert block_row == min(r for r in unused if counts[r] == best)
        pivot = _pair(trace, p)
        assert pivot.row == block_row
        assert pivot.base == min(pv.base for pv in res if pv.row == block_row)


def test_trace_json_round_trips():
    for trace in (
        run_df1(Graph.cycle(5), 7),
        run_dynamic(Graph.path(4), 5, SizeScheme((1, 1), 20, 5, 2)),
    ):
        text = trace.to_json()
        again = RemovalTrace.from_json(text)
        assert again.to_json() == text
        G, q = trace.graph, trace.q
        # the JSON form holds each label as its (base, row) pair
        for i, node_obj in zip(range(len(trace.nodes.level)), json.loads(text)["nodes"], strict=True):
            p = trace.nodes.pivot[i]
            assert node_obj["pivot"] == (None if p is None else list(_pair(trace, p)))
            children = trace.children(i)
            objs = node_obj["children"] + ([] if node_obj["link"] is None else [node_obj["link"]])
            for (w, s, node), child_obj in zip(children, objs, strict=True):
                assert child_obj["node"] == node
                if w is not None:
                    assert child_obj["w"] == list(_pair(trace, w))
                obj = child_obj["squid"]
                vertices = product_vertices(G, q, s.mask)
                assert obj["arms"] == [list(pv) for pv in squid_arms(s, G, q)]
                assert obj["hearts"] == [list(pv) for pv in squid_hearts(s)]
                assert obj["body_rows"] == sorted(pv.row for pv in vertices if pv.base == s.body)
        assert certificate_to_json(extract_certificate(again)) == certificate_to_json(
            extract_certificate(trace)
        )


def test_trace_from_obj_rejects_corruption():
    trace = run_df1(complete_graph(2), 3)
    obj = json.loads(trace.to_json())
    obj["nodes"][0]["residual_size"] += 1
    with pytest.raises(SquidError):
        RemovalTrace.from_obj(obj)


def test_extract_depth_zero():
    trace = run_df1(Graph.empty(0), 1)
    cert = extract_certificate(trace)
    assert cert.level == 0
    assert verify_certificate(trace.product(), cert).ok


def _relabeled_cycle(n, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return Graph(range(n), [(perm[i], perm[(i + 1) % n]) for i in range(n)])


TRACES = {
    "C5xK7": lambda: run_df1(Graph.cycle(5), 7),
    "C6xK7-relabel1": lambda: run_df1(_relabeled_cycle(6, 1), 7),
    "C6xK7-relabel2": lambda: run_df1(_relabeled_cycle(6, 2), 7),
    "P4xK5-dynamic": lambda: run_dynamic(Graph.path(4), 5, SizeScheme((1, 1), 20, 5, 2)),
}

# SHA-256 of each trace's JSON and of its certificate's JSON.  The trace
# digests were recorded when the traces still held (base, row) pairs in
# memory, and the label form must write the same bytes; the certificate
# digests were recorded when extraction first wrote components leaves.
DIGESTS = {
    "C5xK7": (
        "fcfadf51b5f09918452b7bce37f35217e2b9d4ef825f705aae73645e849ccddb",
        "21f28539060ab5c5fafa87e1c74b0d3d905e42900a62c82d5db317499f6630cc",
    ),
    "C6xK7-relabel1": (
        "390c7639f8ce0f1e562bf34504572fe11f6958c81b1d430627dd67698af86f35",
        "0f1d40d88d91adcd1e3c30239abb62c9f9ce54e54f3851eafd78c500f4c250bc",
    ),
    "C6xK7-relabel2": (
        "a36419bed01428c9e7be6081fbb78007c61b695aa59ca7c1c28ac5c49b90cdd2",
        "9f7e39d7706669f0c7fc0508de37723a40e926fdbb290e43c41b352347d039d2",
    ),
    "P4xK5-dynamic": (
        "d8906a60035182c0ae406ca5f80688a1e954a01b7b9c361c626b7af050ac133d",
        "4280bc58c11bc165eb55e97882cec0c397e00435f49944e07dbb082f66a39546",
    ),
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", TRACES)
def test_trace_and_certificate_bytes_are_pinned(name):
    trace = TRACES[name]()
    cert = extract_certificate(trace)
    assert cert.level == trace.m and verify_certificate(trace.product(), cert).ok
    assert (_sha256(trace.to_json()), _sha256(certificate_to_json(cert))) == DIGESTS[name]


@pytest.mark.parametrize("name", TRACES)
def test_pinned_certificates_are_read_without_json_loads(name, monkeypatch):
    # every certificate tvf writes is in the layout the text scanner reads;
    # a silent fall back to json.loads would hide the scanner's saving
    text = certificate_to_json(extract_certificate(TRACES[name]()))
    want = oracles.certificate_from_json(text)

    def refuse(*args, **kwargs):
        raise AssertionError("certificate text went through json.loads")

    monkeypatch.setattr(tvf.vd, "read_json", refuse)
    for variant in (text, text + "\n"):
        got = certificate_from_json(variant)
        assert same_certificate_dag(got, want)
        assert certificate_to_json(got) == text


@pytest.mark.parametrize("name", TRACES)
def test_pinned_traces_are_read_without_a_json_tree(name, monkeypatch):
    # every trace tvf writes is in the layout whose node rows the reader
    # compares as text; a silent fall back to the whole parse would hide
    # that saving, so only the header may go through json.loads
    text = TRACES[name]().to_json()
    loads = json.loads

    def header_only(s, *args, **kwargs):
        assert '"children"' not in s, "trace node rows went through json.loads"
        return loads(s, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("trace text went through read_json")

    monkeypatch.setattr(tvf.squids, "read_json", refuse)
    monkeypatch.setattr(json, "loads", header_only)
    for variant in (text, text + "\n"):
        assert RemovalTrace.from_json(variant).to_json() == text


@pytest.mark.parametrize("G", [Graph.cycle(6), Graph.path(50)], ids=["C6xK7", "P50xK7"])
def test_reading_a_trace_peaks_below_writing_it(G):
    # the read holds the rerun's nodes and one row of text at a time; a JSON
    # tree of the text would cost about twice what writing it does
    text = run_df1(G, 7).to_json()
    tracemalloc.start()
    try:
        run_df1(G, 7).to_json()
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        RemovalTrace.from_json(text)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read_peak < write_peak


WRITER_TRACES = {
    **TRACES,
    "C5xK7-distance": lambda: run_df1(Graph.cycle(5), 7, "distance"),
    # K3's walk threshold is 6, so q = 5 admits only the distance reading
    "K3xK5-distance": lambda: run_df1(complete_graph(3), 5, "distance"),
    "empty": lambda: run_df1(Graph.empty(0), 1),
}


@pytest.mark.parametrize("name", WRITER_TRACES)
def test_trace_writer_matches_the_tree_reference(name):
    trace = WRITER_TRACES[name]()
    assert trace.to_json() == oracles.trace_to_json(trace)


@st.composite
def _df1_inputs(draw):
    """A graph on at most 4 vertices with arbitrary labels, a mode and a q above its threshold."""
    labels = draw(st.lists(st.integers(0, 30), unique=True, max_size=4))
    pairs = list(itertools.combinations(sorted(labels), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    G = Graph(labels, edges)
    mode = draw(st.sampled_from(["walk", "distance"]))
    return G, df1_threshold(G, mode) + draw(st.integers(1, 2)), mode


@settings(max_examples=60, deadline=None)
@given(_df1_inputs())
def test_trace_writer_matches_the_tree_reference_property(inputs):
    G, q, mode = inputs
    trace = run_df1(G, q, mode)
    text = trace.to_json()
    assert text == oracles.trace_to_json(trace)
    assert RemovalTrace.from_json(text).to_json() == text


def _outcome(call, write):
    """write(call()), or the type, message and used count of its error."""
    try:
        result = call()
    except (SquidError, BudgetExceeded) as exc:
        return type(exc), str(exc), getattr(exc, "used", None)
    return write(result)


@st.composite
def _removal_inputs(draw):
    """A graph on at most 7 vertices and 8 edges with arbitrary labels, and
    a df1 run (either mode, q from the threshold, or 1, to 2 above it) or a
    dynamic run with a scheme run_dynamic accepts, with a trace node cap
    and an extraction budget (None: the default), as (G, q, mode or scheme,
    nodes, budget)."""
    how = draw(st.sampled_from(["walk", "distance", "dynamic"]))
    dynamic = how == "dynamic"
    size = draw(st.integers(2 if dynamic else 0, 7))
    labels = draw(st.lists(st.integers(0, 30), unique=True, min_size=size, max_size=size))
    pairs = list(itertools.combinations(sorted(labels), 2))
    edges = st.lists(st.sampled_from(pairs), unique=True, min_size=dynamic, max_size=size + 1)
    edges = draw(edges) if pairs else []
    G = Graph(labels, edges)
    nodes = draw(st.integers(1, 100)) if draw(st.booleans()) else 1500
    budget = draw(st.integers(1, 700)) if draw(st.booleans()) else None
    if not dynamic:
        return G, max(df1_threshold(G, how) + draw(st.integers(0, 2)), 1), how, nodes, budget
    delta, q = G.max_degree(), draw(st.integers(1, 8))
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=min(q, 3))))
    n = G.n * q - draw(st.integers(0, G.n - 1))
    assume(sum(sizes) <= G.n and validate_scheme(sizes, n, q, delta).ok)
    return G, q, SizeScheme(sizes, n, q, delta), nodes, budget


@settings(max_examples=300, deadline=None)
@given(_removal_inputs())
def test_node_table_matches_the_record_engine(inputs):
    # the table writes the record engine's text and extracts its
    # certificate, and a budget stops both at the same node or memo entry
    G, q, how, nodes, budget = inputs
    if isinstance(how, SizeScheme):
        table, record = run_dynamic, oracles.record_run_dynamic
    else:
        table, record = run_df1, oracles.record_run_df1
    want = _outcome(lambda: record(G, q, how, nodes=nodes), lambda trace: trace)
    if type(want) is tuple:
        assert _outcome(lambda: table(G, q, how, nodes=nodes), RemovalTrace.to_json) == want
        return
    got = table(G, q, how, nodes=nodes)
    assert got.to_json() == oracles.trace_to_json(want)
    assert _outcome(lambda: extract_certificate(got, budget), certificate_to_json) == _outcome(
        lambda: oracles.record_extract_certificate(want, budget), certificate_to_json
    )


def _pinned_runs(df1, dynamic):
    """The removals of TRACES run by df1 and dynamic, each under a trace node cap."""
    return {
        "C5xK7": lambda nodes: df1(Graph.cycle(5), 7, nodes=nodes),
        "C6xK7-relabel1": lambda nodes: df1(_relabeled_cycle(6, 1), 7, nodes=nodes),
        "C6xK7-relabel2": lambda nodes: df1(_relabeled_cycle(6, 2), 7, nodes=nodes),
        "P4xK5-dynamic": lambda nodes: dynamic(Graph.path(4), 5, SizeScheme((1, 1), 20, 5, 2), nodes=nodes),
    }


@pytest.mark.parametrize("name", TRACES)
def test_pinned_removals_match_the_record_engine(name):
    run = _pinned_runs(run_df1, run_dynamic)[name]
    record = _pinned_runs(oracles.record_run_df1, oracles.record_run_dynamic)[name]
    got, want = run(None), record(None)
    assert got.to_json() == oracles.trace_to_json(want)
    count = len(got.nodes.level)
    for nodes in (1, count // 2, count - 1):
        stop = _outcome(lambda: record(nodes), oracles.trace_to_json)
        assert stop[:2] == (BudgetExceeded, f"removal budget exceeded ({nodes + 1} > {nodes} trace nodes)")
        assert _outcome(lambda: run(nodes), RemovalTrace.to_json) == stop
    # the df1 products have 140 and 168 edges, so each number here stops
    # their extraction at a memo entry; P4 x K5's needs fewer than its 55 edges
    for budget in (200, 300, 400, None):
        assert _outcome(lambda: extract_certificate(got, budget), certificate_to_json) == _outcome(
            lambda: oracles.record_extract_certificate(want, budget), certificate_to_json
        )


@pytest.mark.parametrize("name", TRACES)
def test_extraction_matches_graph_space_oracle(name):
    trace = TRACES[name]()
    cert = extract_certificate(trace)
    text = certificate_to_json(cert)
    assert text == certificate_to_json(oracles.extract_certificate(trace))
    # writer and reader against the walkers over the expanded tree
    assert text == oracles.certificate_to_json(cert)
    again = certificate_from_json(text)
    assert same_certificate_dag(again, oracles.certificate_from_json(text))
    assert certificate_to_json(again) == text


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"hearts": [[1, 2]]}, "hearts"),
        ({"hearts": [[1, True]]}, "hearts"),
        ({"hearts": [[1.0, 1]]}, "hearts"),
        ({"rows": [4], "hearts": [[1, 4]]}, "rows"),
        ({"rows": [1, 2], "hearts": [[1, 1], [1, 2]]}, r"rows \[1, 2\], not rows \[1\]"),
        ({"kind": "II", "rows": [2, 1], "hearts": [[1, 2], [1, 1]], "witness": None}, r"rows \[2, 1\], not rows \[1\]"),
        ({"kind": "III"}, "kind 'III'"),
        ({"body": 5, "hearts": [[5, 1]]}, "body 5, not body 1"),
        ({"witness": None}, "witness None, not witness 0"),
        ({"witness": 1}, "witness 1, not witness 0"),
    ],
    ids=[
        "hearts", "heart-bool", "heart-float", "row-range", "kind-I-rows", "kind-II-rows", "kind", "body",
        "no-witness", "witness",
    ],
)
def test_trace_from_obj_checks_squid_fields(edit, message):
    # the first arm squid of K2 x K3: body 1 on row 1, witness 0, one arm (0, 1)
    obj = json.loads(run_df1(complete_graph(2), 3).to_json())
    squid = obj["nodes"][0]["children"][0]["squid"]
    assert (squid["body"], squid["kind"], squid["rows"], squid["witness"]) == (1, "I", [1], 0)
    assert squid["arms"] == [[0, 1]]
    RemovalTrace.from_obj(obj)
    obj["nodes"][0]["children"][0]["squid"] = {**squid, **edit}
    with pytest.raises(SquidError, match=f"node 0: .*{message}"):
        RemovalTrace.from_obj(obj)


def test_trace_from_obj_names_the_malformed_node():
    obj = json.loads(run_df1(complete_graph(2), 3).to_json())
    for key, value in (("residual_size", None), ("pivot", [9, 1]), ("children", 5)):
        bad = {**obj, "nodes": [dict(n) for n in obj["nodes"]]}
        if value is None:
            del bad["nodes"][1][key]
        else:
            bad["nodes"][1][key] = value
        with pytest.raises(SquidError, match="node 1"):
            RemovalTrace.from_obj(bad)
    cyclic = {**obj, "nodes": [dict(n) for n in obj["nodes"]]}
    cyclic["nodes"][0]["link"] = {**cyclic["nodes"][0]["link"], "node": 0}
    with pytest.raises(SquidError):
        RemovalTrace.from_obj(cyclic)


@pytest.mark.parametrize(
    "search",
    [
        lambda budget: run_df1(complete_graph(5), 13, budget=budget),
        lambda budget: run_dynamic(Graph.path(4), 5, SizeScheme((2, 1), 20, 5, 2), budget),
    ],
    ids=["df1", "dynamic"],
)
def test_removal_budget_counts_trace_nodes(search):
    # the budget bounds the product's edges too: 520 for K5 x K13 and 55 for
    # P4 x K5, below the 896 and 65 trace nodes
    trace = search(None)
    nodes = len(trace.nodes.level)  # one per (residual, depth, block rows)
    assert search(nodes).to_json() == trace.to_json()
    with pytest.raises(BudgetExceeded) as exc:
        search(nodes - 1)
    assert (exc.value.used, exc.value.limit) == (nodes, nodes - 1)
    assert str(exc.value) == f"removal budget exceeded ({nodes} > {nodes - 1} trace nodes)"


def test_extraction_budget_counts_memo_entries(monkeypatch):
    builders = []

    class Recording(CertificateBuilder):
        def __init__(self, *args):
            super().__init__(*args)
            builders.append(self)

    monkeypatch.setattr(tvf.squids, "CertificateBuilder", Recording)
    trace = run_df1(Graph.cycle(5), 7)
    text = certificate_to_json(extract_certificate(trace))
    # one memo entry per distinct (residual, level) that extraction visits,
    # and one per lift; a residual with at least its level in components is
    # a leaf, and its children are not visited
    P = product_graph(Graph.cycle(5), 7)
    table = trace.nodes
    visited, stack = set(), [0]
    while stack:
        i = stack.pop()
        key = (table.residual[i], table.level[i])
        H = induced_subgraph(P, [v for v in P.vertices if key[0] >> v & 1])
        if key in visited or oracles.component_count(H) >= key[1]:
            continue
        visited.add(key)
        stack += [node for _, _, node in trace.children(i)]
    assert 0 < len(visited) < len(set(zip(table.residual, table.level)))
    entries = len(builders[0].memo)
    assert visited < builders[0].memo.keys()
    assert certificate_to_json(extract_certificate(trace, entries)) == text
    with pytest.raises(BudgetExceeded) as exc:
        extract_certificate(trace, entries - 1)
    assert (exc.value.used, exc.value.limit) == (entries, entries - 1)
    assert str(exc.value) == f"certificate budget exceeded ({entries} > {entries - 1} memo entries)"


@pytest.mark.parametrize(
    "call, used",
    [
        (lambda: run_df1(complete_graph(1), 20000), 199_990_000),
        (lambda: run_dynamic(complete_graph(2), 20000, SizeScheme((1,), 2, 20000, 1)), 400_000_000),
        (lambda: RemovalTrace.from_obj({**json.loads(run_df1(complete_graph(1), 1).to_json()), "q": 10**13}),
         10**13 * (10**13 - 1) // 2),
        (lambda: extract_certificate(run_df1(complete_graph(1), 1)._replace(q=20000)), 199_990_000),
    ],
    ids=["df1", "dynamic", "read", "extract"],
)
def test_product_budget_stops_a_huge_q(call, used):
    with pytest.raises(BudgetExceeded) as exc:
        call()
    assert str(exc.value) == f"product budget exceeded ({used} > 1000000 edges)"
