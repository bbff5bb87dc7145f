import hashlib
import importlib
import io
import itertools
import json
import re
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tvf.cli
import tvf.errors
import tvf.tverberg
from tvf import vd
from tvf.cli import _DOMAIN_ERRORS, main
from tvf.errors import BudgetExceeded, SquidError, read_json
from tvf.graphs import Graph
from tvf.squids import RemovalTrace, run_df1

from conftest import python_process
from oracles import format_edgelist, product_graph

TWO_K2 = "p 4 2\ne 0 1\ne 2 3\n"
K2 = "p 2 1\ne 0 1\n"
C5 = "p 5 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 4 0\n"


@pytest.fixture()
def files(tmp_path):
    (tmp_path / "2k2.txt").write_text(TWO_K2)
    (tmp_path / "k2.txt").write_text(K2)
    (tmp_path / "c5.txt").write_text(C5)
    (tmp_path / "pts.txt").write_text("0 0\n1 1\n2 2\n")
    return tmp_path


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_vd_max_prints_the_number(files, capsys):
    code, out, _ = run(capsys, "vd", "max", "--graph", files / "2k2.txt")
    assert code == 0 and out == "2\n"


def test_vd_check_exit_codes(files, capsys):
    code, out, _ = run(capsys, "vd", "check", "--graph", files / "2k2.txt", "--k", "2")
    assert code == 0 and json.loads(out)["vd"] is True
    code, out, _ = run(capsys, "vd", "check", "--graph", files / "2k2.txt", "--k", "3")
    assert code == 1 and json.loads(out)["vd"] is False


def test_scheme_constants_output(files, capsys):
    code, out, _ = run(capsys, "scheme", "constants", "--epsilon", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["k_epsilon"] == "1.69314718056"


def test_df1_extract_verify_flow(files, capsys):
    trace = files / "trace.json"
    cert = files / "cert.json"
    code, _, _ = run(
        capsys, "squid", "df1", "--graph", files / "k2.txt", "--q", "3",
        "--out", trace, "--cert-out", cert,
    )
    assert code == 0
    code, out, _ = run(
        capsys, "vd", "verify", "--graph-product", files / "k2.txt", "--q", "3",
        "--cert", cert,
    )
    assert code == 0 and json.loads(out)["valid"] is True
    cert2 = files / "cert2.json"
    code, _, _ = run(capsys, "squid", "extract", "--trace", trace, "--out", cert2)
    assert code == 0
    assert cert.read_bytes() == cert2.read_bytes()
    manifest = json.loads((files / "trace.json.manifest.json").read_text())
    assert manifest["command"] == "squid df1"
    assert manifest["inputs"][0]["path"].endswith("k2.txt")
    assert len(manifest["outputs"]) == 2  # trace and certificate


def test_df1_c5_q7_flow_as_documented(files, capsys):
    trace = files / "trace5.json"
    cert = files / "cert5.json"
    code, _, _ = run(
        capsys, "squid", "df1", "--graph", files / "c5.txt", "--q", "7",
        "--out", trace, "--cert-out", cert,
    )
    assert code == 0
    code, out, _ = run(
        capsys, "vd", "verify", "--graph-product", files / "c5.txt", "--q", "7",
        "--cert", cert,
    )
    assert code == 0 and json.loads(out) == {"level": 5, "path": [], "reason": "", "valid": True}
    # the trace replays to the same certificate, also re-indented
    indented = files / "trace5-indented.json"
    indented.write_text(json.dumps(json.loads(trace.read_text()), indent=1))
    for source in (trace, indented):
        code, _, err = run(capsys, "squid", "extract", "--trace", source, "--out", files / "replay.json")
        assert (code, err) == (0, "") and (files / "replay.json").read_bytes() == cert.read_bytes()


def test_vd_verify_rejects_wrong_claim(files, capsys):
    cert = files / "bad.json"
    cert.write_text('{"leaf":"components","level":2}\n')  # K2 has one component
    code, out, _ = run(capsys, "vd", "verify", "--graph", files / "k2.txt", "--cert", cert)
    assert code == 1 and json.loads(out)["valid"] is False


def test_scheme_build_and_validate(files, capsys):
    scheme = files / "scheme.json"
    code, out, _ = run(
        capsys, "scheme", "build", "--epsilon", "3", "--n", "1000",
        "--delta", "10", "--q", "40", "--out", scheme,
    )
    assert code == 0
    report = json.loads(out)
    assert report["coverage"] >= 1000
    code, out, _ = run(capsys, "scheme", "validate", "--file", scheme)
    assert code == 0 and json.loads(out)["valid"] is True
    bad = files / "bad_scheme.json"
    bad.write_text(json.dumps({"sizes": [5, 4], "n": 20, "q": 5, "delta": 2}))
    code, out, _ = run(capsys, "scheme", "validate", "--file", bad)
    assert code == 1 and json.loads(out)["failing_index"] == 2


def test_scheme_build_infeasible_is_domain_error(files, capsys):
    code, _, err = run(
        capsys, "scheme", "build", "--epsilon", "3", "--n", "1000",
        "--delta", "10", "--q", "16",
    )
    assert code == 1 and "error" in err


def test_dynamic_flow(files, capsys):
    (files / "p4.txt").write_text("p 4 3\ne 0 1\ne 1 2\ne 2 3\n")
    scheme = files / "dyn.json"
    scheme.write_text(json.dumps({"sizes": [1, 1], "n": 20, "q": 5, "delta": 2}))
    trace = files / "dyn_trace.json"
    cert = files / "dyn_cert.json"
    code, _, _ = run(
        capsys, "squid", "dynamic", "--graph", files / "p4.txt", "--q", "5",
        "--scheme", scheme, "--out", trace, "--cert-out", cert,
    )
    assert code == 0
    code, out, _ = run(
        capsys, "vd", "verify", "--graph-product", files / "p4.txt", "--q", "5",
        "--cert", cert,
    )
    assert code == 0 and json.loads(out)["level"] == 2
    code, _, _ = run(capsys, "squid", "extract", "--trace", trace, "--out", files / "dyn_replay.json")
    assert code == 0 and (files / "dyn_replay.json").read_bytes() == cert.read_bytes()


def test_graph_commands(files, capsys):
    out_file = files / "prod.txt"
    code, _, _ = run(capsys, "graph", "product", "--graph", files / "k2.txt", "--q", "2", "--out", out_file)
    assert code == 0
    assert out_file.read_text().startswith("p 4 4")
    code, out, _ = run(capsys, "graph", "info", "--graph", files / "c5.txt")
    info = json.loads(out)
    assert info == {
        "df1_threshold_distance": 6,
        "df1_threshold_walk": 6,
        "edges": 5,
        "max_degree": 2,
        "vertices": 5,
    }


def test_complex_commands(files, capsys):
    code, out, _ = run(capsys, "complex", "ind", "--graph", files / "2k2.txt")
    assert code == 0 and out.splitlines() == ["0 2", "0 3", "1 2", "1 3"]
    code, out, _ = run(capsys, "complex", "betti", "--graph", files / "2k2.txt")
    assert code == 0 and json.loads(out)["numbers"] == [0, 0, 1]
    code, out, _ = run(capsys, "complex", "vd", "--graph", files / "2k2.txt")
    assert code == 0 and json.loads(out)["vertex_decomposable"] is True
    facets = files / "facets.txt"
    facets.write_text("0 1\n2 3\n")
    code, out, _ = run(capsys, "complex", "vd", "--facets", facets)
    assert code == 1 and json.loads(out)["vertex_decomposable"] is False
    code, out, _ = run(capsys, "complex", "check-prop", "--graph", files / "2k2.txt", "--k", "2")
    assert code == 0 and json.loads(out)["passed"] is True


def test_tverberg_commands(files, capsys):
    empty3 = files / "e3.txt"
    empty3.write_text("p 3 0\n")
    code, out, _ = run(
        capsys, "tverberg", "search", "--graph", empty3, "--points", files / "pts.txt", "--q", "2"
    )
    assert code == 0
    assert json.loads(out)["witness"]["common_point"] == ["1"]
    k3 = files / "k3.txt"
    k3.write_text("p 3 3\ne 0 1\ne 1 2\ne 0 2\n")
    code, out, _ = run(
        capsys, "tverberg", "search", "--graph", k3, "--points", files / "pts.txt", "--q", "2"
    )
    assert code == 1 and json.loads(out)["witness"] is None
    code, out, _ = run(capsys, "tverberg", "primes", "--q", "8")
    assert code == 0 and json.loads(out) == {"bertrand_prime": 7, "is_prime_power": True}
    code, out, err = run(capsys, "tverberg", "primes", "--q", "1000000000000000003")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "division budget exceeded (1000001 > 1000000 trial divisions)", "kind": "budget"}
    six = files / "e6.txt"
    six.write_text("p 6 0\n")
    pts6 = files / "pts6.txt"
    pts6.write_text("".join(f"{i} {i}\n" for i in range(6)))
    code, out, _ = run(
        capsys, "tverberg", "corollary", "--graph", six, "--points", pts6,
        "--q", "3", "--epsilon", "0.2",
    )
    obj = json.loads(out)
    assert code == 0 and obj["witness_found"] and all(c["passed"] for c in obj["checks"])


def test_budget_exit_code(files, capsys, monkeypatch):
    monkeypatch.setenv("TVF_BUDGET", "2")
    seven = files / "e7.txt"
    seven.write_text("p 7 0\n")
    pts7 = files / "pts7.txt"
    pts7.write_text("".join(f"{i} {i} {i*i}\n" for i in range(7)))
    code, _, err = run(
        capsys, "tverberg", "search", "--graph", seven, "--points", pts7, "--q", "3"
    )
    assert code == 2 and json.loads(err)["kind"] == "budget"


@pytest.mark.parametrize(
    "command",
    [["vd", "max"], ["vd", "check", "--k", "5"], ["complex", "check-prop", "--k", "5"]],
    ids=["vd-max", "vd-check", "check-prop"],
)
def test_level_budget_exit_code(files, capsys, monkeypatch, command):
    # C6 x K3 is at level 4 below a greedy independent-set bound of 6, so
    # k = 5 needs a search; it and max make 12,505 memo entries
    monkeypatch.setenv("TVF_BUDGET", "1000")
    c6k3 = files / "c6k3.txt"
    c6k3.write_text(format_edgelist(product_graph(Graph.cycle(6), 3)))
    code, out, err = run(capsys, *command, "--graph", c6k3)
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "level budget exceeded (1001 > 1000 memo entries)",
        "kind": "budget",
    }


def test_usage_errors_exit_64(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["vd", "max"])  # missing --graph
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["graph", "product", "--graph", str(files / "k2.txt")])  # missing --q
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["vd", "max", "--graph", "x", "--bogus-flag"])
    assert exc.value.code == 64


def test_graph_product_with_a_second_graph_is_gone(files, capsys):
    # G x H for an arbitrary H had no budget; only G x K_q remains
    with pytest.raises(SystemExit) as exc:
        main(["graph", "product", "--graph", str(files / "k2.txt"), "--with", str(files / "k2.txt")])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["graph", "product", "--graph", str(files / "k2.txt"), "--q", "2",
              "--with", str(files / "k2.txt")])
    assert exc.value.code == 64


@pytest.mark.parametrize(
    "text, line",
    [("p 2 1\ne 0 x\n", 2), ("# labels\np x 1\n", 2)],
    ids=["edge-label", "vertex-count"],
)
def test_non_integer_edgelist_token_is_graph_error(files, capsys, text, line):
    (files / "bad.txt").write_text(text)
    code, _, err = run(capsys, "vd", "max", "--graph", files / "bad.txt")
    obj = json.loads(err)
    assert code == 1 and obj["kind"] == "GraphError" and f"line {line}" in obj["error"]


def test_non_integer_facet_label_is_complex_error(files, capsys):
    (files / "facets.txt").write_text("0 1\n0 y\n")
    code, _, err = run(capsys, "complex", "betti", "--facets", files / "facets.txt")
    obj = json.loads(err)
    assert code == 1 and obj["kind"] == "ComplexError" and "line 2" in obj["error"]


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_bad_budget_is_usage_error(files, capsys, monkeypatch, value):
    monkeypatch.setenv("TVF_BUDGET", value)
    code, out, err = run(capsys, "complex", "betti", "--graph", files / "c5.txt")
    obj = json.loads(err)
    assert code == 64 and obj["kind"] == "usage" and "TVF_BUDGET" in obj["error"]
    assert out == ""


def test_domain_error_exit_1(files, capsys):
    code, _, err = run(capsys, "vd", "max", "--graph", files / "missing.txt")
    assert code == 1 and "error" in err
    (files / "garbage.txt").write_text("not a graph\n")
    code, _, err = run(capsys, "vd", "max", "--graph", files / "garbage.txt")
    assert code == 1


def test_stdout_manifest_on_request(files, capsys):
    manifest = files / "m.json"
    code, out, _ = run(
        capsys, "--manifest", manifest, "vd", "max", "--graph", files / "2k2.txt"
    )
    assert code == 0
    obj = json.loads(manifest.read_text())
    assert obj["stdout_sha256"] is not None and obj["version"]
    assert (obj["exit_code"], obj["error_kind"]) == (0, None)
    assert set(obj) == {
        "argv", "command", "duration_seconds", "error_kind", "exit_code", "inputs", "outputs",
        "stdout_sha256", "version",
    }


def test_seed_option_is_gone(files, capsys):
    # no command draws a random number, so there is no seed to set or record
    graph = str(files / "2k2.txt")
    for argv in (["--seed", "0", "vd", "max", "--graph", graph], ["vd", "max", "--graph", graph, "--seed", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
    assert "--seed" not in tvf.cli.build_parser().format_help()
    out = files / "build.json"
    assert run(capsys, "vd", "build", "--graph", files / "2k2.txt", "--out", out)[0] == 0
    assert "seed" not in json.loads((files / "build.json.manifest.json").read_text())


def test_artifacts_span_chunks_and_match_their_digests(files, capsys, monkeypatch):
    # a 1000-character chunk splits every artifact of this flow many times
    monkeypatch.setattr(tvf.cli, "_CHUNK", 1000)
    trace, cert = files / "trace.json", files / "cert.json"
    code, _, _ = run(
        capsys, "squid", "df1", "--graph", files / "c5.txt", "--q", "7",
        "--out", trace, "--cert-out", cert,
    )
    assert code == 0
    expected = run_df1(Graph.cycle(5), 7)
    assert trace.read_bytes() == (expected.to_json() + "\n").encode()
    manifest = json.loads((files / "trace.json.manifest.json").read_text())
    digests = {o["path"]: o["sha256"] for o in manifest["outputs"]}
    assert manifest["inputs"] == [{"path": str(files / "c5.txt"), "sha256": _sha256(files / "c5.txt")}]
    for path in (trace, cert):
        data = path.read_bytes()
        assert len(data) > 3000 and data.endswith(b"}\n") and not data.endswith(b"\n\n")
        assert digests[str(path)] == _sha256(path)
    manifest = files / "m.json"
    code, out, _ = run(capsys, "--manifest", manifest, "squid", "extract", "--trace", trace)
    assert code == 0 and out.encode() == cert.read_bytes()
    obj = json.loads(manifest.read_text())
    assert obj["stdout_sha256"] == _sha256(cert)
    assert obj["inputs"] == [{"path": str(trace), "sha256": _sha256(trace)}]


def test_budget_exit_writes_the_manifest(files, capsys, monkeypatch):
    # certifying P12 at level 3 makes 4 memo entries; C5 at level 1 is one leaf and makes none
    (files / "p12.txt").write_text("p 12 11\n" + "".join(f"e {i} {i + 1}\n" for i in range(11)))
    monkeypatch.setenv("TVF_BUDGET", "1")
    cert = files / "cert.json"
    code, out, err = run(capsys, "vd", "build", "--graph", files / "p12.txt", "--out", cert)
    assert code == 2 and out == "" and json.loads(err)["kind"] == "budget"
    assert not cert.exists()
    obj = json.loads((files / "cert.json.manifest.json").read_text())
    assert (obj["exit_code"], obj["error_kind"], obj["command"]) == (2, "budget", "vd build")
    assert obj["outputs"] == [] and obj["inputs"][0]["path"].endswith("p12.txt")


def test_domain_error_exit_writes_the_manifest(files, capsys):
    manifest = files / "m.json"
    code, out, err = run(
        capsys, "--manifest", manifest, "complex", "check-prop", "--graph", files / "c5.txt", "--k", "3"
    )
    assert code == 1 and out == "" and json.loads(err)["kind"] == "VdError"
    obj = json.loads(manifest.read_text())
    assert (obj["exit_code"], obj["error_kind"], obj["stdout_sha256"]) == (1, "VdError", None)
    code, _, err = run(capsys, "--manifest", manifest, "vd", "max", "--graph", files / "missing.txt")
    assert code == 1 and json.loads(err)["kind"] == "FileNotFoundError"
    obj = json.loads(manifest.read_text())
    assert (obj["exit_code"], obj["error_kind"], obj["inputs"]) == (1, "FileNotFoundError", [])


_LEAF0 = {"leaf": "components", "level": 0}


def _nest(bad, steps):
    """Certificate JSON with `bad` at the del/link path `steps` below the root."""
    for step in reversed(steps):
        node = {"del": _LEAF0, "link": _LEAF0, "pivot": 0}
        node[step] = bad
        bad = {"level": 1, "node": node}
    return json.dumps(bad)


# not the writer's layout (the spaces), so read_json parses it and stops at its nesting limit
_DEEP = (
    '{"level":1,"node":{"del":' * 3000 + '{"leaf": "components", "level": 0}'
    + ',"link":{"leaf":"components","level":0},"pivot":0}}' * 3000
)


@pytest.mark.parametrize(
    "text, where",
    [
        (_nest({"level": 1, "node": {"del": _LEAF0, "pivot": 0}}, ["del", "link", "del"]), "del/link/del"),
        (_nest({"level": 1, "node": 5}, ["link"]), "link"),
        (_nest({"level": 1, "node": {"del": _LEAF0, "link": _LEAF0, "pivot": "x"}}, ["del"]), "del"),
        (_nest({"leaf": "edgeless", "vertices": ["a"]}, ["del", "del"]), "del/del: unrecognized leaf kind 'edgeless'"),
        (_nest({"leaf": "any", "level": 0}, ["link"]), "link: unrecognized leaf kind 'any'"),
        (_DEEP, "nested too deeply"),
    ],
    ids=["missing-link", "node-not-object", "pivot-not-integer", "vertex-not-integer", "any-leaf", "nested-3000-deep"],
)
def test_malformed_certificate_is_certificate_error(files, capsys, text, where):
    (files / "bad.json").write_text(text)
    code, out, err = run(capsys, "vd", "verify", "--graph", files / "k2.txt", "--cert", files / "bad.json")
    obj = json.loads(err)
    assert code == 1 and out == ""
    assert set(obj) == {"error", "kind"} and obj["kind"] == "CertificateError"
    assert where in obj["error"]


def _level1_chain(n, bottom_link):
    """Level-1 certificate text for the edgeless graph on 0..n-1, nested n - 1 deep.

    Pivots 0..n-3 each delete their vertex (link: the level-0 leaf); pivot
    n - 2 has the level-1 leaf on [n - 1] and bottom_link.
    """
    bottom = vd.certificate_to_json(vd.Node(n - 2, vd.LeafComponents(1), bottom_link, 1))
    tail = "".join(f',"link":{{"leaf":"components","level":0}},"pivot":{v}}}}}' for v in reversed(range(n - 2)))
    return '{"level":1,"node":{"del":' * (n - 2) + bottom + tail


def test_deep_canonical_certificate_is_read_and_verified(files, capsys):
    # The writer's layout is scanned at any depth: a valid level-1 chain
    # 10,000 deep on the edgeless 10,000-vertex graph, peeling 0..9998 over
    # the level-1 leaf on [9999].  json.loads alone stops near 1000 deep.
    n = 10_000
    text = _level1_chain(n, vd.LeafComponents(0))
    (files / "e10000.txt").write_text(f"p {n} 0\n")
    (files / "chain.json").write_text(text + "\n")
    code, out, _ = run(capsys, "vd", "verify", "--graph", files / "e10000.txt", "--cert", files / "chain.json")
    assert code == 0 and json.loads(out) == {"level": 1, "path": [], "reason": "", "valid": True}
    tracemalloc.start()
    try:
        cert = vd.certificate_from_json(text)
        read_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert vd.verify_certificate(Graph.empty(n), cert).ok
        verify_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read_peak < 32 << 20 and verify_peak < 32 << 20
    assert vd.certificate_to_json(cert) == text


@pytest.mark.parametrize("depth", [500, 10_000])
def test_deep_failing_certificate_reports_its_whole_path(files, capsys, depth):
    # the failure sits on the link side of the deepest node, below `depth`
    # del steps; the path and the output are those of a shallow failure
    n = depth + 2
    text = _level1_chain(n, vd.Node(n - 1, vd.LeafComponents(0), vd.LeafComponents(0), 0))
    (files / "e.txt").write_text(f"p {n} 0\n")
    (files / "bad.json").write_text(text + "\n")
    code, out, err = run(capsys, "vd", "verify", "--graph", files / "e.txt", "--cert", files / "bad.json")
    path = tuple(f"del@{v}" for v in range(depth)) + (f"link@{depth}",)
    assert vd.verify_certificate(Graph.empty(n), vd.certificate_from_json(text)).path == path
    assert (code, err) == (1, "")
    listed = ",".join(f'"{step}"' for step in path)
    assert out == f'{{"level":1,"path":[{listed}],"reason":"pivot node at level 0","valid":false}}\n'


def test_trace_node_without_residual_size_is_squid_error(files, capsys):
    trace = files / "trace.json"
    code, _, _ = run(capsys, "squid", "df1", "--graph", files / "k2.txt", "--q", "3", "--out", trace)
    assert code == 0
    obj = json.loads(trace.read_text())
    del obj["nodes"][1]["residual_size"]
    trace.write_text(json.dumps(obj))
    code, out, err = run(capsys, "squid", "extract", "--trace", trace)
    obj = json.loads(err)
    assert code == 1 and out == ""
    assert set(obj) == {"error", "kind"} and obj["kind"] == "SquidError"
    assert "node 1" in obj["error"] and "residual_size" in obj["error"]


@pytest.mark.parametrize(
    "text, error",
    [
        ("5", "a trace is a JSON object, got integer"),
        ("null", "a trace is a JSON object, got null"),
        ("[]", "a trace is a JSON object, got list"),
        ('{"graph": []}', "graph must be an object, got list"),
        ("{}", "missing key 'graph'"),
        ('{"graph": {"vertices": [0, 1]}}', "missing key 'edges' in graph"),
        (
            '{"graph": {"edges": [[0, 1, 2]], "vertices": [0, 1, 2]}}',
            "graph edge must be a pair of vertices, got [0, 1, 2]",
        ),
    ],
    ids=["integer", "null", "list", "graph-list", "empty-object", "no-edges", "edge-triple"],
)
def test_trace_header_error_names_the_field(files, capsys, text, error):
    (files / "trace.json").write_text(text)
    code, out, err = run(capsys, "squid", "extract", "--trace", files / "trace.json")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": f"malformed trace object: {error}", "kind": "SquidError"}


def test_trace_rerun_stops_at_the_trace_node_count(files, capsys, monkeypatch):
    # A K2 x K3 trace (6 nodes) with q edited to 1000: the rerun of K2 x K1000
    # would make 1,003 nodes of about 1000 squid masks each, hundreds of MB.
    # It stops at the 7th node, in a process that stays small.
    monkeypatch.chdir(files)
    assert run(capsys, "squid", "df1", "--graph", "k2.txt", "--q", "3", "--out", "t.json")[0] == 0
    obj = json.loads((files / "t.json").read_text())
    assert len(obj["nodes"]) == 6
    (files / "q1000.json").write_text(json.dumps({**obj, "q": 1000}))
    # The peak RSS is the process's VmHWM: its ru_maxrss would also count
    # the image it replaced at exec, which under posix_spawn is pytest's.
    code = (
        "import sys; from tvf.cli import main; code = main(); "
        "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM'))); "
        "sys.exit(code)"
    )
    got = python_process(code, "squid", "extract", "--trace", "q1000.json", cwd=files)
    assert got.returncode == 1
    assert json.loads(got.stderr) == {
        "error": "the trace has 6 nodes, but the df1 removal of its graph makes 7 or more",
        "kind": "SquidError",
    }
    assert int(got.stdout) < 100_000  # KiB
    # where the run's budget is below the trace's count, it stops the rerun (exit 2)
    (files / "k5.txt").write_text("p 5 10\n" + "".join(f"e {i} {j}\n" for i, j in itertools.combinations(range(5), 2)))
    assert run(capsys, "squid", "df1", "--graph", "k5.txt", "--q", "13", "--out", "k5.json")[0] == 0
    monkeypatch.setenv("TVF_BUDGET", "600")  # the trace has 896 nodes
    code, out, err = run(capsys, "squid", "extract", "--trace", "k5.json")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "removal budget exceeded (601 > 600 trace nodes)", "kind": "budget"}


def test_trace_with_a_false_squid_is_squid_error(files, capsys):
    trace = files / "trace.json"
    code, _, _ = run(capsys, "squid", "df1", "--graph", files / "k2.txt", "--q", "3", "--out", trace)
    assert code == 0
    obj = json.loads(trace.read_text())
    squid = obj["nodes"][0]["children"][0]["squid"]
    squid.update(hearts=[[99, 99]], rows=[10**100], witness=12345, kind="II")
    trace.write_text(json.dumps(obj))
    code, out, err = run(capsys, "squid", "extract", "--trace", trace)
    obj = json.loads(err)
    assert code == 1 and out == ""
    assert obj["kind"] == "SquidError" and "node 0" in obj["error"] and "rows" in obj["error"]


def test_product_commands_build_no_product_graph(files, capsys, monkeypatch):
    # squid df1, vd verify --graph-product and squid extract on C6 x K7 hold
    # the product as label masks: the one Graph each builds is its input graph
    inits = []
    graph_init = Graph.__init__

    def counting_init(graph, *args, **kwargs):
        inits.append(None)
        graph_init(graph, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    c6 = files / "c6.txt"
    c6.write_text("p 6 6\n" + "".join(f"e {i} {(i + 1) % 6}\n" for i in range(6)))
    trace, cert = files / "trace.json", files / "cert.json"
    for argv in (
        ["squid", "df1", "--graph", c6, "--q", "7", "--out", trace, "--cert-out", cert],
        ["vd", "verify", "--graph-product", c6, "--q", "7", "--cert", cert],
        ["squid", "extract", "--trace", trace, "--out", files / "again.json"],
    ):
        inits.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0 and len(inits) == 1, argv


def _set(path, value):
    """Mutation of a trace object that replaces the entry at path."""

    def mutate(obj):
        *head, last = path
        for key in head:
            obj = obj[key]
        obj[last] = value(obj[last]) if callable(value) else value

    return mutate


_ROOT = ["nodes", 0]
_ARM = _ROOT + ["children", 0]
_LINK = _ROOT + ["link"]


# Each mutation leaves a trace the reader used to accept: through int(), or,
# for the graph, kind and mode, with no check at all.
@pytest.mark.parametrize(
    "mutate, where",
    [
        (_set(["q"], 3.5), "q must"),
        (_set(["m"], 2.0), "m must"),
        (_set(["root"], False), "root must"),
        (_set(_ROOT + ["level"], str), "node 0"),
        (_set(_ROOT + ["level"], float), "node 0"),
        (_set(_ROOT + ["residual_size"], float), "node 0"),
        (_set(_ARM + ["node"], lambda v: v + 0.5), "node 0"),
        (_set(_LINK + ["node"], float), "node 0"),
        (_set(_ARM + ["squid", "body"], str), "node 0"),
        (_set(_ARM + ["squid", "kind"], "III"), "node 0"),
        (_set(_ARM + ["squid", "rows"], lambda rows: [str(r) for r in rows]), "node 0"),
        (_set(_ARM + ["squid", "body_rows"], lambda rows: [float(r) for r in rows]), "node 0"),
        (_set(_ARM + ["squid", "arms"], lambda arms: [[b, float(r)] for b, r in arms]), "node 0"),
        (_set(_ARM + ["squid", "witness"], str), "node 0"),
        (_set(["graph", "vertices"], [0, True]), "graph vertices entry must be an integer"),
        (_set(["graph", "edges", 0], [0, True]), "graph edge entry must be an integer"),
        (_set(["kind"], 5), "trace kind must be 'df1' or 'dynamic'"),
        (_set(["mode"], ["x"]), "trace mode must be 'walk' or 'distance'"),
    ],
    ids=[
        "q-float", "m-float", "root-bool", "level-string", "level-float", "residual-size-float",
        "child-node-float", "link-node-float", "squid-body-string", "squid-kind-unknown",
        "squid-rows-strings", "squid-body-rows-floats", "squid-arm-row-float",
        "squid-witness-string", "graph-vertex-bool", "graph-edge-bool", "kind-integer", "mode-list",
    ],
)
def test_non_integer_trace_field_is_squid_error(files, capsys, mutate, where):
    trace = files / "trace.json"
    code, _, _ = run(capsys, "squid", "df1", "--graph", files / "k2.txt", "--q", "3", "--out", trace)
    assert code == 0
    obj = json.loads(trace.read_text())
    mutate(obj)
    trace.write_text(json.dumps(obj))
    code, out, err = run(capsys, "squid", "extract", "--trace", trace)
    obj = json.loads(err)
    assert code == 1 and out == ""
    assert set(obj) == {"error", "kind"} and obj["kind"] == "SquidError"
    assert where in obj["error"]


@pytest.mark.parametrize(
    "mutate",
    [_set(_ROOT + ["block_row"], str), _set(_ROOT + ["rows_used"], lambda rows: [str(r) for r in rows])],
    ids=["block-row-string", "rows-used-strings"],
)
def test_non_integer_dynamic_trace_field_is_squid_error(files, capsys, mutate):
    (files / "p4.txt").write_text("p 4 3\ne 0 1\ne 1 2\ne 2 3\n")
    scheme = files / "dyn.json"
    scheme.write_text(json.dumps({"sizes": [1, 1], "n": 20, "q": 5, "delta": 2}))
    trace = files / "dyn_trace.json"
    code, _, _ = run(
        capsys, "squid", "dynamic", "--graph", files / "p4.txt", "--q", "5",
        "--scheme", scheme, "--out", trace,
    )
    assert code == 0
    obj = json.loads(trace.read_text())
    mutate(obj)
    trace.write_text(json.dumps(obj))
    code, out, err = run(capsys, "squid", "extract", "--trace", trace)
    obj = json.loads(err)
    assert code == 1 and out == ""
    assert obj["kind"] == "SquidError" and "node 0" in obj["error"]


# Each mutation leaves a trace whose every field is well formed, but which is
# not the removal its header names.
@pytest.mark.parametrize(
    "mutate, error",
    [
        # the first arm squid at the root has body 1, on the pivot's row, and
        # the pivot's base 0 as its witness; 2 is the body's other neighbor
        (_set(_ARM + ["squid", "witness"], 2), "node 0: children[0].squid has witness 2, not witness 0"),
        (_set(["m"], 3), "malformed trace object: m is 3, not 5"),
    ],
    ids=["kind-I-witness-swapped", "header-m"],
)
def test_trace_that_is_not_its_removal_is_squid_error(files, capsys, mutate, error):
    trace = files / "trace.json"
    assert run(capsys, "squid", "df1", "--graph", files / "c5.txt", "--q", "7", "--out", trace)[0] == 0
    obj = json.loads(trace.read_text())
    squid = obj["nodes"][0]["children"][0]["squid"]
    assert (obj["m"], squid["kind"], squid["body"], squid["witness"]) == (5, "I", 1, 0)
    mutate(obj)
    trace.write_text(json.dumps(obj))
    code, out, err = run(capsys, "squid", "extract", "--trace", trace)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": f"{error} (the df1 removal of its graph)", "kind": "SquidError"}


def test_reading_a_trace_counts_its_nodes(files, capsys, monkeypatch):
    # the C5 x K7 trace has 268 nodes; a limit of 200 admits its 140 product edges
    trace = files / "trace.json"
    assert run(capsys, "squid", "df1", "--graph", files / "c5.txt", "--q", "7", "--out", trace)[0] == 0
    assert len(json.loads(trace.read_text())["nodes"]) == 268
    monkeypatch.setenv("TVF_BUDGET", "200")
    code, out, err = run(capsys, "squid", "extract", "--trace", trace)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "removal budget exceeded (201 > 200 trace nodes)", "kind": "budget"}


@pytest.mark.parametrize(
    "text, error",
    [
        ("[]", "a scheme is a JSON object, got list"),
        ("null", "a scheme is a JSON object, got null"),
        ("5", "a scheme is a JSON object, got integer"),
        ("{}", "missing key 'sizes'"),
        ('{"sizes": [2, 1], "n": 20, "delta": 2}', "missing key 'q'"),
    ],
    ids=["list", "null", "integer", "empty-object", "no-q"],
)
def test_scheme_header_error_names_the_field(files, capsys, text, error):
    (files / "scheme.json").write_text(text)
    code, out, err = run(capsys, "scheme", "validate", "--file", files / "scheme.json")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": f"malformed scheme object: {error}", "kind": "SchemeError"}


@pytest.mark.parametrize(
    "key, value",
    [("sizes", [2.9, 1]), ("sizes", [2, True]), ("n", 20.0), ("q", 5.5), ("delta", "2"), ("delta", True)],
    ids=["sizes-float", "sizes-bool", "n-float", "q-float", "delta-string", "delta-bool"],
)
def test_non_integer_scheme_field_is_scheme_error(files, capsys, key, value):
    scheme = files / "scheme.json"
    scheme.write_text(json.dumps({"sizes": [2, 1], "n": 20, "q": 5, "delta": 2, key: value}))
    code, out, err = run(capsys, "scheme", "validate", "--file", scheme)
    obj = json.loads(err)
    assert code == 1 and out == ""
    assert set(obj) == {"error", "kind"} and obj["kind"] == "SchemeError"
    assert key in obj["error"]


@pytest.mark.parametrize(
    "text, line",
    [("0 0\na 1\n", 2), ("0 0\n1 x\n", 2), ("0 1/0\n1 1\n", 1)],
    ids=["vertex-not-integer", "bad-coordinate", "zero-denominator"],
)
def test_bad_points_file_is_tverberg_error(files, capsys, text, line):
    (files / "e2.txt").write_text("p 2 0\n")
    (files / "bad.pts").write_text(text)
    code, out, err = run(
        capsys, "tverberg", "search", "--graph", files / "e2.txt", "--points", files / "bad.pts",
        "--q", "2",
    )
    obj = json.loads(err)
    assert code == 1 and out == ""
    assert obj["kind"] == "TverbergError" and f"line {line}" in obj["error"]


@pytest.mark.parametrize("value", ["abc", "1/0", "1e10000000"])
@pytest.mark.parametrize(
    "command",
    [
        ["scheme", "constants"],
        ["scheme", "build", "--n", "1000", "--delta", "10", "--q", "40"],
        ["tverberg", "corollary", "--graph", "g.txt", "--points", "p.pts", "--q", "3"],
    ],
    ids=["scheme-constants", "scheme-build", "tverberg-corollary"],
)
def test_bad_epsilon_is_usage_error(files, capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--epsilon", value])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert "--epsilon" in err and repr(value) in err


@pytest.mark.parametrize(
    "text, line, token, shown",
    [
        ("0 1e10000000 0\n", 1, "1e10000000", "'1e10000000'"),
        ("0 0 0\n1 -2.5E-10000000 1\n", 2, "-2.5E-10000000", "'-2.5E-10000000'"),
        ("0 1e1_0000_000 0\n", 1, "1e1_0000_000", "'1e1_0000_000'"),
        ("0 0." + "3" * 5000 + " 0\n", 1, "0." + "3" * 5000, "'0." + "3" * 38 + "'... (5002 characters)"),
    ],
    ids=["exponent", "negative-exponent", "underscores", "long-fraction-part"],
)
def test_huge_coordinate_is_rejected_before_it_is_read(files, capsys, monkeypatch, text, line, token, shown):
    # Fraction would build 10**(10**7) for the first three, taking seconds
    read = []
    real = tvf.tverberg.Fraction
    monkeypatch.setattr(tvf.tverberg, "Fraction", lambda *args: read.append(args) or real(*args))
    (files / "e2.txt").write_text("p 2 0\n")
    (files / "huge.pts").write_text(text)
    code, out, err = run(
        capsys, "tverberg", "search", "--graph", files / "e2.txt", "--points", files / "huge.pts",
        "--q", "2",
    )
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": f"line {line}: coordinate {shown} is a number past int()'s digit limit",
        "kind": "TverbergError",
    }
    assert all(token not in args for args in read)


# Each error that quotes a line or token of user text, on a 5,000-character
# line: the quote is cut to its first 40 characters and its length.
_LONG = "x" * 5000
_LONG_NUMBER = "0." + "3" * 4998


@pytest.mark.parametrize(
    "argv, text, error",
    [
        (
            ["graph", "info", "--graph", "{dir}/long.txt"],
            "p 2 0\n" + _LONG + "\n",
            f"line 2: unrecognized line {_LONG[:40]!r}... (5000 characters)",
        ),
        (
            ["tverberg", "search", "--graph", "{dir}/e2.txt", "--points", "{dir}/long.txt", "--q", "2"],
            "0 " + _LONG[2:] + "\n",
            f"line 1: expected rational coordinates, got {('0 ' + _LONG[2:])[:40]!r}... (5000 characters)",
        ),
        (
            ["tverberg", "search", "--graph", "{dir}/e2.txt", "--points", "{dir}/long.txt", "--q", "2"],
            "0 " + _LONG_NUMBER[:-2] + "\n",
            f"line 1: coordinate {_LONG_NUMBER[:40]!r}... (4998 characters) is a number past "
            "int()'s digit limit",
        ),
    ],
    ids=["edge-list-line", "points-line", "points-digit-limit"],
)
def test_long_user_text_is_cut_in_errors(files, capsys, argv, text, error):
    (files / "e2.txt").write_text("p 2 0\n")
    (files / "long.txt").write_text(text)
    code, out, err = run(capsys, *(a.format(dir=files) for a in argv))
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == error and len(err) < 200


def test_long_epsilon_is_cut_in_its_usage_error(files, capsys):
    # --epsilon is read by argparse, so its errors are usage text, not JSON
    (files / "e6.txt").write_text("p 6 0\n")
    with pytest.raises(SystemExit) as exc:
        main(["tverberg", "corollary", "--graph", str(files / "e6.txt"), "--points", str(files / "pts.txt"),
              "--q", "3", "--epsilon", _LONG_NUMBER])
    err = capsys.readouterr().err
    assert exc.value.code == 64
    assert f"{_LONG_NUMBER[:40]!r}... (5000 characters) is a number past int()'s digit limit" in err
    assert len(err) < 1000


def test_witness_past_the_digit_limit_is_tverberg_error(files, capsys):
    # 10**4300 is within int()'s digit limit, but this witness's coefficient
    # 1/10**4300 cannot be written
    (files / "e3.txt").write_text("p 3 0\n")
    (files / "big.pts").write_text("0 1e4300\n1 0\n2 1\n")
    code, out, err = run(
        capsys, "tverberg", "search", "--graph", files / "e3.txt", "--points", files / "big.pts",
        "--q", "2",
    )
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "the witness holds a number past int()'s digit limit", "kind": "TverbergError"
    }


@pytest.mark.parametrize("value", ["1e400", "1e-400"])
@pytest.mark.parametrize(
    "command",
    [
        ["scheme", "constants"],
        ["scheme", "build", "--n", "1000", "--delta", "10", "--q", "40"],
        ["tverberg", "corollary", "--graph", "e6.txt", "--points", "p6.pts", "--q", "3"],
    ],
    ids=["scheme-constants", "scheme-build", "tverberg-corollary"],
)
def test_epsilon_past_double_precision_is_scheme_error(files, capsys, monkeypatch, command, value):
    # both are positive rationals; the first overflows a double and the second rounds to 0
    monkeypatch.chdir(files)
    (files / "e6.txt").write_text("p 6 0\n")
    (files / "p6.pts").write_text("".join(f"{i} {i}\n" for i in range(6)))
    code, out, err = run(capsys, *command, "--epsilon", value)
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": f"epsilon {value} is outside the range of double precision",
        "kind": "SchemeError",
    }


def _path_2500(files):
    path = files / "p2500.txt"
    path.write_text("p 2500 2499\n" + "".join(f"e {i} {i + 1}\n" for i in range(2499)))
    return path


def test_vd_check_decides_a_2500_vertex_path(files, capsys):
    code, out, err = run(capsys, "vd", "check", "--graph", _path_2500(files), "--k", "2")
    assert code == 0 and err == ""
    assert out == '{"k":2,"vd":true}\n'


def test_vd_check_decides_a_deeply_nested_search(files, capsys):
    # the tenth power of P1300 at k = 2: capped searches nest 1056 deep
    path = files / "p1300-power10.txt"
    edges = [(i, j) for i in range(1300) for j in range(i + 1, min(1300, i + 11))]
    path.write_text(f"p 1300 {len(edges)}\n" + "".join(f"e {i} {j}\n" for i, j in edges))
    code, out, err = run(capsys, "vd", "check", "--graph", path, "--k", "2")
    assert code == 0 and err == ""
    assert out == '{"k":2,"vd":true}\n'


_V400 = ",".join(map(str, range(400)))


@pytest.mark.parametrize(
    "command, out",
    [
        (["complex", "vd", "--facets", "simplex.txt"], f'{{"shelling":[[{_V400}]],"vertex_decomposable":true}}'),
        (["complex", "ind", "--graph", "e400.txt"], _V400.replace(",", " ")),
        (["complex", "betti", "--k", "0", "--graph", "e400.txt"], '{"dim":0,"min_dim":-1,"numbers":[0,399]}'),
    ],
    ids=["vd-simplex", "ind-edgeless", "betti-edgeless"],
)
def test_complex_searches_ignore_the_recursion_limit(files, command, out):
    # each search nests 400 calls deep, twice the recursion limit
    (files / "simplex.txt").write_text(_V400.replace(",", " ") + "\n")
    (files / "e400.txt").write_text("p 400 0\n")
    code = "import sys; sys.setrecursionlimit(200); from tvf.cli import main; sys.exit(main())"
    got = python_process(code, *command, cwd=files)
    assert (got.returncode, got.stdout, got.stderr) == (0, out + "\n", "")


def _cross_polytopes(files, second):
    """Two boundaries of the 4-dimensional cross-polytope, on 0..7 and second..second+7."""
    path = files / "cross.txt"
    path.write_text(
        "".join(
            " ".join(str(base + 2 * i + s) for i, s in enumerate(signs)) + "\n"
            for base in (0, second)
            for signs in itertools.product((0, 1), repeat=4)
        )
    )
    return path


def _cross_polytope_pair(files):
    """The two boundaries disjoint: 32 facets, pure, disconnected, so not VD."""
    return _cross_polytopes(files, 8)


def _cross_polytope_wedge(files):
    """The two boundaries sharing vertex 7: connected, and not VD, since the link
    of vertex 7 is two disjoint octahedra."""
    return _cross_polytopes(files, 7)


def _perfect_matching(files):
    """The perfect matching on 32 vertices, whose independence complex has 2^16 facets."""
    path = files / "matching.txt"
    path.write_text("p 32 16\n" + "".join(f"e {2 * i} {2 * i + 1}\n" for i in range(16)))
    return path


@pytest.mark.parametrize(
    "command, make, error",
    [
        (["complex", "vd", "--facets"], _cross_polytope_wedge, "decomposition budget exceeded (1001 > 1000 memo entries)"),
        (["complex", "ind", "--graph"], _perfect_matching, "facet budget exceeded (1001 > 1000 facets)"),
    ],
    ids=["vd", "ind"],
)
def test_complex_budget_exit_code(files, capsys, monkeypatch, command, make, error):
    # unbudgeted, the first takes 11,664 memo entries and the second 65,536 facets
    monkeypatch.setenv("TVF_BUDGET", "1000")
    code, out, err = run(capsys, *command, make(files))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": error, "kind": "budget"}


def test_disconnected_complex_is_refuted_without_a_search(files, capsys, monkeypatch):
    # searched in full, the disjoint pair takes 24,057 memo entries; refuted
    # at once, it needs one even under TVF_BUDGET=1
    for budget in (None, "1"):
        if budget is not None:
            monkeypatch.setenv("TVF_BUDGET", budget)
        code, out, err = run(capsys, "complex", "vd", "--facets", _cross_polytope_pair(files))
        assert (code, json.loads(out), err) == (
            1,
            {"shelling": None, "vertex_decomposable": False},
            "",
        )


@pytest.mark.parametrize(
    "command, data",
    [
        (["vd", "max", "--graph"], b"\x7fELF\x02\x01\x01\x00\xb0\x0f\xf8\xff"),
        (["scheme", "validate", "--file"], b"\xff\xfe{\x00}\x00"),
        (["vd", "verify", "--graph", "k2.txt", "--cert"], b"{\"leaf\":\"components\",\xd0}"),
    ],
    ids=["binary-graph", "utf16-scheme", "binary-cert"],
)
def test_non_utf8_input_is_unicode_decode_error(files, capsys, monkeypatch, command, data):
    monkeypatch.chdir(files)
    (files / "bad.bin").write_bytes(data)
    code, out, err = run(capsys, *command, "bad.bin")
    assert code == 1 and out == ""
    assert json.loads(err)["kind"] == "UnicodeDecodeError"
    assert json.loads(err)["error"].endswith("(in bad.bin)")


def test_certificate_construction_stops_at_the_budget(files, capsys, monkeypatch):
    # unbudgeted, the degree-bound construction on this path passes 1e6 memo entries
    monkeypatch.setenv("TVF_BUDGET", "1000")
    code, out, err = run(capsys, "vd", "build", "--graph", _path_2500(files))
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "certificate budget exceeded (1001 > 1000 memo entries)",
        "kind": "budget",
    }


@pytest.mark.parametrize(
    "command, error",
    [
        (["squid", "df1", "--graph", "k5.txt", "--q", "13"], "removal budget exceeded (601 > 600 trace nodes)"),
        (
            ["squid", "df1", "--graph", "p14.txt", "--q", "7", "--out", "t.json", "--cert-out", "c.json"],
            "certificate budget exceeded (601 > 600 memo entries)",
        ),
        (["squid", "extract", "--trace", "p14.trace"], "certificate budget exceeded (601 > 600 memo entries)"),
    ],
    ids=["df1-k5", "df1-cert-p14", "extract-p14"],
)
def test_removal_and_extraction_budget_exit_code(files, capsys, monkeypatch, command, error):
    # unbudgeted, the K5 trace has 896 nodes, and certifying the 404-node P14
    # trace passes 1e6 memo entries; the limit also bounds the products, whose
    # 520 and 385 edges it admits
    monkeypatch.chdir(files)
    (files / "k5.txt").write_text("p 5 10\n" + "".join(f"e {i} {j}\n" for i, j in itertools.combinations(range(5), 2)))
    (files / "p14.txt").write_text("p 14 13\n" + "".join(f"e {i} {i + 1}\n" for i in range(13)))
    assert run(capsys, "squid", "df1", "--graph", "p14.txt", "--q", "7", "--out", "p14.trace")[0] == 0
    monkeypatch.setenv("TVF_BUDGET", "600")
    code, out, err = run(capsys, *command)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": error, "kind": "budget"}


def test_certificate_text_stops_at_its_budget_before_any_text(files, capsys, monkeypatch):
    # P11 x K7 certifies within 1e6 memo entries, but its nested text would
    # expand its shared subtrees into 151,725,309 objects
    monkeypatch.chdir(files)
    (files / "p11.txt").write_text("p 11 10\n" + "".join(f"e {i} {i + 1}\n" for i in range(10)))
    code, out, err = run(capsys, "squid", "df1", "--graph", "p11.txt", "--q", "7", "--out", "t.json", "--cert-out", "c.json")
    assert (code, out) == (2, "") and not (files / "c.json").exists()
    error = "certificate text budget exceeded (151725309 > 30000000 objects)"
    assert json.loads(err) == {"error": error, "kind": "budget"}
    manifest = json.loads((files / "t.json.manifest.json").read_text())
    assert (manifest["exit_code"], manifest["error_kind"]) == (2, "budget")


def test_scheme_build_stops_at_its_budget_before_the_exact_terms(files, capsys):
    # k = min(q, ceil(2 * delta * gamma)) = 173,658 exact terms, each one
    # with a denominator 2 * delta times the last one's
    argv = ["scheme", "build", "--epsilon", "1", "--n", "1000000000000", "--delta", "100000", "--q", "10000000"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "scheme budget exceeded (173658 > 1000 blocks)", "kind": "budget"}


@pytest.mark.parametrize(
    "command, used",
    [
        (["graph", "product", "--graph", "k1.txt", "--q", "20000"], 199_990_000),
        (["squid", "df1", "--graph", "k1.txt", "--q", "20000"], 199_990_000),
        (["squid", "dynamic", "--graph", "k2.txt", "--q", "20000", "--scheme", "q20000.scheme"], 400_000_000),
        (["vd", "verify", "--graph-product", "k1.txt", "--q", "20000", "--cert", "any.json"], 199_990_000),
        (["squid", "extract", "--trace", "huge-q.trace"], 10**13 * (10**13 - 1) // 2),
    ],
    ids=["graph-product", "df1", "dynamic", "vd-verify", "extract"],
)
def test_huge_q_stops_at_the_product_budget(files, capsys, monkeypatch, command, used):
    # each product would take gigabytes; the budget is checked before any of it is built
    monkeypatch.chdir(files)
    (files / "k1.txt").write_text("p 1 0\n")
    (files / "q20000.scheme").write_text('{"delta":1,"n":2,"q":20000,"sizes":[1]}\n')
    (files / "any.json").write_text('{"leaf":"components","level":0}\n')
    assert main(["squid", "df1", "--graph", "k1.txt", "--q", "1", "--out", "k1.trace"]) == 0
    trace = json.loads((files / "k1.trace").read_text())
    (files / "huge-q.trace").write_text(json.dumps({**trace, "q": 10**13}))
    capsys.readouterr()
    code, out, err = run(capsys, *command)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": f"product budget exceeded ({used} > 1000000 edges)", "kind": "budget"}


def test_tvf_budget_replaces_the_product_default(files, capsys, monkeypatch):
    # K2 x K3 has 3 row edges and 6 column edges
    argv = ["graph", "product", "--graph", files / "k2.txt", "--q", "3"]
    monkeypatch.setenv("TVF_BUDGET", "9")
    assert run(capsys, *argv)[:2] == (0, "p 6 9\n" + "".join(
        f"e {u} {v}\n" for u, v in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
    ))
    monkeypatch.setenv("TVF_BUDGET", "8")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "product budget exceeded (9 > 8 edges)", "kind": "budget"}


def _deep_inputs(files):
    """Inputs on which each search nests far past the recursion limits below."""
    (files / "e250.txt").write_text("p 250 0\n")
    (files / "e80.txt").write_text("p 80 0\n")
    (files / "same80.txt").write_text("".join(f"{i} 0\n" for i in range(80)))
    (files / "m300.txt").write_text("p 300 150\n" + "".join(f"e {2 * i} {2 * i + 1}\n" for i in range(150)))
    (files / "m300.scheme").write_text('{"delta":1,"n":300,"q":1,"sizes":[150]}\n')
    # a star on 0..250 with a path on 250..999 hanging from its last leaf:
    # certified at level 2 by pivoting on the center, a chain of 250 nodes,
    # one per leaf (every arm and the link are components leaves)
    edges = [(0, u) for u in range(1, 251)] + [(i, i + 1) for i in range(250, 999)]
    (files / "star.txt").write_text(f"p 1000 {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges))
    assert main(["squid", "df1", "--graph", "e250.txt", "--q", "1", "--out", "e250.trace"]) == 0


@pytest.mark.parametrize(
    "limit, command, check",
    [
        (
            200,
            "squid df1 --graph e250.txt --q 1 --out t.json --cert-out c.json",
            "vd verify --graph-product e250.txt --q 1 --cert c.json",
        ),
        (200, "squid dynamic --graph m300.txt --q 1 --scheme m300.scheme --out t.json", None),
        (200, "squid extract --trace e250.trace --out c.json", "vd verify --graph e250.txt --cert c.json"),
        (200, "vd build --graph star.txt --out c.json", "vd verify --graph star.txt --cert c.json"),
        # q levels of exact LPs of up to q classes: a smaller q keeps this short
        (80, "tverberg search --graph e80.txt --points same80.txt --q 80 --out w.json", None),
    ],
    ids=["df1-cert", "dynamic", "extract", "vd-build", "tverberg-search"],
)
def test_certificate_side_ignores_the_recursion_limit(files, capsys, monkeypatch, limit, command, check):
    # each input nests deeper than the limit: the removal search (squid df1,
    # squid dynamic, and the rerun in squid extract), the certificate (vd
    # build) or the witness search, so a recursion left on the interpreter's
    # stack would fail here
    monkeypatch.chdir(files)
    _deep_inputs(files)
    code = f"import sys; sys.setrecursionlimit({limit}); from tvf.cli import main; sys.exit(main())"
    got = python_process(code, *command.split(), cwd=files)
    assert (got.returncode, got.stdout, got.stderr) == (0, "", "")
    if check is not None:
        code, out, _ = run(capsys, *check.split())
        assert code == 0 and json.loads(out)["valid"] is True


@pytest.mark.parametrize(
    "command, kind, what",
    [
        (["scheme", "validate", "--file", "bad.json"], "SchemeError", "scheme"),
        (["squid", "dynamic", "--graph", "k2.txt", "--q", "2", "--scheme", "bad.json"], "SchemeError", "scheme"),
        (["squid", "extract", "--trace", "bad.json"], "SquidError", "trace"),
        (["vd", "verify", "--graph", "k2.txt", "--cert", "bad.json"], "CertificateError", "certificate"),
    ],
    ids=["scheme", "dynamic-scheme", "trace", "certificate"],
)
def test_deep_json_is_an_error_of_its_reader(files, capsys, monkeypatch, command, kind, what):
    # JSON nested past the parser's limit, and an integer past int()'s digit
    # limit.  The second text is a list at its root, so it is an error of the
    # same kind on a Python without that limit too.
    monkeypatch.chdir(files)
    for text, error in [("[" * 100_000, f"{what} JSON is nested too deeply to read"), ("[" + "1" * 5000 + "]", None)]:
        (files / "bad.json").write_text(text)
        code, out, err = run(capsys, "--manifest", "run.json", *command)
        assert code == 1 and out == ""
        report = json.loads(err)
        assert set(report) == {"error", "kind"} and report["kind"] == kind
        assert error is None or report["error"] == error
        manifest = json.loads((files / "run.json").read_text())
        assert (manifest["exit_code"], manifest["error_kind"]) == (1, kind)


def _contract_kinds(text, start, end):
    """The backquoted names between the phrases start and end of text."""
    flat = " ".join(text.split())
    return set(re.findall(r"`+(\w+)`+", flat.split(start, 1)[1].split(end, 1)[0]))


def test_error_kinds_are_documented():
    # the subclasses live in the layer modules, which the CLI loads lazily
    for layer in ("graphs", "vd", "squids", "schemes", "complexes", "tverberg"):
        vars(importlib.import_module(f"tvf.{layer}"))
    bases = [
        tvf.errors.GraphError,
        tvf.errors.VdError,
        tvf.errors.SquidError,
        tvf.errors.SchemeError,
        tvf.errors.ComplexError,
        tvf.errors.TverbergError,
    ]
    assert set(bases) <= set(_DOMAIN_ERRORS)
    domain, stack = set(), list(bases)
    while stack:
        cls = stack.pop()
        domain.add(cls.__name__)
        stack.extend(cls.__subclasses__())
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    for text in (tvf.errors.__doc__, readme):
        assert _contract_kinds(text, "domain error, named by its class:", "exit 1,") == domain
        listed = _contract_kinds(text, "exit 64:", "itself.")
        assert {"usage", "budget", "JSONDecodeError", "FileNotFoundError"} <= listed
        assert "UnicodeDecodeError" in listed
        assert "depth" not in listed


def _json_paths(obj, path=()):
    """The path of every value inside a JSON tree, its root excluded."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


@pytest.fixture(scope="module")
def small_traces(tmp_path_factory):
    """K2 x K3 (df1) and P4 x K5 (dynamic) trace texts, and a scratch directory."""
    d = tmp_path_factory.mktemp("traces")
    (d / "k2.txt").write_text(K2)
    (d / "p4.txt").write_text("p 4 3\ne 0 1\ne 1 2\ne 2 3\n")
    (d / "dyn.json").write_text(json.dumps({"sizes": [1, 1], "n": 20, "q": 5, "delta": 2}))
    with redirect_stdout(io.StringIO()):
        assert main(["squid", "df1", "--graph", str(d / "k2.txt"), "--q", "3", "--out", str(d / "k2.trace")]) == 0
        assert main(["squid", "dynamic", "--graph", str(d / "p4.txt"), "--q", "5",
                     "--scheme", str(d / "dyn.json"), "--out", str(d / "p4.trace")]) == 0
    return [(d / name).read_text() for name in ("k2.trace", "p4.trace")], d


@pytest.fixture(scope="module")
def small_certificates(small_traces):
    """The certificates of the small traces, each with the vd verify arguments of its product."""
    _, d = small_traces
    with redirect_stdout(io.StringIO()):
        for name in ("k2", "p4"):
            assert main(["squid", "extract", "--trace", str(d / f"{name}.trace"), "--out", str(d / f"{name}.cert")]) == 0
    return [
        ((d / f"{name}.cert").read_text(), ["--graph-product", str(d / f"{name}.txt"), "--q", q])
        for name, q in (("k2", "3"), ("p4", "5"))
    ]


_BIG_INTS = st.sampled_from([10**13, 2**63, 10**100]) | st.integers(-(10**40), 10**40)
_ANY_JSON = _BIG_INTS | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# Stands for an integer of 5000 digits, past int()'s digit limit, which
# json.dumps cannot write; _mutated_text puts it into the text.
_HUGE = "\ue000"


def _mutated_text(data, text: str) -> str:
    """JSON text, with one field of text's object at any depth replaced by an arbitrary value.

    The field is drawn top-level key first, then by its key path with list
    indices as "*", so that a trace's q or a node's pivot is drawn as often
    as a squid's arm.  The value may be a 5000-digit integer, and the text is
    in the writer's compact sorted layout or in json.dumps' default one.
    """
    obj = json.loads(text)
    top = data.draw(st.sampled_from(sorted(obj)))
    fields: dict[tuple, list[tuple]] = {}
    for path in [(top,), *_json_paths(obj[top], (top,))]:
        fields.setdefault(tuple("*" if type(k) is int else k for k in path), []).append(path)
    path = data.draw(st.sampled_from(fields[data.draw(st.sampled_from(sorted(fields)))]))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(_ANY_JSON | st.just(_HUGE))
    if data.draw(st.booleans()):
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    else:
        text = json.dumps(obj)
    return text.replace(json.dumps(_HUGE), "1" * 5000)


def _assert_in_the_error_contract(argv, verdicts):
    """main(argv) prints a verdict and exits with one of verdicts, or reports one documented error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)  # raises on a traceback
    if err.getvalue():
        report = json.loads(err.getvalue())
        assert code in (1, 2) and out.getvalue() == ""
        assert set(report) == {"error", "kind"} and "Traceback" not in report["error"]
        assert report["kind"] in _contract_kinds(tvf.errors.__doc__, "exit 64:", "itself.")
    else:
        assert code in verdicts and json.loads(out.getvalue())


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_trace_reader_ends_every_input_in_the_error_contract(small_traces, data):
    texts, d = small_traces
    (d / "mutated.trace").write_text(_mutated_text(data, data.draw(st.sampled_from(texts))))
    _assert_in_the_error_contract(["squid", "extract", "--trace", str(d / "mutated.trace")], (0,))


def _read_outcome(read, text: str):
    """The to_json of the trace read(text) gives, or the type and message of what it raises."""
    try:
        return read(text).to_json()
    except (ValueError, BudgetExceeded) as exc:
        return type(exc), str(exc)


def _full_read(text: str) -> RemovalTrace:
    """The trace text's whole parse gives."""
    return RemovalTrace.from_obj(read_json(text, "trace", SquidError))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_trace_read_paths_agree(small_traces, data):
    # from_json reads the writer's layout with no JSON tree and parses any
    # other text whole; on every input it must end as the whole parse does
    texts, _ = small_traces
    text = data.draw(st.sampled_from(texts))
    edit = data.draw(st.sampled_from(["mutate", "insert", "delete", "replace"]))
    if edit == "mutate":
        text = _mutated_text(data, text)
    else:
        cut = edit != "insert"  # characters the edit removes
        i = data.draw(st.integers(0, len(text) - cut))
        char = "" if edit == "delete" else data.draw(st.sampled_from('{}[],:" -.0123456789eflnrstu\n'))
        text = text[:i] + char + text[i + cut :]
    assert _read_outcome(RemovalTrace.from_json, text) == _read_outcome(_full_read, text)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_certificate_reader_ends_every_input_in_the_error_contract(small_traces, small_certificates, data):
    _, d = small_traces
    text, product = data.draw(st.sampled_from(small_certificates))
    (d / "mutated.cert").write_text(_mutated_text(data, text))
    _assert_in_the_error_contract(["vd", "verify", *product, "--cert", str(d / "mutated.cert")], (0, 1))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_scheme_reader_ends_every_input_in_the_error_contract(small_traces, data):
    _, d = small_traces
    schemes = [{"sizes": [1, 1], "n": 20, "q": 5, "delta": 2}, {"sizes": [5, 4], "n": 20, "q": 5, "delta": 2}]
    text = json.dumps(data.draw(st.sampled_from(schemes)))
    (d / "mutated.scheme").write_text(_mutated_text(data, text))
    _assert_in_the_error_contract(["scheme", "validate", "--file", str(d / "mutated.scheme")], (0, 1))


_COORDINATES = (
    st.integers(-9, 9).map(str)
    | st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 9))
    | st.sampled_from([
        "0.5", "-.25", "3.", "1e3", "-2E-2", "1e+1", "1_000", "1e1_0", "1e4300", "-1e-4300",
        "1e4301", "1e10000000", "-1E-10000000", "2.5e99999999999999999999", "0." + "7" * 4301,
        "1" * 5000, "1e", "e5", "0x1", "nan", "inf", "\u0663", "1e\u0663", "--1", "#",
    ])
)


@st.composite
def _points_texts(draw):
    """Points-file text for vertices 0..2: mostly well-formed lines, some
    with a wrong vertex, a wrong coordinate count or any token."""
    d = draw(st.integers(1, 2))
    lines = []
    for v in range(draw(st.integers(0, 4))):
        vertex = draw(st.sampled_from([str(v % 3)] * 4 + ["a", "-1", "#"]))
        count = draw(st.sampled_from([d, d, d, d - 1, d + 1]))
        lines.append(" ".join([vertex, *draw(st.lists(_COORDINATES, min_size=count, max_size=count))]))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# c", "   "])))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=_points_texts(), q=st.integers(1, 3))
def test_points_parser_ends_every_input_in_the_error_contract(small_traces, text, q):
    _, d = small_traces
    (d / "e3.txt").write_text("p 3 0\n")
    (d / "mutated.pts").write_text(text, encoding="utf-8")
    argv = ["tverberg", "search", "--graph", str(d / "e3.txt"), "--points", str(d / "mutated.pts")]
    _assert_in_the_error_contract([*argv, "--q", str(q)], (0, 1))


_LABELS = (
    st.integers(-3, 9).map(str)
    | st.sampled_from(["1" * 5000, "9" * 4300, "+2", "-0", "0x1", "1.0", "1e3", "1_0", "\u0663", "a", "#"])
    | st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=2)
)


@st.composite
def _facets_texts(draw):
    """Facets-file text: mostly lines of small labels, some with any token."""
    lines = [" ".join(draw(st.lists(_LABELS, max_size=5))) for _ in range(draw(st.integers(0, 5)))]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# c", "   ", "\t"])))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


@settings(max_examples=300, deadline=None)
@given(
    text=_facets_texts(),
    command=st.sampled_from([["complex", "vd"], ["complex", "betti"], ["complex", "betti", "--k", "1"]]),
)
def test_facets_parser_ends_every_input_in_the_error_contract(small_traces, text, command):
    _, d = small_traces
    (d / "mutated.facets").write_text(text, encoding="utf-8")
    _assert_in_the_error_contract([*command, "--facets", str(d / "mutated.facets")], (0, 1))
