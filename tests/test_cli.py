import importlib
import json
import re
from pathlib import Path

import pytest

import tvf.errors
from tvf.cli import _DOMAIN_ERRORS, main

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


def test_vd_verify_rejects_wrong_claim(files, capsys):
    cert = files / "bad.json"
    cert.write_text('{"leaf":"edgeless","level":2,"vertices":[0,1]}\n')
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
    [["vd", "max"], ["vd", "check", "--k", "7"], ["complex", "check-prop", "--k", "7"]],
    ids=["vd-max", "vd-check", "check-prop"],
)
def test_level_budget_exit_code(files, capsys, monkeypatch, command):
    # refuting level 7 on P16 makes about 44k memo entries
    monkeypatch.setenv("TVF_BUDGET", "1000")
    p16 = files / "p16.txt"
    p16.write_text("p 16 15\n" + "".join(f"e {i} {i + 1}\n" for i in range(15)))
    code, out, err = run(capsys, *command, "--graph", p16)
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
        main(["unknown-command"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["vd", "max", "--graph", "x", "--bogus-flag"])
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
    assert obj["stdout_sha256"] is not None and obj["seed"] == 0
    assert obj["version"]


def _nest(bad, steps):
    """Certificate JSON with `bad` at the del/link path `steps` below the root."""
    any_leaf = {"leaf": "any", "level": 0}
    for step in reversed(steps):
        node = {"del": any_leaf, "link": any_leaf, "pivot": 0}
        node[step] = bad
        bad = {"level": 1, "node": node}
    return json.dumps(bad)


_DEEP = '{"level":1,"node":{"del":' * 3000 + '{"leaf":"any"}' + ',"link":{"leaf":"any"},"pivot":0}}' * 3000


@pytest.mark.parametrize(
    "text, where",
    [
        (_nest({"level": 1, "node": {"del": {"leaf": "any"}, "pivot": 0}}, ["del", "link", "del"]), "del/link/del"),
        (_nest({"level": 1, "node": 5}, ["link"]), "link"),
        (_nest({"level": 1, "node": {"del": {"leaf": "any"}, "link": {"leaf": "any"}, "pivot": "x"}}, ["del"]), "del"),
        (_nest({"leaf": "edgeless", "vertices": ["a"]}, ["del", "del"]), "del/del"),
        (_DEEP, "nested too deeply"),
    ],
    ids=["missing-link", "node-not-object", "pivot-not-integer", "vertex-not-integer", "nested-3000-deep"],
)
def test_malformed_certificate_is_certificate_error(files, capsys, text, where):
    (files / "bad.json").write_text(text)
    code, out, err = run(capsys, "vd", "verify", "--graph", files / "k2.txt", "--cert", files / "bad.json")
    obj = json.loads(err)
    assert code == 1 and out == ""
    assert set(obj) == {"error", "kind"} and obj["kind"] == "CertificateError"
    assert where in obj["error"]


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


@pytest.mark.parametrize("value", ["abc", "1/0"])
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


def _path_2500(files):
    path = files / "p2500.txt"
    path.write_text("p 2500 2499\n" + "".join(f"e {i} {i + 1}\n" for i in range(2499)))
    return path


def test_vd_check_decides_a_2500_vertex_path(files, capsys):
    code, out, err = run(capsys, "vd", "check", "--graph", _path_2500(files), "--k", "2")
    assert code == 0 and err == ""
    assert out == '{"k":2,"vd":true}\n'


def test_recursion_too_deep_is_depth_error(files, capsys):
    # the degree-bound construction still recurses once per peeled vertex
    code, out, err = run(capsys, "vd", "build", "--graph", _path_2500(files))
    assert code == 2 and out == ""
    assert json.loads(err)["kind"] == "depth"


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
        assert {"usage", "budget", "depth", "JSONDecodeError", "FileNotFoundError"} <= listed
