import json

import pytest

from tvf.cli import main

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
