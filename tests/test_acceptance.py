"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 4's parameter grid is knowingly red for eps in {0.5, 1}:
the closed-form gate constant those grid points are built from does not
admit any valid scheme there (see the analysis in the project notes); the
test runs the grid as stated rather than weakening it.
"""

import json
import math
import random
import time
from fractions import Fraction as F

from tvf import cli
from tvf.complexes import check_prop_isvd
from tvf.graphs import Graph
from tvf.schemes import (
    InfeasibleScheme,
    SchemeError,
    SizeScheme,
    build_scheme,
    epsilon_constants,
    validate_scheme,
)
from tvf.squids import df1_threshold, extract_certificate, run_df1, run_dynamic
from tvf.tverberg import (
    PointConfiguration,
    hulls_intersect,
    search_witness,
    verify_witness,
)
from tvf.vd import is_vd, max_vd, verify_certificate

from conftest import all_labeled_graphs
from oracles import brute_certificate_search, complete_graph, hulls_intersect_oracle


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{name}]: {status}{suffix}")


def test_c1_vd_oracle_equivalence_up_to_seven(atlas):
    t0 = time.monotonic()
    pairs = 0
    for G in atlas:
        for k in range(0, G.n + 2):
            cert = brute_certificate_search(G, k)
            assert is_vd(G, k) == (cert is not None), (G.edges, k)
            if cert is not None:
                assert verify_certificate(G, cert).ok, (G.edges, k)
            pairs += 1
        delta = G.max_degree()
        if delta > 0:
            assert max_vd(G) >= G.n // (2 * delta), G.edges
    elapsed = time.monotonic() - t0
    ok = elapsed < 300
    _line(1, "vd oracle equivalence <=7 vertices", ok,
          f"{len(atlas)} graphs, {pairs} (graph,k) pairs, {elapsed:.1f}s")
    assert ok


def test_c2_skeleton_crosscheck_up_to_six(atlas6):
    t0 = time.monotonic()
    for G in atlas6:
        report = check_prop_isvd(G, max_vd(G))
        assert report.passed, (G.edges, report.failures)
        assert report.shelling_valid
    elapsed = time.monotonic() - t0
    ok = elapsed < 300
    _line(2, "skeleton purity/decomposability/homology <=6 vertices", ok,
          f"{len(atlas6)} graphs, {elapsed:.1f}s")
    assert ok


def test_c3_df1_end_to_end():
    t0 = time.monotonic()
    trace = run_df1(Graph.cycle(5), 7)
    cert = extract_certificate(trace)
    assert cert.level == 5
    assert verify_certificate(trace.product(), cert).ok
    small = 0
    for n in range(0, 4):
        for G in all_labeled_graphs(n):
            q = df1_threshold(G) + 1
            tr = run_df1(G, q)
            c = extract_certificate(tr)
            assert c.level == G.n
            assert verify_certificate(tr.product(), c).ok, (G.edges, q)
            small += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 600
    _line(3, "removal schedule end-to-end (C5 x K7 at level 5; all <=3-vertex graphs)", ok,
          f"{small} small cases, {elapsed:.1f}s")
    assert ok


def test_c4_constant_for_epsilon_three():
    t0 = time.monotonic()
    value = epsilon_constants(3).k_epsilon
    err = abs(value - (1 + math.log(2)))
    ok = err <= 1e-9 and time.monotonic() - t0 < 60
    _line(4, "closed-form constant at eps=3 equals 1+ln2", ok, f"error {err:.2e}")
    assert ok


def test_c4_scheme_grid_as_stated():
    """Runs the stated (eps, delta, N, q) grid.  The eps in {0.5, 1} rows are
    mathematically unattainable (the gate constant is below what any scheme
    needs there; see decisions ledger) and fail honestly."""
    t0 = time.monotonic()
    failures = []
    for eps in (0.5, 1, 3):
        consts = epsilon_constants(eps)
        for delta in (5, 10, 20):
            q = math.ceil(consts.k_epsilon * delta) + 1
            for N in (10**3, 10**4):
                try:
                    built = build_scheme(eps, N, delta, q)
                except (InfeasibleScheme, SchemeError) as exc:
                    failures.append(f"eps={eps} delta={delta} N={N} q={q}: {exc}")
                    continue
                if not validate_scheme(built.scheme.sizes, built.scheme.n, q, delta).ok:
                    failures.append(f"eps={eps} delta={delta} N={N} q={q}: validation")
                elif not built.pre_rounding_covers_target:
                    failures.append(f"eps={eps} delta={delta} N={N} q={q}: coverage")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60
    _line(4, "scheme grid builds, validates exactly, covers N pre-rounding", ok,
          f"{len(failures)} of 18 points failed, {elapsed:.1f}s")
    assert ok, (
        "grid points failed as analyzed in the decisions ledger "
        "(closed-form gate constant defect for eps<3): " + "; ".join(failures)
    )


def test_c5_dynamic_scheme_run():
    t0 = time.monotonic()
    scheme = SizeScheme((1, 1), 20, 5, 2)
    assert validate_scheme(scheme.sizes, scheme.n, scheme.q, scheme.delta).ok
    trace = run_dynamic(Graph.path(4), 5, scheme)
    cert = extract_certificate(trace)
    assert cert.level == sum(scheme.sizes)
    assert verify_certificate(trace.product(), cert).ok
    # row-choice rule at every block boundary (every step here starts a block)
    q, table = trace.q, trace.nodes
    gi = {v: i for i, v in enumerate(trace.graph.vertices)}
    boundaries = 0
    for i, pivot in enumerate(table.pivot):
        if pivot is None:
            continue
        mask, block_row, rows_used = table.residual[i], table.block_row[i], table.rows_used[i]
        residual = [
            (v, r)
            for v in trace.graph.vertices
            for r in range(1, q + 1)
            if mask >> (gi[v] * q + (r - 1)) & 1
        ]
        used_before = rows_used[: rows_used.index(block_row)]
        counts = {r: sum(1 for _, rr in residual if rr == r) for r in range(1, q + 1)}
        unused = [r for r in range(1, q + 1) if r not in used_before]
        best = max(counts[r] for r in unused)
        assert counts[block_row] == best
        assert block_row == min(r for r in unused if counts[r] == best)
        assert pivot % q + 1 == block_row  # the pivot label's row
        boundaries += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 60
    _line(5, "dynamic scheme run on P4, q=5 with row rule asserted", ok,
          f"{boundaries} block boundaries checked, {elapsed:.1f}s")
    assert ok


def test_c6_tverberg_witnesses():
    t0 = time.monotonic()
    rnd = random.Random(0)

    def rand_point(d=2):
        return tuple(F(rnd.randint(-20, 20), rnd.randint(1, 9)) for _ in range(d))

    G = Graph.empty(7)
    for trial in range(20):
        cfg = PointConfiguration(2, {v: rand_point() for v in range(7)})
        witness = search_witness(G, cfg, 3)
        assert witness is not None, f"trial {trial}"
        assert verify_witness(G, cfg, witness, 3)
    agreements = 0
    for _ in range(100):
        parts = [
            [rand_point() for _ in range(rnd.randint(1, 4))]
            for _ in range(rnd.randint(2, 3))
        ]
        assert (hulls_intersect(parts) is not None) == hulls_intersect_oracle(parts)
        agreements += 1
    K3 = complete_graph(3)
    collinear = PointConfiguration(1, {0: (F(0),), 1: (F(1),), 2: (F(2),)})
    assert search_witness(K3, collinear, 2) is None
    elapsed = time.monotonic() - t0
    ok = elapsed < 600
    _line(6, "tverberg witnesses: 20 found+reverified, 100 oracle agreements, negative case", ok,
          f"{agreements} oracle instances, {elapsed:.1f}s")
    assert ok


def _run_pipelines(tmpdir):
    graphs = {
        "k2.txt": "p 2 1\ne 0 1\n",
        "2k2.txt": "p 4 2\ne 0 1\ne 2 3\n",
        "e7.txt": "p 7 0\n",
        "p4.txt": "p 4 3\ne 0 1\ne 1 2\ne 2 3\n",
    }
    for name, text in graphs.items():
        (tmpdir / name).write_text(text)
    (tmpdir / "pts7.txt").write_text(
        "0 0 0\n1 4 0\n2 0 4\n3 1 1\n4 2 1/3\n5 -1 2\n6 3 3\n"
    )
    (tmpdir / "dyn.json").write_text(
        json.dumps({"sizes": [1, 1], "n": 20, "q": 5, "delta": 2})
    )
    runs = [
        ["squid", "df1", "--graph", str(tmpdir / "k2.txt"), "--q", "3",
         "--out", str(tmpdir / "trace.json"), "--cert-out", str(tmpdir / "cert.json")],
        ["squid", "dynamic", "--graph", str(tmpdir / "p4.txt"), "--q", "5",
         "--scheme", str(tmpdir / "dyn.json"), "--out", str(tmpdir / "dyn_trace.json")],
        ["vd", "build", "--graph", str(tmpdir / "2k2.txt"), "--out", str(tmpdir / "build.json")],
        ["scheme", "build", "--epsilon", "3", "--n", "1000", "--delta", "10",
         "--q", "40", "--out", str(tmpdir / "scheme.json")],
        ["complex", "ind", "--graph", str(tmpdir / "2k2.txt"), "--out", str(tmpdir / "ind.txt")],
        ["tverberg", "search", "--graph", str(tmpdir / "e7.txt"),
         "--points", str(tmpdir / "pts7.txt"), "--q", "3", "--out", str(tmpdir / "witness.json")],
    ]
    artifacts = {}
    for argv in runs:
        assert cli.main(argv) == 0
    for name in ("trace.json", "cert.json", "dyn_trace.json", "build.json",
                  "scheme.json", "ind.txt", "witness.json"):
        artifacts[name] = (tmpdir / name).read_bytes()
    # each run's manifest records digests of everything it wrote
    for name in ("trace.json", "dyn_trace.json", "build.json",
                  "scheme.json", "ind.txt", "witness.json"):
        manifest = json.loads((tmpdir / f"{name}.manifest.json").read_text())
        artifacts[name + ".digest"] = sorted(o["sha256"] for o in manifest["outputs"])
    return artifacts


def test_c7_determinism(tmp_path):
    t0 = time.monotonic()
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    first = _run_pipelines(dir_a)
    second = _run_pipelines(dir_b)
    assert set(first) == set(second)
    diffs = [name for name in first if first[name] != second[name]]
    # replay straight from the recorded manifests, in place
    replays = 0
    for name in ("trace.json", "dyn_trace.json", "build.json",
                  "scheme.json", "ind.txt", "witness.json"):
        manifest = json.loads((dir_a / f"{name}.manifest.json").read_text())
        assert cli.main(manifest["argv"]) == 0
        if (dir_a / name).read_bytes() != first[name]:
            diffs.append(name + ".replay")
        replays += 1
    elapsed = time.monotonic() - t0
    ok = not diffs and elapsed < 120
    _line(7, "pipelines reproduce byte-identical artifacts", ok,
          f"{sum(1 for n in first if not n.endswith('.digest'))} artifacts, "
          f"{replays} manifest replays, {elapsed:.1f}s")
    assert ok, diffs
