"""Benchmark of whole tvf CLI flows, one cold interpreter per step.

    python3 bench/run.py --workload df1-certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload is a closed loop with one
client: a flow iteration runs the documented CLI commands on one set of
generated inputs, one step after another, each step in a fresh interpreter
running what the ``tvf`` console script runs (``src`` on the path,
``TVF_BUDGET`` unset), and checks every output with the oracles in
``oracles.py``.  Iterations repeat until ``--seconds`` have passed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
medians over the iterations of the flow's wall time, of each of its three
stages, of the largest step's peak RSS and of the bytes of artifacts a flow
writes, and the median set-up time.  With ``--trace 1`` each iteration runs
the flow twice, plainly and through ``tracer.py`` (alternating which goes
first), and the line reports per-layer metrics from the traced copy.  Times are scaled to a
reference machine speed (see PROBE_REF_S).  The line before it holds
details: seed, input and artifact SHA-256 digests, per-command latencies
and any oracle failures.  Scratch files live in ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
# what the `tvf` console script of an installed package runs
TVF_SCRIPT = "import sys; from tvf.cli import main; sys.exit(main())"
# A shared machine changes speed by a third or more within minutes as other
# tenants load it.  Reported times are therefore scaled to a reference speed:
# by PROBE_REF_S over the run's median probe() time.  probe() runs on this
# process's CPU, to which every step is pinned, before each step and each
# set-up.  Raw times are in the details line.
PROBE_REF_S = 0.020
POOL = 12  # input sets generated per run; iterations cycle through them
RUN_LIMIT_S = 165.0  # no step starts after this; every run ends within 180 s

# Each workload: the base graphs of one iteration's inputs, and whether they
# come with planar points.
WORKLOADS = {
    "df1-certify": {
        "graphs": ["C6"],
        "points": False,
    },
    "level-audit": {
        "graphs": ["C13", "P12", "C5xK3"],
        "points": False,
    },
    "witness-search": {
        "graphs": ["P10", "E10", "P9", "P12"],
        "points": True,
    },
}
DF1_Q = 7
TVERBERG_Q = 4
COROLLARY_EPS = Fraction(1, 5)

END_TO_END = {
    "wall_s": "s",
    "stage1_s": "s",
    "stage2_s": "s",
    "stage3_s": "s",
    "peak_rss_mb": "MB",
    "artifact_bytes": "bytes",
    "setup_s": "s",
}
COMMANDS = {
    "squid df1": "cmd.squid_df1_s",
    "vd verify": "cmd.vd_verify_s",
    "squid extract": "cmd.squid_extract_s",
    "vd max": "cmd.vd_max_s",
    "complex check-prop": "cmd.complex_check_prop_s",
    "complex betti": "cmd.complex_betti_s",
    "tverberg search": "cmd.tverberg_search_s",
    "tverberg corollary": "cmd.tverberg_corollary_s",
}
PER_LAYER = {
    "graphs.parse_edgelist_s": "s",
    "graphs.product_with_complete_s": "s",
    "graphs.graph_inits": "count",
    "squids.run_df1_s": "s",
    "squids.extract_certificate_s": "s",
    "squids.trace_to_json_s": "s",
    "squids.trace_from_json_s": "s",
    "squids.trace_nodes": "count",
    "squids.trace_bytes": "bytes",
    "vd.assemble_pivot_decomposition_s": "s",
    "vd.assemble_pivot_decomposition_calls": "count",
    "vd.certificate_to_json_s": "s",
    "vd.cert_bytes": "bytes",
    "vd.cert_tree_nodes": "count",
    "vd.cert_unique_nodes": "count",
    "vd.certificate_from_json_s": "s",
    "vd.verify_certificate_s": "s",
    "vd.max_vd_s": "s",
    "vd.is_vd_s": "s",
    "complexes.independence_complex_s": "s",
    "complexes.skeleton_s": "s",
    "complexes.is_vertex_decomposable_s": "s",
    "complexes.check_shelling_s": "s",
    "complexes.betti_s": "s",
    "complexes.faces": "count",
    "complexes.boundary_nonzeros": "count",
    "tverberg.search_witness_s": "s",
    "tverberg.corollary_pipeline_s": "s",
    "tverberg.hulls_intersect_calls": "count",
    "tverberg.hulls_feasible_ratio": "ratio",
    "ratlp.solve_s": "s",
    "ratlp.calls": "count",
    "ratlp.vars_mean": "count",
    "cli.self_s": "s",
    "cli.io_bytes": "bytes",
    "bench.trace_overhead_ratio": "ratio",
    **{name: "s" for name in COMMANDS.values()},
}
# layer_metrics keys that are reported under another name
RENAMED = {"ratlp.solve_equality_feasibility_s": "ratlp.solve_s",
           "ratlp.solve_equality_feasibility_calls": "ratlp.calls"}


def probe() -> float:
    """Seconds for a fixed slice of the interpreter work tvf does (Fractions, sets, JSON)."""
    start = time.perf_counter()
    acc, seen = Fraction(0), set()
    for i in range(1, 2000):
        acc += Fraction(i % 7, i % 11 + 1)
        seen ^= {i % 61, acc.numerator % 89}
        json.dumps([i, sorted(seen)[:3]])
    return time.perf_counter() - start


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fsize(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


@dataclass
class StepResult:
    command: str
    stage: int
    code: int
    wall: float
    rss_mb: float
    stdout: str
    artifact_bytes: int
    io_bytes: int
    failures: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)

    def json(self) -> dict:
        try:
            obj = json.loads(self.stdout)
        except ValueError:
            return {}
        return obj if isinstance(obj, dict) else {}


class Flow:
    """Runs the steps of one flow iteration and collects their records."""

    def __init__(self, run_dir: Path, env: dict, traced: bool, deadline: float,
                 probes: list[float]):
        self.dir = run_dir
        self.env = env
        self.traced = traced
        self.deadline = deadline
        self.probes = probes
        self.steps: list[StepResult] = []
        self.sizes: dict[str, float] = {}
        self.digests: dict[str, str] = {}

    def step(self, stage, command, args, inputs=(), artifacts=(), expect=0) -> StepResult:
        args = [str(a) for a in args]
        n = len(self.steps)
        out_path, err_path = self.dir / f"{n}.stdout", self.dir / f"{n}.stderr"
        spans_path = self.dir / f"{n}.spans.json"
        if self.traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *args]
        else:
            cmd = [sys.executable, "-c", TVF_SCRIPT, *args]
        timeout = max(1.0, self.deadline - time.perf_counter())
        self.probes.append(probe())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.dir)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)  # rusage of this step alone
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_bytes()
        outputs = [Path(self.dir / a) for a in artifacts]
        manifests = [p.with_name(p.name + ".manifest.json") for p in outputs]
        result = StepResult(
            command=command,
            stage=stage,
            code=code,
            wall=wall,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=stdout.decode("utf-8", "replace"),
            artifact_bytes=len(stdout) + sum(fsize(p) for p in outputs),
            io_bytes=len(stdout) + sum(fsize(Path(p)) for p in (*inputs, *outputs, *manifests)),
        )
        if code != expect:
            stderr = err_path.read_text(encoding="utf-8", errors="replace").strip()
            result.failures.append(f"{command}: exit {code}, expected {expect}: {stderr[-300:]}")
        for p in outputs:
            if p.exists():
                self.digests[p.name] = sha256(p.read_bytes())
        self.digests[f"{n}.stdout"] = sha256(stdout)
        if self.traced and spans_path.exists():
            record = json.loads(spans_path.read_text(encoding="utf-8"))
            result.layers = tracer.layer_metrics(record["spans"], record["counters"], wall)
        self.steps.append(result)
        return result

    def check(self, result: StepResult, failures: list[str]) -> None:
        result.failures.extend(f"{result.command}: {msg}" for msg in failures)


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------


def flow_df1_certify(flow: Flow, insts: dict[str, inputs.Instance]) -> None:
    inst = insts["C6"]
    g, q = inst.files["graph"], DF1_Q
    flow.step(1, "squid df1",
              ["squid", "df1", "--graph", g, "--q", q, "--out", "trace.json",
               "--cert-out", "cert.json"],
              inputs=[g], artifacts=["trace.json", "cert.json"])
    r = flow.step(2, "vd verify",
                  ["vd", "verify", "--graph-product", g, "--q", q, "--cert", "cert.json"],
                  inputs=[g, flow.dir / "cert.json"])
    report = r.json()
    if report.get("valid") is not True or report.get("level") != inst.graph.n:
        flow.check(r, [f"expected valid at level {inst.graph.n}, got {report}"])
    r = flow.step(3, "squid extract",
                  ["squid", "extract", "--trace", "trace.json", "--out", "replay.json"],
                  inputs=[flow.dir / "trace.json"], artifacts=["replay.json"])
    cert, replay = flow.dir / "cert.json", flow.dir / "replay.json"
    if not cert.exists() or not replay.exists() or cert.read_bytes() != replay.read_bytes():
        flow.check(r, ["replayed certificate differs from --cert-out"])
    if flow.traced and cert.exists() and (flow.dir / "trace.json").exists():
        trace_text = (flow.dir / "trace.json").read_bytes()
        flow.sizes["squids.trace_bytes"] = len(trace_text)
        flow.sizes["squids.trace_nodes"] = len(json.loads(trace_text)["nodes"])
        flow.sizes["vd.cert_bytes"] = fsize(cert)
        tree, unique = certificate_size(json.loads(cert.read_bytes()))
        flow.sizes["vd.cert_tree_nodes"] = tree
        flow.sizes["vd.cert_unique_nodes"] = unique


def certificate_size(obj) -> tuple[int, int]:
    """(tree nodes, structurally distinct subtrees) of a nested certificate."""
    ids: dict[tuple, int] = {}
    done: list[int] = []
    tree = 0
    stack = [(obj, False)]
    while stack:
        o, expanded = stack.pop()
        if "node" in o and not expanded:
            tree += 1
            stack += [(o, True), (o["node"]["link"], False), (o["node"]["del"], False)]
            continue
        if "node" in o:
            link, dele = done.pop(), done.pop()
            key = ("node", o["level"], o["node"]["pivot"], dele, link)
        else:
            tree += 1
            key = (o["leaf"], o["level"], tuple(o.get("vertices", ())))
        done.append(ids.setdefault(key, len(ids)))
    return tree, len(ids)


def flow_level_audit(flow: Flow, insts: dict[str, inputs.Instance]) -> None:
    faces = nonzeros = 0
    for name in WORKLOADS["level-audit"]["graphs"]:
        inst = insts[name]
        g = inst.files["graph"]
        counts = independent_sets(name)
        r = flow.step(1, "vd max", ["vd", "max", "--graph", g], inputs=[g])
        flow.check(r, oracles.check_vd_max(name, r.stdout))
        k = oracles.VD_MAX[name]
        r = flow.step(2, "complex check-prop",
                      ["complex", "check-prop", "--graph", g, "--k", k], inputs=[g])
        flow.check(r, oracles.check_prop(inst.graph, k, counts, r.json()))
        r = flow.step(3, "complex betti", ["complex", "betti", "--graph", g], inputs=[g])
        flow.check(r, oracles.check_betti(name, counts, r.json()))
        # faces and boundary entries of the two complexes whose homology tvf computes:
        # the (k-1)-skeleton in check-prop, the whole complex in betti
        for top in (k, len(counts) - 1):
            faces += sum(counts[: top + 1])
            nonzeros += sum(j * c for j, c in enumerate(counts[: top + 1]))
    if flow.traced:
        flow.sizes["complexes.faces"] = faces
        flow.sizes["complexes.boundary_nonzeros"] = nonzeros


_INDEPENDENT_SETS: dict[str, list[int]] = {}


def independent_sets(name: str) -> list[int]:
    if name not in _INDEPENDENT_SETS:
        _INDEPENDENT_SETS[name] = oracles.independent_set_counts(inputs.BASE_GRAPHS[name])
    return _INDEPENDENT_SETS[name]


def flow_witness_search(flow: Flow, insts: dict[str, inputs.Instance]) -> None:
    q = TVERBERG_Q

    def search(stage, inst, expect):
        g, pts = inst.files["graph"], inst.files["points"]
        out = f"{inst.key}.witness.json"
        return flow.step(stage, "tverberg search",
                         ["tverberg", "search", "--graph", g, "--points", pts, "--q", q,
                          "--out", out],
                         inputs=[g, pts], artifacts=[out], expect=expect)

    for name in ("P10", "E10"):  # E10 has (d+1)(q-1)+1 points: Tverberg guarantees a witness
        inst = insts[name]
        r = search(1, inst, 0)
        witness = read_json(flow.dir / f"{name}.witness.json").get("witness")
        flow.check(r, oracles.check_witness(inst.graph, inst.points, q, witness or {}))
    inst = insts["P9"]
    r = search(2, inst, 1)
    flow.check(r, oracles.check_refutation(
        inst.points, r.code, read_json(flow.dir / "P9.witness.json")))
    inst = insts["P12"]
    g, pts = inst.files["graph"], inst.files["points"]
    r = flow.step(3, "tverberg corollary",
                  ["tverberg", "corollary", "--graph", g, "--points", pts, "--q", q,
                   "--epsilon", "1/5", "--out", "corollary.json"],
                  inputs=[g, pts], artifacts=["corollary.json"])
    flow.check(r, oracles.check_corollary(
        inst.graph, inst.points, q, COROLLARY_EPS, read_json(flow.dir / "corollary.json")))


def read_json(path: Path) -> dict:
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return obj if isinstance(obj, dict) else {}


FLOWS = {
    "df1-certify": flow_df1_certify,
    "level-audit": flow_level_audit,
    "witness-search": flow_witness_search,
}


# ---------------------------------------------------------------------------
# Set-up, the measuring loop, and the report
# ---------------------------------------------------------------------------


def step_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("TVF_BUDGET", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def setup(workload: str, seed: int, env: dict) -> tuple[list[dict], dict]:
    """Generate the input pool and import tvf.cli once in a cold interpreter."""
    spec = WORKLOADS[workload]
    shutil.rmtree(WORK, ignore_errors=True)
    pool, digests = [], {}
    for i in range(POOL):
        directory = WORK / "inputs" / str(i)
        directory.mkdir(parents=True)
        insts = {}
        for name in spec["graphs"]:
            rng = random.Random(f"{workload}:{seed}:{i}:{name}")
            insts[name] = inputs.make_instance(name, rng, spec["points"])
            digests.update({f"{i}/{k}": v for k, v in insts[name].write(directory).items()})
        pool.append(insts)
    subprocess.run([sys.executable, "-c", "import tvf.cli"], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return pool, digests


def run_flow(workload: str, insts: dict, run_dir: Path, env: dict, traced: bool,
             deadline: float, probes: list[float]) -> Flow:
    run_dir.mkdir(parents=True)
    flow = Flow(run_dir, env, traced, deadline, probes)
    FLOWS[workload](flow, insts)
    shutil.rmtree(run_dir)  # artifacts are kept as digests only
    return flow


def flow_layers(flow: Flow) -> dict[str, float]:
    """Per-layer totals of one traced flow iteration."""
    total: dict[str, float] = {}
    for step in flow.steps:
        for key, value in step.layers.items():
            key = RENAMED.get(key, key)
            total[key] = total.get(key, 0) + value
    total.update(flow.sizes)
    total["cli.io_bytes"] = sum(s.io_bytes for s in flow.steps)
    calls = total.get("tverberg.hulls_intersect_calls", 0)
    feasible = total.get("tverberg.hulls_feasible", 0)
    total["tverberg.hulls_feasible_ratio"] = feasible / calls if calls else 0.0
    lp_calls = total.get("ratlp.calls", 0)
    total["ratlp.vars_mean"] = total.get("ratlp.lp_vars", 0) / lp_calls if lp_calls else 0.0
    return total


def command_times(flow: Flow) -> dict[str, float]:
    out = {name: 0.0 for name in COMMANDS.values()}
    for step in flow.steps:
        out[COMMANDS[step.command]] += step.wall
    return out


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(row.get(key, 0) for row in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = time.perf_counter()
    if not (SRC / "tvf" / "cli.py").is_file():
        sys.stderr.write(f"bench: no tvf sources under {SRC}; run from a checkout root\n")
        return 2
    env = step_env()
    # One CPU for this process and every step: steps run one at a time anyway,
    # and a step that lands on another CPU than the last one times differently.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_times, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(probe())
        t = time.perf_counter()
        pool, input_digests = setup(args.workload, args.seed, env)
        setup_times.append(time.perf_counter() - t)

    deadline = run_start + RUN_LIMIT_S
    plain: list[Flow] = []
    traced: list[Flow] = []
    t0 = time.perf_counter()
    while not plain or (time.perf_counter() - t0 < args.seconds
                        and time.perf_counter() < deadline):
        i = len(plain)
        insts = pool[i % POOL]
        order = [False, True] if args.trace else [False]
        if i % 2:  # traced and plain flows on the same inputs alternate going first
            order.reverse()
        for is_traced in order:
            flows = traced if is_traced else plain
            flows.append(run_flow(args.workload, insts, WORK / "runs" / f"{i}{'t' * is_traced}",
                                  env, is_traced, deadline, probes))
    shutil.rmtree(WORK, ignore_errors=True)

    scale = PROBE_REF_S / statistics.median(probes)
    steps = [s for flow in plain + traced for s in flow.steps]
    failures = [msg for s in steps for msg in s.failures]
    failed = sum(1 for s in steps if s.failures)
    rows = []
    for flow in plain:
        row = {"wall_s": sum(s.wall for s in flow.steps),
               "peak_rss_mb": max(s.rss_mb for s in flow.steps),
               "artifact_bytes": sum(s.artifact_bytes for s in flow.steps)}
        for stage in (1, 2, 3):
            row[f"stage{stage}_s"] = sum(s.wall for s in flow.steps if s.stage == stage)
        rows.append(row)
    cmd_rows = [command_times(flow) for flow in plain]
    if args.trace:
        layer_rows = [flow_layers(flow) for flow in traced]
        for row, flow, base in zip(layer_rows, traced, rows):
            row["bench.trace_overhead_ratio"] = sum(s.wall for s in flow.steps) / base["wall_s"]
        for row, cmd in zip(layer_rows, cmd_rows):
            row.update(cmd)
        values = {name: median_of(layer_rows, name) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = {key: median_of(rows, key) for key in rows[0]}
        values["setup_s"] = statistics.median(setup_times)
        units = END_TO_END
    metrics = {name: {"value": values[name] * (scale if unit == "s" else 1), "unit": unit}
               for name, unit in units.items()}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "iterations": len(plain),
        "steps": len(steps),
        "speed_scale": scale,
        "raw_wall_s": median_of(rows, "wall_s"),
        "setup_s": setup_times,
        "step_walls_s": [[s.wall for s in flow.steps] for flow in plain],
        "commands_s": {k: median_of(cmd_rows, k) for k in cmd_rows[0] if median_of(cmd_rows, k)},
        "inputs_sha256": {k: v for k, v in input_digests.items()
                          if int(k.split("/")[0]) < min(len(plain), POOL)},
        "artifacts_sha256": [flow.digests for flow in plain[:POOL]],
        "failures": failures[:20],
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(steps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
