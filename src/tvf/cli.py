"""Command-line entry point.

Exit codes: 0 success, 1 domain or verification failure, 2 budget
exhausted or input too deep for the interpreter's recursion limit, 64 usage
errors.  Artifact-writing commands (--out, --cert-out)
emit a sibling <path>.manifest.json recording input/output digests, the
seed, and timing; identical inputs and seed reproduce byte-identical
artifacts.  The TVF_BUDGET environment variable, a positive integer,
overrides the face, search and level budgets; any other value is a usage
error.

Depth errors come only from the recursions that still follow their input:
certificate construction and lifting, trace extraction, and complex vertex
decomposability.  The graph level decision behind vd check, vd max and
complex check-prop runs on an explicit stack.

Each command is a cold process, so the layer modules are registered in
sys.modules lazily: a command compiles and runs only the layers it calls,
while every layer is still found in sys.modules after this module is
imported, where the benchmark's tracer looks for them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .errors import (
    BudgetExceeded,
    ComplexError,
    GraphError,
    SchemeError,
    SquidError,
    TverbergError,
    VdError,
)


def _lazy_layers(*names: str) -> list:
    """The modules tvf.<name>, each run on its first attribute access.

    Each is registered in sys.modules and bound on the package, so every
    later import of it finds this one object.  A module already imported
    is returned as it is.
    """
    package = sys.modules[__package__]
    modules = []
    for name in names:
        full = f"{__package__}.{name}"
        module = sys.modules.get(full)
        if module is None:
            spec = importlib.util.find_spec(full)
            spec.loader = importlib.util.LazyLoader(spec.loader)
            module = importlib.util.module_from_spec(spec)
            sys.modules[full] = module
            spec.loader.exec_module(module)
        setattr(package, name, module)
        modules.append(module)
    return modules


# No command calls ratlp itself; it is registered with the others because the
# benchmark's tracer reads every layer from sys.modules after importing the CLI.
cx, gr, _ratlp, sc, sq, tv, vd = _lazy_layers(
    "complexes", "graphs", "ratlp", "schemes", "squids", "tverberg", "vd"
)

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit 2; the contract says 64
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _rational(text: str):
    """argparse type of --epsilon: the Fraction of a rational such as 1/5 or 0.2."""
    from fractions import Fraction  # only commands with --epsilon pay for it

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational such as 1/5 or 0.2, got {text!r}"
        ) from None


class UsageError(Exception):
    """Bad invocation found after argument parsing (exit 64)."""


def _env_budget() -> int | None:
    """TVF_BUDGET as a positive integer, or None when it is unset."""
    raw = os.environ.get("TVF_BUDGET")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise UsageError(f"TVF_BUDGET must be a positive integer, got {raw!r}")
    return value


def _face_budget(run: _Run) -> int:
    return run.budget or cx.DEFAULT_FACE_BUDGET


def _search_budget(run: _Run) -> int:
    return run.budget or tv.DEFAULT_SEARCH_BUDGET


def _level_budget(run: _Run) -> int:
    return run.budget or vd.DEFAULT_LEVEL_BUDGET


class _Run:
    """Collects inputs/outputs of one command for the manifest."""

    def __init__(self, args, argv):
        self.args = args
        self.argv = list(argv)
        self.t0 = time.monotonic()
        self.inputs: list[tuple[str, str]] = []
        self.outputs: list[tuple[str, str]] = []
        self.stdout_digest: str | None = None
        self.budget = _env_budget()

    def read(self, path: str) -> str:
        text = _read(path)
        self.inputs.append((path, _sha256_text(text)))
        return text

    def graph(self, path: str) -> gr.Graph:
        return gr.parse_edgelist(self.read(path))

    def write(self, path: str, text: str) -> None:
        Path(path).write_text(text, encoding="utf-8")
        self.outputs.append((path, _sha256_text(text)))

    def emit(self, text: str, out: str | None) -> None:
        """Artifact to --out when given, else stdout."""
        if out:
            self.write(out, text)
        else:
            sys.stdout.write(text)
            self.stdout_digest = _sha256_text(text)

    def finish(self) -> None:
        manifest_path = getattr(self.args, "manifest", None)
        if manifest_path is None and self.outputs:
            manifest_path = self.outputs[0][0] + ".manifest.json"
        if manifest_path is None:
            return
        payload = {
            "argv": self.argv,
            "command": getattr(self.args, "command_path", ""),
            "duration_seconds": round(time.monotonic() - self.t0, 6),
            "inputs": [{"path": p, "sha256": d} for p, d in self.inputs],
            "outputs": [{"path": p, "sha256": d} for p, d in self.outputs],
            "seed": self.args.seed,
            "stdout_sha256": self.stdout_digest,
            "version": __version__,
        }
        Path(manifest_path).write_text(_dumps(payload), encoding="utf-8")


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------


def cmd_graph_product(run: _Run) -> int:
    args = run.args
    G = run.graph(args.graph)
    if (args.q is None) == (args.with_graph is None):
        raise GraphError("give exactly one of --q or --with")
    if args.q is not None:
        P = gr.product_with_complete(G, args.q)
    else:
        P = gr.cartesian_product(G, gr.parse_edgelist(run.read(args.with_graph)))
    run.emit(gr.format_edgelist(P), args.out)
    return 0


def cmd_graph_info(run: _Run) -> int:
    G = run.graph(run.args.graph)
    info = {
        "df1_threshold_distance": sq.df1_threshold(G, "distance") if G.n else 0,
        "df1_threshold_walk": sq.df1_threshold(G, "walk") if G.n else 0,
        "edges": G.m,
        "max_degree": G.max_degree(),
        "vertices": G.n,
    }
    run.emit(_dumps(info), None)
    return 0


# ---------------------------------------------------------------------------
# vd
# ---------------------------------------------------------------------------


def cmd_vd_check(run: _Run) -> int:
    G = run.graph(run.args.graph)
    ok = vd.is_vd(G, run.args.k, _level_budget(run))
    run.emit(_dumps({"k": run.args.k, "vd": ok}), None)
    return 0 if ok else 1


def cmd_vd_max(run: _Run) -> int:
    G = run.graph(run.args.graph)
    run.emit(f"{vd.max_vd(G, _level_budget(run))}\n", None)
    return 0


def cmd_vd_build(run: _Run) -> int:
    G = run.graph(run.args.graph)
    cert = vd.build_certificate_degree_bound(G)
    run.emit(vd.certificate_to_json(cert) + "\n", run.args.out)
    return 0


def cmd_vd_verify(run: _Run) -> int:
    args = run.args
    if (args.graph is None) == (args.graph_product is None):
        raise GraphError("give exactly one of --graph or --graph-product")
    if args.graph is not None:
        G = run.graph(args.graph)
    else:
        if args.q is None:
            raise GraphError("--graph-product requires --q")
        G = gr.product_with_complete(run.graph(args.graph_product), args.q)
    cert = vd.certificate_from_json(run.read(args.cert))
    result = vd.verify_certificate(G, cert)
    run.emit(
        _dumps(
            {
                "level": cert.level,
                "path": list(result.path),
                "reason": result.reason,
                "valid": result.ok,
            }
        ),
        None,
    )
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------
# squid
# ---------------------------------------------------------------------------


def _emit_trace(run: _Run, trace: sq.RemovalTrace) -> None:
    run.emit(trace.to_json() + "\n", run.args.out)
    if run.args.cert_out:
        cert = sq.extract_certificate(trace)
        run.write(run.args.cert_out, vd.certificate_to_json(cert) + "\n")


def cmd_squid_df1(run: _Run) -> int:
    args = run.args
    trace = sq.run_df1(run.graph(args.graph), args.q, args.mode)
    _emit_trace(run, trace)
    return 0


def cmd_squid_dynamic(run: _Run) -> int:
    args = run.args
    scheme = sc.SizeScheme.from_obj(json.loads(run.read(args.scheme)))
    trace = sq.run_dynamic(run.graph(args.graph), args.q, scheme)
    _emit_trace(run, trace)
    return 0


def cmd_squid_extract(run: _Run) -> int:
    trace = sq.RemovalTrace.from_json(run.read(run.args.trace))
    cert = sq.extract_certificate(trace)
    run.emit(vd.certificate_to_json(cert) + "\n", run.args.out)
    return 0


# ---------------------------------------------------------------------------
# scheme
# ---------------------------------------------------------------------------


def cmd_scheme_constants(run: _Run) -> int:
    consts = sc.epsilon_constants(float(run.args.epsilon))
    run.emit(_dumps(consts.to_obj()), None)
    return 0


def cmd_scheme_build(run: _Run) -> int:
    args = run.args
    built = sc.build_scheme(args.epsilon, args.n, args.delta, args.q)
    report = {
        "blocks_extended": built.blocks_extended,
        "blocks_initial": built.blocks_initial,
        "constants": built.constants.to_obj(),
        "coverage": built.coverage,
        "fractional_budget": built.fractional_budget,
        "pre_rounding_coverage": built.pre_rounding_coverage,
        "pre_rounding_covers_target": built.pre_rounding_covers_target,
        "scheme": built.scheme.to_obj(),
        "target": built.target,
    }
    if args.out:
        run.write(args.out, _dumps(built.scheme.to_obj()))
        sys.stdout.write(_dumps(report))
    else:
        run.emit(_dumps(report), None)
    return 0


def cmd_scheme_validate(run: _Run) -> int:
    obj = json.loads(run.read(run.args.file))
    scheme = sc.SizeScheme.from_obj(obj)
    check = sc.validate_scheme(scheme.sizes, scheme.n, scheme.q, scheme.delta)
    run.emit(
        _dumps(
            {"failing_index": check.failing_index, "reason": check.reason, "valid": check.ok}
        ),
        None,
    )
    return 0 if check.ok else 1


# ---------------------------------------------------------------------------
# complex
# ---------------------------------------------------------------------------


def _load_complex(run: _Run) -> cx.SimplicialComplex:
    args = run.args
    if (args.graph is None) == (args.facets is None):
        raise ComplexError("give exactly one of --graph or --facets")
    if args.graph is not None:
        return cx.independence_complex(run.graph(args.graph))
    return cx.parse_facets(run.read(args.facets))


def cmd_complex_ind(run: _Run) -> int:
    S = cx.independence_complex(run.graph(run.args.graph))
    run.emit(cx.format_facets(S), run.args.out)
    return 0


def cmd_complex_betti(run: _Run) -> int:
    S = _load_complex(run)
    if run.args.k is not None:
        S = cx.skeleton(S, run.args.k, _face_budget(run))
    b = cx.betti(S, _face_budget(run))
    run.emit(_dumps({"dim": S.dim, "min_dim": -1, "numbers": list(b.numbers)}), None)
    return 0


def cmd_complex_vd(run: _Run) -> int:
    S = _load_complex(run)
    result = cx.is_vertex_decomposable(S)
    obj = {
        "shelling": None if result.shelling is None else [list(f) for f in result.shelling],
        "vertex_decomposable": result.ok,
    }
    run.emit(_dumps(obj), None)
    return 0 if result.ok else 1


def cmd_complex_check_prop(run: _Run) -> int:
    G = run.graph(run.args.graph)
    report = cx.check_prop_isvd(G, run.args.k, _face_budget(run))
    obj = {
        "betti": list(report.betti_numbers.numbers),
        "decomposable": report.decomposable,
        "dimension": report.actual_dim,
        "expected_dimension": report.expected_dim,
        "failures": list(report.failures),
        "k": report.k,
        "passed": report.passed,
        "pure": report.pure,
        "shelling": None if report.shelling is None else [list(f) for f in report.shelling],
        "shelling_valid": report.shelling_valid,
    }
    run.emit(_dumps(obj), None)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# tverberg
# ---------------------------------------------------------------------------


def cmd_tverberg_search(run: _Run) -> int:
    args = run.args
    G = run.graph(args.graph)
    cfg = tv.parse_points(run.read(args.points))
    witness = tv.search_witness(G, cfg, args.q, _search_budget(run))
    if witness is None:
        run.emit(_dumps({"witness": None}), args.out)
        return 1
    run.emit(_dumps({"witness": tv.witness_to_obj(witness)}), args.out)
    return 0


def cmd_tverberg_corollary(run: _Run) -> int:
    args = run.args
    G = run.graph(args.graph)
    cfg = tv.parse_points(run.read(args.points))
    report = tv.corollary_pipeline(G, cfg, args.q, args.epsilon, _search_budget(run))
    run.emit(_dumps(report.to_obj()), args.out)
    return 0 if report.witness is not None else 1


def cmd_tverberg_primes(run: _Run) -> int:
    power, prime = tv.prime_utilities(run.args.q)
    run.emit(_dumps({"bertrand_prime": prime, "is_prime_power": power}), None)
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="tvf", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="seed recorded in manifests")
    parser.add_argument("--manifest", help="write a run manifest to this path")
    parser.add_argument("--version", action="version", version=f"tvf {__version__}")
    top = parser.add_subparsers(dest="group", required=True, parser_class=_Parser)

    def sub(group, name, func, **kwargs):
        p = group.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    g = top.add_parser("graph").add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )
    p = sub(g, "product", cmd_graph_product, help="cartesian product, G x K_q or G x H")
    p.add_argument("--graph", required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--with", dest="with_graph")
    p.add_argument("--out")
    p = sub(g, "info", cmd_graph_info, help="vertex/edge counts, degrees, thresholds")
    p.add_argument("--graph", required=True)

    v = top.add_parser("vd").add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )
    p = sub(v, "check", cmd_vd_check, help="decide level k")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p = sub(v, "max", cmd_vd_max, help="largest satisfied level")
    p.add_argument("--graph", required=True)
    p = sub(v, "build", cmd_vd_build, help="degree-bound certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p = sub(v, "verify", cmd_vd_verify, help="re-check a certificate")
    p.add_argument("--graph")
    p.add_argument("--graph-product", dest="graph_product")
    p.add_argument("--q", type=int)
    p.add_argument("--cert", required=True)

    s = top.add_parser("squid").add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )
    p = sub(s, "df1", cmd_squid_df1, help="lexicographic-pivot removal trace")
    p.add_argument("--graph", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--mode", choices=["walk", "distance"], default="walk")
    p.add_argument("--out")
    p.add_argument("--cert-out", dest="cert_out")
    p = sub(s, "dynamic", cmd_squid_dynamic, help="scheme-driven removal trace")
    p.add_argument("--graph", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--out")
    p.add_argument("--cert-out", dest="cert_out")
    p = sub(s, "extract", cmd_squid_extract, help="trace -> certificate")
    p.add_argument("--trace", required=True)
    p.add_argument("--out")

    c = top.add_parser("scheme").add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )
    p = sub(c, "constants", cmd_scheme_constants, help="a, gamma, K_eps")
    p.add_argument("--epsilon", type=_rational, required=True)
    p = sub(c, "build", cmd_scheme_build, help="geometric integer scheme")
    p.add_argument("--epsilon", type=_rational, required=True)
    p.add_argument("--n", type=int, required=True, help="coverage target N")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")
    p = sub(c, "validate", cmd_scheme_validate, help="exact inequality check")
    p.add_argument("--file", required=True)

    x = top.add_parser("complex").add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )
    p = sub(x, "ind", cmd_complex_ind, help="independence complex facets")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p = sub(x, "betti", cmd_complex_betti, help="reduced rational Betti numbers")
    p.add_argument("--graph")
    p.add_argument("--facets")
    p.add_argument("--k", type=int, help="restrict to the k-skeleton first")
    p = sub(x, "vd", cmd_complex_vd, help="vertex decomposability + shelling")
    p.add_argument("--graph")
    p.add_argument("--facets")
    p = sub(x, "check-prop", cmd_complex_check_prop, help="skeleton audit for level k")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)

    t = top.add_parser("tverberg").add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )
    p = sub(t, "search", cmd_tverberg_search, help="exact witness search")
    p.add_argument("--graph", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")
    p = sub(t, "corollary", cmd_tverberg_corollary, help="reduce-to-a-prime pipeline")
    p.add_argument("--graph", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--epsilon", type=_rational, required=True)
    p.add_argument("--out")
    p = sub(t, "primes", cmd_tverberg_primes, help="prime power test, largest prime <= q")
    p.add_argument("--q", type=int, required=True)

    return parser


_DOMAIN_ERRORS = (
    GraphError,
    VdError,
    SquidError,
    SchemeError,
    ComplexError,
    TverbergError,
    json.JSONDecodeError,
    OSError,
)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.command_path = " ".join(p for p in (args.group, getattr(args, "command", "")) if p)
    try:
        run = _Run(args, argv)
        code = args.func(run)
        run.finish()
        return code
    except UsageError as exc:
        sys.stderr.write(_dumps({"error": str(exc), "kind": "usage"}))
        return USAGE_EXIT
    except BudgetExceeded as exc:
        sys.stderr.write(_dumps({"error": str(exc), "kind": "budget"}))
        return 2
    except RecursionError:
        # a recursion that follows input depth ran out of interpreter stack:
        # a resource limit like the budgets, reported with their exit code
        sys.stderr.write(
            _dumps({"error": "input nested too deeply for the recursion limit", "kind": "depth"})
        )
        return 2
    except _DOMAIN_ERRORS as exc:
        sys.stderr.write(_dumps({"error": str(exc), "kind": type(exc).__name__}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
