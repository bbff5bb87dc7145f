"""Command-line entry point.

Exit codes: 0 success, 1 domain or verification failure, 2 budget
exhausted, 64 usage errors.  Artifact-writing commands (--out, --cert-out)
emit a sibling <path>.manifest.json recording input/output digests,
timing, the exit code and the error kind (null on success); a failed run
writes it too.  No command draws a random number, so identical inputs
reproduce byte-identical artifacts.  The TVF_BUDGET environment variable,
a positive integer, replaces the default limit of every budget a command
counts (faces, facets, memo entries, objects of a certificate text, trace
nodes, product edges, hull tests, trial divisions, scheme blocks); any
other value is a usage error.

Every search and construction that follows its input's depth runs on the
explicit stack of graphs.run, so no input meets the interpreter's recursion
limit.  JSON nested past the parser's limit, or holding an integer past
int()'s digit limit, is a domain error of the reader that parses it
(errors.read_json).

Each command is a cold process, so the layer modules are registered in
sys.modules lazily: a command compiles and runs only the layers it calls,
while every layer is still found in sys.modules after this module is
imported, where the benchmark's tracer looks for them.
"""

from __future__ import annotations

import argparse
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
    past_digit_limit,
    quoted,
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


# Characters of an artifact encoded, hashed and written at a time, so that
# writing one never holds a second copy of it.
_CHUNK = 1 << 16


def _slices(text: str, end: str):
    """Each slice of text of _CHUNK characters, then end."""
    for start in range(0, len(text), _CHUNK):
        yield text[start : start + _CHUNK]
    if end:
        yield end


def _rational(text: str) -> str:
    """argparse type of --epsilon: text that reads as a rational such as 1/5
    or 0.2, kept as given so that an error can name it as the user wrote it.
    A number past int()'s digit limit is rejected before it is read."""
    if past_digit_limit(text):
        raise argparse.ArgumentTypeError(f"{quoted(text)} is a number past int()'s digit limit")
    from fractions import Fraction  # only commands with --epsilon pay for it

    try:
        Fraction(text)
        return text
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational such as 1/5 or 0.2, got {quoted(text)}"
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


class _Run:
    """Collects inputs/outputs of one command for the manifest.

    A manifest is written exactly when --manifest, --out or --cert-out is
    given; only then are digests computed and hashlib imported.
    """

    def __init__(self, args, argv):
        self.args = args
        self.argv = list(argv)
        self.t0 = time.monotonic()
        self.inputs: list[tuple[str, str]] = []
        self.outputs: list[tuple[str, str]] = []
        self.stdout_digest: str | None = None
        self.budget: int | None = None  # None: each layer's default
        self.sha256 = None  # hashlib.sha256 when finish will write a manifest
        named = [getattr(args, name, None) for name in ("out", "cert_out")]
        if getattr(args, "manifest", None) is not None or any(named):
            from hashlib import sha256

            self.sha256 = sha256

    def read(self, path: str) -> str:
        """The text of a UTF-8 file, recorded with the SHA-256 of its bytes for a manifest."""
        data = Path(path).read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            reason = f"{exc.reason} (in {path})"
            raise UnicodeDecodeError(exc.encoding, exc.object, exc.start, exc.end, reason) from None
        if self.sha256:
            self.inputs.append((path, self.sha256(data).hexdigest()))
        return text

    def graph(self, path: str) -> gr.Graph:
        return gr.parse_edgelist(self.read(path))

    def write(self, path: str, text: str, end: str = "") -> None:
        """Write text and then end to path, recording the SHA-256 of the bytes."""
        digest = self.sha256()  # set: writing needs --out or --cert-out
        with Path(path).open("wb") as fh:
            for piece in _slices(text, end):
                data = piece.encode("utf-8")
                digest.update(data)
                fh.write(data)
        self.outputs.append((path, digest.hexdigest()))

    def emit(self, text: str, out: str | None, end: str = "") -> None:
        """Artifact text and then end to --out when given, else stdout."""
        if out:
            self.write(out, text, end)
        else:
            digest = self.sha256() if self.sha256 else None
            for piece in _slices(text, end):
                if digest is not None:
                    digest.update(piece.encode("utf-8"))
                sys.stdout.write(piece)
            if digest is not None:
                self.stdout_digest = digest.hexdigest()

    def finish(self, exit_code: int, error_kind: str | None) -> None:
        """Write the manifest, if one is asked for, on success and failure alike.

        It goes to --manifest, else beside the first artifact written, else
        beside the artifact that --out or --cert-out named.
        """
        manifest_path = getattr(self.args, "manifest", None)
        if manifest_path is None:
            named = [p for p, _ in self.outputs]
            named += [getattr(self.args, name, None) for name in ("out", "cert_out")]
            first = next((p for p in named if p), None)
            if first is None:
                return
            manifest_path = first + ".manifest.json"
        payload = {
            "argv": self.argv,
            "command": getattr(self.args, "command_path", ""),
            "duration_seconds": round(time.monotonic() - self.t0, 6),
            "error_kind": error_kind,
            "exit_code": exit_code,
            "inputs": [{"path": p, "sha256": d} for p, d in self.inputs],
            "outputs": [{"path": p, "sha256": d} for p, d in self.outputs],
            "stdout_sha256": self.stdout_digest,
            "version": __version__,
        }
        Path(manifest_path).write_text(_dumps(payload), encoding="utf-8")


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------


def cmd_graph_product(run: _Run) -> int:
    args = run.args
    run.emit(gr.product_edgelist(run.graph(args.graph), args.q, run.budget), args.out)
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
    ok = vd.is_vd(G, run.args.k, run.budget)
    run.emit(_dumps({"k": run.args.k, "vd": ok}), None)
    return 0 if ok else 1


def cmd_vd_max(run: _Run) -> int:
    G = run.graph(run.args.graph)
    run.emit(f"{vd.max_vd(G, run.budget)}\n", None)
    return 0


def cmd_vd_build(run: _Run) -> int:
    G = run.graph(run.args.graph)
    cert = vd.build_certificate_degree_bound(G, run.budget)
    run.emit(vd.certificate_to_json(cert, run.budget), run.args.out, "\n")
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
        G = vd.MaskView(gr.product_with_complete(run.graph(args.graph_product), args.q, run.budget))
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
    """Write the trace and, with --cert-out, its certificate.

    The caller passes the only reference to trace, so it is freed once its
    certificate is built, before the certificate text is.
    """
    run.emit(trace.to_json(), run.args.out, "\n")
    if run.args.cert_out:
        cert = sq.extract_certificate(trace, run.budget)
        del trace
        run.write(run.args.cert_out, vd.certificate_to_json(cert, run.budget), "\n")


def cmd_squid_df1(run: _Run) -> int:
    args = run.args
    _emit_trace(run, sq.run_df1(run.graph(args.graph), args.q, args.mode, run.budget))
    return 0


def cmd_squid_dynamic(run: _Run) -> int:
    args = run.args
    scheme = sc.SizeScheme.from_json(run.read(args.scheme))
    _emit_trace(run, sq.run_dynamic(run.graph(args.graph), args.q, scheme, run.budget))
    return 0


def cmd_squid_extract(run: _Run) -> int:
    trace = sq.RemovalTrace.from_json(run.read(run.args.trace), run.budget)
    cert = sq.extract_certificate(trace, run.budget)
    del trace  # freed before the certificate text is built
    run.emit(vd.certificate_to_json(cert, run.budget), run.args.out, "\n")
    return 0


# ---------------------------------------------------------------------------
# scheme
# ---------------------------------------------------------------------------


def cmd_scheme_constants(run: _Run) -> int:
    consts = sc.epsilon_constants(run.args.epsilon)
    run.emit(_dumps(consts.to_obj()), None)
    return 0


def cmd_scheme_build(run: _Run) -> int:
    args = run.args
    built = sc.build_scheme(args.epsilon, args.n, args.delta, args.q, run.budget)
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
    scheme = sc.SizeScheme.from_json(run.read(run.args.file))
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
        return cx.independence_complex(run.graph(args.graph), run.budget)
    return cx.parse_facets(run.read(args.facets))


def cmd_complex_ind(run: _Run) -> int:
    S = cx.independence_complex(run.graph(run.args.graph), run.budget)
    run.emit(cx.format_facets(S), run.args.out)
    return 0


def cmd_complex_betti(run: _Run) -> int:
    S = _load_complex(run)
    if run.args.k is not None:
        S = cx.skeleton(S, run.args.k, run.budget)
    b = cx.betti(S, run.budget)
    run.emit(_dumps({"dim": S.dim, "min_dim": -1, "numbers": list(b.numbers)}), None)
    return 0


def cmd_complex_vd(run: _Run) -> int:
    S = _load_complex(run)
    result = cx.is_vertex_decomposable(S, run.budget)
    obj = {
        "shelling": None if result.shelling is None else [list(f) for f in result.shelling],
        "vertex_decomposable": result.ok,
    }
    run.emit(_dumps(obj), None)
    return 0 if result.ok else 1


def cmd_complex_check_prop(run: _Run) -> int:
    G = run.graph(run.args.graph)
    report = cx.check_prop_isvd(G, run.args.k, run.budget)
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
    witness = tv.search_witness(G, cfg, args.q, run.budget)
    if witness is None:
        run.emit(_dumps({"witness": None}), args.out)
        return 1
    run.emit(_dumps({"witness": tv.witness_to_obj(witness)}), args.out)
    return 0


def cmd_tverberg_corollary(run: _Run) -> int:
    args = run.args
    G = run.graph(args.graph)
    cfg = tv.parse_points(run.read(args.points))
    report = tv.corollary_pipeline(G, cfg, args.q, args.epsilon, run.budget)
    run.emit(_dumps(report.to_obj()), args.out)
    return 0 if report.witness is not None else 1


def cmd_tverberg_primes(run: _Run) -> int:
    power, prime = tv.prime_utilities(run.args.q, run.budget)
    run.emit(_dumps({"bertrand_prime": prime, "is_prime_power": power}), None)
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="tvf", description=__doc__)
    parser.add_argument("--manifest", help="write a run manifest to this path")
    parser.add_argument("--version", action="version", version=f"tvf {__version__}")
    top = parser.add_subparsers(dest="group", required=True, parser_class=_Parser)

    def sub(group, name, func, **kwargs):
        p = group.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    def group(name):
        parser = top.add_parser(name)
        return parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = group("graph")
    p = sub(g, "product", cmd_graph_product, help="edge list of G x K_q")
    p.add_argument("--graph", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")
    p = sub(g, "info", cmd_graph_info, help="vertex/edge counts, degrees, thresholds")
    p.add_argument("--graph", required=True)

    v = group("vd")
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

    s = group("squid")
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

    c = group("scheme")
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

    x = group("complex")
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

    t = group("tverberg")
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
    UnicodeDecodeError,
    OSError,
)
_ERRORS = (UsageError, BudgetExceeded, *_DOMAIN_ERRORS)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.command_path = " ".join(p for p in (args.group, getattr(args, "command", "")) if p)
    run = _Run(args, argv)
    try:
        run.budget = _env_budget()
        code, kind = args.func(run), None
    except _ERRORS as exc:
        code, kind = _fail(exc)
    try:
        run.finish(code, kind)
    except OSError as exc:
        if kind is None:  # a failed run keeps its own error
            code, kind = _fail(exc)
    return code


def _fail(exc: Exception) -> tuple[int, str]:
    """Report exc on stderr as JSON; its exit code and error kind."""
    if isinstance(exc, UsageError):
        code, kind = USAGE_EXIT, "usage"
    elif isinstance(exc, BudgetExceeded):
        code, kind = 2, "budget"
    else:
        code, kind = 1, type(exc).__name__
    sys.stderr.write(_dumps({"error": str(exc), "kind": kind}))
    return code, kind


if __name__ == "__main__":
    sys.exit(main())
