"""Traced step launcher and span aggregation.

Run as a script, this is a drop-in replacement for the ``tvf`` command:

    python3 bench/tracer.py SPANS.json -- squid df1 --graph g.txt --q 7 ...

It imports tvf, wraps the public functions of each layer from outside (every
module-level name bound to a wrapped function is rebound, so names imported
with ``from .x import f`` are caught where their callers look them up),
calls ``tvf.cli.main`` and, when the command has finished, writes the spans
(name, start, end, parent) and counters it kept in memory to SPANS.json.
Nothing in tvf is modified on disk and no private name is touched.

Imported as a module it only provides ``layer_metrics``, which turns one
step's spans into per-layer times and counts.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function) pairs wrapped as spans named "<layer>.<function>".
FUNCTIONS = [
    ("graphs", "parse_edgelist"),
    ("graphs", "product_with_complete"),
    ("squids", "run_df1"),
    ("squids", "extract_certificate"),
    ("vd", "assemble_pivot_decomposition"),
    ("vd", "certificate_to_json"),
    ("vd", "certificate_from_json"),
    ("vd", "verify_certificate"),
    ("vd", "max_vd"),
    ("vd", "is_vd"),
    ("complexes", "independence_complex"),
    ("complexes", "skeleton"),
    ("complexes", "is_vertex_decomposable"),
    ("complexes", "check_shelling"),
    ("complexes", "betti"),
    ("tverberg", "search_witness"),
    ("tverberg", "corollary_pipeline"),
    ("tverberg", "hulls_intersect"),
    ("ratlp", "solve_equality_feasibility"),
]
# RemovalTrace serialization, wrapped on the class under these span names.
TRACE_METHODS = {"to_json": "squids.trace_to_json", "from_json": "squids.trace_from_json"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[int] = []
        self.counters = {"graph_inits": 0, "hulls_feasible": 0, "lp_vars": 0}

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, spans[idx][3])
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self) -> None:
        import tvf.graphs
        import tvf.squids

        modules = [m for n, m in sys.modules.items() if n == "tvf" or n.startswith("tvf.")]
        afters = {
            "hulls_intersect": self._count_feasible,
            "solve_equality_feasibility": self._count_lp_vars,
        }
        for layer, fname in FUNCTIONS:
            orig = getattr(sys.modules[f"tvf.{layer}"], fname)
            wrapped = self.wrap(f"{layer}.{fname}", orig, afters.get(fname))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)

        trace_cls = tvf.squids.RemovalTrace
        trace_cls.to_json = self.wrap(TRACE_METHODS["to_json"], trace_cls.to_json)
        from_json = trace_cls.__dict__["from_json"].__func__
        trace_cls.from_json = classmethod(self.wrap(TRACE_METHODS["from_json"], from_json))

        graph_init = tvf.graphs.Graph.__init__
        counters = self.counters

        def counting_init(graph, *args, **kwargs):
            counters["graph_inits"] += 1
            graph_init(graph, *args, **kwargs)

        tvf.graphs.Graph.__init__ = counting_init

    def _count_feasible(self, args, result) -> None:
        self.counters["hulls_feasible"] += result is not None

    def _count_lp_vars(self, args, result) -> None:
        A = args[0]
        self.counters["lp_vars"] += len(A[0]) if A else 0


def layer_metrics(spans: list, counters: dict, step_wall: float) -> dict[str, float]:
    """Per-layer totals for one step.

    Times are inclusive sums over the outermost span of each name, except
    squids.extract_certificate, which is self time (its child spans are
    subtracted).  cli.self_s is the step's wall time minus its top-level
    spans: interpreter start, import, argparse, file I/O and manifests.
    """
    out: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    names = [s[0] for s in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        anc, nested = parent, False
        while anc >= 0 and not nested:
            nested = names[anc] == name
            anc = spans[anc][3]
        if nested:
            continue
        dur = end - start
        if name == "squids.extract_certificate":
            dur -= child_time[i]
        out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + dur
        out[f"{name}_calls"] = out.get(f"{name}_calls", 0) + 1
    top = sum(end - start for _, start, end, parent in spans if parent < 0)
    out["cli.self_s"] = step_wall - top
    out["graphs.graph_inits"] = counters["graph_inits"]
    out["tverberg.hulls_feasible"] = counters["hulls_feasible"]
    out["ratlp.lp_vars"] = counters["lp_vars"]
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: tracer.py SPANS.json -- <tvf arguments>\n")
        return 64
    out_path, tvf_args = argv[0], argv[2:]
    import tvf.cli

    tracer = Tracer()
    tracer.install()
    try:
        return tvf.cli.main(tvf_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"counters": tracer.counters, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
