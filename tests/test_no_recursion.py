"""No library function calls itself except through graphs.run.

A plain self-call nests the interpreter's stack once per level of its
input, so a deep input would hit the recursion limit.  A generator that
yields its own call is driven by graphs.run on an explicit stack instead,
so a self-call is allowed only as the direct operand of ``yield``.

A nested generator function that yields its own call holds itself in its
closure.  Its callers break that cycle once graphs.run returns, so what the
search closed over is freed at once, not when the cyclic collector runs.
"""

import ast
import gc
import random
from fractions import Fraction
from pathlib import Path

import pytest

import tvf
from tvf.complexes import independence_complex
from tvf.graphs import Graph
from tvf.schemes import SizeScheme
from tvf.squids import RemovalTrace, extract_certificate, run_df1, run_dynamic
from tvf.tverberg import PointConfiguration, search_witness
from tvf.vd import build_certificate_degree_bound


def _self_calls(source: str) -> list[str]:
    """'name:line' of each call in source by which a function calls itself, yields aside."""
    tree = ast.parse(source)
    yielded = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Yield)}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call) or id(node) in yielded:
                continue
            f = node.func
            by_name = isinstance(f, ast.Name) and f.id == fn.name
            by_self = (
                isinstance(f, ast.Attribute)
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
                and f.attr == fn.name
            )
            if by_name or by_self:
                found.append(f"{fn.name}:{node.lineno}")
    return found


def test_the_check_finds_self_calls():
    source = (
        "def f(n):\n    return f(n - 1)\n"
        "class A:\n    def g(self, n):\n        return [self.g(n - 1)]\n"
        "def h(n):\n    x = yield h(n - 1)\n    return x\n"
        "def k(n):\n    yield from k(n - 1)\n"
    )
    assert sorted(_self_calls(source)) == ["f:2", "g:5", "k:10"]


def test_no_library_function_calls_itself():
    found = {
        path.name: _self_calls(path.read_text(encoding="utf-8"))
        for path in sorted(Path(tvf.__file__).parent.glob("*.py"))
    }
    assert {name: calls for name, calls in found.items() if calls} == {}


def _relabeled_c6():
    perm = list(range(6))
    random.Random(1).shuffle(perm)
    return Graph(range(6), [(perm[i], perm[(i + 1) % 6]) for i in range(6)])


def _planar_points(n):
    rnd = random.Random(3)
    return PointConfiguration(
        2, {v: (Fraction(rnd.randint(-40, 40), 7), Fraction(rnd.randint(-40, 40), 3)) for v in range(n)}
    )


@pytest.fixture(scope="module")
def c6_trace():
    return run_df1(_relabeled_c6(), 7)


CALLS = {
    "trace-from-json": lambda trace, text: RemovalTrace.from_json(text),
    "run-df1": lambda trace, text: run_df1(trace.graph, trace.q),
    "run-dynamic": lambda trace, text: run_dynamic(Graph.path(4), 5, SizeScheme((1, 1), 20, 5, 2)),
    "extract-certificate": lambda trace, text: extract_certificate(trace),
    "degree-bound-certificate": lambda trace, text: build_certificate_degree_bound(Graph.path(20)),
    "independence-complex": lambda trace, text: independence_complex(Graph.cycle(9)),
    "search-witness": lambda trace, text: search_witness(Graph.path(7), _planar_points(7), 3),
}


@pytest.mark.parametrize("name", CALLS)
def test_searches_leave_no_cyclic_garbage(c6_trace, name):
    text = c6_trace.to_json()
    gc.disable()
    try:
        gc.collect()
        CALLS[name](c6_trace, text)
        assert gc.collect() == 0
    finally:
        gc.enable()
