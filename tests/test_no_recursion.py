"""No library function calls itself except through graphs.run.

A plain self-call nests the interpreter's stack once per level of its
input, so a deep input would hit the recursion limit.  A generator that
yields its own call is driven by graphs.run on an explicit stack instead,
so a self-call is allowed only as the direct operand of ``yield``.
"""

import ast
from pathlib import Path

import tvf


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
