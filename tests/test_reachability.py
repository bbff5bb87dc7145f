"""Every library definition is reached from the library itself.

A module-level function or class, or a non-dunder method, that no name or
attribute anywhere in src/tvf refers to is code that no command or
certificate needs.  The allowlist names the few that are kept on purpose.
"""

import ast
from pathlib import Path

import tvf

ALLOWED = {
    "_Parser.error": "argparse calls it to report usage errors",
    "Graph.empty": "a graph family that tests and docs build",
    "Graph.cycle": "a graph family that tests and docs build",
    "RemovalTrace.product": "the product a trace certifies, for checking its certificate",
    "CorollaryReport.all_checks_passed": "the corollary verdict that ROADMAP item 13(a) is about",
}


def _unreferenced(package: Path) -> set[str]:
    defined: set[str] = set()
    referenced: set[str] = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")
                    ):
                        defined.add(f"{node.name}.{sub.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return {name for name in defined if name.rsplit(".", 1)[-1] not in referenced}


def test_every_definition_is_reached_or_allowed():
    assert _unreferenced(Path(tvf.__file__).parent) == set(ALLOWED)
