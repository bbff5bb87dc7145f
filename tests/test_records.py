"""Semantics of the record types, the import graph of the CLI, and the
names the benchmark's tracer wraps.

Every record is an immutable value: fields cannot be set, equal fields give
equal objects (with equal hashes where every field is hashable), truth
follows `ok` on the four check outcomes and is True everywhere else, and
repr reads Name(field=value, ...).
"""

import importlib
import importlib.util
from fractions import Fraction as F
from pathlib import Path

import pytest

import tvf.complexes
import tvf.graphs
import tvf.schemes
import tvf.squids
import tvf.tverberg
import tvf.vd
from tvf.complexes import BettiVector, ShellingCheck, SkeletonReport, VertexDecomposition
from tvf.graphs import Graph
from tvf.schemes import EpsilonConstants, Quad, SchemeBuild, SchemeCheck, SizeScheme
from tvf.squids import NodeTable, RemovalTrace, Squid
from tvf.tverberg import (
    CheckItem,
    CorollaryReport,
    HullWitness,
    PointConfiguration,
    TverbergError,
    TverbergWitness,
)
from tvf.vd import CertCheck, LeafComponents, Node

from conftest import python_process


def _squid():
    return Squid(body=0, kind="I", rows=(1,), mask=1, witness=1)


def _scheme():
    return SizeScheme((2, 1), 20, 5, 2)


def _constants():
    return EpsilonConstants(3.0, 2.0, 0.5, 2.0)


# (make, expected repr, hashable); make builds a fresh instance on each call
RECORDS = {
    "LeafComponents": (lambda: LeafComponents(2), "LeafComponents(level=2)", True),
    "Node": (
        lambda: Node(0, LeafComponents(1), LeafComponents(0), 1),
        "Node(pivot=0, delete=LeafComponents(level=1), link=LeafComponents(level=0), level=1)",
        True,
    ),
    "CertCheck": (
        lambda: CertCheck(False, ("del@1",), "bad"),
        "CertCheck(ok=False, path=('del@1',), reason='bad')",
        True,
    ),
    "Squid": (
        _squid,
        "Squid(body=0, kind='I', rows=(1,), mask=1, witness=1)",
        True,
    ),
    "NodeTable": (
        lambda: NodeTable([3, 0], [1, 0], [0, None], [0, 1, 1], [1], [1, None], [(1,), (1,)]),
        "NodeTable(residual=[3, 0], level=[1, 0], pivot=[0, None], first=[0, 1, 1], child=[1], "
        "block_row=[1, None], rows_used=[(1,), (1,)])",
        False,
    ),
    "RemovalTrace": (
        lambda: RemovalTrace(Graph([0], []), 2, 1, "df1", NodeTable([0], [0], [None], [0, 0], [])),
        "RemovalTrace(graph=Graph(n=1, m=0), q=2, m=1, kind='df1', nodes=NodeTable(residual=[0], "
        "level=[0], pivot=[None], first=[0, 0], child=[], block_row=None, rows_used=None), "
        "mode='walk', scheme=None)",
        False,
    ),
    "Quad": (
        lambda: Quad(F(1), F(-1, 2), F(3)),
        "Quad(p=Fraction(1, 1), r=Fraction(-1, 2), D=Fraction(3, 1))",
        True,
    ),
    "SizeScheme": (_scheme, "SizeScheme(sizes=(2, 1), n=20, q=5, delta=2)", True),
    "EpsilonConstants": (
        _constants,
        "EpsilonConstants(epsilon=3.0, a=2.0, gamma=0.5, k_epsilon=2.0)",
        True,
    ),
    "SchemeCheck": (
        lambda: SchemeCheck(False, 2, "inequality fails"),
        "SchemeCheck(ok=False, failing_index=2, reason='inequality fails')",
        True,
    ),
    "SchemeBuild": (
        lambda: SchemeBuild(_scheme(), _constants(), 3, 2, 0, 3, "3.5", True, False),
        "SchemeBuild(scheme=SizeScheme(sizes=(2, 1), n=20, q=5, delta=2), "
        "constants=EpsilonConstants(epsilon=3.0, a=2.0, gamma=0.5, k_epsilon=2.0), target=3, "
        "blocks_initial=2, blocks_extended=0, coverage=3, pre_rounding_coverage='3.5', "
        "pre_rounding_covers_target=True, fractional_budget=False)",
        True,
    ),
    "VertexDecomposition": (
        lambda: VertexDecomposition(True, ((0,), (1,))),
        "VertexDecomposition(ok=True, shelling=((0,), (1,)))",
        True,
    ),
    "ShellingCheck": (
        lambda: ShellingCheck(False, 1, "repeated facet"),
        "ShellingCheck(ok=False, index=1, reason='repeated facet')",
        True,
    ),
    "BettiVector": (lambda: BettiVector((0, 1)), "BettiVector(numbers=(0, 1))", True),
    "SkeletonReport": (
        lambda: SkeletonReport(2, True, True, 1, 1, True, True, True, BettiVector((0, 0, 1))),
        "SkeletonReport(k=2, passed=True, pure=True, expected_dim=1, actual_dim=1, "
        "decomposable=True, shelling_valid=True, betti_concentrated=True, "
        "betti_numbers=BettiVector(numbers=(0, 0, 1)), shelling=None, failures=())",
        True,
    ),
    "PointConfiguration": (
        lambda: PointConfiguration(1, {0: (F(0),), 1: (F(1, 2),)}),
        "PointConfiguration(dimension=1, points={0: (Fraction(0, 1),), 1: (Fraction(1, 2),)})",
        False,
    ),
    "HullWitness": (
        lambda: HullWitness((F(1, 2),), ((F(1),), (F(1, 2), F(1, 2)))),
        "HullWitness(point=(Fraction(1, 2),), coefficients=((Fraction(1, 1),), "
        "(Fraction(1, 2), Fraction(1, 2))))",
        True,
    ),
    "TverbergWitness": (
        lambda: TverbergWitness({0: 1}, (F(0),), {1: {0: F(1)}}),
        "TverbergWitness(coloring={0: 1}, common_point=(Fraction(0, 1),), "
        "barycentric={1: {0: Fraction(1, 1)}})",
        False,
    ),
    "CheckItem": (
        lambda: CheckItem("q_prime_is_prime", True, "5"),
        "CheckItem(name='q_prime_is_prime', passed=True, detail='5')",
        True,
    ),
    "CorollaryReport": (
        lambda: CorollaryReport(
            5, 5, "0.2", "1.5", 2, 1, 9, False, (0, 1), (CheckItem("gate", False, "x"),), None, None
        ),
        "CorollaryReport(q=5, q_prime=5, epsilon='0.2', k_epsilon='1.5', delta=2, dimension=1, "
        "expected_vertices=9, fractional_size=False, subgraph_vertices=(0, 1), "
        "checks=(CheckItem(name='gate', passed=False, detail='x'),), witness=None, "
        "extended_coloring=None)",
        True,
    ),
}
# records whose truth follows their ok field
CHECKS = {"CertCheck", "SchemeCheck", "ShellingCheck", "VertexDecomposition"}


def test_every_record_type_is_listed():
    # every namedtuple class a tvf module defines, except PointConfiguration's
    # field base
    found = {
        name
        for module in (tvf.graphs, tvf.vd, tvf.squids, tvf.schemes, tvf.complexes, tvf.tverberg)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == module.__name__
    }
    assert found - {"_PointFields"} == set(RECORDS) and len(RECORDS) == 20


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_semantics(name):
    make, text, hashable = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert repr(a) == text
    assert a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    for field in type(a)._fields or ("level",):
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 1  # no __dict__ to put it in
    if name in CHECKS:
        assert bool(a) is a.ok
        assert bool(a._replace(ok=not a.ok)) is (not a.ok)
    else:
        assert bool(a) is True


def test_point_configuration_checks_its_dimension():
    with pytest.raises(TverbergError, match=r"^dimension must be >= 1, got 0$"):
        PointConfiguration(0, {})


def test_point_configuration_checks_coordinate_counts():
    with pytest.raises(TverbergError, match=r"^point for vertex 3 has 1 coordinates$"):
        PointConfiguration(2, {0: (F(0), F(1)), 3: (F(2),)})
    with pytest.raises(TverbergError, match=r"^point for vertex 0 has 3 coordinates$"):
        PointConfiguration(dimension=2, points={0: (F(0), F(1), F(2))})


def test_every_name_the_benchmark_tracer_wraps_resolves():
    """bench/tracer.py wraps layer functions and two RemovalTrace methods by
    name, so a rename fails here instead of in every traced benchmark run."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, name in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"tvf.{layer}"), name, None)), (layer, name)
    assert set(tracer.TRACE_METHODS) == {"to_json", "from_json"}
    assert callable(RemovalTrace.__dict__["to_json"])
    assert isinstance(RemovalTrace.__dict__["from_json"], classmethod)


def test_cli_import_graph():
    """The CLI registers every layer in sys.modules (the benchmark tracer reads
    them from there), lazily, so that a layer runs only when a command uses it;
    it imports no dataclass machinery."""
    code = (
        "import sys, tvf.cli; "
        "print(' '.join(sorted(m for m in sys.modules if m in {"
        "'dataclasses', 'inspect', 'tvf.graphs', 'tvf.squids', 'tvf.vd', "
        "'tvf.complexes', 'tvf.tverberg', 'tvf.ratlp'})))"
    )
    out = python_process(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == sorted(
        ["tvf.complexes", "tvf.graphs", "tvf.ratlp", "tvf.squids", "tvf.tverberg", "tvf.vd"]
    )


# The benchmark's commands, and the modules each one runs besides tvf.cli and
# tvf.errors; "fractions" marks the commands that need exact rationals.
COMMAND_LAYERS = {
    "vd max": (["vd", "max", "--graph", "c5.txt"], {"graphs", "vd"}),
    "complex check-prop": (
        ["complex", "check-prop", "--graph", "2k2.txt", "--k", "2"],
        {"graphs", "complexes", "vd"},
    ),
    "complex betti": (["complex", "betti", "--graph", "c5.txt"], {"graphs", "complexes"}),
    "squid df1": (
        ["squid", "df1", "--graph", "c5.txt", "--q", "7", "--out", "t.json",
         "--cert-out", "c.json"],
        {"graphs", "squids", "vd"},
    ),
    "vd verify": (
        ["vd", "verify", "--graph-product", "c5.txt", "--q", "7", "--cert", "cert.json"],
        {"graphs", "vd"},
    ),
    "squid extract": (
        ["squid", "extract", "--trace", "trace.json", "--out", "c.json"],
        {"graphs", "squids", "vd"},
    ),
    "tverberg search": (
        ["tverberg", "search", "--graph", "e3.txt", "--points", "pts3.txt", "--q", "2"],
        {"fractions", "graphs", "ratlp", "tverberg"},
    ),
    "tverberg corollary": (
        ["tverberg", "corollary", "--graph", "e6.txt", "--points", "pts6.txt", "--q", "3",
         "--epsilon", "1/5"],
        {"fractions", "graphs", "ratlp", "schemes", "tverberg"},
    ),
}


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    from tvf.cli import main

    d = tmp_path_factory.mktemp("layers")
    (d / "c5.txt").write_text("p 5 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 4 0\n")
    (d / "2k2.txt").write_text("p 4 2\ne 0 1\ne 2 3\n")
    (d / "e3.txt").write_text("p 3 0\n")
    (d / "pts3.txt").write_text("0 0\n1 1\n2 2\n")
    (d / "e6.txt").write_text("p 6 0\n")
    (d / "pts6.txt").write_text("".join(f"{i} {i}\n" for i in range(6)))
    argv = ["squid", "df1", "--graph", str(d / "c5.txt"), "--q", "7"]
    assert main([*argv, "--out", str(d / "trace.json"), "--cert-out", str(d / "cert.json")]) == 0
    return d


@pytest.mark.parametrize("command", sorted(COMMAND_LAYERS))
def test_command_runs_only_its_layers(command_inputs, command):
    argv, layers = COMMAND_LAYERS[command]
    code = (
        "import sys, types, tvf.cli\n"
        "code = tvf.cli.main(sys.argv[1:])\n"
        "names = [n for n, m in sys.modules.items() if type(m) is types.ModuleType]\n"
        "ran = [n[4:] for n in names if n.startswith('tvf.')] + list({'fractions'} & set(names))\n"
        "print(' '.join(ran), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    out = python_process(code, *argv, cwd=command_inputs)
    assert out.returncode == 0, out.stderr
    assert set(out.stderr.splitlines()[-1].split()) == {"cli", "errors"} | layers


@pytest.mark.parametrize(
    "first, second", [("tvf.vd", "tvf.cli"), ("tvf.cli", "tvf.vd")], ids=["vd-first", "cli-first"]
)
def test_layer_is_one_module_object(first, second):
    code = (
        f"import sys\nimport {first}\nseen = [sys.modules['tvf.vd']]\n"
        f"import {second}\nseen.append(sys.modules['tvf.vd'])\n"
        "import tvf\n"
        "assert all(m is tvf.vd is tvf.cli.vd for m in seen)\n"
        "assert tvf.vd.max_vd(tvf.graphs.Graph.cycle(5)) == 2\n"
    )
    out = python_process(code)
    assert out.returncode == 0, out.stderr
