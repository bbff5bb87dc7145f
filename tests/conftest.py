import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tvf
from tvf.graphs import Graph
from tvf.vd import Node


def all_labeled_graphs(n):
    """Every labeled simple graph on vertices 0..n-1."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(range(n), [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def python_process(code, *args, cwd=None):
    """A fresh interpreter running code with args, on this checkout's tvf."""
    src = str(Path(tvf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, cwd=cwd
    )


@pytest.fixture(scope="session")
def atlas():
    """All graphs on at most 7 vertices up to isomorphism (networkx atlas)."""
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for g in graph_atlas_g():
        out.append(Graph(range(g.number_of_nodes()), [tuple(e) for e in g.edges()]))
    return out


@pytest.fixture(scope="session")
def atlas6(atlas):
    return [G for G in atlas if G.n <= 6]


def same_certificate_dag(a, b):
    """Whether certificates a and b are equal and share their subtrees alike.

    Reachable objects of a and b must pair off one to one, with equal leaves
    and equal pivot and level at paired nodes.
    """
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if id(x) in forward or id(y) in backward:
            if forward.get(id(x)) != id(y) or backward.get(id(y)) != id(x):
                return False
            continue
        forward[id(x)], backward[id(y)] = id(y), id(x)
        if type(x) is not type(y):
            return False
        if isinstance(x, Node):
            if (x.pivot, x.level) != (y.pivot, y.level):
                return False
            stack += [(x.delete, y.delete), (x.link, y.link)]
        elif x != y:
            return False
    return True
