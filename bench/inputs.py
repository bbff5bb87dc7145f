"""Seeded input generation for the benchmark workloads.

Everything here is written against plain tuples and the two tvf text
formats (edge lists and point lists), never against tvf itself, so the
program under test receives nothing but the generated files.

Graphs are built from named base graphs (cycles, paths, edgeless graphs,
products with a complete graph) and handed to tvf under a random vertex
relabeling drawn from the workload seed: the graph stays isomorphic, so
every invariant the oracles check is unchanged, but tvf's lexicographic
pivots and label-ordered searches take a different route.  Point sets are a
fixed base configuration per instance plus a small seeded integer jitter.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

Edge = tuple[int, int]


@dataclass(frozen=True)
class BaseGraph:
    """A named graph on vertices 0..n-1."""

    name: str
    n: int
    edges: tuple[Edge, ...]

    def adjacency(self) -> list[set[int]]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def cycle(n: int) -> BaseGraph:
    return BaseGraph(f"C{n}", n, tuple((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> BaseGraph:
    return BaseGraph(f"P{n}", n, tuple((i, i + 1) for i in range(n - 1)))


def edgeless(n: int) -> BaseGraph:
    return BaseGraph(f"E{n}", n, ())


def times_complete(G: BaseGraph, q: int) -> BaseGraph:
    """G x K_q with vertex (v, r) at label v*q + r."""
    edges = [(v * q + r, v * q + s) for v in range(G.n) for r in range(q) for s in range(r + 1, q)]
    edges += [(u * q + r, v * q + r) for u, v in G.edges for r in range(q)]
    return BaseGraph(f"{G.name}xK{q}", G.n * q, tuple(edges))


BASE_GRAPHS = {
    G.name: G
    for G in (
        cycle(6),
        cycle(13),
        path(9),
        path(10),
        path(12),
        edgeless(10),
        times_complete(cycle(5), 3),
    )
}


def relabel(G: BaseGraph, rng: random.Random) -> BaseGraph:
    """Isomorphic copy under a random permutation of the labels."""
    perm = list(range(G.n))
    rng.shuffle(perm)
    edges = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in G.edges))
    return BaseGraph(G.name, G.n, edges)


def format_edgelist(G: BaseGraph) -> str:
    lines = [f"p {G.n} {len(G.edges)}"]
    lines.extend(f"e {u} {v}" for u, v in sorted(G.edges))
    return "\n".join(lines) + "\n"


Point = tuple[int, int]

# Base planar configurations: integer points on a 8000 x 8000 grid drawn
# once from fixed generators, so every seed sees the same combinatorics up
# to a jitter of at most JITTER in each coordinate.
JITTER = 3
_POINT_BASES = {"P9": 0, "P10": 4, "E10": 5, "P12": 1}


def base_points(name: str, n: int) -> list[Point]:
    rng = random.Random(f"points:{_POINT_BASES[name]}:{n}")
    return [(rng.randrange(1000) * 8, rng.randrange(1000) * 8) for _ in range(n)]


def jittered(points: list[Point], rng: random.Random) -> list[Point]:
    return [
        (x + rng.randint(-JITTER, JITTER), y + rng.randint(-JITTER, JITTER)) for x, y in points
    ]


def format_points(points: list[Point]) -> str:
    return "".join(f"{v} {x} {y}\n" for v, (x, y) in enumerate(points))


@dataclass
class Instance:
    """One generated input: the graph tvf sees, and optionally its points."""

    key: str  # base graph name, also the instance's file stem
    graph: BaseGraph
    points: list[Point] | None = None
    files: dict[str, Path] = field(default_factory=dict)

    def write(self, directory: Path) -> dict[str, str]:
        """Write the instance's files; return their SHA-256 digests by name."""
        texts = {"graph": format_edgelist(self.graph)}
        if self.points is not None:
            texts["points"] = format_points(self.points)
        digests = {}
        for kind, text in texts.items():
            path = directory / f"{self.key}.{'txt' if kind == 'graph' else 'pts'}"
            path.write_text(text, encoding="utf-8")
            self.files[kind] = path
            digests[path.name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return digests


def make_instance(name: str, rng: random.Random, with_points: bool) -> Instance:
    G = BASE_GRAPHS[name]
    if not with_points:
        return Instance(name, relabel(G, rng))
    # Tverberg instances: jitter the fixed base points; the labels stay put
    # (see README: the canonical witness search is label-order sensitive).
    return Instance(name, G, jittered(base_points(name, G.n), rng))
