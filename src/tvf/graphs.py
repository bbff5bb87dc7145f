"""Finite simple graphs on non-negative integer labels.

Graphs are immutable values; nothing here mutates after construction.
The branching recursions elsewhere in the package do not build a Graph per
subgraph: they work on bitmasks over neighbor_masks.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .errors import GraphError


class ProductVertex(NamedTuple):
    """Vertex of G x K_q: a base vertex of G and a row in 1..q."""

    base: int
    row: int


class Graph:
    """Immutable simple graph. Vertices are unique non-negative ints."""

    __slots__ = ("_vertices", "_adj", "_edges", "_hash")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]] = ()):
        vset: set[int] = set()
        for v in vertices:
            if not isinstance(v, int) or v < 0:
                raise GraphError(f"vertex labels must be non-negative integers, got {v!r}")
            if v in vset:
                raise GraphError(f"duplicate vertex label {v}")
            vset.add(v)
        eset: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if u not in vset or v not in vset:
                raise GraphError(f"edge ({u},{v}) has an endpoint that is not a listed vertex")
            eset.add((u, v) if u < v else (v, u))
        self._vertices: tuple[int, ...] = tuple(sorted(vset))
        self._edges: tuple[tuple[int, int], ...] = tuple(sorted(eset))
        adj: dict[int, set[int]] = {v: set() for v in self._vertices}
        for u, v in self._edges:
            adj[u].add(v)
            adj[v].add(u)
        self._adj: dict[int, frozenset[int]] = {v: frozenset(ns) for v, ns in adj.items()}
        self._hash = hash((self._vertices, self._edges))

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._edges)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __iter__(self) -> Iterator[int]:
        return iter(self._vertices)

    def __len__(self) -> int:
        return len(self._vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def neighbors(self, v: int) -> frozenset[int]:
        if v not in self._adj:
            raise GraphError(f"unknown vertex {v}")
        return self._adj[v]

    def max_degree(self) -> int:
        return max((len(ns) for ns in self._adj.values()), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    # -- standard small families used throughout the tests and CLI --

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(range(n))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(range(n), [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise GraphError("a cycle needs at least 3 vertices")
        return cls(range(n), [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def distance_two_set(G: Graph, v: int, mode: str = "walk") -> frozenset[int]:
    """Vertices two steps from v.

    mode="walk": every u != v reachable by a walk on two edges (in a
    triangle this includes neighbors of v).  mode="distance": vertices at
    graph distance exactly 2.  The walk reading is the superset, so any
    q-threshold satisfied under it is satisfied under the other; it is the
    default everywhere.
    """
    nbrs = G.neighbors(v)
    if mode == "walk":
        out: set[int] = set()
        for u in nbrs:
            out.update(G.neighbors(u))
        out.discard(v)
        return frozenset(out)
    if mode == "distance":
        out = set()
        for u in nbrs:
            out.update(G.neighbors(u))
        return frozenset(out - nbrs - {v})
    raise GraphError(f"unknown distance-two mode {mode!r}")


def induced_subgraph(G: Graph, keep: Iterable[int]) -> Graph:
    keepset = set(keep)
    unknown = keepset - set(G.vertices)
    if unknown:
        raise GraphError(f"not vertices of the graph: {sorted(unknown)}")
    return Graph(sorted(keepset), [(u, v) for u, v in G.edges if u in keepset and v in keepset])


def cartesian_product(G: Graph, H: Graph) -> Graph:
    """Cartesian product on V(G) x V(H), relabeled to integers.

    The pair (u_a, w_b) — a, b being positions in the sorted vertex lists —
    gets label a*|V(H)| + b.  Edge count is |E(G)|*|V(H)| + |V(G)|*|E(H)|.
    """
    gi = {v: i for i, v in enumerate(G.vertices)}
    hi = {w: i for i, w in enumerate(H.vertices)}
    nh = H.n
    verts = range(G.n * nh)
    edges = []
    for u, v in G.edges:
        for w in H.vertices:
            edges.append((gi[u] * nh + hi[w], gi[v] * nh + hi[w]))
    for w, x in H.edges:
        for u in G.vertices:
            edges.append((gi[u] * nh + hi[w], gi[u] * nh + hi[x]))
    return Graph(verts, edges)


def product_with_complete(G: Graph, q: int) -> Graph:
    """G x K_q; (base, row) gets label index(base)*q + (row-1)."""
    if q < 1:
        raise GraphError("q must be a positive integer")
    return cartesian_product(G, Graph.complete(q))


# -- edge-list text format --
#
# First line "p <n> <m>", then m lines "e <u> <v>" with 0-based labels in
# 0..n-1; blank lines and lines starting with "#" are ignored.


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphError(f"line {lineno}: expected an integer, got {token!r}") from None


def parse_edgelist(text: str) -> Graph:
    n = None
    m = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphError(f"line {lineno}: repeated problem line")
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: expected 'p <n> <m>'")
            n, m = _int(parts[1], lineno), _int(parts[2], lineno)
        elif parts[0] == "e":
            if n is None:
                raise GraphError(f"line {lineno}: edge before the problem line")
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: expected 'e <u> <v>'")
            u, v = _int(parts[1], lineno), _int(parts[2], lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"line {lineno}: endpoint outside 0..{n - 1}")
            edges.append((u, v))
        else:
            raise GraphError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise GraphError("missing problem line 'p <n> <m>'")
    if m is not None and m != len(edges):
        raise GraphError(f"problem line declares {m} edges but {len(edges)} given")
    return Graph(range(n), edges)


def format_edgelist(G: Graph) -> str:
    if G.vertices != tuple(range(G.n)):
        raise GraphError("edge-list format requires vertex labels 0..n-1; relabel first")
    lines = [f"p {G.n} {G.m}"]
    lines.extend(f"e {u} {v}" for u, v in G.edges)
    return "\n".join(lines) + "\n"


def neighbor_masks(G: Graph) -> tuple[tuple[int, ...], dict[int, int], list[int]]:
    """Bitmask view for subgraph recursions.

    Returns (vertex tuple, label->bit index, open-neighborhood masks).
    Bit i corresponds to the i-th smallest vertex label.
    """
    verts = G.vertices
    index = {v: i for i, v in enumerate(verts)}
    masks = [0] * len(verts)
    for u, v in G.edges:
        masks[index[u]] |= 1 << index[v]
        masks[index[v]] |= 1 << index[u]
    return verts, index, masks
