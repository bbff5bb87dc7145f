"""Finite simple graphs on non-negative integer labels.

Graphs are immutable values.  A Graph keeps its adjacency only as bitmasks:
bit i is its i-th smallest label, index maps labels to bits and nbr[i] is
bit i's open neighborhood.  Recursions elsewhere work on masks over nbr, not
a Graph per subgraph, as generators on run's explicit stack.

A vertex of G x K_q is its integer label index(base)*q + (row-1), and the
product is its label masks (product_with_complete), never a Graph; only the
trace JSON writes a vertex as a (base, row) pair.
"""

from __future__ import annotations

from typing import Generator, Iterable, Iterator, Optional, Sequence

from .errors import Budget, GraphError, data_lines, int_token, quoted

# Edges one product G x K_q may have, counted before anything of its size
# is built.  The masks of a product cost about labels x highest neighbor
# label / 8 bytes, not a fixed amount per edge: on a 2-vCPU machine
# K1 x K_1414 (998,991 edges) builds in 1 ms into 0.25 MB of masks, while
# P10000 x K7 (279,993 edges, 70,000 labels) takes 0.4 s and 306 MB.
# product_edgelist needs no masks: 0.4 s at 38 MB peak RSS on K1 x K_1414.
DEFAULT_PRODUCT_BUDGET = 1_000_000


class Graph:
    """Immutable simple graph on unique non-negative int labels: sorted
    vertices, sorted edges (u, v) with u < v, and the masks index and nbr."""

    __slots__ = ("vertices", "edges", "index", "nbr", "_hash")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]] = ()):
        vset: set[int] = set()
        for v in vertices:
            if not isinstance(v, int) or v < 0:
                raise GraphError(f"vertex labels must be non-negative integers, got {quoted(v)}")
            if v in vset:
                raise GraphError(f"duplicate vertex label {v}")
            vset.add(v)
        self.vertices: tuple[int, ...] = tuple(sorted(vset))
        index = self.index = {v: i for i, v in enumerate(self.vertices)}
        nbr = [0] * len(index)
        eset: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if u not in vset or v not in vset:
                raise GraphError(f"edge ({u},{v}) has an endpoint that is not a listed vertex")
            eset.add((u, v) if u < v else (v, u))
            nbr[index[u]] |= 1 << index[v]
            nbr[index[v]] |= 1 << index[u]
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(eset))
        self.nbr: tuple[int, ...] = tuple(nbr)
        self._hash = hash((self.vertices, self.edges))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def __contains__(self, v: int) -> bool:
        return v in self.index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def neighbors(self, v: int) -> frozenset[int]:
        if v not in self.index:
            raise GraphError(f"unknown vertex {v}")
        return frozenset(mask_labels(self.vertices, self.nbr[self.index[v]]))

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self.nbr), default=0)

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


def distance_two_set(G: Graph, v: int, mode: str = "walk") -> frozenset[int]:
    """Vertices two steps from v.

    mode="walk": every u != v reachable by a walk on two edges (in a
    triangle this includes neighbors of v).  mode="distance": vertices at
    graph distance exactly 2.  The walk reading is the superset, so any
    q-threshold satisfied under it is satisfied under the other; it is the
    default everywhere.
    """
    if mode not in ("walk", "distance"):
        raise GraphError(f"unknown distance-two mode {mode!r}")
    nbrs = G.neighbors(v)
    walks = frozenset().union(*map(G.neighbors, nbrs)) - {v}
    return walks if mode == "walk" else walks - nbrs


def induced_subgraph(G: Graph, keep: Iterable[int]) -> Graph:
    keepset = set(keep)
    unknown = keepset - set(G.vertices)
    if unknown:
        raise GraphError(f"not vertices of the graph: {sorted(unknown)}")
    return Graph(sorted(keepset), [(u, v) for u, v in G.edges if u in keepset and v in keepset])


def check_product_size(G: Graph, q: int, budget: Optional[int] = None) -> int:
    """The edge count of G x K_q, counted without building anything; raises
    GraphError unless q >= 1 and BudgetExceeded past budget (None:
    DEFAULT_PRODUCT_BUDGET)."""
    if q < 1:
        raise GraphError("q must be a positive integer")
    edges = G.m * q + G.n * (q * (q - 1) // 2)
    Budget(budget, DEFAULT_PRODUCT_BUDGET, "product", "edges").spend(edges)
    return edges


def product_with_complete(G: Graph, q: int, budget: Optional[int] = None) -> list[int]:
    """The open-neighborhood masks of G x K_q by label: (base, row) is label
    b*q + (row-1), b = index(base), adjacent to the rest of its column and to
    its row on each neighbor of its base.  budget bounds the product's edges
    (None: DEFAULT_PRODUCT_BUDGET), checked before any mask is built."""
    check_product_size(G, q, budget)
    nbr = []
    for b, mask in enumerate(G.nbr):
        row = sum(1 << ((low.bit_length() - 1) * q) for low in bits(mask))  # bit u*q per neighbor u
        column = ((1 << q) - 1) << (b * q)
        nbr.extend((row << r) | (column ^ (1 << (b * q + r))) for r in range(q))
    return nbr


def product_edgelist(G: Graph, q: int, budget: Optional[int] = None) -> str:
    """The edge-list text of G x K_q on product_with_complete's labels,
    written from G's masks, as the product's masks grow with the square of
    its label count; budget as for product_with_complete."""
    parts = [f"p {G.n * q} {check_product_size(G, q, budget)}\n"]
    for b, mask in enumerate(G.nbr):
        later = [(low.bit_length() - 1) * q for low in bits(mask >> (b + 1) << (b + 1))]
        for r, x in enumerate(range(b * q, (b + 1) * q)):  # its column, then its row on later bases
            ys = [*range(x + 1, (b + 1) * q), *(u + r for u in later)]
            parts.append("".join([f"e {x} {y}\n" for y in ys]))
    return "".join(parts)


# -- edge-list text format --
#
# First line "p <n> <m>", then m lines "e <u> <v>" with 0-based labels in
# 0..n-1; blank lines and lines starting with "#" are ignored.


def parse_edgelist(text: str) -> Graph:
    n = None
    m = None
    edges: list[tuple[int, int]] = []
    for lineno, line in data_lines(text):
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphError(f"line {lineno}: repeated problem line")
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: expected 'p <n> <m>'")
            n, m = (int_token(t, lineno, GraphError, "an integer") for t in parts[1:])
            if n < 0 or m < 0:
                raise GraphError(f"line {lineno}: vertex and edge counts must not be negative")
        elif parts[0] == "e":
            if n is None:
                raise GraphError(f"line {lineno}: edge before the problem line")
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: expected 'e <u> <v>'")
            u, v = (int_token(t, lineno, GraphError, "an integer") for t in parts[1:])
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"line {lineno}: endpoint outside 0..{n - 1}")
            edges.append((u, v))
        else:
            raise GraphError(f"line {lineno}: unrecognized line {quoted(line)}")
    if n is None:
        raise GraphError("missing problem line 'p <n> <m>'")
    if m is not None and m != len(edges):
        raise GraphError(f"problem line declares {m} edges but {len(edges)} given")
    return Graph(range(n), edges)


def bits(mask: int) -> Iterator[int]:
    """The set bits of mask as one-bit masks, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def mask_labels(verts: Sequence[int], mask: int) -> tuple[int, ...]:
    """The labels verts[i] of the set bits i of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(verts[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


def run(call: Generator):
    """The return value of a generator recursion, computed on an explicit stack.

    A generator asks for a recursive call by yielding that call's generator
    and receives its return value, so recursion depth never reaches the
    interpreter's limit.  A nested generator function that calls itself
    holds itself in its closure, a cycle that keeps everything it closes
    over until the cyclic collector runs; callers del its name once run
    returns, so reference counting frees that state at once.
    """
    stack, value = [call], None
    while stack:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value
