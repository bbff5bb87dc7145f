"""Squid removal on products G x K_q, and certificate extraction.

A squid with body w is a structured subset of V(G x K_q): part of w's
column plus "arms" confined to one row (kind I, anchored by an adjacent
witness vertex) or to two rows (kind II).  Removal schedules delete one
squid per step; the branching recursion below mirrors the inductive proof
that such schedules certify decomposability levels of the residual:

  at a node with residual H and level L >= 1, pick a pivot (v, i), order
  its H-neighbors w_1..w_n with the row neighbors first, and branch on

    S'_l = N(w_l) in H, plus {w_1..w_l}          (one child per neighbor)
    S''  = closed neighborhood of (v, i) in H    (the "link" child)

  each child recursing at level L-1.  The S'_l child's residual equals
  H minus (closed nbhd of w_l, plus w_1..w_{l-1}) and the S'' child's
  equals H minus the pivot's closed neighborhood, which is exactly what
  assemble_pivot_decomposition needs, so a complete trace converts into a
  VdCertificate for the whole product at the root level.

Every generated squid empties its body's column from the child residual
(the engine asserts this), and fits one of the two admissible patterns of
the paper except the degenerate bare-pivot squid at an isolated residual
pivot.

Two pivot rules are provided: run_df1 takes the lexicographically smallest
residual vertex (valid whenever q > |N2(v)| + 2|N(v)| for every v), and
run_dynamic follows a block-size scheme, choosing at each block start the
top-most surviving row with the most preserved vertices.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional

# Bound as a module, not by name: under the CLI's lazy layers
# squid df1 and squid extract then never load schemes.
from . import schemes
from .errors import SquidError, json_int, json_ints
from .graphs import Graph, ProductVertex, distance_two_set, product_with_complete
from .vd import (
    CertificateBuilder,
    LeafAny,
    MaskView,
    VdCertificate,
    assemble_pivot_decomposition,
)


class TheoremViolation(SquidError):
    """A residual emptied early; indicates a bug or a failed hypothesis."""


class SchemeRunError(SquidError):
    """The dynamic row choice found no usable row: scheme/graph mismatch."""


# ---------------------------------------------------------------------------
# Squids
# ---------------------------------------------------------------------------


class Squid(NamedTuple):
    """Vertex subset of G x K_q with body/heart bookkeeping.

    kind "I": arms lie on one row inside the neighborhoods of the body and
    an adjacent witness; single heart (body, row).  kind "II": arms lie on
    two rows inside the body's neighborhood; hearts on both rows.  witness
    is None only for armless squids (whole squid inside the body column).
    """

    body: int
    kind: str
    rows: tuple[int, ...]
    vertices: frozenset[ProductVertex]
    witness: Optional[int] = None

    def to_obj(self) -> dict:
        arms, body_rows = [], []
        for base, row in sorted(self.vertices):
            if base == self.body:
                body_rows.append(row)
            else:
                arms.append([base, row])
        return {
            "arms": arms,
            "body": self.body,
            "body_rows": body_rows,
            "hearts": [[self.body, r] for r in self.rows],
            "kind": self.kind,
            "rows": list(self.rows),
            "witness": self.witness,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "Squid":
        try:
            body = json_int(obj["body"], "squid body")
            kind = obj["kind"]
            if kind not in ("I", "II"):
                raise ValueError(f"squid kind must be 'I' or 'II', got {kind!r}")
            arms = obj["arms"]
            if type(arms) is not list:
                raise ValueError(f"squid arms must be a list, got {arms!r}")
            vertices = set()
            for pair in arms:
                b, r = json_ints(pair, "squid arm")
                vertices.add(ProductVertex(b, r))
            for r in json_ints(obj["body_rows"], "squid body_rows"):
                vertices.add(ProductVertex(body, r))
            witness = obj.get("witness")
            return cls(
                body=body,
                kind=kind,
                rows=json_ints(obj["rows"], "squid rows"),
                vertices=frozenset(vertices),
                witness=None if witness is None else json_int(witness, "squid witness"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SquidError(f"malformed squid object: {exc}") from exc


# ---------------------------------------------------------------------------
# Pivot-rule preconditions
# ---------------------------------------------------------------------------


def df1_threshold(G: Graph, mode: str = "walk") -> int:
    """max over v of |N2(v)| + 2|N(v)|; any q above it admits run_df1."""
    return max(
        (len(distance_two_set(G, v, mode)) + 2 * len(G.neighbors(v)) for v in G.vertices),
        default=0,
    )


def df1_check(G: Graph, q: int, mode: str = "walk") -> bool:
    """Strict inequality q > |N2(v)| + 2|N(v)| at every vertex."""
    if q < 1:
        raise SquidError(f"q must be positive, got {q}")
    return q > df1_threshold(G, mode)


# ---------------------------------------------------------------------------
# Removal traces
# ---------------------------------------------------------------------------


class TraceChild(NamedTuple):
    squid: Squid
    node: "TraceNode"
    w: Optional[ProductVertex] = None  # the neighbor consumed; None on the link child


class TraceNode(NamedTuple):
    level: int
    residual_mask: int
    pivot: Optional[ProductVertex] = None
    arm_children: tuple[TraceChild, ...] = ()
    link_child: Optional[TraceChild] = None
    block_row: Optional[int] = None  # dynamic runs: the row of the active block
    rows_used: Optional[tuple[int, ...]] = None  # dynamic runs: block rows so far

    @property
    def residual_size(self) -> int:
        return self.residual_mask.bit_count()


class RemovalTrace(NamedTuple):
    graph: Graph
    q: int
    m: int
    kind: str  # "df1" | "dynamic"
    root: TraceNode
    mode: str = "walk"
    scheme: Optional[schemes.SizeScheme] = None

    def product(self) -> Graph:
        return product_with_complete(self.graph, self.q)

    def nodes(self) -> list[TraceNode]:
        """Unique nodes in depth-first preorder from the root."""
        seen: dict[int, TraceNode] = {}
        order: list[TraceNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen[id(node)] = node
            order.append(node)
            children = list(node.arm_children)
            if node.link_child is not None:
                children.append(node.link_child)
            for child in reversed(children):
                stack.append(child.node)
        return order

    def to_obj(self) -> dict:
        ids: dict[int, int] = {}
        nodes = self.nodes()
        for i, node in enumerate(nodes):
            ids[id(node)] = i
        node_objs = []
        for i, node in enumerate(nodes):
            obj = {
                "children": [
                    {
                        "node": ids[id(ch.node)],
                        "squid": ch.squid.to_obj(),
                        "w": [ch.w.base, ch.w.row],
                    }
                    for ch in node.arm_children
                ],
                "id": i,
                "level": node.level,
                "link": (
                    None
                    if node.link_child is None
                    else {
                        "node": ids[id(node.link_child.node)],
                        "squid": node.link_child.squid.to_obj(),
                    }
                ),
                "pivot": None if node.pivot is None else [node.pivot.base, node.pivot.row],
                "residual_size": node.residual_size,
            }
            if self.kind == "dynamic":
                obj["block_row"] = node.block_row
                obj["rows_used"] = None if node.rows_used is None else list(node.rows_used)
            node_objs.append(obj)
        return {
            "graph": {"edges": [list(e) for e in self.graph.edges], "vertices": list(self.graph.vertices)},
            "kind": self.kind,
            "m": self.m,
            "mode": self.mode,
            "nodes": node_objs,
            "q": self.q,
            "root": 0,
            "scheme": None if self.scheme is None else self.scheme.to_obj(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_obj(cls, obj: dict) -> "RemovalTrace":
        try:
            graph = obj["graph"]
            G = Graph(
                json_ints(graph["vertices"], "graph vertices"),
                [json_ints(e, "graph edge") for e in graph["edges"]],
            )
            q = json_int(obj["q"], "q")
            m = json_int(obj["m"], "m")
            kind = obj["kind"]
            if kind not in ("df1", "dynamic"):
                raise ValueError(f"trace kind must be 'df1' or 'dynamic', got {kind!r}")
            mode = obj.get("mode", "walk")
            if mode not in ("walk", "distance"):
                raise ValueError(f"trace mode must be 'walk' or 'distance', got {mode!r}")
            node_objs = obj["nodes"]
            root_id = json_int(obj["root"], "root")
            scheme = obj.get("scheme")
            if scheme is not None:
                scheme = schemes.SizeScheme.from_obj(scheme)
        except (KeyError, TypeError, ValueError) as exc:
            raise SquidError(f"malformed trace object: {exc}") from exc
        if q < 1:
            raise SquidError(f"malformed trace object: q must be positive, got {q}")
        gi = {v: i for i, v in enumerate(G.vertices)}
        full = (1 << (G.n * q)) - 1

        def label(base, row) -> int:
            if type(base) is not int or base not in gi or type(row) is not int or not 1 <= row <= q:
                raise ValueError(f"({base!r}, {row!r}) is not a vertex of the product")
            return gi[base] * q + (row - 1)

        def product_vertex(pair) -> ProductVertex:
            base, row = pair
            label(base, row)
            return ProductVertex(base, row)

        def squid_mask(s: Squid) -> int:
            mask = 0
            for pv in s.vertices:
                mask |= 1 << label(pv.base, pv.row)
            return mask

        built: dict[int, TraceNode] = {}
        open_ids: set[int] = set()  # nodes whose children are being built

        def build(idx: int, mask: int) -> TraceNode:
            if idx in built:
                node = built[idx]
                if node.residual_mask != mask:
                    raise SquidError(f"node {idx} is reached with two different residuals")
                return node
            if idx in open_ids:
                raise SquidError(f"node {idx} is its own descendant")
            try:
                if not 0 <= idx < len(node_objs):
                    raise IndexError(f"no node with id {idx}")
                o = node_objs[idx]
                size = json_int(o["residual_size"], "residual_size")
                level = json_int(o["level"], "level")
                arms = []
                for ch in o["children"]:
                    sq = Squid.from_obj(ch["squid"])
                    child = json_int(ch["node"], "child node")
                    arms.append((sq, squid_mask(sq), child, product_vertex(ch["w"])))
                link = None
                if o.get("link") is not None:
                    sq = Squid.from_obj(o["link"]["squid"])
                    link = (sq, squid_mask(sq), json_int(o["link"]["node"], "link node"))
                pivot = None if o["pivot"] is None else product_vertex(o["pivot"])
                block_row = o.get("block_row")
                block_row = None if block_row is None else json_int(block_row, "block_row")
                rows_used = o.get("rows_used")
                rows_used = None if rows_used is None else json_ints(rows_used, "rows_used")
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise SquidError(
                    f"node {idx}: malformed trace node ({type(exc).__name__}: {exc})"
                ) from exc
            if size != mask.bit_count():
                raise SquidError(f"node {idx}: residual size does not replay")
            open_ids.add(idx)
            arm_children = tuple(
                TraceChild(squid=sq, node=build(child, mask & ~sm), w=w)
                for sq, sm, child, w in arms
            )
            link_child = None
            if link is not None:
                sq, sm, child = link
                link_child = TraceChild(squid=sq, node=build(child, mask & ~sm))
            open_ids.discard(idx)
            node = TraceNode(
                level=level,
                residual_mask=mask,
                pivot=pivot,
                arm_children=arm_children,
                link_child=link_child,
                block_row=block_row,
                rows_used=rows_used,
            )
            built[idx] = node
            return node

        try:
            root = build(root_id, full)
        except RecursionError:
            raise SquidError("trace nodes are nested too deeply to read") from None
        return cls(graph=G, q=q, m=m, kind=kind, root=root, mode=mode, scheme=scheme)

    @classmethod
    def from_json(cls, text: str) -> "RemovalTrace":
        return cls.from_obj(json.loads(text))


# ---------------------------------------------------------------------------
# The removal engine
# ---------------------------------------------------------------------------


class _Engine:
    def __init__(self, G: Graph, q: int):
        self.G = G
        self.q = q
        self.P = product_with_complete(G, q)
        self.view = MaskView(self.P)  # product labels are bit indices
        self.nbr = self.view.nbr
        self.total = G.n * q
        self.full = (1 << self.total) - 1
        self.base_of = [G.vertices[lab // q] for lab in range(self.total)]
        self.row_of = [lab % q + 1 for lab in range(self.total)]
        self.gi = {v: i for i, v in enumerate(G.vertices)}

    def pv(self, label: int) -> ProductVertex:
        return ProductVertex(self.base_of[label], self.row_of[label])

    def label(self, pv: ProductVertex) -> int:
        return self.gi[pv.base] * self.q + (pv.row - 1)

    def column_mask(self, base: int) -> int:
        return ((1 << self.q) - 1) << (self.gi[base] * self.q)

    def pv_set(self, mask: int) -> frozenset[ProductVertex]:
        out = []
        while mask:
            low = mask & -mask
            out.append(self.pv(low.bit_length() - 1))
            mask ^= low
        return frozenset(out)

    def classify_arm_squid(self, w_label: int, pivot_label: int, squid_mask: int) -> Squid:
        v, i = self.base_of[pivot_label], self.row_of[pivot_label]
        wb, wr = self.base_of[w_label], self.row_of[w_label]
        if wr == i and wb != v:
            # row neighbor: one-row squid with body w and the pivot as witness
            return Squid(
                body=wb, kind="I", rows=(i,), vertices=self.pv_set(squid_mask), witness=v
            )
        # column neighbor: two-row squid with the pivot's body
        lo, hi = min(i, wr), max(i, wr)
        return Squid(body=v, kind="II", rows=(lo, hi), vertices=self.pv_set(squid_mask))

    def classify_link_squid(self, pivot_label: int, squid_mask: int) -> Squid:
        v, i = self.base_of[pivot_label], self.row_of[pivot_label]
        verts = self.pv_set(squid_mask)
        nbrs = sorted(self.G.neighbors(v))
        if nbrs:
            return Squid(body=v, kind="I", rows=(i,), vertices=verts, witness=nbrs[0])
        other_rows = sorted(pv.row for pv in verts if pv.row != i)
        if other_rows:
            lo, hi = min(i, other_rows[0]), max(i, other_rows[0])
            return Squid(body=v, kind="II", rows=(lo, hi), vertices=verts)
        # bare pivot: isolated body with nothing else left in its column
        return Squid(body=v, kind="I", rows=(i,), vertices=verts, witness=None)

    def expand(self, mask: int, pivot_label: int):
        """Child squids of a node: (w, squid, child_mask) per neighbor, then
        the closed-neighborhood link squid. Asserts the body-column condition."""
        i_row = self.row_of[pivot_label]
        v_base = self.base_of[pivot_label]
        nb = self.nbr[pivot_label] & mask
        row_nb = []
        col_nb = []
        rest = nb
        while rest:
            low = rest & -rest
            lab = low.bit_length() - 1
            if self.row_of[lab] == i_row:
                row_nb.append(lab)
            else:
                col_nb.append(lab)
            rest ^= low
        order = sorted(row_nb) + sorted(col_nb)
        arm_out = []
        prefix = 0
        for w in order:
            prefix |= 1 << w
            squid_mask = (self.nbr[w] & mask) | prefix
            child_mask = mask & ~squid_mask
            squid = self.classify_arm_squid(w, pivot_label, squid_mask)
            if self.column_mask(squid.body) & child_mask:
                raise SquidError("engine invariant broken: body column survived removal")
            arm_out.append((w, squid, child_mask))
        link_mask = nb | (1 << pivot_label)
        link_squid = self.classify_link_squid(pivot_label, link_mask)
        link_child_mask = mask & ~link_mask
        if self.column_mask(v_base) & link_child_mask:
            raise SquidError("engine invariant broken: pivot column survived removal")
        return arm_out, link_squid, link_child_mask


def run_df1(G: Graph, q: int, mode: str = "walk") -> RemovalTrace:
    """Full branching removal of |V(G)| squids with the lexicographic pivot.

    Requires df1_check(G, q, mode).  Every residual met above level 0 is
    checked nonempty at runtime (that nonemptiness is the substance of the
    pivot rule's validity).
    """
    if not df1_check(G, q, mode):
        raise SquidError(
            f"q={q} does not exceed the threshold {df1_threshold(G, mode)} for this graph"
        )
    eng = _Engine(G, q)
    m = G.n
    memo: dict[tuple[int, int], TraceNode] = {}

    def explore(mask: int, level: int) -> TraceNode:
        key = (mask, level)
        got = memo.get(key)
        if got is not None:
            return got
        if level == 0:
            node = TraceNode(level=0, residual_mask=mask)
        else:
            if mask == 0:
                raise TheoremViolation(
                    f"residual emptied with {level} removal steps still to go"
                )
            pivot_label = (mask & -mask).bit_length() - 1
            arms, link_squid, link_mask = eng.expand(mask, pivot_label)
            arm_children = tuple(
                TraceChild(squid=s, node=explore(cm, level - 1), w=eng.pv(w))
                for w, s, cm in arms
            )
            link_child = TraceChild(squid=link_squid, node=explore(link_mask, level - 1))
            node = TraceNode(
                level=level,
                residual_mask=mask,
                pivot=eng.pv(pivot_label),
                arm_children=arm_children,
                link_child=link_child,
            )
        memo[key] = node
        return node

    root = explore(eng.full, m)
    return RemovalTrace(graph=G, q=q, m=m, kind="df1", root=root, mode=mode)


def run_dynamic(G: Graph, q: int, scheme: schemes.SizeScheme) -> RemovalTrace:
    """Blockwise removal: block l removes scheme.sizes[l-1] squids with
    hearts on one row, chosen at each block start as the smallest-index
    unused row with the most surviving vertices; within a block the pivot is
    the smallest surviving base vertex on that row.

    The scheme is re-validated exactly against its own declared budget n
    (bounded by the product size) with the graph's true maximum degree; a
    mid-run exhausted row still raises the scheme-infeasible diagnostic,
    which certificate verification backstops.
    """
    delta = G.max_degree()
    if delta < 1:
        raise SquidError("dynamic removal needs max degree >= 1 (scheme validation requires it)")
    if scheme.q != q:
        raise SquidError(f"scheme was declared for q={scheme.q}, run requested q={q}")
    if scheme.n > G.n * q:
        raise SquidError(
            f"scheme budget n={scheme.n} exceeds the product size {G.n * q}"
        )
    check = schemes.validate_scheme(scheme.sizes, scheme.n, q, delta)
    if not check.ok:
        raise SquidError(f"scheme is not valid for this graph: {check.reason}")
    m = sum(scheme.sizes)
    if m > G.n:
        raise SquidError(f"scheme removes {m} squids but the tuple bound needs m <= |G| = {G.n}")
    cumulative = []
    total = 0
    for s in scheme.sizes:
        total += s
        cumulative.append(total)
    eng = _Engine(G, q)
    memo: dict[tuple[int, int, tuple[int, ...]], TraceNode] = {}

    def block_of(step: int) -> int:
        for bi, cum in enumerate(cumulative, start=1):
            if step <= cum:
                return bi
        raise AssertionError("step beyond the scheme")

    def row_counts(mask: int) -> dict[int, int]:
        counts = {r: 0 for r in range(1, q + 1)}
        rest = mask
        while rest:
            low = rest & -rest
            counts[eng.row_of[low.bit_length() - 1]] += 1
            rest ^= low
        return counts

    def explore(mask: int, depth: int, rows: tuple[int, ...]) -> TraceNode:
        level = m - depth
        key = (mask, depth, rows)
        got = memo.get(key)
        if got is not None:
            return got
        if depth == m:
            node = TraceNode(level=0, residual_mask=mask, rows_used=rows)
        else:
            step = depth + 1
            block = block_of(step)
            if block > len(rows):
                counts = row_counts(mask)
                unused = [r for r in range(1, q + 1) if r not in rows]
                best = max((counts[r] for r in unused), default=0)
                if best == 0:
                    raise SchemeRunError(
                        f"no unused row has surviving vertices at step {step}"
                    )
                chosen = min(r for r in unused if counts[r] == best)
                rows = rows + (chosen,)
            row = rows[block - 1]
            candidates = [
                lab
                for lab in range(eng.total)
                if mask >> lab & 1 and eng.row_of[lab] == row
            ]
            if not candidates:
                raise SchemeRunError(
                    f"block {block} row {row} has no surviving vertices at step {step}"
                )
            pivot_label = min(candidates)  # smallest base vertex on the block row
            arms, link_squid, link_mask = eng.expand(mask, pivot_label)
            arm_children = tuple(
                TraceChild(squid=s, node=explore(cm, depth + 1, rows), w=eng.pv(w))
                for w, s, cm in arms
            )
            link_child = TraceChild(
                squid=link_squid, node=explore(link_mask, depth + 1, rows)
            )
            node = TraceNode(
                level=level,
                residual_mask=mask,
                pivot=eng.pv(pivot_label),
                arm_children=arm_children,
                link_child=link_child,
                block_row=row,
                rows_used=rows,
            )
        memo[key] = node
        return node

    root = explore(eng.full, 0, ())
    return RemovalTrace(graph=G, q=q, m=m, kind="dynamic", root=root, scheme=scheme)


# ---------------------------------------------------------------------------
# Certificate extraction
# ---------------------------------------------------------------------------


def extract_certificate(trace: RemovalTrace) -> VdCertificate:
    """Convert a complete trace into a certificate for G x K_q at level m.

    Each node's children supply exactly the ingredient certificates of the
    pivot decomposition (neighbor-chain deletions and the closed-neighborhood
    deletion), assembled bottom-up with subtree sharing per (residual, level).
    Everything runs on residual bitmasks of the product: one
    CertificateBuilder serves every node, so isolated-vertex lifts repeated
    across pivot decompositions are built once, and no Graph is built per
    node.
    """
    eng = _Engine(trace.graph, trace.q)
    builder = CertificateBuilder(eng.view)
    cache: dict[tuple[int, int], VdCertificate] = {}

    def certify(node: TraceNode) -> VdCertificate:
        key = (node.residual_mask, node.level)
        got = cache.get(key)
        if got is not None:
            return got
        if node.level == 0:
            cert: VdCertificate = LeafAny()
        else:
            if node.pivot is None or node.link_child is None:
                raise SquidError(f"trace incomplete at level {node.level}")
            arm_certs = [certify(ch.node) for ch in node.arm_children]
            link_cert = certify(node.link_child.node)
            order = [eng.label(ch.w) for ch in node.arm_children]
            cert = assemble_pivot_decomposition(
                builder,
                node.residual_mask,
                eng.label(node.pivot),
                order,
                arm_certs,
                link_cert,
                node.level,
            )
        cache[key] = cert
        return cert

    return certify(trace.root)
