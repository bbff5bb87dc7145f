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
top-most surviving row with the most preserved vertices.  Both run one
removal search, and it, trace reading and extraction all run on
graphs.run's explicit stack; a budget of trace nodes bounds the search,
and one of product edges bounds G x K_q itself.

In memory a product vertex is its label index(base)*q + (row-1), and a
squid or residual is a mask over those labels.  The (base, row) pairs
appear only in the trace JSON, which RemovalTrace.to_json writes node row
by node row and from_json reads.
"""

from __future__ import annotations

import bisect
import itertools
import json
from typing import NamedTuple, Optional

# Bound as a module, not by name: under the CLI's lazy layers
# squid df1 and squid extract then never load schemes.
from . import schemes
from .errors import Budget, SquidError, json_int, json_ints, read_json
from .graphs import Graph, check_product_size, distance_two_set, product_with_complete, run
from .vd import (
    CertificateBuilder,
    LeafAny,
    MaskView,
    VdCertificate,
    assemble_pivot_decomposition,
)


# Trace nodes one removal search may make; a node of a dense product costs
# tens of kilobytes.
DEFAULT_REMOVAL_BUDGET = 100_000


class TheoremViolation(SquidError):
    """A residual emptied early; indicates a bug or a failed hypothesis."""


class SchemeRunError(SquidError):
    """The dynamic row choice found no usable row: scheme/graph mismatch."""


# ---------------------------------------------------------------------------
# Squids
# ---------------------------------------------------------------------------


class Squid(NamedTuple):
    """Vertex subset of G x K_q with body/heart bookkeeping.

    mask holds the squid's product labels.  body and witness are vertices
    of G, and rows are rows 1..q.  kind "I": arms lie on one row inside the
    neighborhoods of the body and an adjacent witness; single heart (body,
    row).  kind "II": arms lie on two rows inside the body's neighborhood;
    hearts on both rows.  witness is None only for armless squids (whole
    squid inside the body column).
    """

    body: int
    kind: str
    rows: tuple[int, ...]
    mask: int
    witness: Optional[int] = None


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
    w: Optional[int] = None  # label of the neighbor consumed; None on the link child


class TraceNode(NamedTuple):
    """One residual of a removal: its product labels as a mask, and the
    label of its pivot (None at level 0)."""

    level: int
    residual_mask: int
    pivot: Optional[int] = None
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

    def product(self) -> MaskView:
        return MaskView(product_with_complete(self.graph, self.q))

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

    def to_json(self) -> str:
        """The JSON form, where each product label becomes its (base, row) pair.

        Each node is written straight to one row of text, with its keys
        sorted and no spaces, exactly as json.dumps(sort_keys=True,
        separators=(",", ":")) writes them, so no tree of dicts is built.
        block_row and rows_used appear only in dynamic traces; an absent
        pivot, link or witness is null.  The trace kind, the mode and the
        squid kinds are fixed words that need no escaping.
        """
        G, q = self.graph, self.q
        pair = [f"[{v},{r}]" for v in G.vertices for r in range(1, q + 1)]  # by label
        column = {v: i * q for i, v in enumerate(G.vertices)}  # base -> its lowest label
        rows_mask = (1 << q) - 1

        def ints(values) -> str:
            return ",".join(map(str, values))

        # A squid's text is its arms, then the text of the rows it holds of
        # its body's column, then a tail fixed by its other fields; the last
        # two repeat across squids and are formatted once each.
        body_rows_text: dict[int, str] = {}
        tails: dict[tuple, str] = {}

        def squid_text(s: Squid) -> str:
            # ascending labels are the pairs in sorted order
            col = column[s.body]  # every squid's body is a vertex of G
            inside = s.mask >> col & rows_mask
            mask = s.mask ^ inside << col
            arms = []
            while mask:
                low = mask & -mask
                arms.append(pair[low.bit_length() - 1])
                mask ^= low
            rows = body_rows_text.get(inside)
            if rows is None:
                rows = body_rows_text[inside] = ints(
                    r for r in range(1, q + 1) if inside >> (r - 1) & 1
                )
            key = (s.body, s.kind, s.rows, s.witness)
            tail = tails.get(key)
            if tail is None:
                hearts = ",".join(f"[{s.body},{r}]" for r in s.rows)
                witness = "null" if s.witness is None else s.witness
                tail = tails[key] = (
                    f'],"hearts":[{hearts}],"kind":"{s.kind}","rows":[{ints(s.rows)}],'
                    f'"witness":{witness}}}'
                )
            return f'{{"arms":[{",".join(arms)}],"body":{s.body},"body_rows":[{rows}{tail}'

        nodes = self.nodes()
        ids = {id(node): i for i, node in enumerate(nodes)}
        dynamic = self.kind == "dynamic"
        scheme = "null" if self.scheme is None else json.dumps(
            self.scheme.to_obj(), sort_keys=True, separators=(",", ":")
        )
        parts = [
            f'{{"graph":{{"edges":[{",".join(f"[{u},{v}]" for u, v in G.edges)}],'
            f'"vertices":[{ints(G.vertices)}]}},"kind":"{self.kind}","m":{self.m},'
            f'"mode":"{self.mode}","nodes":['
        ]
        for i, node in enumerate(nodes):
            row = "," if i else ""
            if dynamic:
                row += f'{{"block_row":{"null" if node.block_row is None else node.block_row},'
            else:
                row += "{"
            children = ",".join(
                f'{{"node":{ids[id(ch.node)]},"squid":{squid_text(ch.squid)},"w":{pair[ch.w]}}}'
                for ch in node.arm_children
            )
            link = node.link_child
            if link is not None:
                link = f'{{"node":{ids[id(link.node)]},"squid":{squid_text(link.squid)}}}'
            row += (
                f'"children":[{children}],"id":{i},"level":{node.level},'
                f'"link":{"null" if link is None else link},'
                f'"pivot":{"null" if node.pivot is None else pair[node.pivot]},'
                f'"residual_size":{node.residual_size}'
            )
            if dynamic:
                used = "null" if node.rows_used is None else f"[{ints(node.rows_used)}]"
                row += f',"rows_used":{used}'
            parts.append(row + "}")
        parts.append(f'],"q":{q},"root":0,"scheme":{scheme}}}')
        return "".join(parts)

    @classmethod
    def from_obj(cls, obj: dict, budget: Optional[int] = None) -> "RemovalTrace":
        """Read the JSON form, turning each (base, row) pair into its label.

        budget bounds the edges of G x K_q (None: the product default); it
        is checked before anything of the product's size is built.
        """
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
        check_product_size(G, q, budget)
        gi = {v: i for i, v in enumerate(G.vertices)}
        full = (1 << (G.n * q)) - 1

        def label(pair) -> int:
            base, row = pair
            if type(base) is not int or base not in gi or type(row) is not int or not 1 <= row <= q:
                raise ValueError(f"({base!r}, {row!r}) is not a vertex of the product")
            return gi[base] * q + (row - 1)

        def squid(o: dict) -> Squid:
            """The squid of o, with its fields checked but not its arm patterns."""
            body, kind = json_int(o["body"], "squid body"), o["kind"]
            if body not in gi:
                raise ValueError(f"squid body {body} is not a vertex of the graph")
            rows = json_ints(o["rows"], "squid rows")
            two = len(rows) == 2 and rows[0] < rows[1]
            if not (kind == "I" and len(rows) == 1 or kind == "II" and two):
                raise ValueError(f"a kind {kind!r} squid cannot mark rows {list(rows)}")
            if rows[0] < 1 or rows[-1] > q:  # rows are increasing
                raise ValueError(f"squid rows {list(rows)} are not all in 1..{q}")
            hearts = o["hearts"]
            if hearts != [[body, r] for r in rows] or {type(v) for h in hearts for v in h} != {int}:
                raise ValueError(f"squid hearts {hearts!r} are not its body on its rows")
            arms = o["arms"]
            if type(arms) is not list:
                raise ValueError(f"squid arms must be a list, got {arms!r}")
            mask = 0
            for pair in arms:
                mask |= 1 << label(pair)
            for r in json_ints(o["body_rows"], "squid body_rows"):
                mask |= 1 << label((body, r))
            witness = o.get("witness")
            witness = None if witness is None else json_int(witness, "squid witness")
            if kind == "I" and (arms or witness is not None) and witness not in G.neighbors(body):
                raise ValueError(f"witness {witness} of a kind I squid is not adjacent to its body")
            return Squid(body, kind, rows, mask, witness)

        built: dict[int, TraceNode] = {}
        open_ids: set[int] = set()  # nodes whose children are being built

        def known(idx: int, mask: int) -> Optional[TraceNode]:
            node = built.get(idx)
            if node is not None and node.residual_mask != mask:
                raise SquidError(f"node {idx} is reached with two different residuals")
            return node

        def build(idx: int, mask: int):
            """Generator for run: the node of an index not yet built."""
            if idx in open_ids:
                raise SquidError(f"node {idx} is its own descendant")
            try:
                if not 0 <= idx < len(node_objs):
                    raise IndexError(f"no node with id {idx}")
                o = node_objs[idx]
                size = json_int(o["residual_size"], "residual_size")
                level = json_int(o["level"], "level")
                arms = [
                    (squid(ch["squid"]), json_int(ch["node"], "child node"), label(ch["w"]))
                    for ch in o["children"]
                ]
                link = None
                if o.get("link") is not None:
                    link = (squid(o["link"]["squid"]), json_int(o["link"]["node"], "link node"))
                pivot = None if o["pivot"] is None else label(o["pivot"])
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
            arm_children = []
            for sq, child, w in arms:
                cm = mask & ~sq.mask
                node = known(child, cm) or (yield build(child, cm))
                arm_children.append(TraceChild(squid=sq, node=node, w=w))
            link_child = None
            if link is not None:
                sq, child = link
                cm = mask & ~sq.mask
                link_child = TraceChild(squid=sq, node=known(child, cm) or (yield build(child, cm)))
            open_ids.discard(idx)
            node = TraceNode(
                level=level,
                residual_mask=mask,
                pivot=pivot,
                arm_children=tuple(arm_children),
                link_child=link_child,
                block_row=block_row,
                rows_used=rows_used,
            )
            built[idx] = node
            return node

        root = run(build(root_id, full))
        del build
        return cls(graph=G, q=q, m=m, kind=kind, root=root, mode=mode, scheme=scheme)

    @classmethod
    def from_json(cls, text: str, budget: Optional[int] = None) -> "RemovalTrace":
        return cls.from_obj(read_json(text, "trace", SquidError), budget)


# ---------------------------------------------------------------------------
# The removal engine
# ---------------------------------------------------------------------------


class _Engine:
    def __init__(self, G: Graph, q: int, budget: Optional[int]):
        self.G = G
        self.q = q
        self.view = MaskView(product_with_complete(G, q, budget))  # labels are bit indices
        self.base_of = [G.vertices[lab // q] for lab in range(G.n * q)]
        self.row_of = [lab % q + 1 for lab in range(G.n * q)]

    def column_mask(self, label: int) -> int:
        """The labels of label's column: its base vertex on every row."""
        return ((1 << self.q) - 1) << (label - label % self.q)

    def classify_arm_squid(self, w_label: int, pivot_label: int, squid_mask: int) -> Squid:
        v, i = self.base_of[pivot_label], self.row_of[pivot_label]
        wb, wr = self.base_of[w_label], self.row_of[w_label]
        if wr == i and wb != v:
            # row neighbor: one-row squid with body w and the pivot as witness
            return Squid(body=wb, kind="I", rows=(i,), mask=squid_mask, witness=v)
        # column neighbor: two-row squid with the pivot's body
        return Squid(body=v, kind="II", rows=(min(i, wr), max(i, wr)), mask=squid_mask)

    def classify_link_squid(self, pivot_label: int, squid_mask: int) -> Squid:
        v, i = self.base_of[pivot_label], self.row_of[pivot_label]
        nbrs = self.G.neighbors(v)
        if nbrs:
            return Squid(body=v, kind="I", rows=(i,), mask=squid_mask, witness=min(nbrs))
        # v is isolated in G, so the squid lies in the pivot's column
        rest = squid_mask & ~(1 << pivot_label)
        if rest:
            j = self.row_of[(rest & -rest).bit_length() - 1]  # the smallest other row
            return Squid(body=v, kind="II", rows=(min(i, j), max(i, j)), mask=squid_mask)
        # bare pivot: isolated body with nothing else left in its column
        return Squid(body=v, kind="I", rows=(i,), mask=squid_mask, witness=None)

    def expand(self, mask: int, pivot_label: int):
        """Child squids of a node: (w, squid, child_mask) per neighbor, then
        the closed-neighborhood link squid. Asserts the body-column condition."""
        nb = self.view.nbr[pivot_label] & mask
        col_nb = nb & self.column_mask(pivot_label)
        order = self.view.labels(nb & ~col_nb) + self.view.labels(col_nb)  # row neighbors first
        arm_out = []
        prefix = 0
        for w in order:
            prefix |= 1 << w
            squid_mask = (self.view.nbr[w] & mask) | prefix
            child_mask = mask & ~squid_mask
            squid = self.classify_arm_squid(w, pivot_label, squid_mask)
            if self.column_mask(w) & child_mask:  # w's column is the body's
                raise SquidError("engine invariant broken: body column survived removal")
            arm_out.append((w, squid, child_mask))
        link_mask = nb | (1 << pivot_label)
        link_squid = self.classify_link_squid(pivot_label, link_mask)
        link_child_mask = mask & ~link_mask
        if self.column_mask(pivot_label) & link_child_mask:
            raise SquidError("engine invariant broken: pivot column survived removal")
        return arm_out, link_squid, link_child_mask


def _remove(eng: _Engine, m: int, pivot_rule, rows, budget: Optional[int]) -> TraceNode:
    """Root of the full branching removal of m squids, searched on graphs.run.

    pivot_rule(mask, depth, rows) gives the pivot label of a residual after
    depth removals, the block rows to pass down, and the node's block row;
    rows starts as given (None for a rule without blocks).  Nodes are shared
    per (residual, depth, rows), and the node past `budget` (None:
    DEFAULT_REMOVAL_BUDGET) raises BudgetExceeded.
    """
    spend = Budget(budget, DEFAULT_REMOVAL_BUDGET, "removal", "trace nodes").spend
    memo: dict[tuple, TraceNode] = {}

    def explore(mask: int, depth: int, rows):
        """Generator for run: the node of a key not yet in the memo."""
        spend()
        key = (mask, depth, rows)
        if depth == m:
            node = TraceNode(level=0, residual_mask=mask, rows_used=rows)
        else:
            pivot_label, rows, block_row = pivot_rule(mask, depth, rows)
            arms, link_squid, link_mask = eng.expand(mask, pivot_label)
            arm_children = []
            for w, s, cm in arms:
                child = memo.get((cm, depth + 1, rows)) or (yield explore(cm, depth + 1, rows))
                arm_children.append(TraceChild(squid=s, node=child, w=w))
            child = memo.get((link_mask, depth + 1, rows)) or (
                yield explore(link_mask, depth + 1, rows)
            )
            node = TraceNode(
                level=m - depth,
                residual_mask=mask,
                pivot=pivot_label,
                arm_children=tuple(arm_children),
                link_child=TraceChild(squid=link_squid, node=child),
                block_row=block_row,
                rows_used=rows,
            )
        memo[key] = node
        return node

    root = run(explore(eng.view.full, 0, rows))
    del explore
    return root


def run_df1(
    G: Graph, q: int, mode: str = "walk", budget: Optional[int] = None
) -> RemovalTrace:
    """Full branching removal of |V(G)| squids with the lexicographic pivot.

    Requires df1_check(G, q, mode).  Every residual met above level 0 is
    checked nonempty at runtime (that nonemptiness is the substance of the
    pivot rule's validity).  budget bounds the product's edges and the
    trace nodes.
    """
    if not df1_check(G, q, mode):
        raise SquidError(
            f"q={q} does not exceed the threshold {df1_threshold(G, mode)} for this graph"
        )
    m = G.n

    def lowest(mask: int, depth: int, rows: None) -> tuple[int, None, None]:
        if mask == 0:
            raise TheoremViolation(f"residual emptied with {m - depth} removal steps still to go")
        return (mask & -mask).bit_length() - 1, None, None

    root = _remove(_Engine(G, q, budget), m, lowest, None, budget)
    return RemovalTrace(graph=G, q=q, m=m, kind="df1", root=root, mode=mode)


def run_dynamic(
    G: Graph, q: int, scheme: schemes.SizeScheme, budget: Optional[int] = None
) -> RemovalTrace:
    """Blockwise removal: block l removes scheme.sizes[l-1] squids with
    hearts on one row, chosen at each block start as the smallest-index
    unused row with the most surviving vertices; within a block the pivot is
    the smallest surviving base vertex on that row.

    The scheme is re-validated exactly against its own declared budget n
    (bounded by the product size) with the graph's true maximum degree; a
    mid-run exhausted row still raises the scheme-infeasible diagnostic,
    which certificate verification backstops.  budget bounds the
    product's edges and the trace nodes.
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
    cumulative = list(itertools.accumulate(scheme.sizes))
    eng = _Engine(G, q, budget)
    row_masks = {r: sum(1 << lab for lab in range(r - 1, G.n * q, q)) for r in range(1, q + 1)}

    def block_pivot(mask: int, depth: int, rows: tuple[int, ...]) -> tuple[int, tuple[int, ...], int]:
        step = depth + 1
        block = bisect.bisect_left(cumulative, step) + 1
        if block > len(rows):
            unused = [r for r in range(1, q + 1) if r not in rows]
            counts = {r: (mask & row_masks[r]).bit_count() for r in unused}
            best = max(counts.values(), default=0)
            if best == 0:
                raise SchemeRunError(f"no unused row has surviving vertices at step {step}")
            rows = rows + (min(r for r in unused if counts[r] == best),)
        row = rows[block - 1]
        on_row = mask & row_masks[row]
        if not on_row:
            raise SchemeRunError(f"block {block} row {row} has no surviving vertices at step {step}")
        return (on_row & -on_row).bit_length() - 1, rows, row  # smallest base vertex on the row

    root = _remove(eng, m, block_pivot, (), budget)
    return RemovalTrace(graph=G, q=q, m=m, kind="dynamic", root=root, scheme=scheme)


# ---------------------------------------------------------------------------
# Certificate extraction
# ---------------------------------------------------------------------------


def extract_certificate(trace: RemovalTrace, budget: Optional[int] = None) -> VdCertificate:
    """Convert a complete trace into a certificate for G x K_q at level m.

    Each node's children supply exactly the ingredient certificates of the
    pivot decomposition (neighbor-chain deletions and the closed-neighborhood
    deletion), assembled bottom-up with subtree sharing per (residual, level).
    Everything runs on residual bitmasks of the product: one
    CertificateBuilder serves every node, so isolated-vertex lifts repeated
    across pivot decompositions are built once, and no Graph is built per
    node.  The walk runs on graphs.run, and the builder's budget counts its
    memo entries with the lifts' (None: vd.DEFAULT_CERTIFICATE_BUDGET);
    budget bounds the product's edges too.
    """
    view = MaskView(product_with_complete(trace.graph, trace.q, budget))
    builder = CertificateBuilder(view, budget)
    cache: dict[tuple[int, int], VdCertificate] = {}

    def certify(node: TraceNode):
        """Generator for run: the certificate of a node whose key is not cached."""
        builder.budget.spend()
        if node.level == 0:
            cert: VdCertificate = LeafAny()
        else:
            if node.pivot is None or node.link_child is None:
                raise SquidError(f"trace incomplete at level {node.level}")
            arm_certs = []
            for ch in node.arm_children:
                child = ch.node
                arm_certs.append(
                    cache.get((child.residual_mask, child.level)) or (yield certify(child))
                )
            child = node.link_child.node
            link_cert = cache.get((child.residual_mask, child.level)) or (yield certify(child))
            cert = assemble_pivot_decomposition(
                builder,
                node.residual_mask,
                node.pivot,
                [ch.w for ch in node.arm_children],
                arm_certs,
                link_cert,
                node.level,
            )
        cache[node.residual_mask, node.level] = cert
        return cert

    cert = run(certify(trace.root))
    del certify
    return cert
