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
removal search on graphs.run's explicit stack, as extraction does; a
budget of trace nodes bounds the search, and one of product edges bounds
G x K_q itself.  The search is the only model of a removal step: a trace
is read by rerunning the removal its header names and comparing texts.

In memory a product vertex is its label index(base)*q + (row-1), and a
squid or residual is a mask over those labels.  The (base, row) pairs
appear only in the trace JSON, which RemovalTrace.to_json writes.
"""

from __future__ import annotations

import bisect
import itertools
import json
from typing import NamedTuple, Optional

# Bound as a module, not by name: under the CLI's lazy layers
# squid df1 and squid extract then never load schemes.
from . import schemes
from .errors import (
    Budget,
    BudgetExceeded,
    SquidError,
    json_field,
    json_int,
    json_ints,
    json_type,
    read_json,
)
from .graphs import Graph, check_product_size, distance_two_set, mask_labels, product_with_complete, run
from .vd import (
    CertificateBuilder,
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
        seen, order, stack = set(), [], [self.root]  # the trace keeps every node, so ids stay unique
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                order.append(node)
                link = () if node.link_child is None else (node.link_child,)
                stack += [child.node for child in reversed(node.arm_children + link)]
        return order

    def _head_and_tail(self) -> tuple[str, str]:
        """The JSON text before the node rows and after them."""
        head, tail = _canonical({
            "graph": {"edges": self.graph.edges, "vertices": self.graph.vertices},
            "kind": self.kind, "m": self.m, "mode": self.mode, "nodes": None, "q": self.q, "root": 0,
            "scheme": None if self.scheme is None else self.scheme.to_obj(),
        }).split('"nodes":null')
        return head + '"nodes":[', "]" + tail

    def _node_rows(self):
        """The JSON text of each node in id order, every row but the first led by a comma.

        Each node is written straight to one row of text in _canonical's
        layout, so no tree of dicts is built.  block_row and rows_used
        appear only in dynamic traces; an absent pivot, link or witness is
        null.  The squid kinds are fixed words that need no escaping.
        """
        G, q = self.graph, self.q
        pair = [f"[{v},{r}]" for v in G.vertices for r in range(1, q + 1)]  # by label
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
            col = G.index[s.body] * q  # the lowest label of the body's column
            inside = s.mask >> col & rows_mask
            arms = mask_labels(pair, s.mask ^ inside << col)
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
                f'"residual_size":{node.residual_mask.bit_count()}'
            )
            if dynamic:
                used = "null" if node.rows_used is None else f"[{ints(node.rows_used)}]"
                row += f',"rows_used":{used}'
            yield row + "}"

    def to_json(self) -> str:
        """The canonical JSON form, where each product label becomes its (base, row) pair."""
        head, tail = self._head_and_tail()
        return "".join(itertools.chain((head,), self._node_rows(), (tail,)))  # one copy of the text

    @classmethod
    def from_obj(cls, obj: dict, budget: Optional[int] = None) -> "RemovalTrace":
        """The removal obj's header names, rerun, if obj is exactly its JSON form.

        run_df1 and run_dynamic are deterministic, so the header (graph, q,
        kind, and mode or scheme) fixes every node.  The rerun runs under
        budget (the product's edges, checked first, and the trace nodes).
        Unless obj's canonical JSON is its to_json, SquidError names the
        first header key or node that differs, and each field there with
        both of its values.
        """
        trace = _rerun(_header(obj), len(obj["nodes"]), budget)
        _check_rerun(trace, obj)
        return trace

    @classmethod
    def from_json(cls, text: str, budget: Optional[int] = None) -> "RemovalTrace":
        """from_obj of the value of text.

        Text in the writer's canonical layout is read with no JSON tree
        (_read_canonical): it is accepted if it is the rerun's to_json,
        trailing whitespace aside.  Any other text, in another layout or
        failing there for any reason, is parsed whole, its node tree freed
        for the rerun and parsed again for the comparison, so its errors
        are from_obj's.
        """
        trace = _read_canonical(text, budget)
        if trace is None:
            obj = read_json(text, "trace", SquidError)
            header, count = _header(obj), len(obj["nodes"])
            del obj  # the node tree is freed before the rerun
            trace = _rerun(header, count, budget)
            _check_rerun(trace, read_json(text, "trace", SquidError))
        return trace


def _canonical(value) -> str:
    """The canonical JSON text of value: keys sorted, no spaces."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _header(obj) -> tuple[Graph, int, str, str, Optional[schemes.SizeScheme]]:
    """The graph, q, kind, mode and scheme of a trace object, once its
    header is checked; SquidError names the first field that is wrong."""
    try:
        if type(obj) is not dict:
            raise ValueError(f"a trace is a JSON object, got {json_type(obj)}")
        graph = json_field(obj, "graph")
        if type(graph) is not dict:
            raise ValueError(f"graph must be an object, got {json_type(graph)}")
        edges = json_field(graph, "edges", " in graph")
        if type(edges) is not list:
            raise ValueError(f"graph edges must be a list, got {json_type(edges)}")
        edges = [json_ints(e, "graph edge") for e in edges]
        for e in edges:
            if len(e) != 2:
                raise ValueError(f"graph edge must be a pair of vertices, got {list(e)}")
        G = Graph(json_ints(json_field(graph, "vertices", " in graph"), "graph vertices"), edges)
        q = json_int(json_field(obj, "q"), "q")
        json_int(json_field(obj, "m"), "m")
        kind = json_field(obj, "kind")
        if kind not in ("df1", "dynamic"):
            raise ValueError(f"trace kind must be 'df1' or 'dynamic', got {kind!r}")
        mode = obj.get("mode", "walk")
        if mode not in ("walk", "distance"):
            raise ValueError(f"trace mode must be 'walk' or 'distance', got {mode!r}")
        nodes = json_field(obj, "nodes")
        if type(nodes) is not list:
            raise ValueError(f"nodes must be a list, got {json_type(nodes)}")
        json_int(json_field(obj, "root"), "root")
        scheme = obj.get("scheme")
        if scheme is not None:
            if type(scheme) is not dict:
                raise ValueError(f"scheme must be an object, got {json_type(scheme)}")
            scheme = schemes.SizeScheme.from_obj(scheme)
        elif kind == "dynamic":
            raise ValueError("a dynamic trace needs a scheme")
        if q < 1:
            raise ValueError(f"q must be positive, got {q}")
    except (TypeError, ValueError) as exc:
        raise SquidError(f"malformed trace object: {exc}") from exc
    return G, q, kind, mode, scheme


def _rerun(header: tuple, count: int, budget: Optional[int]) -> RemovalTrace:
    """The removal a checked header names (_header), for a trace of count nodes.

    The rerun may make as many trace nodes as the trace has, within budget:
    a removal that makes more is not the trace's, and stops with SquidError
    at the node past the trace's count, before it costs more than the trace.
    """
    G, q, kind, mode, scheme = header
    check_product_size(G, q, budget)
    limit = DEFAULT_REMOVAL_BUDGET if budget is None else budget
    nodes = min(limit, count)
    try:
        if kind == "df1":
            return run_df1(G, q, mode, budget, nodes)
        return run_dynamic(G, q, scheme, budget, nodes)
    except BudgetExceeded as exc:
        if count >= limit:  # the run's budget stopped it
            raise
        message = f"the trace has {count} nodes, but {_removal(kind)} makes {exc.used} or more"
        raise SquidError(message) from None


def _read_canonical(text: str, budget: Optional[int]) -> Optional[RemovalTrace]:
    """The rerun of trace text in the writer's canonical layout, read with
    no JSON tree; None for any other text.

    In that layout the node rows lie between the first '"nodes":[' and the
    last '],"q":', and each row holds one '"id":' key.  The header is parsed
    from the text around the rows, and the rerun may make as many nodes as
    there are rows.  Only text that is the rerun's to_json, trailing
    whitespace aside, is accepted; a header or rerun that raises gives None,
    so that every error is the full parse's.
    """
    opening = '"nodes":['
    start, end = text.find(opening) + len(opening), text.rfind('],"q":')
    if start < len(opening) or end < start:
        return None
    try:
        header = _header(json.loads(text[:start] + text[end:]))
        trace = _rerun(header, text.count('"id":', start, end), budget)
    except (ValueError, RuntimeError):  # RuntimeError: BudgetExceeded, RecursionError
        return None
    return trace if _writes(trace, text) else None


def _writes(trace: RemovalTrace, text: str) -> bool:
    """Whether text is trace.to_json(), trailing whitespace aside, compared
    a node row at a time so that the rerun's text is never built whole."""
    head, tail = trace._head_and_tail()
    pos = len(head) if text.startswith(head) else -1
    for row in trace._node_rows():
        if pos < 0 or not text.startswith(row, pos):
            return False
        pos += len(row)
    return text.startswith(tail, pos) and not text[pos + len(tail) :].strip()


def _removal(kind: str) -> str:
    """The removal a trace of this kind names, as errors call it."""
    return f"the {kind} removal of its graph" + " and scheme" * (kind == "dynamic")


def _check_rerun(trace: RemovalTrace, obj) -> None:
    """Raise SquidError at the first header key or node where the
    canonical JSON of obj differs from the text of trace, the rerun of
    obj's header, which has no more nodes than obj (_rerun)."""
    try:
        if _writes(trace, _canonical(obj)):
            return
    except (TypeError, ValueError, RecursionError) as exc:  # not JSON, or too deep or long to write
        raise SquidError(f"malformed trace object: {exc}") from None
    removal = _removal(trace.kind)
    head, tail = trace._head_and_tail()
    found = _differences({**obj, "nodes": []}, json.loads(head + tail))
    if found:
        raise SquidError(f"malformed trace object: {'; '.join(found)} ({removal})")
    nodes = obj["nodes"]
    for i, row in enumerate(trace._node_rows()):
        if _canonical(nodes[i]) != row.lstrip(","):
            found = _differences(nodes[i], json.loads(row.lstrip(","))) if type(nodes[i]) is dict else []
            raise SquidError(f"node {i}: {'; '.join(found) or 'not a node object'} ({removal})")
    raise SquidError(f"node {i + 1} is past the last node of {removal}")


_ABSENT = object()  # the value of a key that one of two compared objects lacks


def _differences(got: dict, want: dict) -> list[str]:
    """Each field where two JSON objects differ, with both of its values,
    found on an explicit stack that descends into objects and into equally
    long lists of objects."""

    def show(value) -> str:
        text = "absent" if value is _ABSENT else repr(value)
        return text if len(text) <= 80 else text[:77] + "..."

    found, stack = [], [((), got, want)]
    while stack:
        path, g, w = stack.pop()
        if _ABSENT not in (g, w) and _canonical(g) == _canonical(w):
            continue
        if type(g) is type(w) is dict:
            keys = list(w) + [k for k in g if k not in w]
            stack += [(path + (k,), g.get(k, _ABSENT), w.get(k, _ABSENT)) for k in reversed(keys)]
        elif type(g) is type(w) is list and len(g) == len(w) and all(type(x) is dict for x in g + w):
            stack += [(path + (i,), g[i], w[i]) for i in reversed(range(len(g)))]
        elif len(path) == 1:
            found.append(f"{path[0]} is {show(g)}, not {show(w)}")
        else:
            *owner, key = path
            owner = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in owner)[1:]
            g, w = (f"no {key}" if v is _ABSENT else f"{key} {show(v)}" for v in (g, w))
            found.append(f"{owner} has {g}, not {w}")
    return found


# ---------------------------------------------------------------------------
# The removal engine
# ---------------------------------------------------------------------------


class _Engine:
    def __init__(self, G: Graph, q: int, budget: Optional[int]):
        self.G, self.q = G, q
        self.view = MaskView(product_with_complete(G, q, budget))  # labels are bit indices
        self.base_of = [G.vertices[lab // q] for lab in range(G.n * q)]
        self.row_of = [lab % q + 1 for lab in range(G.n * q)]

    def column_mask(self, label: int) -> int:
        """The labels of label's column: its base vertex on every row."""
        return ((1 << self.q) - 1) << (label - label % self.q)

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
        v, i = self.base_of[pivot_label], self.row_of[pivot_label]
        nb = self.view.nbr[pivot_label] & mask
        col_nb = nb & self.column_mask(pivot_label)
        arm_out = []
        prefix = 0
        verts = self.view.verts  # the product's labels, which are its bits
        for w in mask_labels(verts, nb & ~col_nb) + mask_labels(verts, col_nb):  # row neighbors first
            prefix |= 1 << w
            squid_mask = (self.view.nbr[w] & mask) | prefix
            child_mask = mask & ~squid_mask
            if self.row_of[w] == i:  # one-row squid with body w and the pivot as witness
                squid = Squid(body=self.base_of[w], kind="I", rows=(i,), mask=squid_mask, witness=v)
            else:  # two-row squid with the pivot's body
                j = self.row_of[w]
                squid = Squid(body=v, kind="II", rows=(min(i, j), max(i, j)), mask=squid_mask)
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
    G: Graph, q: int, mode: str = "walk", budget: Optional[int] = None, nodes: Optional[int] = None
) -> RemovalTrace:
    """Full branching removal of |V(G)| squids with the lexicographic pivot.

    Requires df1_check(G, q, mode).  Every residual met above level 0 is
    checked nonempty at runtime (that nonemptiness is the substance of the
    pivot rule's validity).  budget bounds the product's edges, and the
    trace nodes unless nodes bounds them.
    """
    if not df1_check(G, q, mode):
        raise SquidError(f"q={q} does not exceed the threshold {df1_threshold(G, mode)} for this graph")
    m = G.n

    def lowest(mask: int, depth: int, rows: None) -> tuple[int, None, None]:
        if mask == 0:
            raise TheoremViolation(f"residual emptied with {m - depth} removal steps still to go")
        return (mask & -mask).bit_length() - 1, None, None

    root = _remove(_Engine(G, q, budget), m, lowest, None, budget if nodes is None else nodes)
    return RemovalTrace(graph=G, q=q, m=m, kind="df1", root=root, mode=mode)


def run_dynamic(
    G: Graph,
    q: int,
    scheme: schemes.SizeScheme,
    budget: Optional[int] = None,
    nodes: Optional[int] = None,
) -> RemovalTrace:
    """Blockwise removal: block l removes scheme.sizes[l-1] squids with
    hearts on one row, chosen at each block start as the smallest-index
    unused row with the most surviving vertices; within a block the pivot is
    the smallest surviving base vertex on that row.

    The scheme is re-validated exactly against its own declared budget n
    (bounded by the product size) with the graph's true maximum degree; a
    mid-run exhausted row still raises the scheme-infeasible diagnostic,
    which certificate verification backstops.  budget bounds the
    product's edges, and the trace nodes unless nodes bounds them.
    """
    delta = G.max_degree()
    if delta < 1:
        raise SquidError("dynamic removal needs max degree >= 1 (scheme validation requires it)")
    if scheme.q != q:
        raise SquidError(f"scheme was declared for q={scheme.q}, run requested q={q}")
    if scheme.n > G.n * q:
        raise SquidError(f"scheme budget n={scheme.n} exceeds the product size {G.n * q}")
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

    root = _remove(eng, m, block_pivot, (), budget if nodes is None else nodes)
    return RemovalTrace(graph=G, q=q, m=m, kind="dynamic", root=root, scheme=scheme)


# ---------------------------------------------------------------------------
# Certificate extraction
# ---------------------------------------------------------------------------


def extract_certificate(trace: RemovalTrace, budget: Optional[int] = None) -> VdCertificate:
    """Convert a complete trace into a certificate for G x K_q at level m.

    A node whose residual has at least its level in connected components is
    certified by the components leaf, without visiting its children.  Each
    other node's children supply exactly the ingredient certificates of the
    pivot decomposition (neighbor-chain deletions and the closed-neighborhood
    deletion), assembled bottom-up with subtree sharing per (residual, level).
    Everything runs on residual bitmasks of the product: one
    CertificateBuilder serves every node, so isolated-vertex lifts repeated
    across pivot decompositions are built once, and no Graph is built per
    node.  The walk runs on graphs.run, and the builder's budget counts its
    memo entries, lifts included (None: vd.DEFAULT_CERTIFICATE_BUDGET);
    budget bounds the product's edges too.
    """
    view = MaskView(product_with_complete(trace.graph, trace.q, budget))
    builder = CertificateBuilder(view, budget)

    def certify(node: TraceNode):
        """Generator for run: the certificate of a node that builder.known lacks."""
        builder.budget.spend()
        certs = []  # the arm children's, then the link child's
        for child in [ch.node for ch in node.arm_children] + [node.link_child.node]:
            certs.append(builder.known(child.residual_mask, child.level) or (yield certify(child)))
        link_cert = certs.pop()
        ws = [ch.w for ch in node.arm_children]
        cert = assemble_pivot_decomposition(
            builder, node.residual_mask, node.pivot, ws, certs, link_cert, node.level
        )
        builder.memo[node.residual_mask, node.level] = cert
        return cert

    cert = builder.known(trace.root.residual_mask, trace.root.level) or run(certify(trace.root))
    del certify
    return cert
