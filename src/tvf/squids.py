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
removal search, a loop on an explicit stack that fills a node table
(NodeTable): per node its residual, level, pivot and child numbers, and
for dynamic runs its block rows.  A budget of trace nodes bounds the
search, and one of product edges bounds G x K_q itself.  No squid is
stored: a squid is what its child removed from the residual, and _squids
derives its kind, rows and witness when the trace is written or asked for
its children.  Extraction walks the table on graphs.run's explicit stack.
The search is the only model of a removal step: a trace is read by
rerunning the removal its header names and comparing texts.

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


class NodeTable(NamedTuple):
    """The nodes of one removal, numbered in depth-first preorder: node 0 is
    the root, and each node comes before its children, arms before link.

    Node i has the residual mask residual[i], the level level[i] and the
    pivot label pivot[i] (None at level 0).  Its children's numbers are
    child[first[i]:first[i + 1]]: one per arm in order, then the link, none
    at level 0; first holds one entry past the last node.  A dynamic
    removal also gives each node block_row[i], the row of its active block
    (None at level 0), and rows_used[i], the block rows so far; a df1
    removal has neither column.  No squid is stored: RemovalTrace.children
    derives them (_squids).
    """

    residual: list[int]
    level: list[int]
    pivot: list[Optional[int]]
    first: list[int]
    child: list[int]
    block_row: Optional[list[Optional[int]]] = None
    rows_used: Optional[list[tuple[int, ...]]] = None


class RemovalTrace(NamedTuple):
    graph: Graph
    q: int
    m: int
    kind: str  # "df1" | "dynamic"
    nodes: NodeTable
    mode: str = "walk"
    scheme: Optional[schemes.SizeScheme] = None

    def product(self) -> MaskView:
        return MaskView(product_with_complete(self.graph, self.q))

    def children(self, i: int) -> list[tuple[Optional[int], Squid, int]]:
        """Node i's children as (w, squid, node): each arm with the label w of
        the neighbor it consumed, in order, then the link with w None; no
        children at level 0.  The squids are derived (_squids), not stored."""
        t = self.nodes
        kids = t.child[t.first[i] : t.first[i + 1]]
        if not kids:
            return []
        squids = _squids(self.graph, self.q, t.residual[i], t.pivot[i], [t.residual[c] for c in kids])
        return [(s[0], Squid(*s[1:]), c) for s, c in zip(squids, kids)]

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
        layout, so no tree of dicts is built, with its children's squids
        derived from the table (_squids).  block_row and rows_used
        appear only in dynamic traces; an absent pivot, link or witness is
        null.  The squid kinds are fixed words that need no escaping.
        """
        G, q = self.graph, self.q
        pair = [f"[{v},{r}]" for v in G.vertices for r in range(1, q + 1)]  # by label
        rows_mask = (1 << q) - 1

        def ints(values) -> str:
            return ",".join(map(str, values))

        # A child's text is its node number and arms, then the text of the
        # rows its squid holds of its body's column, then a tail fixed by its
        # squid's other fields and w; the last two repeat across children
        # and are formatted once each.
        body_rows_text: dict[int, str] = {}
        tails: dict[tuple, str] = {}

        def child_text(c: int, squid: tuple) -> str:
            w, body, kind, rows, mask, witness = squid
            # ascending labels are the pairs in sorted order
            col = G.index[body] * q  # the lowest label of the body's column
            inside = mask >> col & rows_mask
            arms = mask_labels(pair, mask ^ inside << col)
            text = body_rows_text.get(inside)
            if text is None:
                text = body_rows_text[inside] = ints(r for r in range(1, q + 1) if inside >> (r - 1) & 1)
            key = (w, body, kind, rows, witness)
            tail = tails.get(key)
            if tail is None:
                hearts = ",".join(f"[{body},{r}]" for r in rows)
                tail = tails[key] = (
                    f'],"hearts":[{hearts}],"kind":"{kind}","rows":[{ints(rows)}],'
                    f'"witness":{"null" if witness is None else witness}}}'
                    + ("}" if w is None else f',"w":{pair[w]}}}')
                )
            return f'{{"node":{c},"squid":{{"arms":[{",".join(arms)}],"body":{body},"body_rows":[{text}{tail}'

        t = self.nodes
        residual, first, child = t.residual, t.first, t.child
        dynamic = self.kind == "dynamic"
        for i, level in enumerate(t.level):
            row = "," if i else ""
            if dynamic:
                row += f'{{"block_row":{"null" if t.block_row[i] is None else t.block_row[i]},'
            else:
                row += "{"
            p = t.pivot[i]
            if p is None:
                children, link = "", "null"
            else:
                kids = child[first[i] : first[i + 1]]
                squids = _squids(G, q, residual[i], p, [residual[c] for c in kids])
                parts = list(map(child_text, kids, squids))
                link = parts.pop()
                children = ",".join(parts)
            row += (
                f'"children":[{children}],"id":{i},"level":{level},"link":{link},'
                f'"pivot":{"null" if p is None else pair[p]},'
                f'"residual_size":{residual[i].bit_count()}'
            )
            if dynamic:
                row += f',"rows_used":[{ints(t.rows_used[i])}]'
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


def _arm_order(q: int, nb: int, p: int) -> list[int]:
    """The labels of nb, the neighbors of pivot p in a residual, in the order
    the node's arms consume them: those on p's row, then those in p's
    column, each ascending."""
    col = nb & ((1 << q) - 1) << (p - p % q)
    out = []
    for part in (nb ^ col, col):
        while part:
            low = part & -part
            out.append(low.bit_length() - 1)
            part ^= low
    return out


def _squids(G: Graph, q: int, mask: int, p: int, kids: list[int]) -> list[tuple]:
    """The child squids of the node with residual mask and pivot label p,
    given its children's residuals kids (the arms', then the link's), each
    as (w, body, kind, rows, squid mask, witness), Squid's fields after the
    label w of the neighbor an arm consumed (None on the link).

    A squid is what its child removed from the residual; the link's is
    the pivot's closed neighborhood, so the arms' neighbors are read from it
    in the engine's order.  An arm whose neighbor w lies on the pivot's row
    is kind I, with w's base as body and the pivot's as witness; any other
    is kind II on the pivot's base and both rows.  The link is kind I with
    the smallest neighbor of the pivot's base in G as witness.  At a base
    isolated in G it lies in the pivot's column: kind II on the pivot's row
    and the smallest other row left, or, with no other row left, the bare
    pivot, kind I without a witness.
    """
    b, i = p // q, p % q + 1
    vertices = G.vertices
    v = vertices[b]
    link = mask ^ kids[-1]
    nb = link ^ 1 << p
    out = []
    for w, kid in zip(_arm_order(q, nb, p), kids):
        j = w % q + 1
        if j == i:
            out.append((w, vertices[w // q], "I", (i,), mask ^ kid, v))
        else:
            out.append((w, v, "II", (i, j) if i < j else (j, i), mask ^ kid, None))
    around = G.nbr[b]
    if around:
        out.append((None, v, "I", (i,), link, vertices[(around & -around).bit_length() - 1]))
    elif nb:
        j = ((nb & -nb).bit_length() - 1) % q + 1  # the smallest other row
        out.append((None, v, "II", (i, j) if i < j else (j, i), link, None))
    else:
        out.append((None, v, "I", (i,), link, None))
    return out


def _remove(nbr: list[int], q: int, m: int, pivot_rule, rows, budget: Optional[int]) -> NodeTable:
    """The node table of the full branching removal of m squids from the
    product whose label masks are nbr.

    pivot_rule(mask, depth, rows) gives the pivot label of a residual after
    depth removals, the block rows to pass down, and the node's block row;
    rows starts as given (None for a rule without blocks, whose table has
    no block columns).  Nodes are shared per (residual, depth, rows).  A
    node is numbered when it is first reached, and an explicit stack
    expands its children depth-first, arms in order, then the link; each
    child slot holds the child's residual until the child is numbered.  The
    node past `budget` (None: DEFAULT_REMOVAL_BUDGET) raises BudgetExceeded.
    Every squid must empty its body's column from the child residual.
    """
    spend = Budget(budget, DEFAULT_REMOVAL_BUDGET, "removal", "trace nodes").spend
    column = (1 << q) - 1
    dynamic = rows is not None
    table = NodeTable([], [], [], [], [], *([[], []] if dynamic else []))
    residual, level, pivot, first, child, block_row, rows_used = table
    numbers: dict[tuple, int] = {}
    stack: list[list] = []  # per node being expanded: [next slot, end slot, child depth, rows]

    def enter(mask: int, depth: int, rows) -> int:
        """Number a new node and, above level 0, stack its children."""
        spend()
        node = numbers[mask, depth, rows] = len(residual)
        residual.append(mask)
        level.append(m - depth)
        first.append(len(child))
        if depth == m:
            pivot.append(None)
            if dynamic:
                block_row.append(None)
                rows_used.append(rows)
            return node
        p, rows, row = pivot_rule(mask, depth, rows)
        nb = nbr[p] & mask
        prefix = 0
        for w in _arm_order(q, nb, p):
            prefix |= 1 << w
            kid = mask & ~(nbr[w] | prefix)
            if kid >> (w - w % q) & column:  # w's column is the squid's body's
                raise SquidError("engine invariant broken: body column survived removal")
            child.append(kid)
        kid = mask & ~(nb | 1 << p)
        if kid >> (p - p % q) & column:
            raise SquidError("engine invariant broken: pivot column survived removal")
        child.append(kid)
        pivot.append(p)
        if dynamic:
            block_row.append(row)
            rows_used.append(rows)
        stack.append([first[node], len(child), depth + 1, rows])
        return node

    enter((1 << len(nbr)) - 1, 0, rows)
    while stack:
        frame = stack[-1]
        slot, end, depth, rows = frame
        if slot == end:
            stack.pop()
            continue
        frame[0] = slot + 1
        node = numbers.get((child[slot], depth, rows))
        child[slot] = enter(child[slot], depth, rows) if node is None else node
    first.append(len(child))
    return table


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

    nbr = product_with_complete(G, q, budget)
    table = _remove(nbr, q, m, lowest, None, budget if nodes is None else nodes)
    return RemovalTrace(graph=G, q=q, m=m, kind="df1", nodes=table, mode=mode)


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
    nbr = product_with_complete(G, q, budget)
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

    table = _remove(nbr, q, m, block_pivot, (), budget if nodes is None else nodes)
    return RemovalTrace(graph=G, q=q, m=m, kind="dynamic", nodes=table, scheme=scheme)


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
    q = trace.q
    residual, level, pivot, first, child = trace.nodes[:5]

    def certify(i: int):
        """Generator for run: the certificate of node i, which builder.known lacks."""
        builder.budget.spend()
        certs = []  # the arm children's, then the link child's
        for c in child[first[i] : first[i + 1]]:
            certs.append(builder.known(residual[c], level[c]) or (yield certify(c)))
        link_cert = certs.pop()
        mask, p = residual[i], pivot[i]
        ws = _arm_order(q, view.nbr[p] & mask, p)
        cert = assemble_pivot_decomposition(builder, mask, p, ws, certs, link_cert, level[i])
        builder.memo[mask, level[i]] = cert
        return cert

    cert = builder.known(residual[0], level[0]) or run(certify(0))
    del certify
    return cert
