"""Recursive vertex-decomposability levels of graphs, with certificates.

A graph is at level 0 unconditionally; an edgeless graph on k vertices is
at level k; and a graph is at level k whenever some pivot v leaves G minus v
at level k and G minus the closed neighborhood of v at level k-1.

Certificates are binary derivation trees mirroring that recursion.  They
are plain immutable values, independently re-checkable by
verify_certificate, and serializable to a nested JSON form with explicit
levels so third parties can re-verify them.

Every recursion over induced subgraphs runs on the bitmasks of one root
graph (MaskView): bit i is the i-th smallest label, H - u is
``mask & ~(1 << i)`` and H - N[u] is ``mask & ~closed[i]``.  The decision
solver, the verifier and the certificate builder (isolated-vertex lifting,
pivot assembly, the degree-bound construction) all work there, and each
memo belongs to an object made for one call.  The decision solver keeps
one interval of proven and refuted levels per bitmask, bounds it from
above by a greedy maximal independent set, and searches on an explicit
stack, so its answer does not depend on the interpreter's recursion
limit; a budget of memo entries bounds its memory.

The JSON form is the expanded tree, but its cost follows unique subtrees.
The writer formats each distinct subtree object once and copies the text
of a repeat.  The reader builds and shares certificate objects while
json.loads parses the text, so the expanded tree of dicts is never held,
and structurally equal subtrees become one object; verification then
follows unique nodes rather than the size of the expanded tree.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional, Union

from .errors import BudgetExceeded, GraphError, VdError
from .graphs import Graph, neighbor_masks

# Memo entries one level decision may make; each costs about 150 bytes.
DEFAULT_LEVEL_BUDGET = 1_000_000


class CertificateError(VdError):
    """A certificate is structurally malformed for the requested use."""


class LeafAny(NamedTuple):
    """Certifies any graph at level 0."""

    @property
    def level(self) -> int:
        return 0

    def __bool__(self) -> bool:
        return True  # an empty tuple, but a certificate like any other


class LeafEdgeless(NamedTuple):
    """Certifies the edgeless graph on exactly these vertices, at level |vertices|."""

    vertices: tuple[int, ...]

    @property
    def level(self) -> int:
        return len(self.vertices)


class Node(NamedTuple):
    """Pivot step: delete-child claims the same level, link-child one lower."""

    pivot: int
    delete: "VdCertificate"
    link: "VdCertificate"
    level: int


VdCertificate = Union[LeafAny, LeafEdgeless, Node]

_ANY = LeafAny()


# ---------------------------------------------------------------------------
# Mask view and decision procedure
# ---------------------------------------------------------------------------


class MaskView:
    """Bitmask view of the induced subgraphs of one root graph.

    verts[i] is the i-th smallest label and index maps labels back to bits;
    nbr[i] and closed[i] are the open and closed neighborhood masks of bit
    i.  The edgeless test is cached per view.
    """

    def __init__(self, G: Graph):
        self.verts, self.index, self.nbr = neighbor_masks(G)
        self.closed = [m | (1 << i) for i, m in enumerate(self.nbr)]
        self.full = (1 << len(self.verts)) - 1
        self._edgeless: dict[int, bool] = {}

    def edgeless(self, mask: int) -> bool:
        cached = self._edgeless.get(mask)
        if cached is not None:
            return cached
        rest = mask
        result = True
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            if self.nbr[i] & mask:
                result = False
                break
            rest ^= low
        self._edgeless[mask] = result
        return result

    def labels(self, mask: int) -> tuple[int, ...]:
        """Labels of the set bits, smallest first."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self.verts[low.bit_length() - 1])
            mask ^= low
        return tuple(out)


class _Solver(MaskView):
    """Level recursion over the induced subgraphs of one root graph.

    One memo entry per vertex bitmask, ``[lo, hi]``: level lo is proven and
    level hi is refuted.  Levels are downward closed, so a query at k <= lo
    is true and one at k >= hi is false without search; only lo < k < hi
    searches the pivots, and its answer moves lo up or hi down to k.  The
    memo lives as long as the solver, so max_vd's walk up the levels reuses
    every earlier level's work.

    Entries start from exact facts: an edgeless mask of s vertices is
    ``[s, s+1]``, any other nonempty mask is at level 1, and a mask whose
    greedy maximal independent set has m vertices is below level m + 1
    (m < s when the mask has an edge, so it is not at level s either).

    The independent-set bound: if G is at level k, every maximal
    independent set I of G has at least k vertices.  By induction on the
    recursion: k = 0 is trivial, and an edgeless G has I = V(G), |I| = k.
    At a pivot v, if v is not in I then I is still maximal in G - v (each
    other vertex outside I keeps its neighbor in I), and G - v is at level
    k, so |I| >= k.  If v is in I then I - v is maximal in G - N[v] (a
    vertex there with no neighbor in I - v would have none in I), and
    G - N[v] is at level k-1, so |I| - 1 >= k - 1.  The greedy set takes
    the lowest bit and drops its closed neighborhood until nothing is
    left, O(|mask|) work per new mask.

    The search runs on an explicit stack, so no input depth reaches the
    interpreter's recursion limit.  Every rule only cuts a search short
    with the answer the plain recursion would reach.  The memo may hold at
    most `budget` entries; the entry past it raises BudgetExceeded.
    """

    def __init__(self, G: Graph, budget: int = DEFAULT_LEVEL_BUDGET):
        super().__init__(G)
        self.budget = budget
        self._bounds: dict[int, list[int]] = {}
        self._bits = tuple(range(len(self.verts)))  # one int object per bit, shared by the frames

    def _entry(self, mask: int) -> list[int]:
        """The memo entry of mask, made from the exact facts on first use."""
        entry = self._bounds.get(mask)
        if entry is None:
            used = len(self._bounds) + 1
            if used > self.budget:
                raise BudgetExceeded(
                    f"level budget exceeded ({used} > {self.budget} memo entries)",
                    used,
                    self.budget,
                )
            m = 0
            rest = mask
            while rest:
                rest &= ~self.closed[(rest & -rest).bit_length() - 1]
                m += 1
            size = mask.bit_count()
            entry = self._bounds[mask] = [size, size + 1] if m == size else [1, m + 1]
        return entry

    def _pivots(self, mask: int) -> list[int]:
        """The bits of mask, highest residual degree first, then lowest label."""
        nbr = self.nbr
        order = [i for i in self._bits[: mask.bit_length()] if mask >> i & 1]
        order.sort(key=lambda i: -(nbr[i] & mask).bit_count())  # stable: label order stays
        return order

    def vd(self, mask: int, k: int) -> bool:
        """Whether the subgraph on mask is at level k."""
        if k <= 0:
            return True
        entry = self._entry(mask)
        if k <= entry[0]:
            return True
        if k >= entry[1]:
            return False
        closed, bounds = self.closed, self._bounds
        # frame: [entry, mask, k, pivots, position of the pivot tried, link query asked];
        # a frame is searched only when lo < k < hi, so k >= 2 and its queries ask k >= 1
        stack = [[entry, mask, k, self._pivots(mask), -1, False]]
        answer = None  # answer to the top frame's last query, None for a fresh frame
        while stack:
            frame = stack[-1]
            entry, fmask, fk, pivots, pos, linking = frame
            while True:
                if answer and linking:
                    break  # both children hold at the pivot: proven
                if answer:
                    linking = True
                    qmask, qk = fmask & ~closed[pivots[pos]], fk - 1
                elif pos + 1 < len(pivots):
                    pos += 1
                    linking = False
                    qmask, qk = fmask & ~(1 << pivots[pos]), fk
                else:
                    answer = False  # every pivot failed: refuted
                    break
                if qk == 1:  # level 1 holds exactly on the nonempty masks
                    answer = qmask != 0
                    continue
                child = bounds.get(qmask) or self._entry(qmask)
                if qk <= child[0]:
                    answer = True
                elif qk >= child[1]:
                    answer = False
                else:
                    frame[4], frame[5] = pos, linking
                    stack.append([child, qmask, qk, self._pivots(qmask), -1, False])
                    answer = None
                    break
            if answer is not None:
                entry[0 if answer else 1] = fk
                stack.pop()
        return answer


def is_vd(G: Graph, k: int, budget: int = DEFAULT_LEVEL_BUDGET) -> bool:
    """Whether G satisfies the level-k recursion. Deterministic, memoized per call.

    Raises BudgetExceeded when the memo would pass `budget` entries.
    """
    if k < 0:
        raise VdError(f"level must be non-negative, got {k}")
    s = _Solver(G, budget)
    return s.vd(s.full, k)


def max_vd(G: Graph, budget: int = DEFAULT_LEVEL_BUDGET) -> int:
    """Largest k with is_vd(G, k); well-defined since levels are downward closed.

    One memo serves every level asked, under one budget of `budget` entries.
    """
    s = _Solver(G, budget)
    best = 0
    for k in range(1, G.n + 1):
        if not s.vd(s.full, k):
            break
        best = k
    return best


# ---------------------------------------------------------------------------
# Certificate verification
# ---------------------------------------------------------------------------


class CertCheck(NamedTuple):
    """Outcome of verify_certificate; path locates the failing branch."""

    ok: bool
    path: tuple[str, ...] = ()
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(G: Graph, cert: VdCertificate) -> CertCheck:
    """Check a certificate tree against G by replaying its deletions.

    Leaves are matched against the actual induced subgraph reached along
    the path; node levels must agree with both children.  Runs once per
    distinct (subtree, subgraph) pair, so shared subtrees verify in time
    polynomial in the tree's unique size.
    """
    s = MaskView(G)
    seen: set[tuple[int, int]] = set()
    stack: list[tuple[VdCertificate, int, tuple[str, ...]]] = [(cert, s.full, ())]
    while stack:
        c, mask, path = stack.pop()
        key = (id(c), mask)
        if key in seen:
            continue
        seen.add(key)
        if isinstance(c, LeafAny):
            continue
        if isinstance(c, LeafEdgeless):
            actual = s.labels(mask)
            if len(c.vertices) != len(actual) or frozenset(actual) != frozenset(c.vertices):
                return CertCheck(False, path, "edgeless leaf lists a different vertex set")
            if not s.edgeless(mask):
                return CertCheck(False, path, "edgeless leaf but the subgraph has an edge")
            continue
        if isinstance(c, Node):
            if c.level < 1:
                return CertCheck(False, path, f"pivot node at level {c.level}")
            i = s.index.get(c.pivot)
            if i is None or not mask >> i & 1:
                return CertCheck(False, path, f"pivot {c.pivot} not in the subgraph")
            if c.delete.level != c.level:
                return CertCheck(
                    False, path, f"delete child claims {c.delete.level}, expected {c.level}"
                )
            if c.link.level != c.level - 1:
                return CertCheck(
                    False, path, f"link child claims {c.link.level}, expected {c.level - 1}"
                )
            stack.append((c.delete, mask & ~(1 << i), path + (f"del@{c.pivot}",)))
            stack.append((c.link, mask & ~s.closed[i], path + (f"link@{c.pivot}",)))
            continue
        return CertCheck(False, path, f"unknown certificate object {type(c).__name__}")
    return CertCheck(True)


# ---------------------------------------------------------------------------
# Certificate constructions
# ---------------------------------------------------------------------------


def edgeless_certificate(vertices, k: int) -> VdCertificate:
    """Certificate for the edgeless graph on these vertices at level k <= n."""
    verts = tuple(sorted(vertices))
    n = len(verts)
    if k < 0 or k > n:
        raise VdError(f"edgeless graph on {n} vertices is not at level {k}")
    # Built level by level: row[j] certifies the last kk + j vertices at
    # level kk, pivoting on the smallest of them.
    spare = n - k
    row: list[VdCertificate] = [_ANY] * (spare + 1)
    for kk in range(1, k + 1):
        nxt: list[VdCertificate] = [LeafEdgeless(verts[n - kk :])]
        for j in range(1, spare + 1):
            nxt.append(Node(verts[n - kk - j], nxt[j - 1], row[j], kk))
        row = nxt
    return row[spare]


class CertificateBuilder:
    """Certificate construction on the bitmasks of one root graph.

    Isolated-vertex lifts are memoized on (mask, isolated bit, id(cert))
    for the life of the builder, so one builder serves every pivot
    decomposition of a construction.  The memo keeps each keyed cert
    referenced, so no id is reused while the builder lives.
    """

    def __init__(self, view: MaskView):
        self.view = view
        self._lifts: dict[tuple[int, int, int], tuple[VdCertificate, VdCertificate]] = {}

    def edgeless(self, mask: int, k: int) -> VdCertificate:
        return edgeless_certificate(self.view.labels(mask), k)

    def level1(self, mask: int) -> VdCertificate:
        """Any nonempty subgraph is at level 1: peel minimum-label vertices."""
        if mask == 0:
            raise VdError("the empty graph is not at level 1")
        peeled = []
        while not self.view.edgeless(mask):
            low = mask & -mask
            peeled.append(self.view.verts[low.bit_length() - 1])
            mask ^= low
        cert = self.edgeless(mask, 1)
        for v in reversed(peeled):
            cert = Node(v, cert, _ANY, 1)
        return cert

    def lift(self, mask: int, v: int, cert: VdCertificate) -> VdCertificate:
        """Certificate for the subgraph `mask` one level above cert.

        cert must certify the subgraph minus bit v, which is isolated in
        it; the result is rebuilt along cert's own pivots.
        """
        key = (mask, v, id(cert))
        got = self._lifts.get(key)
        if got is not None:
            return got[1]
        view = self.view
        if view.edgeless(mask):
            out = self.edgeless(mask, cert.level + 1)
        elif isinstance(cert, LeafAny):
            out = self.level1(mask)
        elif isinstance(cert, LeafEdgeless):
            raise CertificateError("edgeless leaf given for a graph with edges")
        else:
            u = cert.pivot
            i = view.index.get(u)
            if i is None or not mask >> i & 1 or i == v:
                raise CertificateError(f"pivot {u} does not exist in the lifted graph")
            del_lift = self.lift(mask & ~(1 << i), v, cert.delete)
            link_lift = self.lift(mask & ~view.closed[i], v, cert.link)
            out = Node(u, del_lift, link_lift, cert.level + 1)
        self._lifts[key] = (cert, out)
        return out


def assemble_pivot_decomposition(
    builder: CertificateBuilder,
    mask: int,
    pivot: int,
    order: list[int],
    arm_certs: list[VdCertificate],
    link_cert: VdCertificate,
    level: int,
) -> VdCertificate:
    """Certificate for the subgraph H on `mask` at `level`, from ingredients one level down.

    order must list the open neighborhood of pivot in H, each neighbor
    once; arm_certs[i] must certify H minus (closed neighborhood of
    order[i], plus order[:i]) and link_cert must certify H minus the closed
    neighborhood of pivot, all at level-1.  The construction peels order
    back-to-front and lifts the isolated pivot on the stripped core, through
    the builder's memo.
    """
    view = builder.view
    p = view.index.get(pivot)
    if p is None or not mask >> p & 1:
        raise GraphError(f"unknown vertex {pivot}")
    want = view.nbr[p] & mask
    got = 0
    for u in order:
        i = view.index.get(u)
        if i is None or got >> i & 1:  # unknown or repeated
            got = -1
            break
        got |= 1 << i
    if got != want:
        raise VdError("order must enumerate the pivot's open neighborhood, each once")
    if len(arm_certs) != len(order):
        raise VdError("one arm certificate per neighbor is required")
    if link_cert.level != level - 1 or any(c.level != level - 1 for c in arm_certs):
        raise VdError("all ingredient certificates must claim level-1")
    cert = builder.lift(mask & ~want, p, link_cert)
    for u, arm in zip(reversed(order), reversed(arm_certs)):
        cert = Node(u, cert, arm, level)
    return cert


def build_certificate_degree_bound(G: Graph) -> VdCertificate:
    """Constructive certificate at level floor(n / 2*maxdeg).

    Follows the inductive peeling proof: fix the smallest-label pivot,
    recurse on the closed-neighborhood deletion and on the neighbor-chain
    deletions, then assemble.  An edgeless graph short-circuits to its
    edgeless leaf at level n.
    """
    delta = G.max_degree()
    if delta == 0:
        return LeafEdgeless(G.vertices)
    target = G.n // (2 * delta)
    view = MaskView(G)
    builder = CertificateBuilder(view)
    memo: dict[tuple[int, int], VdCertificate] = {}

    def build(mask: int, k: int) -> VdCertificate:
        if k == 0:
            return _ANY
        if view.edgeless(mask):
            return builder.edgeless(mask, k)
        key = (mask, k)
        got = memo.get(key)
        if got is not None:
            return got
        p = (mask & -mask).bit_length() - 1
        order = view.labels(view.nbr[p] & mask)
        link_cert = build(mask & ~view.closed[p], k - 1)
        arm_certs = []
        prefix = 0
        for u in order:
            i = view.index[u]
            arm_certs.append(build(mask & ~(view.closed[i] | prefix), k - 1))
            prefix |= 1 << i
        cert = assemble_pivot_decomposition(
            builder, mask, view.verts[p], list(order), arm_certs, link_cert, k
        )
        memo[key] = cert
        return cert

    return build(view.full, target)


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------
#
# {"leaf": "any", "level": 0}
# {"leaf": "edgeless", "level": k, "vertices": [...]}
# {"level": k, "node": {"del": ..., "link": ..., "pivot": v}}
#
# Keys are emitted in sorted order and levels are always explicit.


_BUILT = (LeafAny, LeafEdgeless, Node)
_CLOSE = object()  # writer stack marker: the innermost open node's text ends here


def certificate_to_json(cert: VdCertificate) -> str:
    """The nested JSON text of cert, in time that follows its unique objects.

    Each object's text is a slice of parts; when an object is met again,
    that slice is copied, which copies string pointers and formats nothing.
    The slice bounds are kept as plain ints, which the garbage collector
    does not track, so writing adds no collector work however large the
    heap around it is.
    """
    parts: list[str] = []
    starts: dict[int, int] = {}  # id of a written object -> its first part
    ends: dict[int, int] = {}  # id of a written object -> one past its last part
    opened: list[int] = []  # id and first part of each node whose text is open
    stack: list[object] = [cert]
    while stack:
        item = stack.pop()
        if item is _CLOSE:
            start = opened.pop()
            key = opened.pop()
            starts[key], ends[key] = start, len(parts)
            continue
        if isinstance(item, str):
            parts.append(item)
            continue
        key = id(item)
        start = starts.get(key)
        if start is not None:
            parts.extend(parts[start : ends[key]])
            continue
        start = len(parts)
        if isinstance(item, LeafAny):
            parts.append('{"leaf":"any","level":0}')
        elif isinstance(item, LeafEdgeless):
            verts = ",".join(str(v) for v in item.vertices)
            parts.append(f'{{"leaf":"edgeless","level":{item.level},"vertices":[{verts}]}}')
        elif isinstance(item, Node):
            parts.append(f'{{"level":{item.level},"node":{{"del":')
            opened += (key, start)
            stack.append(_CLOSE)
            stack.append(f',"pivot":{item.pivot}}}}}')
            stack.append(item.link)
            stack.append(',"link":')
            stack.append(item.delete)
            continue
        else:
            raise CertificateError(f"cannot serialize {type(item).__name__}")
        starts[key], ends[key] = start, start + 1
    return "".join(parts)


def _malformed(where, message: str) -> CertificateError:
    """Error at a reader position, given as a (step, parent) chain from the root."""
    steps = []
    while where is not None:
        step, where = where
        steps.append(step)
    path = "/".join(reversed(steps)) or "root"
    return CertificateError(f"certificate path {path}: {message}")


class _Reader:
    """One read's intern tables, and the checks of one JSON object.

    The same checks serve two passes.  json.loads calls hook on every
    object as it is parsed, children first; hook builds the certificate
    objects whose text has exactly the keys certificate_to_json writes and
    passes every check, so the expanded tree of dicts is never kept.  Every
    other object stays a dict for certificate_from_obj, which reads it in
    del-first order and raises at the first failed check with its path.  A
    built subtree has no failed check below it, so that walk meets the same
    first failure as it would on the plain dicts, and both passes intern
    through one table.
    """

    def __init__(self):
        self.edgeless: dict[tuple[int, ...], LeafEdgeless] = {}
        self.nodes: dict[tuple[int, int, int, int], Node] = {}

    def leaf(self, o: dict):
        """The leaf certificate of o, an error message, or None if o is no leaf."""
        leaf = o.get("leaf")
        if leaf == "any":
            if o.get("level", 0) != 0:
                return "leaf 'any' must be at level 0"
            return _ANY
        if leaf != "edgeless":
            return None
        raw = o["vertices"] if "vertices" in o else []
        if type(raw) is not list or any(type(v) is not int for v in raw):
            return "edgeless leaf vertices must be a list of integers"
        verts = tuple(sorted(raw))
        got = self.edgeless.get(verts)
        if got is None:  # a tuple in the table has no repeats
            if len(set(verts)) != len(verts):
                return "edgeless leaf lists a vertex twice"
            got = self.edgeless[verts] = LeafEdgeless(verts)
        if o.get("level", len(verts)) != len(verts):
            return "edgeless leaf level must equal its vertex count"
        return got

    @staticmethod
    def body(o: dict):
        """The pivot node body of o, or an error message; o must have a "node" key."""
        body = o["node"]
        if type(body) is not dict or "del" not in body or "link" not in body:
            return "pivot node needs an object with 'del' and 'link'"
        if type(body.get("pivot")) is not int:
            return "pivot must be an integer"
        return body

    def node(self, o: dict, pivot: int, delete: VdCertificate, link: VdCertificate):
        """The interned pivot node of o over its read children, or an error message."""
        level = o["level"] if "level" in o else link.level + 1
        if type(level) is not int:
            return "node level must be an integer"
        key = (pivot, id(delete), id(link), level)
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = Node(pivot, delete, link, level)
        return node

    def hook(self, o: dict):
        """o as a certificate object if it has exactly the writer's keys and passes its checks."""
        if "pivot" in o or type(o.get("level")) is not int:
            return o  # a pivot node's body, or a level the writer never emits
        if "node" in o:
            body = o["node"]
            if len(o) != 2 or type(body) is not dict or len(body) != 3:
                return o
            delete, link, pivot = body.get("del"), body.get("link"), body.get("pivot")
            if type(delete) not in _BUILT or type(link) not in _BUILT or type(pivot) is not int:
                return o
            got = self.node(o, pivot, delete, link)
        else:
            leaf = o.get("leaf")
            if not (
                leaf == "any" and len(o) == 2 or leaf == "edgeless" and len(o) == 3 and "vertices" in o
            ):
                return o
            got = self.leaf(o)
        return o if type(got) is str else got


def certificate_from_obj(obj, reader: Optional[_Reader] = None) -> VdCertificate:
    """Certificate from its nested JSON object, sharing equal subtrees.

    Structurally equal subtrees come back as one object: a single LeafAny,
    one LeafEdgeless per vertex tuple, and one Node per (pivot, delete,
    link, level) over children that are already shared.  The result is a
    DAG that certificate_to_json expands to the same text, and on which
    verify_certificate checks each (subtree, subgraph) pair once.  Pivots,
    levels and vertices must be JSON integers; anything malformed raises
    CertificateError naming its path, as del/link steps from the root.
    Children that are already certificate objects are taken as read; reader
    is the parse that built them, whose intern tables the rest joins.
    """
    if reader is None:
        reader = _Reader()
    done: list[VdCertificate] = []
    # (JSON object, its path as a (step, parent) chain, and, once its
    # children are queued, the pivot node's body)
    stack: list[tuple[object, object, object]] = [(obj, None, None)]
    while stack:
        o, where, body = stack.pop()
        if body is not None:  # both children are read
            link = done.pop()
            got = reader.node(o, body["pivot"], done.pop(), link)
        elif type(o) in _BUILT:
            got = o
        elif type(o) is not dict:
            raise _malformed(where, "certificate JSON nodes must be objects")
        else:
            got = reader.leaf(o)
            if got is None and "node" in o:
                body = reader.body(o)
                if type(body) is not str:
                    stack.append((o, where, body))
                    stack.append((body["link"], ("link", where), None))
                    stack.append((body["del"], ("del", where), None))
                    continue
                got = body
            elif got is None:
                got = f"unrecognized certificate object with keys {sorted(o)}"
        if type(got) is str:
            raise _malformed(where, got)
        done.append(got)
    if len(done) != 1:
        raise CertificateError("malformed certificate nesting")
    return done[0]


def certificate_from_json(text: str) -> VdCertificate:
    """certificate_from_obj of the parsed text, built while it is parsed.

    Reading costs one parse plus work per unique subtree: the objects the
    writer emits become shared certificate objects as soon as json.loads
    has read them.
    """
    reader = _Reader()
    try:
        obj = json.loads(text, object_hook=reader.hook)
    except RecursionError:
        raise CertificateError("certificate JSON is nested too deeply to read") from None
    return certificate_from_obj(obj, reader)
