"""Recursive vertex-decomposability levels of graphs, with certificates.

A graph is at level 0 unconditionally; an edgeless graph on k vertices is
at level k; and a graph is at level k whenever some pivot v leaves G minus v
at level k and G minus the closed neighborhood of v at level k-1.

Certificates are binary derivation trees mirroring that recursion: pivot
nodes over one leaf kind, "components" (level k on a graph with at least k
connected components).  At level 0 it holds on any graph, and an edgeless
graph on k vertices has k components.  The leaf holds because levels add
over components, l(G + H) = l(G) + l(H) (proven at _Solver): pick k
components; each is nonempty, so at level 1 (peel vertices down to a
single one); every other component is at level 0; and the >= half of
additivity sums these levels to k.  Certificates are immutable values
that verify_certificate re-checks, with a nested JSON form.

Every recursion over induced subgraphs runs on the bitmasks of one root
graph (MaskView, a Graph's own masks): bit i is the i-th smallest label,
H - u is ``mask & ~(1 << i)`` and H - N[u] is ``mask & ~closed[i]``.  The
decision solver, the verifier and the certificate builder share it and its
component search; each memo belongs to an object made for one call.  The
solver computes min(level, cap) by branch and bound over the components of
each mask, with one interval of proven and refuted levels per connected
mask, bounded above by a greedy maximal independent set.  The solver,
lifting and the degree-bound construction run on graphs.run's explicit
stack, so no answer depends on the recursion limit; budgets of memo
entries bound their memory.

The JSON form is the expanded tree, but its cost follows unique subtrees:
the writer counts the expanded tree's objects on a budget and then formats
each distinct subtree once, and the reader parses each distinct subtree
text of the writer's layout once (other layouts go through
certificate_from_obj).  Either way structurally equal subtrees become one
object, and verification follows unique nodes.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Union

from .errors import Budget, GraphError, VdError, read_json
from .graphs import Graph, mask_labels, run

# Memo entries one level decision may make; each costs about 150 bytes.
DEFAULT_LEVEL_BUDGET = 1_000_000
# Memo entries one certificate construction may make, lifts included; a lift
# costs about 350 bytes.
DEFAULT_CERTIFICATE_BUDGET = 1_000_000
# Objects of its expanded tree one certificate text may hold.  Writing peaks at about 54
# bytes per object: P10 x K7 (25,287,553 objects, 974 MB of text) peaks at 1.37 GB RSS.
DEFAULT_TEXT_BUDGET = 30_000_000


class CertificateError(VdError):
    """A certificate is structurally malformed for the requested use."""


class LeafComponents(NamedTuple):
    """Certifies any graph with at least `level` connected components."""

    level: int


class Node(NamedTuple):
    """Pivot step: delete-child claims the same level, link-child one lower."""

    pivot: int
    delete: "VdCertificate"
    link: "VdCertificate"
    level: int


VdCertificate = Union[LeafComponents, Node]


# ---------------------------------------------------------------------------
# Mask view and decision procedure
# ---------------------------------------------------------------------------


class MaskView:
    """Bitmask view of the induced subgraphs of one root graph.

    verts[i] is the i-th smallest label and index maps labels back to bits;
    nbr[i] and closed[i] are the open and closed neighborhood masks of bit
    i.  G is a Graph, whose own masks are taken as they are, or masks whose
    labels are their bits, as graphs.product_with_complete returns.  The
    component count is cached per mask.
    """

    def __init__(self, G: Union[Graph, list[int]]):
        if isinstance(G, Graph):
            self.verts, self.index, self.nbr = G.vertices, G.index, G.nbr
        else:
            self.verts, self.nbr = tuple(range(len(G))), G
            self.index = dict(zip(self.verts, self.verts))
        self.closed = [m | (1 << i) for i, m in enumerate(self.nbr)]
        self.full = (1 << len(self.verts)) - 1
        self._components: dict[int, int] = {}

    def component(self, mask: int) -> int:
        """The component of mask's lowest bit."""
        comp = new = mask & -mask
        while new:
            reach = 0
            while new:
                low = new & -new
                reach |= self.nbr[low.bit_length() - 1]
                new ^= low
            new = reach & mask & ~comp
            comp |= new
        return comp

    def components(self, mask: int) -> int:
        """The number of connected components of mask."""
        count = self._components.get(mask)
        if count is None:
            count, rest = 0, mask
            while rest:
                rest ^= self.component(rest)
                count += 1
            self._components[mask] = count
        return count


class _Solver(MaskView):
    """Level recursion over the connected induced subgraphs of one root graph.

    Write l(G) for the largest level of G.  Additivity: for a disjoint
    union, l(G + H) = l(G) + l(H); so a mask is split into its components (a
    bitmask search over nbr) whose levels add, and only connected masks get
    memo entries.  Both directions go by induction on the vertex count.
    (>=) Let G be at level a and H at level b.  If G, say, is at a >= 1
    through a pivot u, then N[u] lies inside G, so by induction (G - u) + H
    is at level a + b and (G - N[u]) + H at a - 1 + b: u is a pivot of G + H
    at a + b.  Otherwise each side is edgeless or at level 0.  Both edgeless
    make G + H edgeless on at least a + b vertices.  Else, say, G has an
    edge and a = 0: pivot on a vertex u of G with an edge, as by induction
    (G - u) + H is at level b and (G - N[u]) + H at b - 1.  (<=) Let G + H
    be at level k >= 1.  If it is edgeless, k <= |G| + |H| = l(G) + l(H).
    Else a pivot u, say in G, gives by induction k <= l(G - u) + l(H) and
    k - 1 <= l(G - N[u]) + l(H); so if k > l(H), u is a pivot of G at level
    k - l(H), by downward closure.  A connected H with an edge is at a level
    k >= 1 only through a pivot, so by downward closure
        l(H) = max_v min(l(H - v), l(H - N[v]) + 1).

    The entry of a connected mask is ``[lo, hi]``: level lo is proven and
    level hi is refuted.  A connected mask of two or more vertices has an
    edge, so its entry starts at level 1 and, when its greedy maximal
    independent set has m vertices, below level m + 1; one vertex is at
    level 1 and gets no entry.  The independent-set bound: if G is at level
    k, every maximal independent set I of G has at least k vertices.  By
    induction on the recursion: k = 0 is trivial, and an edgeless G has
    I = V(G), |I| = k.  At a pivot v, if v is not in I then I is still
    maximal in G - v (each other vertex outside I keeps its neighbor in I),
    and G - v is at level k, so |I| >= k.  If v is in I then I - v is
    maximal in G - N[v] (a vertex there with no neighbor in I - v would have
    none in I), and G - N[v] is at level k-1, so |I| - 1 >= k - 1.  The
    greedy set takes the lowest bit and drops its closed neighborhood until
    nothing is left; a second one starts at a vertex of highest degree in
    the mask (lowest label on ties), which decides a star whose center has
    the highest label, and the smaller size bounds the entry.  That is
    O(|mask|) work per new mask.

    capped(mask, cap) = min(l(mask), cap), by branch and bound.  Components
    add their capped levels, each under the cap that remains: _known sums
    those whose entries decide them, and _search searches the first that is
    not decided.  A connected mask starts from best = lo and
    ub = min(hi - 1, cap); pivot v gives a = capped(mask - N[v], ub - 1) + 1
    and, when a > best, raises best to b = capped(mask - v, a), the
    identity's term capped at ub.  Past best >= ub, or after every pivot,
    best = min(l(mask), ub); the entry becomes lo = cap if best reached cap,
    else exactly [best, best + 1].  The search is a generator recursion on
    graphs.run, so no input depth reaches the interpreter's recursion limit;
    the memo entry past `budget` raises BudgetExceeded.
    """

    def __init__(self, G: Graph, budget: Optional[int] = None):
        super().__init__(G)
        self.budget = Budget(budget, DEFAULT_LEVEL_BUDGET, "level", "memo entries")
        self._bounds: dict[int, list[int]] = {}
        self._bits = tuple(range(len(self.verts)))  # one int object per bit, shared by the calls

    def _facts(self, mask: int) -> list[int]:
        """``[lo, hi]`` from the exact facts: edgeless masks, level 1 and the greedy bounds."""
        nbr, closed, hub, most, rest = self.nbr, self.closed, 0, -1, mask
        while rest:  # hub: a vertex of highest degree in mask, lowest label on ties
            i = (rest & -rest).bit_length() - 1
            if (degree := (nbr[i] & mask).bit_count()) > most:
                hub, most = i, degree
            rest &= rest - 1
        if most < 1:
            return [mask.bit_count(), mask.bit_count() + 1]
        sizes = [0, 1]  # greedy sets from the lowest bit and from the hub
        for j, rest in enumerate((mask, mask & ~closed[hub])):
            while rest:
                rest &= ~closed[(rest & -rest).bit_length() - 1]
                sizes[j] += 1
        return [1, min(sizes) + 1]

    def _pivots(self, mask: int) -> list[int]:
        """The bits of mask, highest residual degree first, then lowest label."""
        nbr = self.nbr
        order = [i for i in self._bits[: mask.bit_length()] if mask >> i & 1]
        order.sort(key=lambda i: -(nbr[i] & mask).bit_count())  # stable: label order stays
        return order

    def _known(self, mask: int, cap: int) -> tuple[int, int]:
        """The sum of min(l(c), cap - sum) over mask's components c, lowest first,
        up to the first that needs a search: returned with it and all after it."""
        bounds, total = self._bounds, 0
        while mask and total < cap:
            entry = bounds.get(mask)
            comp = mask if entry else self.component(mask)
            if comp & (comp - 1):
                entry = entry or bounds.get(comp)
                if not entry:
                    self.budget.spend()
                    entry = bounds[comp] = self._facts(comp)
                lo = entry[0]
                if lo < cap - total and lo + 1 < entry[1]:
                    return total, mask
                total += lo
            else:  # one vertex, at level 1
                total += 1
            mask ^= comp
        return min(total, cap), 0

    def capped(self, mask: int, cap: int) -> int:
        """min(l(mask), cap)."""
        total, mask = self._known(mask, cap)
        return total + run(self._search(mask, cap - total)) if mask else total

    def _search(self, mask: int, cap: int):
        """Generator for run: min(l(mask), cap), when mask's lowest component needs a search."""
        bounds, closed, total = self._bounds, self.closed, 0
        while mask:
            comp = mask if mask in bounds else self.component(mask)
            entry = bounds[comp]
            left = cap - total
            best, ub = entry[0], min(entry[1] - 1, left)
            for i in self._pivots(comp):
                a, rest = self._known(comp & ~closed[i], ub - 1)
                if rest:
                    a += yield self._search(rest, ub - 1 - a)
                if a >= best:
                    b, rest = self._known(comp & ~(1 << i), a + 1)
                    if rest:
                        b += yield self._search(rest, a + 1 - b)
                    best = max(best, b)
                    if best >= ub:
                        break
            entry[:] = (left, entry[1]) if best >= left else (best, best + 1)
            more, mask = self._known(mask ^ comp, left - best)
            total += best + more
        return total


def is_vd(G: Graph, k: int, budget: Optional[int] = None) -> bool:
    """Whether G satisfies the level-k recursion. Deterministic, memoized per call.

    Raises BudgetExceeded past `budget` memo entries (None: DEFAULT_LEVEL_BUDGET).
    """
    if k < 0:
        raise VdError(f"level must be non-negative, got {k}")
    s = _Solver(G, budget)
    lo, hi = s._facts(s.full)
    return k <= lo or k < hi and s.capped(s.full, k) >= k


def max_vd(G: Graph, budget: Optional[int] = None) -> int:
    """Largest k with is_vd(G, k); well-defined since levels are downward closed.

    One capped search, under one budget of `budget` memo entries.
    """
    s = _Solver(G, budget)
    return s.capped(s.full, G.n)


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


def verify_certificate(G: Union[Graph, MaskView], cert: VdCertificate) -> CertCheck:
    """Check a certificate tree against G (a Graph or MaskView) by replaying its deletions.

    Leaves are matched against the induced subgraph reached along the
    path; node levels must agree with both children.  A level-0 leaf holds
    on any subgraph and is passed over; each other distinct (subtree,
    subgraph) pair is checked once.  A stack entry holds its path
    as a (step, parent) chain, O(1) at any depth, and only a failing
    entry's path becomes a tuple.
    """
    s = G if isinstance(G, MaskView) else MaskView(G)
    seen: set[tuple[int, int]] = set()
    stack: list[tuple[VdCertificate, int, object]] = [(cert, s.full, None)]
    while stack:
        c, mask, where = stack.pop()
        leaf = isinstance(c, LeafComponents)
        if leaf and c.level == 0:
            continue
        key = (id(c), mask)
        if key in seen:
            continue
        seen.add(key)
        if leaf:
            count = s.components(mask)
            if not 0 <= c.level <= count:
                reason = f"components leaf at level {c.level}, but the subgraph has {count}"
                return CertCheck(False, _steps(where), reason)
            continue
        if isinstance(c, Node):
            if c.level < 1:
                return CertCheck(False, _steps(where), f"pivot node at level {c.level}")
            i = s.index.get(c.pivot)
            if i is None or not mask >> i & 1:
                return CertCheck(False, _steps(where), f"pivot {c.pivot} not in the subgraph")
            if c.delete.level != c.level:
                reason = f"delete child claims {c.delete.level}, expected {c.level}"
                return CertCheck(False, _steps(where), reason)
            if c.link.level != c.level - 1:
                reason = f"link child claims {c.link.level}, expected {c.level - 1}"
                return CertCheck(False, _steps(where), reason)
            stack.append((c.delete, mask & ~(1 << i), (f"del@{c.pivot}", where)))
            stack.append((c.link, mask & ~s.closed[i], (f"link@{c.pivot}", where)))
            continue
        return CertCheck(False, _steps(where), f"unknown certificate object {type(c).__name__}")
    return CertCheck(True)


def _steps(where) -> tuple[str, ...]:
    """The steps of a (step, parent) chain, from the root."""
    steps = []
    while where is not None:
        step, where = where
        steps.append(step)
    return tuple(reversed(steps))


# ---------------------------------------------------------------------------
# Certificate constructions
# ---------------------------------------------------------------------------


class CertificateBuilder:
    """Certificate construction on the bitmasks of one root graph.

    Leaves are shared, one per level.  memo holds a certificate of the
    subgraph mask at level k under the key (mask, k): the construction's
    own, and each lift of a pivot node, stored at one level above the
    certificate it lifts.  Any entry under a key certifies what the key
    names, so one certificate serves every later need of that key.  budget
    counts the memo's entries; the entry past its limit (None:
    DEFAULT_CERTIFICATE_BUDGET) raises BudgetExceeded.
    """

    def __init__(self, view: MaskView, budget: Optional[int] = None):
        self.view = view
        self.budget = Budget(budget, DEFAULT_CERTIFICATE_BUDGET, "certificate", "memo entries")
        self._leaves: list[LeafComponents] = []
        self.memo: dict[tuple[int, int], VdCertificate] = {}

    def _leaf(self, k: int) -> LeafComponents:
        """The shared leaf at level k."""
        while len(self._leaves) <= k:
            self._leaves.append(LeafComponents(len(self._leaves)))
        return self._leaves[k]

    def known(self, mask: int, k: int) -> Optional[VdCertificate]:
        """The leaf at level k if mask has at least k components, else memo's entry."""
        return self._leaf(k) if self.view.components(mask) >= k else self.memo.get((mask, k))

    def lift(self, mask: int, v: int, cert: VdCertificate) -> VdCertificate:
        """Certificate for the subgraph `mask` one level above cert.

        cert must certify the subgraph minus bit v, which is isolated in
        it.  The lift of a leaf is the components leaf one level up: v adds
        a component.  A pivot node is rebuilt along cert's own pivots.
        """
        return self._lifted(mask, cert) or run(self._lift(mask, v, cert))

    def _lifted(self, mask: int, cert: VdCertificate) -> Optional[VdCertificate]:
        """The lift of a leaf, in O(1), or memo's entry one level above cert; else None."""
        if isinstance(cert, LeafComponents):
            return self._leaf(cert.level + 1)
        return self.memo.get((mask, cert.level + 1))

    def _lift(self, mask: int, v: int, cert: Node):
        """Generator for run: the lift of a pivot node whose key is not in the memo."""
        self.budget.spend()
        view = self.view
        u = cert.pivot
        i = view.index.get(u)
        if i is None or not mask >> i & 1 or i == v:
            raise CertificateError(f"pivot {u} does not exist in the lifted graph")
        kids = []
        for child, c in ((mask & ~(1 << i), cert.delete), (mask & ~view.closed[i], cert.link)):
            kids.append(self._lifted(child, c) or (yield self._lift(child, v, c)))
        out = self.memo[mask, cert.level + 1] = Node(u, kids[0], kids[1], cert.level + 1)
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
    back-to-front and lifts the isolated pivot on the stripped core.
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


def build_certificate_degree_bound(G: Graph, budget: Optional[int] = None) -> VdCertificate:
    """Constructive certificate at level floor(n / 2*maxdeg), or n for an edgeless graph.

    Follows the inductive peeling proof: fix the smallest-label pivot,
    recurse on the closed-neighborhood deletion and on the neighbor-chain
    deletions, then assemble; a subgraph with at least k components is the
    leaf at level k.  The peeling runs on graphs.run, and budget bounds its
    memo entries, lifts included (None: DEFAULT_CERTIFICATE_BUDGET).
    """
    delta = G.max_degree()
    target = G.n // (2 * delta) if delta else G.n
    view = MaskView(G)
    builder = CertificateBuilder(view, budget)

    def build(mask: int, k: int):
        """Generator for run: the certificate of a (mask, k) that builder.known lacks."""
        builder.budget.spend()
        p = (mask & -mask).bit_length() - 1
        order = mask_labels(view.verts, view.nbr[p] & mask)
        child = mask & ~view.closed[p]
        link_cert = builder.known(child, k - 1) or (yield build(child, k - 1))
        arm_certs = []
        prefix = 0
        for u in order:
            i = view.index[u]
            child = mask & ~(view.closed[i] | prefix)
            arm_certs.append(builder.known(child, k - 1) or (yield build(child, k - 1)))
            prefix |= 1 << i
        cert = assemble_pivot_decomposition(
            builder, mask, view.verts[p], list(order), arm_certs, link_cert, k
        )
        builder.memo[mask, k] = cert
        return cert

    cert = builder.known(view.full, target) or run(build(view.full, target))
    del build
    return cert


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------
#
# {"leaf": "components", "level": k}
# {"level": k, "node": {"del": ..., "link": ..., "pivot": v}}
#
# Keys are emitted in sorted order and levels are always explicit.  The
# reader refuses any other leaf kind, such as the "any" and "edgeless"
# leaves of earlier versions.


_CLOSE = object()  # writer stack marker: the innermost open node's text ends here


def _expanded_size(cert: VdCertificate) -> int:
    """The number of objects in the expanded tree of cert, in one pass over its unique objects."""
    sizes: dict[int, int] = {}
    stack = [cert]
    while stack:
        c = stack.pop()
        if type(c) is not Node:
            sizes[id(c)] = 1
            continue
        d, k = sizes.get(id(c.delete)), sizes.get(id(c.link))
        if d is None or k is None:  # c again, once its children are counted
            stack += (c, c.delete, c.link)
        else:
            sizes[id(c)] = 1 + d + k
    return sizes[id(cert)]


def certificate_to_json(cert: VdCertificate, budget: Optional[int] = None) -> str:
    """The nested JSON text of cert, in time that follows its unique objects.

    Each object's text is a slice of parts; an object met again copies its
    slice, string pointers only.  The slice bounds are plain ints, which
    the garbage collector does not track, so writing adds it no work.  The
    expanded tree's objects are counted on budget (None: DEFAULT_TEXT_BUDGET) first.
    """
    Budget(budget, DEFAULT_TEXT_BUDGET, "certificate text", "objects").spend(_expanded_size(cert))
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
        if isinstance(item, LeafComponents):
            parts.append(f'{{"leaf":"components","level":{item.level}}}')
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
    del starts, ends  # freed before the text is joined, which is the peak
    return "".join(parts)


def _malformed(where, message: str) -> CertificateError:
    """Error at a reader position, given as a (step, parent) chain from the root."""
    path = "/".join(_steps(where)) or "root"
    return CertificateError(f"certificate path {path}: {message}")


class _Reader:
    """One read's intern tables, and the checks of one leaf level and one node.

    Both readers (_scan and certificate_from_obj) build every leaf and node
    through leaf and node.
    """

    def __init__(self):
        self.components: dict[int, LeafComponents] = {}
        self.nodes: dict[tuple[int, int, int, int], Node] = {}

    def leaf(self, level):
        """The interned components leaf at level, or an error message."""
        if type(level) is not int or level < 0:
            return "components leaf level must be a non-negative integer"
        return self.components.get(level) or self.components.setdefault(level, LeafComponents(level))

    def node(self, pivot: int, delete: VdCertificate, link: VdCertificate, level):
        """The interned pivot node over its read children, or an error message."""
        if type(level) is not int:
            return "node level must be an integer"
        key = (pivot, id(delete), id(link), level)
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = Node(pivot, delete, link, level)
        return node


def certificate_from_obj(obj) -> VdCertificate:
    """Certificate from its nested JSON object, sharing equal subtrees.

    Structurally equal subtrees come back as one object: one
    LeafComponents per level and one Node per (pivot, delete, link, level)
    over children already shared: a DAG that certificate_to_json expands to
    the same text, and on which verify_certificate checks each (subtree,
    subgraph) pair once.  Pivots and levels must be JSON integers; another
    leaf kind, or anything else malformed, raises CertificateError naming
    its path, as del/link steps from the root.
    """
    reader = _Reader()
    done: list[VdCertificate] = []
    # (JSON object, its path as a (step, parent) chain, and, once its
    # children are queued, the pivot node's body)
    stack: list[tuple[object, object, object]] = [(obj, None, None)]
    while stack:
        o, where, body = stack.pop()
        if body is not None:  # both children are read
            link = done.pop()
            level = o["level"] if "level" in o else link.level + 1
            got = reader.node(body["pivot"], done.pop(), link, level)
        elif type(o) is not dict:
            raise _malformed(where, "certificate JSON nodes must be objects")
        elif o.get("leaf") == "components":
            got = reader.leaf(o.get("level"))
        elif "node" in o:
            body = o["node"]
            if type(body) is not dict or "del" not in body or "link" not in body:
                got = "pivot node needs an object with 'del' and 'link'"
            elif type(body.get("pivot")) is not int:
                got = "pivot must be an integer"
            else:
                stack.append((o, where, body))
                stack.append((body["link"], ("link", where), None))
                stack.append((body["del"], ("del", where), None))
                continue
        elif type(o.get("leaf")) is str:
            got = f"unrecognized leaf kind {o['leaf']!r}"
        else:
            got = f"unrecognized certificate object with keys {sorted(o)}"
        if type(got) is str:
            raise _malformed(where, got)
        done.append(got)
    if len(done) != 1:
        raise CertificateError("malformed certificate nesting")
    return done[0]


_INT = "-?(?:0|[1-9][0-9]*)"  # a JSON integer
_LEAF_TEXT = re.compile(r'\{"leaf":"components","level":(' + _INT + r")\}")
_NODE_OPEN = re.compile(r'\{"level":(' + _INT + r'),"node":\{"del":')
_LINK_TEXT = ',"link":'
_NODE_CLOSE = re.compile(r',"pivot":(' + _INT + r")\}\}")
_KEY_WINDOW = 64  # characters of a node's text before its first "}" that key the memo
_TAIL = 32  # characters of a node's text compared before all of it; every node text is longer


def _scan(text: str) -> Optional[VdCertificate]:
    """The certificate of text if it is exactly what certificate_to_json writes, else None.

    The grammar is the writer's: ``{"leaf":"components","level":L}``,
    ``{"level":L,"node":{"del":D,"link":K,"pivot":P}}`` and JSON integers,
    with nothing around the root but trailing JSON whitespace.  Other text,
    and a leaf that fails a check, gives None, so the caller reads it the
    general way and reports its errors with their paths.  The scan runs on
    an explicit stack, so it reads any depth.

    Each distinct subtree text is parsed once.  The grammar is prefix-free
    (no string in it holds a brace), so if the text at p starts with the
    whole text of a node read before, the value at p is exactly that text;
    nodes are interned on their children's identities, so that node is the
    object a fresh parse would build, and the scan takes it and jumps past.
    Candidates are keyed inside the subtree: by the distance from p to the
    first "}" after p, which every node text holds, and up to _KEY_WINDOW
    characters before that brace.  The text itself is compared before a
    node is reused.
    """
    reader = _Reader()
    memo: dict[tuple[int, str], list[tuple[int, int, Node]]] = {}  # key -> (start, end, node)
    opened: list[list] = []  # [start, key, level, delete child or None] per open node
    brace = -1  # the first "}" at or after the last node start; shared by a del-spine
    p = 0
    while True:
        # the value that starts at p
        if text.startswith('{"level":', p):
            if brace < p:
                brace = text.find("}", p)
                if brace < 0:
                    return None
            key = (brace - p, text[max(p, brace - _KEY_WINDOW) : brace])
            got = None
            for start, end, node in reversed(memo.get(key, ())):  # a repeat is often recent
                size = end - start
                if text.startswith(text[end - _TAIL : end], p + size - _TAIL) and text.startswith(
                    text[start:end], p
                ):
                    got = node
                    p += size
                    break
            if got is None:
                m = _NODE_OPEN.match(text, p)
                if m is None:
                    return None
                opened.append([p, key, int(m.group(1)), None])
                p = m.end()
                continue
        else:
            m = _LEAF_TEXT.match(text, p)
            if m is None:
                return None
            got = reader.leaf(int(m.group(1)))
            if type(got) is str:
                return None
            p = m.end()
        # close every node whose last child that value is
        while True:
            if not opened:
                return None if text[p:].strip(" \t\n\r") else got
            top = opened[-1]
            if top[3] is None:
                if not text.startswith(_LINK_TEXT, p):
                    return None
                top[3] = got
                p += len(_LINK_TEXT)
                break
            m = _NODE_CLOSE.match(text, p)
            if m is None:
                return None
            start, key, level, delete = opened.pop()
            got = reader.node(int(m.group(1)), delete, got, level)
            p = m.end()
            memo.setdefault(key, []).append((start, p, got))


def certificate_from_json(text: str) -> VdCertificate:
    """certificate_from_obj of the parsed text, sharing equal subtrees.

    Text in certificate_to_json's own layout is scanned at any depth (_scan).
    Other text is parsed into dicts by read_json, at a cost per object of
    the expanded text and within the JSON nesting limit, and read by
    certificate_from_obj.  Both give the same certificate, and every error
    comes from the second.
    """
    try:
        cert = _scan(text)
    except ValueError:  # an integer past int()'s digit limit; read_json reports it
        cert = None
    if cert is not None:
        return cert
    return certificate_from_obj(read_json(text, "certificate", CertificateError))
