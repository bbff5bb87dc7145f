"""Independent oracles for the test suite.

Each oracle is deliberately written against different data structures than
the library path it checks: certificate search runs on vertex frozensets
with naive label-order pivoting, the planar hull oracle does case
analysis on exact 2-D geometry (hull vertices and edge crossings) instead
of linear programming, and the homology oracle runs dense Gaussian
elimination on Fractions over faces enumerated straight from the facets.
The LP oracle is the phase-1 simplex on a Fraction tableau that the
library's fraction-free integer tableau replaced.  The witness search
oracle is the unpruned search, one LP over the completed classes after
every class, that the library's box- and pair-pruned search replaced.
The certificate construction oracle (lifting, pivot assembly, the
degree-bound builder and trace extraction) builds a Graph for every
subgraph where the library works on bitmasks.  The level decision oracle
is the plain recursive solver, memoized on (mask, level), that the
library's iterative interval solver replaced.
The certificate JSON writer and reader are the walkers over the expanded
tree that the library's unique-structure writer and parse-time reader
replaced.  The trace JSON reference is the tree of dicts that
RemovalTrace.to_obj built for json.dumps, which the library's row writer
replaced.  The removal reference is the record engine, one Squid,
TraceChild and TraceNode per squid, child and node, that the library's
node table replaced.  The whole-parse trace reader is RemovalTrace.from_obj,
which the library's one-pass comparison of a parsed trace replaced.  The
scheme top-up reference revalidates the whole scheme for each size-1 block,
where the library checks only the block it adds.
The complex oracle is the library's earlier complex layer on
sorted label tuples, with a quadratic maximality filter for every complex
and no connectivity prune in the decomposability search; its independence
complexes come from every independent set, found by brute force.
The last section holds Graph-space references that left the library
because no command needs them: delete_vertices, complete_graph,
cartesian_product and product_graph (G x K_q as a Graph, which the library
builds only as label masks), format_edgelist (the edge-list text of a
Graph), ProductVertex, product_label
and product_vertices (the product labeling convention, both ways),
squid_hearts and squid_arms (a squid's parts), check_squid (squid
well-formedness), _product_neighbors and squid_admissible (the paper's two
admissible squid patterns).  The library holds product vertices, squids and
residuals as labels and label masks; these oracles decode them to
(base, row) pairs with product_vertices and check the patterns on pairs.
"""

import bisect
import itertools
import json
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from tvf.complexes import DEFAULT_FACE_BUDGET, ShellingCheck, VertexDecomposition
from tvf.errors import Budget, BudgetExceeded, ComplexError, quoted
from tvf.graphs import Graph, GraphError, induced_subgraph, mask_labels, product_with_complete, run
from tvf.ratlp import Feasibility
from tvf.schemes import DEFAULT_SCHEME_BUDGET, SchemeBuild, build_scheme, validate_scheme
from tvf.squids import (
    DEFAULT_REMOVAL_BUDGET,
    NodeTable,
    SchemeRunError,
    Squid,
    SquidError,
    TheoremViolation,
    _canonical,
    _differences,
    _header,
    _removal,
    _rerun,
    df1_check,
    df1_threshold,
)
from tvf.tverberg import (
    DEFAULT_SEARCH_BUDGET,
    HullWitness,
    PointConfiguration,
    TverbergError,
    TverbergWitness,
    hulls_intersect,
    verify_witness,
)
from tvf.vd import (
    CertificateBuilder,
    CertificateError,
    LeafComponents,
    MaskView,
    Node,
    VdCertificate,
    VdError,
)
from tvf.vd import assemble_pivot_decomposition as vd_assemble_pivot_decomposition


def brute_certificate_search(G, k):
    """Exhaustive derivation-tree search straight off the definition.

    Its leaves are level 0, and the edgeless graph on exactly kk vertices at
    level kk, each written as the components leaf that says the same.
    """
    adj = {v: frozenset(G.neighbors(v)) for v in G.vertices}
    memo = {}

    def rec(verts, kk):
        key = (verts, kk)
        if key in memo:
            return memo[key]
        if kk == 0:
            result = LeafComponents(0)
        else:
            edgeless = all(adj[v].isdisjoint(verts) for v in verts)
            result = None
            if edgeless and len(verts) == kk:
                result = LeafComponents(kk)
            else:
                for v in sorted(verts):
                    dcert = rec(verts - {v}, kk)
                    if dcert is None:
                        continue
                    lcert = rec(verts - adj[v] - {v}, kk - 1)
                    if lcert is None:
                        continue
                    result = Node(v, dcert, lcert, kk)
                    break
        memo[key] = result
        return result

    return rec(frozenset(G.vertices), k)


# ---------------------------------------------------------------------------
# Recursive level solver
# ---------------------------------------------------------------------------
#
# The decision procedure as it ran before the iterative interval solver:
# one Python call per query, memoized on (mask, level), no bounds.  The
# library must give the same answer at every level.


class _Solver(MaskView):
    """Level recursion over the induced subgraphs of one root graph.

    Memoized on (vertex bitmask, level) for the life of the solver.
    """

    def __init__(self, G: Graph):
        super().__init__(G)
        self._memo: dict[tuple[int, int], bool] = {}

    def edgeless(self, mask: int) -> bool:
        rest = mask
        while rest:
            low = rest & -rest
            if self.nbr[low.bit_length() - 1] & mask:
                return False
            rest ^= low
        return True

    def vd(self, mask: int, k: int) -> bool:
        if k == 0:
            return True
        size = bin(mask).count("1")
        if k > size:
            return False
        key = (mask, k)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if self.edgeless(mask):
            self._memo[key] = True
            return True
        # pivot heuristic: high residual degree first, label order as tie-break
        bits = []
        rest = mask
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            bits.append((-bin(self.nbr[i] & mask).count("1"), i))
            rest ^= low
        bits.sort()
        result = False
        for _, i in bits:
            if self.vd(mask & ~(1 << i), k) and self.vd(mask & ~self.closed[i], k - 1):
                result = True
                break
        self._memo[key] = result
        return result


def recursive_levels(G: Graph) -> list[bool]:
    """The recursive solver's answers at k = 0..n+1, on one solver.

    Like max_vd, it stops searching at the first refuted level: levels are
    downward closed, so every level above it is refuted.
    """
    s = _Solver(G)
    answers = []
    holds = True
    for k in range(G.n + 2):
        holds = holds and s.vd(s.full, k)
        answers.append(holds)
    return answers


# ---------------------------------------------------------------------------
# Planar geometry (exact, d <= 2)
# ---------------------------------------------------------------------------


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_2d(points):
    """Monotone chain; returns the CCW hull, degenerating to 1 or 2 points."""
    pts = sorted(set(points))
    if len(pts) <= 1:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all points collinear: keep the two extremes
        return [pts[0], pts[-1]]
    return hull


def _between(a, b, c):
    """c on segment ab (all collinear assumed checked via cross)."""
    return (
        min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
    )


def point_in_hull(c, hull):
    if len(hull) == 1:
        return c == hull[0]
    if len(hull) == 2:
        return _cross(hull[0], hull[1], c) == 0 and _between(hull[0], hull[1], c)
    n = len(hull)
    return all(_cross(hull[i], hull[(i + 1) % n], c) >= 0 for i in range(n))


def _edges(hull):
    if len(hull) == 1:
        return []
    if len(hull) == 2:
        return [(hull[0], hull[1])]
    return [(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]


def _segment_crossing(p1, p2, q1, q2):
    r = (p2[0] - p1[0], p2[1] - p1[1])
    s = (q2[0] - q1[0], q2[1] - q1[1])
    denom = r[0] * s[1] - r[1] * s[0]
    if denom == 0:
        return None  # parallel or collinear: endpoints are already candidates
    qp = (q1[0] - p1[0], q1[1] - p1[1])
    t = Fraction(qp[0] * s[1] - qp[1] * s[0], denom)
    u = Fraction(qp[0] * r[1] - qp[1] * r[0], denom)
    if 0 <= t <= 1 and 0 <= u <= 1:
        return (p1[0] + t * r[0], p1[1] + t * r[1])
    return None


def hulls_intersect_oracle(parts):
    """Do the convex hulls of all parts share a point?  d must be 1 or 2.

    In the plane, any vertex of the (convex) intersection is a hull vertex
    of one part or a crossing of two hull edges from different parts, so
    checking those finitely many candidates is exhaustive.
    """
    d = len(parts[0][0])
    if d == 1:
        lo = max(min(p[0] for p in part) for part in parts)
        hi = min(max(p[0] for p in part) for part in parts)
        return lo <= hi
    if d != 2:
        raise ValueError("oracle supports d in {1, 2}")
    hulls = [convex_hull_2d([tuple(p) for p in part]) for part in parts]
    candidates = set()
    for h in hulls:
        candidates.update(h)
    for i in range(len(hulls)):
        for j in range(i + 1, len(hulls)):
            for e1 in _edges(hulls[i]):
                for e2 in _edges(hulls[j]):
                    c = _segment_crossing(*e1, *e2)
                    if c is not None:
                        candidates.add(c)
    return any(all(point_in_hull(c, h) for h in hulls) for c in candidates)


# ---------------------------------------------------------------------------
# Rational LP (Fraction tableau; reference for the fraction-free simplex)
# ---------------------------------------------------------------------------
#
# The phase-1 simplex as it ran on Fractions, with the same Bland's rule.
# The library's integer tableau must return exactly the same x, or the same
# Farkas vector: here y_i = 1 - pi_i is the final reduced cost of artificial
# column i, so -pi, with each negated row's sign undone, refutes A x = b,
# and it is returned as the coprime integer vector of the same direction.

ZERO = Fraction(0)
ONE = Fraction(1)


def fraction_simplex(
    A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> Feasibility:
    """Return x >= 0 with A x = b, or else a Farkas vector y."""
    m = len(A)
    if m == 0:
        return Feasibility([], None)
    n = len(A[0])
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValueError("inconsistent system dimensions")

    # rows with b_i < 0 are negated so the artificial basis is feasible
    tab = []
    rhs = []
    for row, bi in zip(A, b):
        if bi < 0:
            tab.append([-Fraction(x) for x in row])
            rhs.append(-Fraction(bi))
        else:
            tab.append([Fraction(x) for x in row])
            rhs.append(Fraction(bi))
    for i in range(m):
        tab[i].extend(ONE if j == i else ZERO for j in range(m))
    basis = list(range(n, n + m))

    # phase-1 objective: minimize the artificial sum; reduced costs
    red = [ZERO] * (n + m)
    for j in range(n):
        red[j] = -sum(tab[i][j] for i in range(m))
    obj = -sum(rhs)

    while True:
        enter = next((j for j in range(n + m) if red[j] < 0), None)
        if enter is None:
            break
        leave = None
        best: Optional[Fraction] = None
        for i in range(m):
            coeff = tab[i][enter]
            if coeff > 0:
                ratio = rhs[i] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded; malformed tableau")
        pivot = tab[leave][enter]
        tab[leave] = [x / pivot for x in tab[leave]]
        rhs[leave] /= pivot
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
                rhs[i] -= f * rhs[leave]
        if red[enter]:
            f = red[enter]
            red = [x - f * y for x, y in zip(red, tab[leave])]
            obj -= f * rhs[leave]
        basis[leave] = enter

    if obj != 0:
        y = [red[n + i] - ONE if b[i] >= 0 else ONE - red[n + i] for i in range(m)]
        scale = math.lcm(*(v.denominator for v in y))
        ints = [int(v * scale) for v in y]
        g = math.gcd(*ints)
        return Feasibility(None, [v // g for v in ints])
    x = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = rhs[i]
    return Feasibility(x, None)


# ---------------------------------------------------------------------------
# Tverberg witness search (unpruned reference)
# ---------------------------------------------------------------------------
#
# The search as it ran before box and pair pruning: one LP over the
# completed classes after every class, the one-class prefix included.  The
# library's pruned search must return exactly the same witness or None.


def _is_independent(G: Graph, vertices: Sequence[int]) -> bool:
    return not any(v in G.neighbors(u) for u, v in itertools.combinations(vertices, 2))


def unpruned_search_witness(
    G: Graph,
    cfg: PointConfiguration,
    q: int,
    budget: Optional[int] = None,
) -> Optional[TverbergWitness]:
    """First witness in canonical order over proper surjective q-colorings.

    Color symmetry is broken by construction: class c's smallest vertex is
    the smallest vertex not in classes 1..c-1, so color first-occurrences
    are increasing.  Class candidates are enumerated by ascending bitmask
    over the remaining vertices.  After a class is completed, a common-point
    LP over the completed classes prunes the branch when they already fail
    to intersect — sound, because later classes cannot change earlier hulls.
    The search runs on graphs.run, one level per class, and the budget
    counts LP feasibility calls (None: DEFAULT_SEARCH_BUDGET).  A witness is
    re-checked with verify_witness before it is returned; a failed check
    raises TverbergError.
    """
    if q < 1:
        raise TverbergError(f"q must be positive, got {q}")
    verts = G.vertices
    if set(cfg.points) != set(verts):
        raise TverbergError("point configuration must be indexed by exactly V(G)")
    if len(verts) < q:
        return None  # every q-coloring would leave an empty class
    calls = Budget(budget, DEFAULT_SEARCH_BUDGET, "search", "hull-intersection calls")

    def lp(classes: list[tuple[int, ...]]) -> Optional[HullWitness]:
        calls.spend()
        return hulls_intersect([[cfg.points[v] for v in cls] for cls in classes])

    def recurse(remaining: tuple[int, ...], classes: list[tuple[int, ...]]):
        """Generator for run: the first witness that extends classes, or None."""
        if len(classes) == q - 1:
            if not _is_independent(G, remaining):
                return None
            full = classes + [remaining]
            hull = lp(full)
            if hull is None:
                return None
            coloring = {}
            barycentric: dict[int, dict[int, Fraction]] = {}
            for ci, cls in enumerate(full, start=1):
                for v in cls:
                    coloring[v] = ci
                barycentric[ci] = dict(zip(cls, hull.coefficients[ci - 1]))
            return TverbergWitness(coloring, hull.point, barycentric)
        anchor, rest = remaining[0], remaining[1:]
        slots_after = q - len(classes) - 1
        for mask in range(1 << len(rest)):
            chosen = [rest[i] for i in range(len(rest)) if mask >> i & 1]
            if len(rest) - len(chosen) < slots_after:
                continue
            cls = (anchor, *chosen)
            if not _is_independent(G, cls):
                continue
            if lp(classes + [cls]) is None:
                continue
            found = yield recurse(tuple(v for v in rest if v not in set(chosen)), classes + [cls])
            if found is not None:
                return found
        return None

    witness = run(recurse(verts, []))
    if witness is not None and not verify_witness(G, cfg, witness, q):
        raise TverbergError("the witness found failed its exact re-check")
    return witness


# ---------------------------------------------------------------------------
# Rational homology (dense)
# ---------------------------------------------------------------------------


def dense_rational_rank(rows):
    # exact Gaussian elimination over the rationals
    mat = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    cols = len(mat[0]) if mat else 0
    col = 0
    while rank < len(mat) and col < cols:
        pivot_row = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot_row is None:
            col += 1
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pv = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            factor = mat[r][col] / pv
            if factor:
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def boundary_matrix(lower, upper):
    """Dense matrix of the simplicial boundary map: rows lower, columns upper."""
    index = {f: i for i, f in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for j, face in enumerate(upper):
        for pos in range(len(face)):
            rows[index[face[:pos] + face[pos + 1 :]]][j] = (-1) ** pos
    return rows


def dense_betti(facets):
    """Reduced rational Betti numbers, dimensions -1..dim, as a tuple."""
    by_size = {}
    for facet in facets:
        facet = tuple(sorted(facet))
        for r in range(len(facet) + 1):
            by_size.setdefault(r, set()).update(itertools.combinations(facet, r))
    faces = [sorted(by_size.get(r, ())) for r in range(max(by_size) + 1)]
    ranks = [0] + [
        dense_rational_rank(boundary_matrix(faces[r - 1], faces[r])) for r in range(1, len(faces))
    ] + [0]
    return tuple(len(faces[r]) - ranks[r] - ranks[r + 1] for r in range(len(faces)))


# ---------------------------------------------------------------------------
# Tuple-based complexes (reference for the mask-based complex layer)
# ---------------------------------------------------------------------------


Face = tuple[int, ...]


def _maximal(faces: Iterable[Face]) -> tuple[Face, ...]:
    sets = sorted({frozenset(f) for f in faces}, key=len, reverse=True)
    kept: list[frozenset[int]] = []
    for s in sets:
        if not any(s < t for t in kept):
            kept.append(s)
    return tuple(sorted(tuple(sorted(s)) for s in kept))


class SimplicialComplex:
    """Immutable complex; only the inclusion-maximal faces are stored.

    The empty face is always present, so the smallest complex is {<empty>}
    (facet list containing just the empty tuple).
    """

    __slots__ = ("_facets", "_hash")

    def __init__(self, faces: Iterable[Iterable[int]] = ()):
        facets = _maximal(tuple(sorted(set(f))) for f in faces)
        self._facets: tuple[Face, ...] = facets if facets else ((),)
        self._hash = hash(self._facets)

    @property
    def facets(self) -> tuple[Face, ...]:
        return self._facets

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted({v for f in self._facets for v in f}))

    @property
    def dim(self) -> int:
        return max(len(f) for f in self._facets) - 1

    def is_pure(self) -> bool:
        sizes = {len(f) for f in self._facets}
        return len(sizes) == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._facets == other._facets

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SimplicialComplex(facets={len(self._facets)}, dim={self.dim})"


def skeleton(S: SimplicialComplex, k: int, budget: Optional[int] = None) -> SimplicialComplex:
    """Faces of dimension at most k."""
    if k < -1:
        raise ComplexError(f"skeleton dimension must be >= -1, got {k}")
    if k >= S.dim:
        return S
    b = Budget(budget, DEFAULT_FACE_BUDGET, "face", "faces")
    candidates: set[Face] = set()
    for facet in S.facets:
        if len(facet) <= k + 1:
            candidates.add(facet)
        else:
            for combo in itertools.combinations(facet, k + 1):
                b.spend()
                candidates.add(combo)
    return SimplicialComplex(candidates)


def link(S: SimplicialComplex, v: int) -> SimplicialComplex:
    """Faces not containing v whose union with v is a face."""
    if v not in set(S.vertices):
        raise ComplexError(f"vertex {v} is not in the complex")
    return SimplicialComplex(tuple(x for x in f if x != v) for f in S.facets if v in f)


def deletion(S: SimplicialComplex, v: int) -> SimplicialComplex:
    """Faces not containing v."""
    if v not in set(S.vertices):
        raise ComplexError(f"vertex {v} is not in the complex")
    return SimplicialComplex(
        (f if v not in f else tuple(x for x in f if x != v)) for f in S.facets
    )


def _vd_shelling(
    S: SimplicialComplex, memo: dict[tuple[Face, ...], Optional[tuple[Face, ...]]], budget: Budget
):
    """Generator for run: a shelling from a vertex decomposition of S, or None."""
    key = S.facets
    if key in memo:
        return memo[key]
    budget.spend()  # for the memo entry S gets below
    result: Optional[tuple[Face, ...]] = None
    if S.is_pure():
        if S.facets == ((),):
            result = ((),)
        else:
            for v in S.vertices:
                lk, dl = link(S, v), deletion(S, v)
                shell_dl = yield _vd_shelling(dl, memo, budget)
                if shell_dl is None:
                    continue
                shell_lk = yield _vd_shelling(lk, memo, budget)
                if shell_lk is None:
                    continue
                joined = tuple(tuple(sorted(f + (v,))) for f in shell_lk)
                if dl.dim < S.dim:
                    # v lies in every facet: the deletion contributes nothing
                    result = joined
                else:
                    result = shell_dl + joined
                break
    memo[key] = result
    return result


def is_vertex_decomposable(
    S: SimplicialComplex, budget: Optional[int] = None
) -> VertexDecomposition:
    """Exhaustive test of the recursive definition, memoized within the call.

    On success the returned shelling lists the deletion's facets before the
    link's facets joined with the pivot, recursively (the usual way a
    decomposition is turned into a shelling order).  budget bounds the memo
    entries, one per complex searched.
    """
    b = Budget(budget, DEFAULT_FACE_BUDGET, "decomposition", "memo entries")
    shelling = run(_vd_shelling(S, {}, b))
    if shelling is None:
        return VertexDecomposition(False)
    return VertexDecomposition(True, shelling)


def check_shelling(order: Sequence[Iterable[int]]) -> ShellingCheck:
    """Validate a facet order: every new facet must meet the union of its
    predecessors in a nonempty pure subcomplex of codimension one (facets of
    dimension 0 meet it in the empty face, which counts)."""
    facets = [tuple(sorted(set(f))) for f in order]
    if not facets:
        return ShellingCheck(False, None, "empty facet order")
    if len(set(facets)) != len(facets):
        return ShellingCheck(False, None, "repeated facet")
    size = len(facets[0])
    for i, f in enumerate(facets):
        if len(f) != size:
            return ShellingCheck(False, i, "facets of different dimensions")
    for i, f in enumerate(facets):
        fs = set(f)
        for j in range(i + 1, len(facets)):
            if fs <= set(facets[j]) or set(facets[j]) <= fs:
                return ShellingCheck(False, j, "one facet contains another")
    for i in range(1, len(facets)):
        fi = set(facets[i])
        meets = {frozenset(fi & set(facets[j])) for j in range(i)}
        tops = [m for m in meets if not any(m < other for other in meets)]
        bad = [m for m in tops if len(m) != size - 1]
        if bad:
            return ShellingCheck(
                False, i, f"intersection with earlier facets is not pure of codimension 1"
            )
    return ShellingCheck(True)


def independence_complex(G: Graph) -> SimplicialComplex:
    """The complex of all independent vertex sets of G, by brute force."""
    return SimplicialComplex(
        s
        for r in range(G.n + 1)
        for s in itertools.combinations(G.vertices, r)
        if not any(v in G.neighbors(u) for u, v in itertools.combinations(s, 2))
    )


# ---------------------------------------------------------------------------
# Graph-space certificate construction (reference for the mask-space builder)
# ---------------------------------------------------------------------------
#
# The construction as it ran before extraction moved to bitmasks: every
# subgraph is a fresh Graph and each lift keeps its own memo.  Its leaf
# rule is the library's, checked by its own component count: a subgraph
# with at least k components is the components leaf at level k, and the
# lift of a leaf is the leaf one level up.  Library output must match it
# byte for byte.


def component_count(G: Graph) -> int:
    """The number of connected components of G, by breadth-first search."""
    seen: set[int] = set()
    count = 0
    for v in G.vertices:
        if v not in seen:
            count += 1
            seen.add(v)
            queue = [v]
            while queue:
                for u in G.neighbors(queue.pop()):
                    if u not in seen:
                        seen.add(u)
                        queue.append(u)
    return count


def lift_isolated(G: Graph, v: int, cert: VdCertificate) -> VdCertificate:
    """Raise a certificate for G minus an isolated vertex v by one level.

    cert must certify G minus v at some level k-1; the result certifies G
    at level k.  A leaf lifts to the components leaf at level k (v adds a
    component); a pivot node is rebuilt along cert's own pivots (each
    subgraph keeps v isolated, so the rewrite recurses structurally).
    """
    if v not in G:
        raise GraphError(f"vertex {v} not in the graph")
    if G.neighbors(v):
        raise GraphError(f"vertex {v} is not isolated")
    memo: dict[tuple[Graph, int], VdCertificate] = {}

    def rec(H: Graph, c: VdCertificate) -> VdCertificate:
        if isinstance(c, LeafComponents):
            return LeafComponents(c.level + 1)
        key = (H, id(c))
        got = memo.get(key)
        if got is not None:
            return got
        u = c.pivot
        if u not in H or u == v:
            raise CertificateError(f"pivot {u} does not exist in the lifted graph")
        del_lift = rec(delete_vertices(H, [u]), c.delete)
        link_lift = rec(delete_vertices(H, H.neighbors(u) | {u}), c.link)
        out = Node(u, del_lift, link_lift, c.level + 1)
        memo[key] = out
        return out

    return rec(G, cert)


def assemble_pivot_decomposition(
    G: Graph,
    pivot: int,
    order: list[int],
    arm_certs: list[VdCertificate],
    link_cert: VdCertificate,
    level: int,
) -> VdCertificate:
    """Certificate for G at `level` from certificates one level down.

    order must enumerate the open neighborhood of pivot; arm_certs[i] must
    certify G minus (closed neighborhood of order[i], plus order[:i]) and
    link_cert must certify G minus the closed neighborhood of pivot, all at
    level-1.  The construction peels order back-to-front and raises the
    isolated pivot on the stripped core.
    """
    if set(order) != set(G.neighbors(pivot)):
        raise VdError("order must enumerate the pivot's open neighborhood")
    if len(arm_certs) != len(order):
        raise VdError("one arm certificate per neighbor is required")
    if link_cert.level != level - 1 or any(c.level != level - 1 for c in arm_certs):
        raise VdError("all ingredient certificates must claim level-1")
    core = delete_vertices(G, order)
    cert = lift_isolated(core, pivot, link_cert)
    for u, arm in zip(reversed(order), reversed(arm_certs)):
        cert = Node(u, cert, arm, level)
    return cert


def build_certificate_degree_bound(G: Graph) -> VdCertificate:
    """Constructive certificate at level floor(n / 2*maxdeg).

    Follows the inductive peeling proof: fix the smallest-label pivot,
    recurse on the closed-neighborhood deletion and on the neighbor-chain
    deletions, then assemble.  A subgraph with at least k components is
    the leaf at level k, so an edgeless graph is one leaf at level n.
    """
    delta = G.max_degree()
    target = G.n // (2 * delta) if delta else G.n
    memo: dict[tuple[Graph, int], VdCertificate] = {}

    def build(H: Graph, k: int) -> VdCertificate:
        if component_count(H) >= k:
            return LeafComponents(k)
        key = (H, k)
        got = memo.get(key)
        if got is not None:
            return got
        v = H.vertices[0]
        order = sorted(H.neighbors(v))
        link_cert = build(delete_vertices(H, H.neighbors(v) | {v}), k - 1)
        arm_certs = []
        for i, u in enumerate(order):
            drop = (H.neighbors(u) | {u}) | set(order[:i])
            arm_certs.append(build(delete_vertices(H, drop), k - 1))
        cert = assemble_pivot_decomposition(H, v, order, arm_certs, link_cert, k)
        memo[key] = cert
        return cert

    return build(G, target)


def extract_certificate(trace):
    """Certificate for a complete removal trace, one Graph per residual."""
    P = product_graph(trace.graph, trace.q)
    table = trace.nodes
    cache = {}

    def certify(i):
        mask, level = table.residual[i], table.level[i]
        got = cache.get((mask, level))
        if got is not None:
            return got
        H = induced_subgraph(P, [v for v in P.vertices if mask >> v & 1])
        if component_count(H) >= level:
            cert = LeafComponents(level)
        else:
            *arms, (_, _, link) = trace.children(i)
            arm_certs = [certify(node) for _, _, node in arms]
            order = [w for w, _, _ in arms]
            cert = assemble_pivot_decomposition(H, table.pivot[i], order, arm_certs, certify(link), level)
        cache[mask, level] = cert
        return cert

    return certify(0)


# ---------------------------------------------------------------------------
# Certificate JSON walkers (reference for the unique-structure reader and writer)
# ---------------------------------------------------------------------------
#
# The writer and reader as they ran before certificate I/O followed unique
# subtrees: the writer formats every occurrence of a shared subtree again,
# and the reader walks the whole parsed tree of dicts.  The library must
# write the same text, read the same shared DAG, and raise the same message
# at the same path.

def certificate_to_json(cert: VdCertificate) -> str:
    parts: list[str] = []
    stack: list[object] = [cert]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, LeafComponents):
            parts.append(f'{{"leaf":"components","level":{item.level}}}')
        elif isinstance(item, Node):
            parts.append(f'{{"level":{item.level},"node":{{"del":')
            stack.append(f',"pivot":{item.pivot}}}}}')
            stack.append(item.link)
            stack.append(',"link":')
            stack.append(item.delete)
        else:
            raise CertificateError(f"cannot serialize {type(item).__name__}")
    return "".join(parts)


def _malformed(where, message: str) -> CertificateError:
    """Error at a reader position, given as a (step, parent) chain from the root."""
    steps = []
    while where is not None:
        step, where = where
        steps.append(step)
    path = "/".join(reversed(steps)) or "root"
    return CertificateError(f"certificate path {path}: {message}")


def certificate_from_obj(obj) -> VdCertificate:
    """Certificate from its nested JSON object, sharing equal subtrees.

    Structurally equal subtrees come back as one object: one LeafComponents
    per level, and one Node per (pivot, delete, link, level) over children
    that are already shared.  The result is a DAG that certificate_to_json
    expands to the same text, and on which verify_certificate checks each
    (subtree, subgraph) pair once.  Pivots and levels must be JSON integers;
    another leaf kind, or anything else malformed, raises CertificateError
    naming its path, as del/link steps from the root.
    """
    components: dict[int, LeafComponents] = {}
    nodes: dict[tuple[int, int, int, int], Node] = {}
    done: list[VdCertificate] = []
    # (JSON object, its path as a (step, parent) chain, and, once its
    # children are queued, the pivot node's body)
    stack: list[tuple[object, object, object]] = [(obj, None, None)]
    while stack:
        o, where, body = stack.pop()
        if body is not None:  # both children are read
            link = done.pop()
            delete = done.pop()
            level = o.get("level", link.level + 1)
            if type(level) is not int:
                raise _malformed(where, "node level must be an integer")
            key = (body["pivot"], id(delete), id(link), level)
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = Node(body["pivot"], delete, link, level)
            done.append(node)
            continue
        if type(o) is not dict:
            raise _malformed(where, "certificate JSON nodes must be objects")
        leaf = o.get("leaf")
        if leaf == "components":
            level = o.get("level")
            if type(level) is not int or level < 0:
                raise _malformed(where, "components leaf level must be a non-negative integer")
            done.append(components.setdefault(level, LeafComponents(level)))
        elif "node" in o:
            body = o["node"]
            if type(body) is not dict or "del" not in body or "link" not in body:
                raise _malformed(where, "pivot node needs an object with 'del' and 'link'")
            if type(body.get("pivot")) is not int:
                raise _malformed(where, "pivot must be an integer")
            stack.append((o, where, body))
            stack.append((body["link"], ("link", where), None))
            stack.append((body["del"], ("del", where), None))
        elif isinstance(leaf, str):
            raise _malformed(where, f"unrecognized leaf kind {quoted(leaf)}")
        else:
            raise _malformed(where, f"unrecognized certificate object with keys {quoted(sorted(o))}")
    if len(done) != 1:
        raise CertificateError("malformed certificate nesting")
    return done[0]


def certificate_from_json(text: str) -> VdCertificate:
    try:
        obj = json.loads(text)
    except RecursionError:
        raise CertificateError("certificate JSON is nested too deeply to read") from None
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # an integer past int()'s digit limit
        raise CertificateError(f"certificate JSON cannot be read: {exc}") from None
    return certificate_from_obj(obj)


# ---------------------------------------------------------------------------
# Trace JSON tree (reference for the row writer)
# ---------------------------------------------------------------------------
#
# RemovalTrace.to_obj as it ran before RemovalTrace.to_json wrote each node
# row straight to text: the whole trace as one tree of dicts and lists,
# which json.dumps then serialized.  The library must write the same bytes.
# It reads a trace only through its node table and children accessor, so
# it writes a RecordTrace of the record engine below as well.


def trace_to_obj(trace) -> dict:
    """The JSON form, where each product label becomes its (base, row) pair;
    the nodes are read through trace.nodes and trace.children."""
    G, q = trace.graph, trace.q
    pairs = [(v, r) for v in G.vertices for r in range(1, q + 1)]  # by label

    def squid_obj(s: Squid) -> dict:
        # ascending labels are the pairs in sorted order
        arms, body_rows, mask = [], [], s.mask
        while mask:
            low = mask & -mask
            base, row = pairs[low.bit_length() - 1]
            if base == s.body:
                body_rows.append(row)
            else:
                arms.append([base, row])
            mask ^= low
        return {
            "arms": arms,
            "body": s.body,
            "body_rows": body_rows,
            "hearts": [[s.body, r] for r in s.rows],
            "kind": s.kind,
            "rows": list(s.rows),
            "witness": s.witness,
        }

    table = trace.nodes
    node_objs = []
    for i, level in enumerate(table.level):
        children = trace.children(i)
        pivot = table.pivot[i]
        obj = {
            "children": [
                {"node": node, "squid": squid_obj(squid), "w": list(pairs[w])}
                for w, squid, node in children[:-1]
            ],
            "id": i,
            "level": level,
            "link": (
                None
                if not children
                else {"node": children[-1][2], "squid": squid_obj(children[-1][1])}
            ),
            "pivot": None if pivot is None else list(pairs[pivot]),
            "residual_size": table.residual[i].bit_count(),
        }
        if trace.kind == "dynamic":
            obj["block_row"] = table.block_row[i]
            rows = table.rows_used[i]
            obj["rows_used"] = None if rows is None else list(rows)
        node_objs.append(obj)
    return {
        "graph": {"edges": [list(e) for e in G.edges], "vertices": list(G.vertices)},
        "kind": trace.kind,
        "m": trace.m,
        "mode": trace.mode,
        "nodes": node_objs,
        "q": trace.q,
        "root": 0,
        "scheme": None if trace.scheme is None else trace.scheme.to_obj(),
    }


def trace_to_json(trace) -> str:
    return json.dumps(trace_to_obj(trace), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Record removal engine (reference for the node table)
# ---------------------------------------------------------------------------
#
# The removal engine as it ran before it filled a node table: a generator
# recursion on graphs.run that builds one Squid per child squid, one
# TraceChild per child and one TraceNode per node, and extraction walking
# those records.  The library's table must write the same trace text and
# extract the same certificate, and a budget must stop both at the same
# node.  RecordTrace gives the records the table's reading interface, so
# that trace_to_obj writes both.  record_run_dynamic skips the library's
# checks of the scheme, which callers meet.


class TraceChild(NamedTuple):
    squid: Squid
    node: "TraceNode"
    w: Optional[int] = None  # label of the neighbor consumed; None on the link child


class TraceNode(NamedTuple):
    level: int
    residual_mask: int
    pivot: Optional[int] = None
    arm_children: tuple[TraceChild, ...] = ()
    link_child: Optional[TraceChild] = None
    block_row: Optional[int] = None
    rows_used: Optional[tuple[int, ...]] = None


class RecordTrace:
    """A removal as TraceNode records, numbered in depth-first preorder
    from the root, read through a NodeTable and children as RemovalTrace is."""

    def __init__(self, graph, q, m, kind, root, mode="walk", scheme=None):
        self.graph, self.q, self.m, self.kind, self.root = graph, q, m, kind, root
        self.mode, self.scheme = mode, scheme
        seen, order, stack = set(), [], [root]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                order.append(node)
                link = () if node.link_child is None else (node.link_child,)
                stack += [child.node for child in reversed(node.arm_children + link)]
        ids = {id(node): i for i, node in enumerate(order)}
        self._children = [
            [(ch.w, ch.squid, ids[id(ch.node)]) for ch in node.arm_children + (node.link_child,)]
            if node.link_child is not None
            else []
            for node in order
        ]
        first = list(itertools.accumulate((len(c) for c in self._children), initial=0))
        dynamic = kind == "dynamic"
        self.nodes = NodeTable(
            [node.residual_mask for node in order],
            [node.level for node in order],
            [node.pivot for node in order],
            first,
            [c for children in self._children for _, _, c in children],
            [node.block_row for node in order] if dynamic else None,
            [node.rows_used for node in order] if dynamic else None,
        )

    def children(self, i):
        return self._children[i]


class _RecordEngine:
    def __init__(self, G: Graph, q: int, budget: Optional[int]):
        self.G, self.q = G, q
        self.view = MaskView(product_with_complete(G, q, budget))
        self.base_of = [G.vertices[lab // q] for lab in range(G.n * q)]
        self.row_of = [lab % q + 1 for lab in range(G.n * q)]

    def column_mask(self, label: int) -> int:
        return ((1 << self.q) - 1) << (label - label % self.q)

    def classify_link_squid(self, pivot_label: int, squid_mask: int) -> Squid:
        v, i = self.base_of[pivot_label], self.row_of[pivot_label]
        nbrs = self.G.neighbors(v)
        if nbrs:
            return Squid(body=v, kind="I", rows=(i,), mask=squid_mask, witness=min(nbrs))
        rest = squid_mask & ~(1 << pivot_label)
        if rest:
            j = self.row_of[(rest & -rest).bit_length() - 1]
            return Squid(body=v, kind="II", rows=(min(i, j), max(i, j)), mask=squid_mask)
        return Squid(body=v, kind="I", rows=(i,), mask=squid_mask, witness=None)

    def expand(self, mask: int, pivot_label: int):
        v, i = self.base_of[pivot_label], self.row_of[pivot_label]
        nb = self.view.nbr[pivot_label] & mask
        col_nb = nb & self.column_mask(pivot_label)
        arm_out = []
        prefix = 0
        verts = self.view.verts
        for w in mask_labels(verts, nb & ~col_nb) + mask_labels(verts, col_nb):
            prefix |= 1 << w
            squid_mask = (self.view.nbr[w] & mask) | prefix
            child_mask = mask & ~squid_mask
            if self.row_of[w] == i:
                squid = Squid(body=self.base_of[w], kind="I", rows=(i,), mask=squid_mask, witness=v)
            else:
                j = self.row_of[w]
                squid = Squid(body=v, kind="II", rows=(min(i, j), max(i, j)), mask=squid_mask)
            if self.column_mask(w) & child_mask:
                raise SquidError("engine invariant broken: body column survived removal")
            arm_out.append((w, squid, child_mask))
        link_mask = nb | (1 << pivot_label)
        link_squid = self.classify_link_squid(pivot_label, link_mask)
        link_child_mask = mask & ~link_mask
        if self.column_mask(pivot_label) & link_child_mask:
            raise SquidError("engine invariant broken: pivot column survived removal")
        return arm_out, link_squid, link_child_mask


def _record_remove(eng: _RecordEngine, m: int, pivot_rule, rows, budget: Optional[int]) -> TraceNode:
    spend = Budget(budget, DEFAULT_REMOVAL_BUDGET, "removal", "trace nodes").spend
    memo: dict[tuple, TraceNode] = {}

    def explore(mask: int, depth: int, rows):
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

    return run(explore(eng.view.full, 0, rows))


def record_run_df1(G: Graph, q: int, mode: str = "walk", budget=None, nodes=None) -> RecordTrace:
    """run_df1 on the record engine; budget and nodes as there."""
    if not df1_check(G, q, mode):
        raise SquidError(f"q={q} does not exceed the threshold {df1_threshold(G, mode)} for this graph")
    m = G.n

    def lowest(mask: int, depth: int, rows: None):
        if mask == 0:
            raise TheoremViolation(f"residual emptied with {m - depth} removal steps still to go")
        return (mask & -mask).bit_length() - 1, None, None

    root = _record_remove(_RecordEngine(G, q, budget), m, lowest, None, budget if nodes is None else nodes)
    return RecordTrace(G, q, m, "df1", root, mode)


def record_run_dynamic(G: Graph, q: int, scheme, budget=None, nodes=None) -> RecordTrace:
    """run_dynamic on the record engine, for a scheme run_dynamic accepts."""
    m = sum(scheme.sizes)
    cumulative = list(itertools.accumulate(scheme.sizes))
    eng = _RecordEngine(G, q, budget)
    row_masks = {r: sum(1 << lab for lab in range(r - 1, G.n * q, q)) for r in range(1, q + 1)}

    def block_pivot(mask: int, depth: int, rows: tuple[int, ...]):
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
        return (on_row & -on_row).bit_length() - 1, rows, row

    root = _record_remove(eng, m, block_pivot, (), budget if nodes is None else nodes)
    return RecordTrace(G, q, m, "dynamic", root, scheme=scheme)


def record_extract_certificate(trace: RecordTrace, budget=None) -> VdCertificate:
    """extract_certificate walking the TraceNode records, on the library's
    CertificateBuilder and pivot assembly."""
    view = MaskView(product_with_complete(trace.graph, trace.q, budget))
    builder = CertificateBuilder(view, budget)

    def certify(node: TraceNode):
        builder.budget.spend()
        certs = []
        for child in [ch.node for ch in node.arm_children] + [node.link_child.node]:
            certs.append(builder.known(child.residual_mask, child.level) or (yield certify(child)))
        link_cert = certs.pop()
        ws = [ch.w for ch in node.arm_children]
        cert = vd_assemble_pivot_decomposition(
            builder, node.residual_mask, node.pivot, ws, certs, link_cert, node.level
        )
        builder.memo[node.residual_mask, node.level] = cert
        return cert

    return builder.known(trace.root.residual_mask, trace.root.level) or run(certify(trace.root))


# ---------------------------------------------------------------------------
# Whole-parse trace reader (reference for the one-pass comparison)
# ---------------------------------------------------------------------------
#
# RemovalTrace.from_obj as it ran before RemovalTrace.from_json compared a
# parsed trace in one row pass: the rerun's text is compared with the
# object's canonical JSON, and a refusal walks the rerun's node rows again,
# one canonical dump per node, to find the node that differs.  It reuses
# the library's header check, rerun and field differences, so only the
# comparison is its own; RemovalTrace.from_json must end as it does on
# every text.


def trace_from_obj(obj, budget: Optional[int] = None):
    """The removal obj's header names, rerun, if obj is exactly its JSON form."""
    trace = _rerun(_header(obj), len(obj["nodes"]), budget)
    _trace_check_rerun(trace, obj)
    return trace


def _trace_writes(trace, text: str) -> bool:
    """Whether text is trace.to_json(), trailing whitespace aside."""
    head, tail = trace._head_and_tail()
    pos = len(head) if text.startswith(head) else -1
    for row in trace._node_rows():
        if pos < 0 or not text.startswith(row, pos):
            return False
        pos += len(row)
    return text.startswith(tail, pos) and not text[pos + len(tail) :].strip()


def _trace_check_rerun(trace, obj) -> None:
    """SquidError at the first header key or node where obj's canonical
    JSON differs from the rerun's text."""
    try:
        if _trace_writes(trace, _canonical(obj)):
            return
    except (TypeError, ValueError, RecursionError) as exc:
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


# ---------------------------------------------------------------------------
# Scheme top-up by whole-scheme revalidation
# ---------------------------------------------------------------------------


def build_scheme_revalidating(epsilon, N: int, delta: int, q: int, budget=None) -> SchemeBuild:
    """build_scheme with the top-up that the library's per-block check replaced.

    The library's initial blocks are topped up with one size-1 block at a
    time while the whole scheme passes validate_scheme, on a budget that
    counts the k terms first and then each block, as build_scheme's does.
    """
    blocks = Budget(budget, DEFAULT_SCHEME_BUDGET, "scheme", "blocks")
    try:  # a budget of 0 stops at the k >= 1 terms, once the parameters and the gate pass
        build_scheme(epsilon, N, delta, q, budget=0)
    except BudgetExceeded as stop:
        k = stop.used
    blocks.spend(k)
    built = build_scheme(epsilon, N, delta, q, budget=k + q)  # room for any top-up
    sizes = list(built.scheme.sizes[: built.blocks_initial])
    while sum(sizes) < N and len(sizes) < q:
        if not validate_scheme(sizes + [1], built.scheme.n, q, delta).ok:
            break
        blocks.spend()
        sizes.append(1)
    return built._replace(
        scheme=built.scheme._replace(sizes=tuple(sizes)),
        blocks_extended=len(sizes) - built.blocks_initial,
        coverage=sum(sizes),
    )


# ---------------------------------------------------------------------------
# Graph-space references for subgraphs, product labels and squids
# ---------------------------------------------------------------------------
#
# Vertex deletion, complete graphs, G x K_q as a Graph, the edge-list text
# of a Graph, product labels and the squid patterns on Graph objects and
# ProductVertex sets.  The library needs none of them: it works on label
# masks, and its trace reader checks a squid's fields but not its arm
# patterns.  Tests use them as references for the product and the paper's
# squid patterns, and the Graph-space oracles above build their subgraphs
# with them.


def delete_vertices(G: Graph, drop: Iterable[int]) -> Graph:
    """Induced subgraph on V(G) minus the given set; G is unchanged."""
    dropset = set(drop)
    unknown = dropset - set(G.vertices)
    if unknown:
        raise GraphError(f"cannot delete vertices not in the graph: {sorted(unknown)}")
    keep = [v for v in G.vertices if v not in dropset]
    keepset = set(keep)
    return Graph(keep, [(u, v) for u, v in G.edges if u in keepset and v in keepset])


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


def complete_graph(n: int) -> Graph:
    return Graph(range(n), itertools.combinations(range(n), 2))


def product_graph(G: Graph, q: int) -> Graph:
    """G x K_q as a Graph, on the labels of graphs.product_with_complete."""
    return cartesian_product(G, complete_graph(q))


def format_edgelist(G: Graph) -> str:
    """The edge-list text of G, from its Graph: graphs.product_edgelist's
    reference, and the writer of the tests' graph files."""
    if G.vertices != tuple(range(G.n)):
        raise GraphError("edge-list format requires vertex labels 0..n-1; relabel first")
    lines = [f"p {G.n} {G.m}"]
    lines.extend(f"e {u} {v}" for u, v in G.edges)
    return "\n".join(lines) + "\n"


class ProductVertex(NamedTuple):
    """Vertex of G x K_q: a base vertex of G and a row in 1..q."""

    base: int
    row: int


def product_label(G: Graph, q: int, pv: ProductVertex) -> int:
    """Integer label of (base, row) in G x K_q: index(base)*q + (row-1)."""
    if not 1 <= pv.row <= q:
        raise GraphError(f"row {pv.row} outside 1..{q}")
    try:
        a = G.vertices.index(pv.base)
    except ValueError:
        raise GraphError(f"base {pv.base} is not a vertex of G") from None
    return a * q + (pv.row - 1)


def product_vertices(G: Graph, q: int, mask: int) -> frozenset[ProductVertex]:
    """The (base, row) pairs whose product labels are set in mask."""
    return frozenset(
        ProductVertex(v, r)
        for v in G.vertices
        for r in range(1, q + 1)
        if mask >> product_label(G, q, ProductVertex(v, r)) & 1
    )


def squid_hearts(s: Squid) -> tuple[ProductVertex, ...]:
    """The squid's hearts: its body on each of its marked rows."""
    return tuple(ProductVertex(s.body, r) for r in s.rows)


def squid_arms(s: Squid, G: Graph, q: int) -> tuple[ProductVertex, ...]:
    """The squid's vertices outside its body column, sorted."""
    return tuple(sorted(pv for pv in product_vertices(G, q, s.mask) if pv.base != s.body))


def check_squid(s: Squid, G: Graph, q: int) -> None:
    """Raise SquidError unless s is a well-formed squid over G x K_q."""
    if s.body not in G:
        raise SquidError(f"body {s.body} is not a vertex of G")
    if s.mask < 0 or s.mask >> (G.n * q):
        raise SquidError(f"mask {s.mask} has labels outside the product")
    vertices = product_vertices(G, q, s.mask)
    for h in squid_hearts(s):
        if h not in vertices:
            raise SquidError(f"heart {h} is outside the squid's vertex set")
    arms = squid_arms(s, G, q)
    if s.kind == "I":
        if len(s.rows) != 1:
            raise SquidError("kind I squids mark exactly one row")
        (i,) = s.rows
        if s.witness is None:
            if arms:
                raise SquidError("kind I squids with arms need an adjacent witness")
        else:
            if s.body not in G.neighbors(s.witness):
                raise SquidError(f"witness {s.witness} is not adjacent to body {s.body}")
            allowed = G.neighbors(s.witness) | G.neighbors(s.body)
            for pv in arms:
                if pv.row != i or pv.base not in allowed:
                    raise SquidError(f"arm {pv} outside the kind I pattern")
    elif s.kind == "II":
        if len(s.rows) != 2 or not s.rows[0] < s.rows[1]:
            raise SquidError("kind II squids mark a row pair i < j")
        allowed = G.neighbors(s.body)
        for pv in arms:
            if pv.row not in s.rows or pv.base not in allowed:
                raise SquidError(f"arm {pv} outside the kind II pattern")
    else:
        raise SquidError(f"unknown squid kind {s.kind!r}")


def _product_neighbors(G: Graph, q: int, residual: frozenset[ProductVertex], pv: ProductVertex):
    out = set()
    for u in G.neighbors(pv.base):
        cand = ProductVertex(u, pv.row)
        if cand in residual:
            out.add(cand)
    for r in range(1, q + 1):
        if r != pv.row:
            cand = ProductVertex(pv.base, r)
            if cand in residual:
                out.add(cand)
    return out


def squid_admissible(
    squid: Squid, pivot: ProductVertex, residual: frozenset[ProductVertex], G: Graph, q: int
) -> bool:
    """Whether the squid fits one of the two admissible patterns at this pivot:

    (a) inside N((v,i)) union N((v,j)) for some residual (v,j) in the
        pivot's column, or
    (b) inside (N((v,i)) restricted to row i) union N((u,i)) for some
        residual row neighbor (u,i) with u adjacent to v,

    all neighborhoods taken in the residual.
    """
    if pivot not in residual:
        raise SquidError("pivot must lie in the residual")
    S = product_vertices(G, q, squid.mask)
    v, i = pivot
    piv_nb = _product_neighbors(G, q, residual, pivot)
    for r in range(1, q + 1):
        other = ProductVertex(v, r)
        if other in residual:
            if S <= piv_nb | _product_neighbors(G, q, residual, other):
                return True
    row_part = {pv for pv in piv_nb if pv.row == i}
    for u in G.neighbors(v):
        mate = ProductVertex(u, i)
        if mate in residual:
            if S <= row_part | _product_neighbors(G, q, residual, mate):
                return True
    return False
