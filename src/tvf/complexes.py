"""Simplicial complexes stored by their facets, and the checks built on them.

Covers independence complexes, skeleta, links and deletions, vertex
decomposability with shelling-order extraction, an independent shelling
validator, and reduced rational Betti numbers.

A complex keeps its facets as int masks over a sorted tuple of vertex
labels, the way vd.MaskView keeps induced subgraphs: bit i is the i-th
label.  Only facet lists given from outside (the constructor, so
parse_facets) and the shrunk faces f - v of a deletion are tested for
containment.  Every other result is an antichain by construction:
Bron-Kerbosch emits only maximal sets, a skeleton's facets are the
(k+1)-subsets of its larger facets plus its smaller ones, and a link's
facets are f - v for the facets f through v.  A link or deletion keeps its
parent's label tuple, so the decomposability search memoizes on the sorted
mask tuple.  That search answers at once for a disconnected pure complex
of dimension at least 1: it is not shellable, so not vertex decomposable
(Provan-Billera 1980).

The Betti numbers come from boundary-matrix ranks over Q, computed by
sparse exact elimination on integer columns of face masks, so only facets,
shellings and the facets text are in labels.  Generated faces,
independence-complex facets and decomposability memo entries each have a
budget, 2e6 by default; Bron-Kerbosch, on the graph's own masks, and the
decomposability search run on graphs.run's stack.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from math import gcd
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import Budget, ComplexError, int_token
from .graphs import Graph, bits, mask_labels, run

DEFAULT_FACE_BUDGET = 2_000_000

Face = tuple[int, ...]


def _union(masks: Iterable[int]) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def _maximal(masks: Iterable[int]) -> tuple[int, ...]:
    """The inclusion-maximal masks among masks, sorted; (0,) if there are none.

    A mask is tested only against kept masks of larger size, since distinct
    sets of one size cannot nest.
    """
    kept: list[int] = []
    larger: list[int] = []
    size = -1
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if m.bit_count() != size:
            size, larger = m.bit_count(), kept[:]
        if all(m & ~t for t in larger):
            kept.append(m)
    return tuple(sorted(kept)) or (0,)


class SimplicialComplex:
    """Immutable complex; only the inclusion-maximal faces are stored.

    The empty face is always present, so the smallest complex is {<empty>}
    (facet list containing just the empty tuple).  Facets are held as the
    sorted int masks _masks over the sorted labels _verts, which may name
    labels no facet uses (a link or deletion keeps its parent's labels).
    """

    __slots__ = ("_verts", "_masks", "_facets")

    def __init__(self, faces: Iterable[Iterable[int]] = ()):
        sets = [frozenset(f) for f in faces]
        verts = tuple(sorted(frozenset().union(*sets)))
        index = {v: i for i, v in enumerate(verts)}
        self._verts = verts
        self._masks = _maximal(sum(1 << index[v] for v in s) for s in sets)
        self._facets: Optional[tuple[Face, ...]] = None

    @classmethod
    def _of(cls, verts: tuple[int, ...], masks: tuple[int, ...]) -> "SimplicialComplex":
        """The complex whose facets are masks over verts, a sorted antichain."""
        S = cls.__new__(cls)
        S._verts, S._masks, S._facets = verts, masks, None
        return S

    @property
    def facets(self) -> tuple[Face, ...]:
        if self._facets is None:
            self._facets = tuple(sorted(mask_labels(self._verts, m) for m in self._masks))
        return self._facets

    @property
    def vertices(self) -> tuple[int, ...]:
        return mask_labels(self._verts, _union(self._masks))

    @property
    def dim(self) -> int:
        return max(m.bit_count() for m in self._masks) - 1

    def is_pure(self) -> bool:
        return len({m.bit_count() for m in self._masks}) == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        if self._verts == other._verts:
            return self._masks == other._masks
        return self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        return f"SimplicialComplex(facets={len(self._masks)}, dim={self.dim})"


def faces_by_dim(S: SimplicialComplex, budget: Optional[int] = None) -> dict[int, tuple[int, ...]]:
    """All faces as sorted masks over S's labels, grouped by dimension
    (including the empty face at -1); budget counts each subset of each facet."""
    b = Budget(budget, DEFAULT_FACE_BUDGET, "face", "faces")
    seen: set[int] = set()
    for m in S._masks:
        sub = m
        for _ in range(1 << m.bit_count()):  # the submasks of m, from m down to 0
            b.spend()
            seen.add(sub)
            sub = (sub - 1) & m
    out: dict[int, list[int]] = {}
    for f in seen:
        out.setdefault(f.bit_count() - 1, []).append(f)
    return {d: tuple(sorted(fs)) for d, fs in sorted(out.items())}


def skeleton(S: SimplicialComplex, k: int, budget: Optional[int] = None) -> SimplicialComplex:
    """Faces of dimension at most k."""
    if k < -1:
        raise ComplexError(f"skeleton dimension must be >= -1, got {k}")
    if k >= S.dim:
        return S
    b = Budget(budget, DEFAULT_FACE_BUDGET, "face", "faces")
    masks: set[int] = set()
    for m in S._masks:
        if m.bit_count() <= k + 1:
            masks.add(m)
        else:
            for combo in itertools.combinations(bits(m), k + 1):
                b.spend()
                masks.add(sum(combo))  # distinct bits: the sum is the union
    return SimplicialComplex._of(S._verts, tuple(sorted(masks)))


def _vertex_bit(S: SimplicialComplex, v: int) -> int:
    i = bisect_left(S._verts, v)
    bit = 1 << i
    if i == len(S._verts) or S._verts[i] != v or not any(m & bit for m in S._masks):
        raise ComplexError(f"vertex {v} is not in the complex")
    return bit


def link(S: SimplicialComplex, v: int) -> SimplicialComplex:
    """Faces not containing v whose union with v is a face."""
    bit = _vertex_bit(S, v)
    # f - v for the facets f through v: sorted and maximal, as S's facets are
    return SimplicialComplex._of(S._verts, tuple(m ^ bit for m in S._masks if m & bit))


def deletion(S: SimplicialComplex, v: int) -> SimplicialComplex:
    """Faces not containing v."""
    bit = _vertex_bit(S, v)
    # only a shrunk face f - v may lie in another facet, and then in one without v
    keep = [m for m in S._masks if not m & bit]
    shrunk = [m ^ bit for m in S._masks if m & bit and all((m ^ bit) & ~g for g in keep)]
    return SimplicialComplex._of(S._verts, tuple(sorted(keep + shrunk)))


# ---------------------------------------------------------------------------
# Independence complexes
# ---------------------------------------------------------------------------


def _maximal_independent_sets(G: Graph, budget: Budget) -> list[int]:
    # Bron-Kerbosch with pivoting on the complement graph, on bitmasks: bit i
    # is the i-th smallest label, and the pivot is the vertex of maybe or
    # exclude with the most non-neighbors in maybe, the lowest on ties.
    full = (1 << G.n) - 1
    nonadj = [full & ~(m | 1 << i) for i, m in enumerate(G.nbr)]
    out: list[int] = []

    def grow(include: int, maybe: int, exclude: int):
        if not maybe and not exclude:
            budget.spend()
            out.append(include)
            return
        best = -1
        for low in bits(maybe | exclude):
            i = low.bit_length() - 1
            score = (nonadj[i] & maybe).bit_count()
            if score > best:
                best, pivot = score, i
        for low in bits(maybe & ~nonadj[pivot]):
            i = low.bit_length() - 1
            yield grow(include | low, maybe & nonadj[i], exclude & nonadj[i])
            maybe &= ~low
            exclude |= low

    run(grow(0, full, 0))
    del grow
    return out


def independence_complex(G: Graph, budget: Optional[int] = None) -> SimplicialComplex:
    """Complex whose faces are the independent vertex sets of G; budget bounds its facets."""
    if G.n == 0:
        return SimplicialComplex()
    b = Budget(budget, DEFAULT_FACE_BUDGET, "facet", "facets")
    return SimplicialComplex._of(G.vertices, tuple(sorted(_maximal_independent_sets(G, b))))


# ---------------------------------------------------------------------------
# Vertex decomposability and shellings
# ---------------------------------------------------------------------------


class VertexDecomposition(NamedTuple):
    ok: bool
    shelling: Optional[tuple[Face, ...]] = None

    def __bool__(self) -> bool:
        return self.ok


def _connected(masks: tuple[int, ...]) -> bool:
    """Whether the facets masks, all nonempty, form one connected complex."""
    reached, rest = masks[0], masks[1:]
    while rest:
        left = []
        for m in rest:
            if m & reached:
                reached |= m
            else:
                left.append(m)
        if len(left) == len(rest):
            return False
        rest = left
    return True


def _vd_shelling(
    S: SimplicialComplex, memo: dict[tuple[int, ...], Optional[tuple[int, ...]]], budget: Budget
):
    """Generator for run: a shelling from a vertex decomposition of S, as
    masks over S's labels, or None.  Memo keys are facet mask tuples."""
    masks = S._masks
    if masks in memo:
        return memo[masks]
    budget.spend()  # for the memo entry S gets below
    result: Optional[tuple[int, ...]] = None
    sizes = {m.bit_count() for m in masks}
    if len(sizes) == 1:
        size = sizes.pop()
        if size == 0:
            result = (0,)
        # A disconnected pure complex of dimension >= 1 is not shellable, so
        # not vertex decomposable (Provan-Billera 1980): it stays None.
        elif size == 1 or _connected(masks):
            for bit in bits(_union(masks)):
                v = S._verts[bit.bit_length() - 1]
                dl = deletion(S, v)
                shell_dl = yield _vd_shelling(dl, memo, budget)
                if shell_dl is None:
                    continue
                shell_lk = yield _vd_shelling(link(S, v), memo, budget)
                if shell_lk is None:
                    continue
                joined = tuple(m | bit for m in shell_lk)
                if all(m & bit for m in masks):
                    # v lies in every facet: the deletion contributes nothing
                    result = joined
                else:
                    result = shell_dl + joined
                break
    memo[masks] = result
    return result


def is_vertex_decomposable(
    S: SimplicialComplex, budget: Optional[int] = None
) -> VertexDecomposition:
    """Exhaustive test of the recursive definition, memoized within the call.

    On success the returned shelling lists the deletion's facets before the
    link's facets joined with the pivot, recursively (the usual way a
    decomposition is turned into a shelling order).  budget bounds the memo
    entries, one per complex searched.  A disconnected pure complex of
    dimension at least 1 is refuted without a search.
    """
    b = Budget(budget, DEFAULT_FACE_BUDGET, "decomposition", "memo entries")
    shelling = run(_vd_shelling(S, {}, b))
    if shelling is None:
        return VertexDecomposition(False)
    return VertexDecomposition(True, tuple(mask_labels(S._verts, m) for m in shelling))


class ShellingCheck(NamedTuple):
    ok: bool
    index: Optional[int] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_shelling(order: Sequence[Iterable[int]]) -> ShellingCheck:
    """Validate a facet order: every new facet must meet the union of its
    predecessors in a nonempty pure subcomplex of codimension one (facets of
    dimension 0 meet it in the empty face, which counts).

    With facets as masks, the meets of f with earlier facets are pure of
    codimension one when each meet m misses a vertex x of f such that f - x
    is itself a meet.
    """
    facets = [tuple(sorted(set(f))) for f in order]
    if not facets:
        return ShellingCheck(False, None, "empty facet order")
    if len(set(facets)) != len(facets):
        return ShellingCheck(False, None, "repeated facet")
    size = len(facets[0])
    for i, f in enumerate(facets):
        if len(f) != size:
            return ShellingCheck(False, i, "facets of different dimensions")
    index = {v: i for i, v in enumerate(sorted({v for f in facets for v in f}))}
    masks = [sum(1 << index[v] for v in f) for f in facets]
    for i in range(1, len(masks)):
        f = masks[i]
        meets = {f & masks[j] for j in range(i)}
        ridges = 0
        for x in bits(f):
            if f ^ x in meets:
                ridges |= x
        if not all(f & ~m & ridges for m in meets):
            return ShellingCheck(
                False, i, "intersection with earlier facets is not pure of codimension 1"
            )
    return ShellingCheck(True)


# ---------------------------------------------------------------------------
# Rational homology
# ---------------------------------------------------------------------------


class BettiVector(NamedTuple):
    """Reduced rational Betti numbers, indexed from dimension -1."""

    numbers: tuple[int, ...]

    def __getitem__(self, dim: int) -> int:
        i = dim + 1
        if 0 <= i < len(self.numbers):
            return self.numbers[i]
        return 0


def _clear(v: dict[int, int], p: dict[int, int], k: int) -> dict[int, int]:
    """s*v - t*p with row k cleared, for the least s > 0 keeping it integral.

    A unit pivot gives s == 1 and updates v in place; otherwise this is the
    fraction-free step, and the result is divided by its content.
    """
    g = gcd(v[k], p[k])
    s, t = p[k] // g, v[k] // g
    if s < 0:
        s, t = -s, -t
    if s != 1:
        v = {r: s * x for r, x in v.items()}
    for r, x in p.items():
        y = v.get(r, 0) - t * x
        if y:
            v[r] = y
        else:
            del v[r]
    if s != 1:
        content = gcd(*v.values())
        if content > 1:
            v = {r: x // content for r, x in v.items()}
    return v


def _boundary_rank(lower: Sequence[int], upper: Sequence[int]) -> int:
    """Rank over Q of the boundary map from the face masks in upper to those in lower.

    Each face becomes a sparse integer column {row: +-1}: dropping its bit
    of rank i (lowest first) gives the row of sign (-1)**i.  It is reduced
    against pivot columns keyed by their leading (largest) row until its
    leading row is free.  Pivots are linearly independent, so their number
    is the rank.  When a stored pivot's leading entry is not a unit but the
    incoming column's is, the two swap places, so a pivot row holds a unit
    whenever some column offered one there and most steps need no scaling.
    """
    if not lower or not upper:
        return 0
    index = {f: i for i, f in enumerate(lower)}
    pivots: dict[int, dict[int, int]] = {}
    for face in upper:
        v = {index[face ^ low]: -1 if i & 1 else 1 for i, low in enumerate(bits(face))}
        while v:
            k = max(v)
            p = pivots.get(k)
            if p is None:
                pivots[k] = v
                break
            if abs(p[k]) != 1 and abs(v[k]) == 1:
                pivots[k], v, p = v, p, v
            v = _clear(v, p, k)
    return len(pivots)


def betti(S: SimplicialComplex, budget: Optional[int] = None) -> BettiVector:
    """Reduced Betti numbers over the rationals, dimensions -1..dim.

    Boundary ranks come from sparse exact elimination over the integers
    (see _boundary_rank); only face enumeration is budgeted.
    """
    by_dim = faces_by_dim(S, budget)
    top = S.dim
    ranks: dict[int, int] = {}
    for d in range(0, top + 1):
        ranks[d] = _boundary_rank(by_dim.get(d - 1, ()), by_dim.get(d, ()))
    numbers = []
    for d in range(-1, top + 1):
        free = len(by_dim.get(d, ()))
        numbers.append(free - ranks.get(d, 0) - ranks.get(d + 1, 0))
    return BettiVector(tuple(numbers))


# ---------------------------------------------------------------------------
# Cross-check of a graph-level certificate against the complex picture
# ---------------------------------------------------------------------------


class SkeletonReport(NamedTuple):
    """Outcome of the pure/decomposable/homology checks for one (G, k)."""

    k: int
    passed: bool
    pure: bool
    expected_dim: int
    actual_dim: int
    decomposable: bool
    shelling_valid: bool
    betti_concentrated: bool
    betti_numbers: BettiVector
    shelling: Optional[tuple[Face, ...]] = None
    failures: tuple[str, ...] = ()


def check_prop_isvd(G: Graph, k: int, budget: Optional[int] = None) -> SkeletonReport:
    """For a graph at level k, audit the (k-1)-skeleton of its independence
    complex: purity in the right dimension, vertex decomposability with a
    validated shelling, and reduced homology vanishing below the top degree.
    budget, if not None, replaces the default limit of every budget counted.
    """
    from .vd import VdError, is_vd

    if k < 0:
        raise VdError(f"level must be non-negative, got {k}")
    if not is_vd(G, k, budget):
        raise VdError(f"graph is not at level {k}; the cross-check does not apply")
    skel = skeleton(independence_complex(G, budget), k - 1, budget)
    failures: list[str] = []
    pure = skel.is_pure()
    actual_dim = skel.dim
    if not pure:
        failures.append("skeleton is not pure")
    if actual_dim != k - 1:
        failures.append(f"skeleton dimension {actual_dim}, expected {k - 1}")
    decomposition = is_vertex_decomposable(skel, budget)
    if not decomposition.ok:
        failures.append("skeleton is not vertex decomposable")
    shelling_valid = False
    if decomposition.shelling is not None:
        shelling_valid = bool(check_shelling(decomposition.shelling))
        if not shelling_valid:
            failures.append("emitted shelling order fails the shelling validator")
    b = betti(skel, budget)
    concentrated = all(b[d] == 0 for d in range(-1, k - 1))
    if not concentrated:
        failures.append("reduced Betti numbers do not vanish below the top degree")
    return SkeletonReport(
        k=k,
        passed=not failures,
        pure=pure,
        expected_dim=k - 1,
        actual_dim=actual_dim,
        decomposable=decomposition.ok,
        shelling_valid=shelling_valid,
        betti_concentrated=concentrated,
        betti_numbers=b,
        shelling=decomposition.shelling,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# Facet-list text format: one facet per line, space-separated labels;
# blank lines and "#" comments ignored; an empty file is the {<empty>} complex.
# ---------------------------------------------------------------------------


def parse_facets(text: str) -> SimplicialComplex:
    facets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        facets.append([int_token(t, lineno, ComplexError, "an integer label") for t in line.split()])
    return SimplicialComplex(facets)


def format_facets(S: SimplicialComplex) -> str:
    lines = [" ".join(str(v) for v in f) for f in S.facets if f]
    return "\n".join(lines) + ("\n" if lines else "")
