"""Simplicial complexes stored by their facets, and the checks built on them.

Covers independence complexes, skeleta, links and deletions, vertex
decomposability with shelling-order extraction, an independent shelling
validator, and reduced rational Betti numbers.  The Betti numbers come from
boundary-matrix ranks over Q, computed by sparse exact elimination on
integer columns.  Generated faces, independence-complex facets and
decomposability memo entries each have a budget, 2e6 by default; the
Bron-Kerbosch and decomposability searches run on graphs.run's stack.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import Budget, ComplexError
from .graphs import Graph, neighbor_masks, run

DEFAULT_FACE_BUDGET = 2_000_000

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


def faces_by_dim(S: SimplicialComplex, budget: Optional[int] = None) -> dict[int, tuple[Face, ...]]:
    """All faces grouped by dimension (including the empty face at -1)."""
    b = Budget(budget, DEFAULT_FACE_BUDGET, "face", "faces")
    seen: set[Face] = set()
    for facet in S.facets:
        for r in range(len(facet) + 1):
            for combo in itertools.combinations(facet, r):
                b.spend()
                seen.add(combo)
    out: dict[int, list[Face]] = {}
    for f in seen:
        out.setdefault(len(f) - 1, []).append(f)
    return {d: tuple(sorted(fs)) for d, fs in sorted(out.items())}


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


# ---------------------------------------------------------------------------
# Independence complexes
# ---------------------------------------------------------------------------


def _maximal_independent_sets(G: Graph, budget: Budget) -> list[frozenset[int]]:
    # Bron-Kerbosch with pivoting on the complement graph, on bitmasks: bit i
    # is the i-th smallest label, and the pivot is the vertex of maybe or
    # exclude with the most non-neighbors in maybe, the lowest on ties.
    verts, _, nbr = neighbor_masks(G)
    full = (1 << len(verts)) - 1
    nonadj = [full & ~(m | 1 << i) for i, m in enumerate(nbr)]
    out: list[frozenset[int]] = []

    def bits(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def grow(include: int, maybe: int, exclude: int):
        if not maybe and not exclude:
            budget.spend()
            out.append(frozenset(verts[i] for i in bits(include)))
            return
        best = -1
        for i in bits(maybe | exclude):
            score = (nonadj[i] & maybe).bit_count()
            if score > best:
                best, pivot = score, i
        for i in bits(maybe & ~nonadj[pivot]):
            yield grow(include | 1 << i, maybe & nonadj[i], exclude & nonadj[i])
            maybe &= ~(1 << i)
            exclude |= 1 << i

    run(grow(0, full, 0))
    return out


def independence_complex(G: Graph, budget: Optional[int] = None) -> SimplicialComplex:
    """Complex whose faces are the independent vertex sets of G; budget bounds its facets."""
    if G.n == 0:
        return SimplicialComplex()
    b = Budget(budget, DEFAULT_FACE_BUDGET, "facet", "facets")
    return SimplicialComplex(_maximal_independent_sets(G, b))


# ---------------------------------------------------------------------------
# Vertex decomposability and shellings
# ---------------------------------------------------------------------------


class VertexDecomposition(NamedTuple):
    ok: bool
    shelling: Optional[tuple[Face, ...]] = None

    def __bool__(self) -> bool:
        return self.ok


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


class ShellingCheck(NamedTuple):
    ok: bool
    index: Optional[int] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


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


def _boundary_rank(lower: Sequence[Face], upper: Sequence[Face]) -> int:
    """Rank over Q of the boundary map from the faces in upper to those in lower.

    Each face becomes a sparse integer column {row: +-1}, which is reduced
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
        v = {index[face[:i] + face[i + 1 :]]: -1 if i & 1 else 1 for i in range(len(face))}
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
        try:
            facets.append(tuple(int(x) for x in line.split()))
        except ValueError:
            raise ComplexError(
                f"line {lineno}: expected integer vertex labels, got {line!r}"
            ) from None
    return SimplicialComplex(facets)


def format_facets(S: SimplicialComplex) -> str:
    lines = [" ".join(str(v) for v in f) for f in S.facets if f]
    return "\n".join(lines) + ("\n" if lines else "")
