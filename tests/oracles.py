"""Independent oracles for the test suite.

Each oracle is deliberately written against different data structures than
the library path it checks: certificate search runs on vertex frozensets
with naive label-order pivoting, the planar hull oracle does case
analysis on exact 2-D geometry (hull vertices and edge crossings) instead
of linear programming, and the homology oracle runs dense Gaussian
elimination on Fractions over faces enumerated straight from the facets.
"""

import itertools
from fractions import Fraction

from tvf.vd import LeafAny, LeafEdgeless, Node


def brute_certificate_search(G, k):
    """Exhaustive derivation-tree search straight off the definition."""
    adj = {v: frozenset(G.neighbors(v)) for v in G.vertices}
    memo = {}

    def rec(verts, kk):
        key = (verts, kk)
        if key in memo:
            return memo[key]
        if kk == 0:
            result = LeafAny()
        else:
            edgeless = all(adj[v].isdisjoint(verts) for v in verts)
            result = None
            if edgeless and len(verts) == kk:
                result = LeafEdgeless(tuple(sorted(verts)))
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
