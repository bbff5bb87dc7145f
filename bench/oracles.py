"""Output oracles that do not use tvf.

Each function takes a step's output (parsed JSON or text) plus the
benchmark's own description of the input and returns a list of failure
messages; an empty list means the output is correct.  The checks rest on
brute-force counting, exact Fraction arithmetic, and known results:

- Ind(C_n) and Ind(P_n) homotopy types (D. N. Kozlov, "Complexes of
  directed trees", JCTA 88, 1999): Ind(C_n) is two spheres S^(k-1) for
  n = 3k, S^(k-1) for n = 3k+1, S^k for n = 3k+2; Ind(P_n) is S^(k-1)
  for n = 3k-1 or 3k and contractible for n = 3k+1.
- Euler-Poincare: the alternating sum of reduced Betti numbers equals the
  reduced Euler characteristic, counted here over all independent sets.
- Tverberg's theorem: n >= (d+1)(q-1)+1 points always admit a q-partition.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from pathlib import Path

from inputs import BaseGraph, Point

VD_MAX = json.loads((Path(__file__).parent / "vd_max.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Independence complexes
# ---------------------------------------------------------------------------


def independent_set_counts(G: BaseGraph) -> list[int]:
    """counts[j] = number of independent j-sets of G (brute force, n <= 16)."""
    nbr = [0] * G.n
    for u, v in G.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    counts = [0] * (G.n + 1)

    def grow(start: int, chosen: int, blocked: int, size: int) -> None:
        counts[size] += 1
        for v in range(start, G.n):
            if not blocked >> v & 1:
                grow(v + 1, chosen | 1 << v, blocked | nbr[v], size + 1)

    grow(0, 0, 0, 0)
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def reduced_euler(counts: list[int], max_size: int | None = None) -> int:
    """Reduced Euler characteristic of the complex of sets of size <= max_size."""
    top = len(counts) - 1 if max_size is None else max_size
    return sum((1 if j % 2 else -1) * counts[j] for j in range(min(top, len(counts) - 1) + 1))


def known_betti(name: str, dim: int) -> list[int] | None:
    """Kozlov's reduced Betti vector (dims -1..dim) for Ind(C_n), Ind(P_n)."""
    family, n = name[0], int(name[1:]) if name[1:].isdigit() else -1
    if n < 0 or family not in "CP":
        return None
    k, r = divmod(n, 3)
    out = [0] * (dim + 2)
    if family == "C":
        sphere, copies = (k - 1, 2) if r == 0 else (k - 1, 1) if r == 1 else (k, 1)
    elif r == 1:
        return out  # contractible
    else:
        sphere, copies = (k - 1, 1) if r == 0 else (k, 1)
    out[sphere + 1] = copies
    return out


def check_vd_max(name: str, stdout: str) -> list[str]:
    try:
        got = int(stdout.strip())
    except ValueError:
        return [f"vd max printed {stdout.strip()!r}, not an integer"]
    want = VD_MAX[name]
    return [] if got == want else [f"vd max of {name} is {want}, tvf printed {got}"]


def check_betti(name: str, counts: list[int], report: dict) -> list[str]:
    nums = report.get("numbers")
    dim = len(counts) - 2  # largest independent set minus one
    if not isinstance(nums, list) or len(nums) != dim + 2 or report.get("dim") != dim:
        return [f"betti of Ind({name}): expected dims -1..{dim}, got {report}"]
    fails = []
    if any(not isinstance(b, int) or b < 0 for b in nums):
        fails.append(f"betti of Ind({name}): negative or non-integer entry {nums}")
    alternating = sum((1 if i % 2 else -1) * b for i, b in enumerate(nums))
    if alternating != reduced_euler(counts):
        fails.append(
            f"betti of Ind({name}): alternating sum {alternating} != reduced Euler "
            f"characteristic {reduced_euler(counts)}"
        )
    want = known_betti(name, dim)
    if want is not None and nums != want:
        fails.append(f"betti of Ind({name}) is {want} (Kozlov), tvf printed {nums}")
    return fails


def _is_shelling(facets: list[frozenset[int]]) -> bool:
    # F_i meets the earlier facets in a pure codimension-one complex iff every
    # earlier F_j misses some x in F_i for which F_i - {x} lies in an earlier facet.
    for i, F in enumerate(facets):
        free = {next(iter(F - E)) for E in facets[:i] if len(F & E) == len(F) - 1}
        if any(not (free - E) for E in facets[:i]):
            return False
    return True


def check_prop(G: BaseGraph, k: int, counts: list[int], report: dict) -> list[str]:
    fails = []
    if report.get("passed") is not True:
        fails.append(f"check-prop did not pass: {report.get('failures')}")
    if report.get("k") != k or report.get("dimension") != k - 1:
        fails.append(f"check-prop reports k={report.get('k')} dim={report.get('dimension')}")
    nums = report.get("betti") or []
    top = abs(reduced_euler(counts, k))
    if nums != [0] * k + [top]:
        fails.append(f"skeleton betti should be {[0] * k + [top]}, tvf printed {nums}")
    adj = G.adjacency()
    shelling = [frozenset(f) for f in report.get("shelling") or []]
    want = counts[k] if k < len(counts) else 0
    if len(shelling) != want or len(set(shelling)) != want:
        fails.append(f"shelling lists {len(shelling)} facets, the skeleton has {want}")
    elif any(len(F) != k or any(adj[u] & F for u in F) for F in shelling):
        fails.append("shelling contains a set that is not an independent k-set")
    elif not _is_shelling(shelling):
        fails.append("facet order is not a shelling")
    return fails


# ---------------------------------------------------------------------------
# Tverberg witnesses
# ---------------------------------------------------------------------------


def largest_prime_at_most(q: int) -> int:
    return max(p for p in range(2, q + 1) if all(p % d for d in range(2, p)))


def check_witness(G: BaseGraph, points: list[Point], q: int, obj: dict) -> list[str]:
    """Proper surjective q-coloring whose classes' hulls share the common point."""
    try:
        coloring = {int(v): int(c) for v, c in obj["coloring"]}
        point = tuple(Fraction(x) for x in obj["common_point"])
        bary = {int(c): {int(v): Fraction(lam) for v, lam in pairs} for c, pairs in obj["barycentric"]}
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed witness: {exc}"]
    if set(coloring) != set(range(G.n)):
        return ["coloring does not cover exactly the vertex set"]
    if set(coloring.values()) != set(range(1, q + 1)):
        return [f"coloring does not use exactly the colors 1..{q}"]
    if any(coloring[u] == coloring[v] for u, v in G.edges):
        return ["coloring is not proper"]
    for c in range(1, q + 1):
        members = {v for v, cv in coloring.items() if cv == c}
        lams = bary.get(c, {})
        if set(lams) != members:
            return [f"class {c}: coefficients are not indexed by its vertices"]
        if any(lam < 0 for lam in lams.values()) or sum(lams.values()) != 1:
            return [f"class {c}: coefficients are not convex"]
        for i in range(len(point)):
            if sum(lam * points[v][i] for v, lam in lams.items()) != point[i]:
                return [f"class {c}: combination misses the common point"]
    return []


def _line(p: Point, r: Point) -> tuple[int, int, int]:
    a, b = r[1] - p[1], p[0] - r[0]
    return a, b, a * p[0] + b * p[1]


def no_four_partition(points: list[Point]) -> bool:
    """Exact proof that 9 planar points admit no 4-part Tverberg partition.

    Parts of sizes (1, ...) force a repeated point or three collinear
    points, so only (3,2,2,2) remains, whose three segments would meet in
    one point.  Hence no three collinear points and no three concurrent
    lines through disjoint pairs rule out every partition.
    """
    if len(points) != 9 or len(set(points)) != 9:
        return False
    for p, r, s in itertools.combinations(points, 3):
        if (r[0] - p[0]) * (s[1] - p[1]) - (r[1] - p[1]) * (s[0] - p[0]) == 0:
            return False
    idx = range(9)
    for a, b in itertools.combinations(idx, 2):
        for c, d in itertools.combinations([i for i in idx if i not in (a, b)], 2):
            a1, b1, c1 = _line(points[a], points[b])
            a2, b2, c2 = _line(points[c], points[d])
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x = Fraction(c1 * b2 - c2 * b1, det)
            y = Fraction(a1 * c2 - a2 * c1, det)
            for e, f in itertools.combinations([i for i in idx if i not in (a, b, c, d)], 2):
                a3, b3, c3 = _line(points[e], points[f])
                if a3 * x + b3 * y == c3:
                    return False
    return True


def check_refutation(points: list[Point], code: int, obj: dict) -> list[str]:
    fails = []
    if code != 1 or obj.get("witness", "missing") is not None:
        fails.append(f"expected exit 1 and a null witness, got exit {code}")
    if not no_four_partition(points):
        fails.append("instance is not provably free of 4-partitions")
    return fails


def check_corollary(G: BaseGraph, points: list[Point], q: int, eps: Fraction, obj: dict) -> list[str]:
    d = 2
    qp = largest_prime_at_most(q)
    target = int(((d + 1) * (qp - 1) + 1) * (1 + eps))
    fails = []
    if obj.get("q_prime") != qp or obj.get("subgraph_vertices") != list(range(target)):
        fails.append(f"expected q_p={qp} on vertices 0..{target - 1}")
        return fails
    # the two K_eps gates are hypotheses reported as they are; these are claims
    passed = {c.get("name"): c.get("passed") for c in obj.get("checks", [])}
    claims = ("graph_has_the_stated_size", "subgraph_size_available",
              "witness_found_for_prime_instance", "q_exceeds_delta", "extension_proper")
    if G.n != int(((d + 1) * (q - 1) + 1) * (1 + eps)):
        fails.append(f"instance does not have the stated size for q={q}")
    if any(passed.get(name) is not True for name in claims):
        fails.append(f"checks not passed: {[n for n in claims if passed.get(n) is not True]}")
    sub = BaseGraph(G.name, target, tuple(e for e in G.edges if max(e) < target))
    if "witness" not in obj:
        return fails + ["no witness on the prime instance"]
    fails += check_witness(sub, points[:target], qp, obj["witness"])
    ext = dict(obj.get("extended_coloring") or [])
    if set(ext) != set(range(G.n)) or any(not 1 <= c <= q for c in ext.values()):
        fails.append("extended coloring does not color every vertex with 1..q")
    elif any(ext[u] == ext[v] for u, v in G.edges):
        fails.append("extended coloring is not proper")
    elif any(ext[v] != c for v, c in obj["witness"]["coloring"]):
        fails.append("extended coloring changes the witness coloring")
    return fails
