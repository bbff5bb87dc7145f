"""Exact search for constrained Tverberg partitions of rational point sets.

A constraint graph G forbids same-colored adjacent vertices; a witness is a
proper q-coloring plus a rational point lying in the convex hull of every
color class, certified by explicit convex coefficients.  All feasibility
questions are decided by an exact rational LP, a returned witness has
been re-verified by substitution (verify_witness), and a "none" is
definitive.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

# Bound as a module, not by name: under the CLI's lazy layers
# tverberg search then never load schemes.
from . import schemes
from .errors import BudgetExceeded, TverbergError
from .graphs import Graph, induced_subgraph
from .ratlp import solve_equality_feasibility

DEFAULT_SEARCH_BUDGET = 1_000_000

Point = tuple[Fraction, ...]


def tverberg_number(d: int, q: int) -> int:
    """(d+1)*(q-1)+1, the tight vertex count for q parts in dimension d."""
    if d < 1 or q < 2:
        raise TverbergError(f"need d >= 1 and q >= 2, got d={d}, q={q}")
    return (d + 1) * (q - 1) + 1


# ---------------------------------------------------------------------------
# Point configurations
# ---------------------------------------------------------------------------


class _PointFields(NamedTuple):
    # PointConfiguration's fields; a NamedTuple body may not define the
    # __new__ that checks them, so the subclass below does
    dimension: int
    points: dict[int, Point]


class PointConfiguration(_PointFields):
    """Rational points in R^d indexed by graph vertices."""

    __slots__ = ()

    def __new__(cls, dimension: int, points: dict[int, Point]):
        if dimension < 1:
            raise TverbergError(f"dimension must be >= 1, got {dimension}")
        for v, p in points.items():
            if len(p) != dimension:
                raise TverbergError(f"point for vertex {v} has {len(p)} coordinates")
        return super().__new__(cls, dimension, points)

    def restrict(self, vertices: Iterable[int]) -> "PointConfiguration":
        keep = set(vertices)
        missing = keep - set(self.points)
        if missing:
            raise TverbergError(f"no points for vertices {sorted(missing)}")
        return PointConfiguration(self.dimension, {v: self.points[v] for v in sorted(keep)})


def parse_points(text: str) -> PointConfiguration:
    """Line format: "<vertex> <x_1> ... <x_d>", rationals as "p/q" or integers."""
    points: dict[int, Point] = {}
    dim: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise TverbergError(f"line {lineno}: expected '<vertex> <coords...>'")
        try:
            v = int(parts[0])
        except ValueError:
            raise TverbergError(
                f"line {lineno}: expected an integer vertex, got {parts[0]!r}"
            ) from None
        try:
            coords = tuple(Fraction(tok) for tok in parts[1:])
        except (ValueError, ZeroDivisionError):
            raise TverbergError(
                f"line {lineno}: expected rational coordinates, got {line!r}"
            ) from None
        if dim is None:
            dim = len(coords)
        elif len(coords) != dim:
            raise TverbergError(f"line {lineno}: expected {dim} coordinates")
        if v in points:
            raise TverbergError(f"line {lineno}: repeated vertex {v}")
        points[v] = coords
    if dim is None:
        raise TverbergError("no points given")
    return PointConfiguration(dim, points)


# ---------------------------------------------------------------------------
# Exact hull intersection
# ---------------------------------------------------------------------------


class HullWitness(NamedTuple):
    point: Point
    coefficients: tuple[tuple[Fraction, ...], ...]  # per part, aligned with its points


def hulls_intersect(parts: Sequence[Sequence[Point]]) -> Optional[HullWitness]:
    """Common point of the convex hulls of the parts, or None (both exact).

    Solved as rational LP feasibility in the convex coefficients: one
    convexity row per part, and coordinate-equality rows tying every part's
    combination to the first part's.
    """
    if not parts or any(not part for part in parts):
        raise TverbergError("every part must be a nonempty point set")
    dim = len(parts[0][0])
    for part in parts:
        for p in part:
            if len(p) != dim:
                raise TverbergError("all points must share one dimension")
    offsets = []
    total = 0
    for part in parts:
        offsets.append(total)
        total += len(part)
    rows: list[list[Fraction | int]] = []
    rhs: list[int] = []
    for c, part in enumerate(parts):
        row = [0] * total
        for t in range(len(part)):
            row[offsets[c] + t] = 1
        rows.append(row)
        rhs.append(1)
    for c in range(1, len(parts)):
        for i in range(dim):
            row = [0] * total
            for t, p in enumerate(parts[c]):
                row[offsets[c] + t] = p[i]
            for t, p in enumerate(parts[0]):
                row[offsets[0] + t] -= p[i]
            rows.append(row)
            rhs.append(0)
    sol = solve_equality_feasibility(rows, rhs)
    if sol is None:
        return None
    coeffs = tuple(
        tuple(sol[offsets[c] + t] for t in range(len(part))) for c, part in enumerate(parts)
    )
    point = tuple(
        sum((lam * p[i] for lam, p in zip(coeffs[0], parts[0])), Fraction(0)) for i in range(dim)
    )
    return HullWitness(point, coeffs)


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------


class TverbergWitness(NamedTuple):
    coloring: dict[int, int]  # vertex -> color in 1..q
    common_point: Point
    barycentric: dict[int, dict[int, Fraction]]  # color -> vertex -> coefficient

    def color_classes(self) -> dict[int, tuple[int, ...]]:
        classes: dict[int, list[int]] = {}
        for v, c in self.coloring.items():
            classes.setdefault(c, []).append(v)
        return {c: tuple(sorted(vs)) for c, vs in classes.items()}


def verify_witness(G: Graph, cfg: PointConfiguration, witness: TverbergWitness, q: int) -> bool:
    """Exact recomputation of all witness invariants."""
    coloring = witness.coloring
    if set(coloring) != set(G.vertices):
        return False
    if any(not 1 <= c <= q for c in coloring.values()):
        return False
    for u, v in G.edges:
        if coloring[u] == coloring[v]:
            return False
    classes = witness.color_classes()
    for c, verts in classes.items():
        coeffs = witness.barycentric.get(c)
        if coeffs is None or set(coeffs) != set(verts) or not verts:
            return False
        if any(lam < 0 for lam in coeffs.values()):
            return False
        if sum(coeffs.values()) != 1:
            return False
        for i in range(cfg.dimension):
            combo = sum(
                (lam * cfg.points[v][i] for v, lam in coeffs.items()), Fraction(0)
            )
            if combo != witness.common_point[i]:
                return False
    return True


def _is_independent(G: Graph, vertices: Sequence[int]) -> bool:
    return not any(G.has_edge(u, v) for u, v in itertools.combinations(vertices, 2))


def search_witness(
    G: Graph,
    cfg: PointConfiguration,
    q: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> Optional[TverbergWitness]:
    """First witness in canonical order over proper surjective q-colorings.

    Color symmetry is broken by construction: class c's smallest vertex is
    the smallest vertex not in classes 1..c-1, so color first-occurrences
    are increasing.  Class candidates are enumerated by ascending bitmask
    over the remaining vertices.  After a class is completed, a common-point
    LP over the completed classes prunes the branch when they already fail
    to intersect — sound, because later classes cannot change earlier hulls.
    The budget counts LP feasibility calls.  A witness is re-checked with
    verify_witness before it is returned; a failed check raises
    TverbergError.
    """
    if q < 1:
        raise TverbergError(f"q must be positive, got {q}")
    verts = G.vertices
    if set(cfg.points) != set(verts):
        raise TverbergError("point configuration must be indexed by exactly V(G)")
    if len(verts) < q:
        return None  # every q-coloring would leave an empty class
    calls = 0

    def lp(classes: list[tuple[int, ...]]) -> Optional[HullWitness]:
        nonlocal calls
        calls += 1
        if calls > budget:
            raise BudgetExceeded(
                f"witness search exceeded {budget} hull-intersection calls", calls, budget
            )
        return hulls_intersect([[cfg.points[v] for v in cls] for cls in classes])

    def recurse(
        remaining: tuple[int, ...], classes: list[tuple[int, ...]]
    ) -> Optional[TverbergWitness]:
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
            found = recurse(tuple(v for v in rest if v not in set(chosen)), classes + [cls])
            if found is not None:
                return found
        return None

    witness = recurse(verts, [])
    if witness is not None and not verify_witness(G, cfg, witness, q):
        raise TverbergError("the witness found failed its exact re-check")
    return witness


# ---------------------------------------------------------------------------
# Prime utilities
# ---------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def is_prime_power(q: int) -> bool:
    """Whether q = p^k for a prime p and k >= 1, by trial factorization."""
    if q < 2:
        return False
    p = 2
    while p * p <= q:
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
        p += 1
    return True  # q itself is prime


def bertrand_prime(q: int) -> int:
    """Largest prime <= q; for q >= 2 it always exists and exceeds q/2."""
    if q < 2:
        raise TverbergError(f"need q >= 2, got {q}")
    for p in range(q, 1, -1):
        if _is_prime(p):
            return p
    raise AssertionError("unreachable")


def prime_utilities(q: int) -> tuple[bool, int]:
    """(is q a prime power, largest prime <= q)."""
    if q < 2:
        raise TverbergError(f"need q >= 2, got {q}")
    return is_prime_power(q), bertrand_prime(q)


# ---------------------------------------------------------------------------
# End-to-end pipeline with hypothesis reporting
# ---------------------------------------------------------------------------


class CheckItem(NamedTuple):
    name: str
    passed: bool
    detail: str


class CorollaryReport(NamedTuple):
    q: int
    q_prime: int
    epsilon: str
    k_epsilon: str
    delta: int
    dimension: int
    expected_vertices: int
    fractional_size: bool
    subgraph_vertices: tuple[int, ...]
    checks: tuple[CheckItem, ...]
    witness: Optional[TverbergWitness]
    extended_coloring: Optional[dict[int, int]]

    @property
    def all_checks_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_obj(self) -> dict:
        obj = {
            "checks": [
                {"detail": c.detail, "name": c.name, "passed": c.passed} for c in self.checks
            ],
            "delta": self.delta,
            "dimension": self.dimension,
            "epsilon": self.epsilon,
            "expected_vertices": self.expected_vertices,
            "extended_coloring": (
                sorted(self.extended_coloring.items()) if self.extended_coloring else None
            ),
            "fractional_size": self.fractional_size,
            "k_epsilon": self.k_epsilon,
            "q": self.q,
            "q_prime": self.q_prime,
            "subgraph_vertices": list(self.subgraph_vertices),
            "witness_found": self.witness is not None,
        }
        if self.witness is not None:
            obj["witness"] = witness_to_obj(self.witness)
        return obj


def witness_to_obj(w: TverbergWitness) -> dict:
    return {
        "barycentric": [
            [c, sorted([v, str(lam)] for v, lam in coeffs.items())]
            for c, coeffs in sorted(w.barycentric.items())
        ],
        "coloring": sorted([v, c] for v, c in w.coloring.items()),
        "common_point": [str(x) for x in w.common_point],
    }


def greedy_extension(G: Graph, partial: dict[int, int], q: int) -> dict[int, int]:
    """Extend a partial proper coloring to all of G with colors 1..q.

    Succeeds whenever q exceeds the maximum degree; raises otherwise when
    stuck.  Uncolored vertices are processed in label order, each taking the
    smallest color unused on its colored neighbors.
    """
    coloring = dict(partial)
    for v in G.vertices:
        if v in coloring:
            continue
        used = {coloring[u] for u in G.neighbors(v) if u in coloring}
        color = next((c for c in range(1, q + 1) if c not in used), None)
        if color is None:
            raise TverbergError(f"greedy extension stuck at vertex {v} with q={q}")
        coloring[v] = color
    return coloring


def corollary_pipeline(
    G: Graph,
    cfg: PointConfiguration,
    q: int,
    epsilon,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> CorollaryReport:
    """Run the reduce-to-a-prime pipeline and report every hypothesis check.

    Steps: gate q against K_eps*delta, drop to the largest prime q_p <= q,
    take the lexicographically-first floor((d+1)(q_p-1)+1)*(1+eps) vertices,
    search a q_p-witness there, then greedily extend its coloring to all of
    G with q colors.  Failed checks are recorded, not fatal.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise TverbergError(f"epsilon must be positive, got {epsilon}")
    consts = schemes.epsilon_constants(float(eps))
    delta = G.max_degree()
    d = cfg.dimension
    checks: list[CheckItem] = []
    checks.append(
        CheckItem(
            "q_exceeds_k_epsilon_delta",
            q > consts.k_epsilon * delta,
            f"q={q} vs K_eps*delta={schemes.format_real(consts.k_epsilon * delta)}",
        )
    )
    qp = bertrand_prime(q) if q >= 2 else 2
    checks.append(
        CheckItem(
            "prime_exceeds_half_gate",
            qp > consts.k_epsilon * delta / 2,
            f"q_p={qp} vs K_eps*delta/2={schemes.format_real(consts.k_epsilon * delta / 2)}",
        )
    )
    expected_exact = tverberg_number(d, q) * (1 + eps) if q >= 2 else Fraction(0)
    expected = int(expected_exact)
    checks.append(
        CheckItem(
            "graph_has_the_stated_size",
            G.n == expected,
            f"|V(G)|={G.n} vs floor(((d+1)(q-1)+1)(1+eps))={expected}",
        )
    )
    target_exact = tverberg_number(d, qp) * (1 + eps) if qp >= 2 else Fraction(0)
    target = int(target_exact)
    fractional = (expected_exact != expected) or (target_exact != target)
    checks.append(
        CheckItem(
            "subgraph_size_available",
            G.n >= target,
            f"need {target} vertices for the prime instance, have {G.n}",
        )
    )
    sub_verts = G.vertices[: min(target, G.n)]
    Gp = induced_subgraph(G, sub_verts)
    cfg_p = cfg.restrict(sub_verts)
    witness = search_witness(Gp, cfg_p, qp, budget)
    checks.append(
        CheckItem(
            "witness_found_for_prime_instance",
            witness is not None,
            f"searched q_p={qp} colorings of the first {len(sub_verts)} vertices",
        )
    )
    extended: Optional[dict[int, int]] = None
    if witness is not None:
        checks.append(
            CheckItem("q_exceeds_delta", q > delta, f"q={q} vs delta={delta}")
        )
        try:
            extended = greedy_extension(G, witness.coloring, q)
            ok = all(extended[u] != extended[v] for u, v in G.edges)
            checks.append(
                CheckItem("extension_proper", ok, f"colored all {G.n} vertices with q={q}")
            )
        except TverbergError as exc:
            checks.append(CheckItem("extension_proper", False, str(exc)))
    return CorollaryReport(
        q=q,
        q_prime=qp,
        epsilon=schemes.format_real(float(eps)),
        k_epsilon=schemes.format_real(consts.k_epsilon),
        delta=delta,
        dimension=d,
        expected_vertices=expected,
        fractional_size=fractional,
        subgraph_vertices=tuple(sub_verts),
        checks=tuple(checks),
        witness=witness,
        extended_coloring=extended,
    )
