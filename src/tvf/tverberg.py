"""Exact search for constrained Tverberg partitions of rational point sets.

A constraint graph G forbids same-colored adjacent vertices; a witness is a
proper q-coloring plus a rational point lying in the convex hull of every
color class, certified by explicit convex coefficients.  All feasibility
questions are decided exactly: by disjoint bounding boxes, by an exact
rational LP, or by the Farkas vector or solution of an earlier LP that
answers them too; a returned witness has been re-verified by substitution
(verify_witness), and a "none" is definitive.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

# Bound as a module, not by name: under the CLI's lazy layers
# tverberg search then never load schemes.
from . import schemes
from .errors import Budget, TverbergError, int_token, past_digit_limit, quoted
from .graphs import Graph, bits, induced_subgraph, run
from .ratlp import solve_equality_feasibility

DEFAULT_SEARCH_BUDGET = 1_000_000
# Trial divisions one prime computation may make: it decides every q below 1e12.
DEFAULT_DIVISION_BUDGET = 1_000_000

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
    """Line format: "<vertex> <x_1> ... <x_d>", rationals as "p/q", decimals
    or integers.  A coordinate that is a number past int()'s digit limit
    (errors.past_digit_limit) is rejected before it is read."""
    points: dict[int, Point] = {}
    dim: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise TverbergError(f"line {lineno}: expected '<vertex> <coords...>'")
        v = int_token(parts[0], lineno, TverbergError, "an integer vertex")
        huge = next((tok for tok in parts[1:] if past_digit_limit(tok)), None)
        if huge is not None:
            raise TverbergError(
                f"line {lineno}: coordinate {quoted(huge)} is a number past int()'s digit limit"
            )
        try:
            coords = tuple(Fraction(tok) for tok in parts[1:])
        except (ValueError, ZeroDivisionError):
            raise TverbergError(
                f"line {lineno}: expected rational coordinates, got {quoted(line)}"
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


def _hull_system(parts: Sequence[Sequence[Point]]) -> tuple[list[list], list[int]]:
    """The rows and right-hand side of the LP of hulls_intersect.

    Its columns are the parts' convex coefficients, part by part.  Row c
    (c < len(parts)) is part c's convexity row, and the last d rows tie the
    last part's combination to the first part's, so a column of the last
    part is 1 in row len(parts) - 1, p in the last d rows and 0 elsewhere.
    """
    dim = len(parts[0][0])
    offsets = []
    total = 0
    for part in parts:
        offsets.append(total)
        total += len(part)
    rows: list[list] = []
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
    return rows, rhs


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
    sol = solve_equality_feasibility(*_hull_system(parts)).x
    if sol is None:
        return None
    coeffs = []
    start = 0
    for part in parts:
        coeffs.append(tuple(sol[start : start + len(part)]))
        start += len(part)
    point = tuple(
        sum((lam * p[i] for lam, p in zip(coeffs[0], parts[0]) if lam), Fraction(0))
        for i in range(dim)
    )
    return HullWitness(point, tuple(coeffs))


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
    """Exact recomputation of all witness invariants.

    The coloring must be a proper partition of V(G) into exactly q nonempty
    classes, colored 1..q, each with convex coefficients of the common point.
    """
    coloring = witness.coloring
    if set(coloring) != set(G.vertices):
        return False
    if any(not 1 <= c <= q for c in coloring.values()):
        return False
    for u, v in G.edges:
        if coloring[u] == coloring[v]:
            return False
    classes = witness.color_classes()
    if len(classes) != q:
        return False
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


def search_witness(
    G: Graph,
    cfg: PointConfiguration,
    q: int,
    budget: Optional[int] = None,
) -> Optional[TverbergWitness]:
    """First witness in canonical order over proper surjective q-colorings.

    Color symmetry is broken by construction: class c's smallest vertex is
    the smallest vertex not in classes 1..c-1, so color first-occurrences
    are increasing.  Class candidates are independent sets, enumerated as
    bitmasks over the remaining vertices in ascending order.

    A candidate class is tested against the completed classes before the
    branch goes on; later classes cannot change earlier hulls, so a failed
    test prunes the whole branch.  A common point lies in every class's
    bounding box and in the hull intersection of every pair of classes, so
    first each earlier class's box is tested against the candidate's
    (disjoint boxes mean disjoint hulls), then each pair by a two-part LP,
    and only when every pair meets does the LP over all completed classes
    run; with two classes the pair LP is that LP, so it runs once.  Box and
    pair verdicts are cached per class pair.  A pruned branch is one that
    this last LP would refute, so the search reaches the same first witness
    through the same final LP as one that runs only that LP.
    A single class always has a hull point, so its LP runs only as the
    final class when q = 1, to produce the witness.

    A pruning LP over prefix + [c] (the prefix is one earlier class for a
    pair test, all completed classes for the full LP) leaves a certificate
    that decides later candidates c' under the same prefix exactly, without
    an LP.  The columns of c' are (1, p) for its points p, in the last
    part's convexity row and the last d rows; no other column and no entry
    of the right-hand side depends on c'.
    - Refuted: the Farkas vector y of an infeasible LP gives alpha (its
      entry in that convexity row) and u (its last d entries) with
      alpha + u.p >= 0 for every p in c.  The same y refutes prefix + [c']
      whenever every point of c' satisfies that inequality; the points
      that do are kept as a mask.
    - Feasible: the support S of the last part's coefficients in the
      solution x.  The same x solves prefix + [c'] for every c' that
      contains S.
    Only the final LP, whose solution is the witness, goes through
    hulls_intersect.

    The search runs on graphs.run, one level per class.  The budget counts
    hull tests (None: DEFAULT_SEARCH_BUDGET): one unit per box test, pair
    test or full test, whether an LP or a certificate decides it, so the
    units spent and the point where the budget runs out do not depend on
    the certificates; it also bounds the pair cache and the certificates,
    at most one per LP.  A witness is re-checked with verify_witness before
    it is returned; a failed check raises TverbergError.
    """
    if q < 1:
        raise TverbergError(f"q must be positive, got {q}")
    verts = G.vertices
    if set(cfg.points) != set(verts):
        raise TverbergError("point configuration must be indexed by exactly V(G)")
    if len(verts) < q:
        return None  # every q-coloring would leave an empty class
    tests = Budget(budget, DEFAULT_SEARCH_BUDGET, "search", "hull tests")
    # integral coordinates as ints: the same values, in cheaper arithmetic
    points = [tuple(int(c) if c.denominator == 1 else c for c in cfg.points[v]) for v in verts]
    dim = cfg.dimension
    meets: dict[tuple[int, int], bool] = {}  # (earlier class, new class) -> hulls meet
    # prefix of classes -> (supports, covers) of the LPs run under it
    certificates: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}

    def members(mask: int) -> list[int]:
        return [low.bit_length() - 1 for low in bits(mask)]

    def independent(mask: int) -> bool:
        return not any(G.nbr[i] & mask for i in members(mask))

    def box(mask: int) -> tuple[list[Fraction], list[Fraction]]:
        coords = list(zip(*(points[i] for i in members(mask))))
        return [min(c) for c in coords], [max(c) for c in coords]

    def meet(prefix: tuple[int, ...], cls: int) -> bool:
        """Whether the hulls of the prefix's classes and cls's share a point."""
        tests.spend()
        entry = certificates.get(prefix)
        if entry is None:
            entry = certificates[prefix] = ([], [])
        supports, covers = entry
        if any(not support & ~cls for support in supports):
            return True
        if any(not cls & ~cover for cover in covers):
            return False
        last = members(cls)
        parts = [[points[i] for i in members(m)] for m in prefix]
        parts.append([points[i] for i in last])
        x, y = solve_equality_feasibility(*_hull_system(parts))
        if x is not None:
            supports.append(sum(1 << i for i, lam in zip(last, x[-len(last):]) if lam))
            return True
        alpha, u = y[len(prefix)], y[-dim:]
        covers.append(
            sum(1 << i for i, p in enumerate(points) if alpha + sum(map(mul, u, p)) >= 0)
        )
        return False

    def meets_all(classes: list, cls: int, cls_box, pair_lps: bool) -> bool:
        """Whether cls's hull meets each earlier class's: boxes, then pair tests.

        Without pair_lps only the boxes are tested; the caller's full LP then
        acts as the pair test.
        """
        undecided = []
        lo, hi = cls_box
        for e, (e_lo, e_hi) in classes:
            met = meets.get((e, cls))
            if met is None:
                tests.spend()
                if any(a > d or c > b for a, b, c, d in zip(lo, hi, e_lo, e_hi)):
                    meets[e, cls] = False
                    return False
                undecided.append(e)
            elif not met:
                return False
        if not pair_lps:
            return True
        for e in undecided:
            met = meets[e, cls] = meet((e,), cls)
            if not met:
                return False
        return True

    def recurse(remaining: int, classes: list):
        """Generator for run: the first witness that extends classes, or None."""
        if len(classes) == q - 1:
            # with one earlier class the pair LP is the full LP below
            if not independent(remaining) or not meets_all(
                classes, remaining, box(remaining), len(classes) > 1
            ):
                return None
            full = [e for e, _ in classes] + [remaining]
            tests.spend()
            hull = hulls_intersect([[points[i] for i in members(m)] for m in full])
            if hull is None:
                return None
            coloring = {}
            barycentric: dict[int, dict[int, Fraction]] = {}
            for ci, cls in enumerate(full, start=1):
                labels = [verts[i] for i in members(cls)]
                for v in labels:
                    coloring[v] = ci
                barycentric[ci] = dict(zip(labels, hull.coefficients[ci - 1]))
            return TverbergWitness(coloring, hull.point, barycentric)
        anchor = remaining & -remaining
        free = (remaining ^ anchor) & ~G.nbr[anchor.bit_length() - 1]
        # leave at least one vertex for each later class
        most = remaining.bit_count() - 1 - (q - len(classes) - 1)
        chosen = 0
        while True:
            if chosen.bit_count() <= most and independent(chosen):
                cls = anchor | chosen
                cls_box = box(cls)
                # one class always has a hull point; with one earlier class
                # the pair LP is the LP over all completed classes
                if not classes or (
                    meets_all(classes, cls, cls_box, True)
                    and (len(classes) == 1 or meet(tuple(e for e, _ in classes), cls))
                ):
                    found = yield recurse(remaining ^ cls, classes + [(cls, cls_box)])
                    if found is not None:
                        return found
            chosen = (chosen - free) & free
            if not chosen:
                return None

    witness = run(recurse((1 << len(verts)) - 1, []))
    del recurse
    if witness is not None and not verify_witness(G, cfg, witness, q):
        raise TverbergError("the witness found failed its exact re-check")
    return witness


# ---------------------------------------------------------------------------
# Prime utilities
# ---------------------------------------------------------------------------


def _division_budget(budget: Optional[int] = None) -> Budget:
    """A budget of trial divisions (None: DEFAULT_DIVISION_BUDGET)."""
    return Budget(budget, DEFAULT_DIVISION_BUDGET, "division", "trial divisions")


def _is_prime(n: int, divisions: Budget) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        divisions.spend()
        if n % f == 0:
            return False
        f += 1
    return True


def is_prime_power(q: int, divisions: Optional[Budget] = None) -> bool:
    """Whether q = p^k for a prime p and k >= 1, by trial factorization.

    Each trial divisor spends one unit of divisions (None: a fresh
    _division_budget()), which raises BudgetExceeded past its limit.
    """
    if q < 2:
        return False
    divisions = divisions or _division_budget()
    p = 2
    while p * p <= q:
        divisions.spend()
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
        p += 1
    return True  # q itself is prime


def bertrand_prime(q: int, divisions: Optional[Budget] = None) -> int:
    """Largest prime <= q; for q >= 2 it always exists and exceeds q/2.

    Every trial division of every candidate spends one unit of divisions
    (None: a fresh _division_budget()).
    """
    if q < 2:
        raise TverbergError(f"need q >= 2, got {q}")
    divisions = divisions or _division_budget()
    for p in range(q, 1, -1):
        if _is_prime(p, divisions):
            return p
    raise AssertionError("unreachable")


def prime_utilities(q: int, budget: Optional[int] = None) -> tuple[bool, int]:
    """(is q a prime power, largest prime <= q), under one budget of `budget` trial divisions."""
    if q < 2:
        raise TverbergError(f"need q >= 2, got {q}")
    divisions = _division_budget(budget)
    return is_prime_power(q, divisions), bertrand_prime(q, divisions)


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
    """The JSON object of a witness, rationals as "p/q" text.

    A witness that holds a number past int()'s digit limit, which points
    with large exponents can give, cannot be written: TverbergError.
    """
    try:
        return {
            "barycentric": [
                [c, sorted([v, str(lam)] for v, lam in coeffs.items())]
                for c, coeffs in sorted(w.barycentric.items())
            ],
            "coloring": sorted([v, c] for v, c in w.coloring.items()),
            "common_point": [str(x) for x in w.common_point],
        }
    except ValueError:
        raise TverbergError("the witness holds a number past int()'s digit limit") from None


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
    budget: Optional[int] = None,
) -> CorollaryReport:
    """Run the reduce-to-a-prime pipeline and report every hypothesis check.

    Steps: gate q against K_eps*delta, drop to the largest prime q_p <= q,
    take the lexicographically-first floor((d+1)(q_p-1)+1)*(1+eps) vertices,
    search a q_p-witness there, then greedily extend its coloring to all of
    G with q colors.  Failed checks are recorded, not fatal.  budget bounds
    the search's hull tests and, apart, the trial divisions that find q_p.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise TverbergError(f"epsilon must be positive, got {epsilon}")
    consts = schemes.epsilon_constants(epsilon)
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
    qp = bertrand_prime(q, _division_budget(budget)) if q >= 2 else 2
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
