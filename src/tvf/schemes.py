"""Block-size schemes for dynamic squid removal, with exact validation.

A scheme (s_1, ..., s_k) against (n, q, delta) must satisfy, for every j,

    (delta/(q-j+1) + 1) * (s_1 + ... + s_{j-1}) + 2*delta*s_j  <=  n

together with q >= k > 0 and s_i > 0.  Validation runs in exact rational
arithmetic; nothing is accepted on floating-point grounds.

The generator uses the closed forms

    a = sqrt(1+eps)
    gamma = -(1/a) * ln(1 - 1/a)
    K_eps = a - 1 + 2*gamma
    s_j = N*(1+eps)/(2*delta) * ((2*delta - a)/(2*delta))^(j-1)

with k = ceil(2*delta*gamma) blocks (capped at q).  The geometric sizes are
evaluated and summed exactly in the quadratic field Q(sqrt(1+eps)) so that
the pre-rounding coverage claim "sum of s_j >= N" is decided exactly, then
floored to integers, re-validated, and topped up with size-1 blocks while
coverage falls short and the inequality still permits.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .errors import Budget, SchemeError, json_field, json_int, json_ints, json_type, read_json

EpsilonLike = Union[int, float, str, Fraction]

# Blocks one scheme build may make, its k exact terms and its top-up blocks.  The
# terms cost about k**2.4: k = 869 takes 1.4 s and k = 2084 12 s on 2 shared vCPUs.
DEFAULT_SCHEME_BUDGET = 1_000


class InfeasibleScheme(SchemeError):
    """The requested parameters admit no valid integer scheme."""


def format_real(x: float) -> str:
    """Decimal string with 12 significant digits (user-facing reals)."""
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# Exact arithmetic in Q(sqrt(D))
# ---------------------------------------------------------------------------


def _rational_sqrt(D: Fraction) -> Optional[Fraction]:
    a = math.isqrt(D.numerator)
    b = math.isqrt(D.denominator)
    if a * a == D.numerator and b * b == D.denominator:
        return Fraction(a, b)
    return None


class Quad(NamedTuple):
    """Exact number p + r*sqrt(D); collapses to rational when sqrt(D) is."""

    p: Fraction
    r: Fraction
    D: Fraction

    @classmethod
    def make(cls, p, r, D: Fraction) -> "Quad":
        p, r = Fraction(p), Fraction(r)
        root = _rational_sqrt(D)
        if root is not None and r:
            p, r = p + r * root, Fraction(0)
        return cls(p, r, D)

    def __add__(self, other: "Quad") -> "Quad":
        return Quad.make(self.p + other.p, self.r + other.r, self.D)

    def __sub__(self, other: "Quad") -> "Quad":
        return Quad.make(self.p - other.p, self.r - other.r, self.D)

    def __mul__(self, other: "Quad") -> "Quad":
        return Quad.make(
            self.p * other.p + self.r * other.r * self.D,
            self.p * other.r + self.r * other.p,
            self.D,
        )

    def scale(self, c) -> "Quad":
        c = Fraction(c)
        return Quad.make(self.p * c, self.r * c, self.D)

    def sign(self) -> int:
        if self.r == 0:
            return (self.p > 0) - (self.p < 0)
        if self.p == 0:
            return 1 if self.r > 0 else -1
        if self.p > 0 and self.r > 0:
            return 1
        if self.p < 0 and self.r < 0:
            return -1
        # mixed signs: compare p^2 against r^2 * D (sqrt(D) irrational here,
        # so equality cannot occur)
        lhs, rhs = self.p * self.p, self.r * self.r * self.D
        if self.p > 0:
            return 1 if lhs > rhs else -1
        return 1 if rhs > lhs else -1

    def __float__(self) -> float:
        return float(self.p) + float(self.r) * math.sqrt(float(self.D))

    def floor(self) -> int:
        if self.r == 0:
            return math.floor(self.p)
        c = math.floor(float(self))
        while Quad.make(self.p - c, self.r, self.D).sign() < 0:
            c -= 1
        while Quad.make(self.p - (c + 1), self.r, self.D).sign() >= 0:
            c += 1
        return c


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class SizeScheme(NamedTuple):
    sizes: tuple[int, ...]
    n: int
    q: int
    delta: int

    def to_obj(self) -> dict:
        return {"delta": self.delta, "n": self.n, "q": self.q, "sizes": list(self.sizes)}

    @classmethod
    def from_obj(cls, obj) -> "SizeScheme":
        """The scheme of a parsed JSON object; SchemeError names the first
        field that is wrong."""
        try:
            if type(obj) is not dict:
                raise ValueError(f"a scheme is a JSON object, got {json_type(obj)}")
            return cls(
                sizes=json_ints(json_field(obj, "sizes"), "sizes"),
                n=json_int(json_field(obj, "n"), "n"),
                q=json_int(json_field(obj, "q"), "q"),
                delta=json_int(json_field(obj, "delta"), "delta"),
            )
        except ValueError as exc:
            raise SchemeError(f"malformed scheme object: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "SizeScheme":
        return cls.from_obj(read_json(text, "scheme", SchemeError))


class EpsilonConstants(NamedTuple):
    epsilon: float
    a: float
    gamma: float
    k_epsilon: float

    def to_obj(self) -> dict:
        return {
            "a": format_real(self.a),
            "epsilon": format_real(self.epsilon),
            "gamma": format_real(self.gamma),
            "k_epsilon": format_real(self.k_epsilon),
        }


class SchemeCheck(NamedTuple):
    ok: bool
    failing_index: Optional[int] = None  # 1-based block index for condition (2)
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


class SchemeBuild(NamedTuple):
    scheme: SizeScheme
    constants: EpsilonConstants
    target: int
    blocks_initial: int
    blocks_extended: int
    coverage: int
    pre_rounding_coverage: str
    pre_rounding_covers_target: bool
    fractional_budget: bool


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def validate_scheme(sizes: Sequence[int], n: int, q: int, delta: int) -> SchemeCheck:
    """Exact check of both scheme conditions; reports the first violated j."""
    if delta < 1 or q < 1 or n < 1:
        raise SchemeError("validate_scheme requires delta >= 1, q >= 1, n >= 1")
    k = len(sizes)
    if k == 0:
        return SchemeCheck(False, None, "a scheme needs at least one block")
    if k > q:
        return SchemeCheck(False, None, f"k={k} blocks exceed q={q}")
    for j, s in enumerate(sizes, start=1):
        if s <= 0:
            return SchemeCheck(False, j, f"block size s_{j}={s} is not positive")
    prefix = 0
    for j, s in enumerate(sizes, start=1):
        lhs = (Fraction(delta, q - j + 1) + 1) * prefix + 2 * delta * s
        if lhs > n:
            return SchemeCheck(
                False, j, f"inequality fails at j={j}: {lhs} > {n}"
            )
        prefix += s
    return SchemeCheck(True)


def epsilon_constants(epsilon: EpsilonLike) -> EpsilonConstants:
    """Closed-form constants; double precision, relative error <= 1e-12.

    a - 1 is computed as epsilon / (a + 1), which does not cancel, and
    log(1 - 1/a) as log((a - 1)/a) below a = 2 and as log1p(-1/a) above,
    each where its argument is well conditioned.  Positivity is decided on
    the exact rational.  A positive epsilon that is not a normal double,
    past the largest one or below the smallest, raises SchemeError naming
    it as given.
    """
    exact = Fraction(epsilon)
    if exact <= 0:
        raise SchemeError(f"epsilon must be positive, got {epsilon}")
    try:
        eps = float(exact)
    except OverflowError:
        eps = math.inf
    if not sys.float_info.min <= eps < math.inf:
        raise SchemeError(f"epsilon {epsilon} is outside the range of double precision")
    a = math.sqrt(1.0 + eps)
    d = eps / (a + 1.0)  # a - 1
    gamma = -(1.0 / a) * (math.log(d / a) if a < 2.0 else math.log1p(-1.0 / a))
    return EpsilonConstants(epsilon=eps, a=a, gamma=gamma, k_epsilon=d + 2.0 * gamma)


def build_scheme(
    epsilon: EpsilonLike, N: int, delta: int, q: int, budget: Optional[int] = None
) -> SchemeBuild:
    """Integer scheme from the geometric closed form, exactly re-validated.

    Raises SchemeError when q fails the q > K_eps*delta gate and
    InfeasibleScheme when no positive integer block survives rounding or the
    rounded scheme fails exact validation.  budget bounds the blocks (None:
    DEFAULT_SCHEME_BUDGET), the k terms spent before any is built.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise SchemeError(f"epsilon must be positive, got {epsilon}")
    if N < 1 or delta < 1 or q < 1:
        raise SchemeError("build_scheme requires N >= 1, delta >= 1, q >= 1")
    consts = epsilon_constants(epsilon)
    if not q > consts.k_epsilon * delta:
        raise SchemeError(
            f"q={q} does not exceed K_eps*delta={format_real(consts.k_epsilon * delta)}"
        )
    D = 1 + eps
    k = min(q, math.ceil(2 * delta * consts.gamma))
    blocks = Budget(budget, DEFAULT_SCHEME_BUDGET, "scheme", "blocks")
    blocks.spend(k)
    budget_exact = N * (1 + eps)
    n_int = math.floor(budget_exact)
    fractional = budget_exact != n_int

    a = Quad.make(0, 1, D)
    ratio = Quad.make(1, Fraction(-1, 2 * delta), D)  # (2*delta - a) / (2*delta)
    term = Quad.make(Fraction(budget_exact, 2 * delta), 0, D)
    pre_sum = Quad.make(0, 0, D)
    sizes: list[int] = []
    truncated = False
    for _ in range(k):
        pre_sum = pre_sum + term
        if not truncated:
            fl = term.floor()
            if fl >= 1:
                sizes.append(fl)
            else:
                truncated = True
        term = term * ratio
    pre_covers = (pre_sum - Quad.make(N, 0, D)).sign() >= 0
    if not sizes:
        raise InfeasibleScheme(
            f"s_1 = floor({format_real(float(budget_exact) / (2 * delta))}) < 1; "
            "N is too small for this delta"
        )
    check = validate_scheme(sizes, n_int, q, delta)
    if not check.ok:
        raise InfeasibleScheme(f"rounded scheme fails exact validation: {check.reason}")
    blocks_initial = len(sizes)
    while sum(sizes) < N and len(sizes) < q:
        if validate_scheme(sizes + [1], n_int, q, delta).ok:
            blocks.spend()
            sizes.append(1)
        else:
            break
    scheme = SizeScheme(tuple(sizes), n_int, q, delta)
    return SchemeBuild(
        scheme=scheme,
        constants=consts,
        target=N,
        blocks_initial=blocks_initial,
        blocks_extended=len(sizes) - blocks_initial,
        coverage=sum(sizes),
        pre_rounding_coverage=format_real(float(pre_sum)),
        pre_rounding_covers_target=pre_covers,
        fractional_budget=fractional,
    )
