"""Exact rational feasibility for {x >= 0 : A x = b}, with a certificate either way.

By Farkas' lemma exactly one of two systems has a solution: x >= 0 with
A x = b, or y with y^T A >= 0 (every entry) and y^T b < 0.  Such a y
refutes the first system, since y^T A x >= 0 > y^T b for every x >= 0.
The solver returns x, or else an integer y of this orientation, indexed
by the caller's rows.

Phase-1 simplex with Bland's rule (smallest eligible index enters; ties in
the ratio test leave by smallest basic index), which cannot cycle, so the
answer is a definitive witness or a definitive infeasibility.  No
tolerances anywhere.

The tableau is fraction-free (Edmonds' integer pivoting, as in Avis's lrs):
the system is scaled once by the lcm of all its denominators and kept as
integers over one common denominator D, the determinant of the current
basis.  A pivot on p keeps the pivot row and maps every other entry x with
pivot-column entry f and pivot-row entry y to (x*p - f*y) / D, a division
Bareiss' identity makes exact; then D becomes p.  The rational tableau is
the integer one over D, with the artificial columns scaled by one positive
constant, so every sign and ratio comparison, and with them the pivot
sequence and the returned x, are those of the plain rational simplex.

The Farkas vector is read off the final phase-1 reduced costs.  With
simplex multipliers pi, the reduced cost of artificial column i is
1 - pi_i (stored as D - D*pi_i), and at the optimum every structural
reduced cost -pi^T A'_j is nonnegative while the objective pi^T b' is
positive when the system is infeasible.  So y' = -pi refutes the scaled,
sign-flipped system A' x = b'; undoing the flip of each row with b_i < 0
(the positive scale needs no undoing) gives y for A x = b.  It is
returned divided by the gcd of its entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple, Optional, Sequence


class Feasibility(NamedTuple):
    """x >= 0 with A x = b, or else y with y^T A >= 0 and y^T b < 0; the
    other field is None."""

    x: Optional[list[Fraction]]
    y: Optional[list[int]]


def solve_equality_feasibility(
    A: Sequence[Sequence[Rational]], b: Sequence[Rational]
) -> Feasibility:
    """Return x >= 0 with A x = b, or a Farkas vector y when no such x exists.

    Entries are ints or Fractions.  y is an integer vector with coprime
    entries.  Raises ValueError on ragged input.
    """
    m = len(A)
    if m == 0:
        return Feasibility([], None)
    n = len(A[0])
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValueError("inconsistent system dimensions")

    # one scale for the whole system: scaling rows apart would reweight the
    # phase-1 objective and could change Bland's choices
    denominators = {v.denominator for row in A for v in row}
    denominators.update(v.denominator for v in b)
    scale = math.lcm(*denominators)
    # rows with b_i < 0 are negated so the artificial basis is feasible
    tab = []
    rhs = []
    for i, (row, bi) in enumerate(zip(A, b)):
        sign = -scale if bi < 0 else scale
        tab.append([sign * v.numerator // v.denominator for v in row] + [0] * m)
        tab[i][n + i] = 1
        rhs.append(sign * bi.numerator // bi.denominator)
    basis = list(range(n, n + m))
    D = 1

    # phase-1 objective: minimize the artificial sum; reduced costs times D
    red = [-sum(row[j] for row in tab) for j in range(n)] + [0] * m
    obj = -sum(rhs)

    while True:
        enter = next((j for j, r in enumerate(red) if r < 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(tab):
            coeff = row[enter]
            if coeff > 0:
                if leave is None:
                    leave, num, den = i, rhs[i], coeff
                    continue
                # rhs[i]/coeff against the best ratio num/den
                lhs, cur = rhs[i] * den, num * coeff
                if lhs < cur or (lhs == cur and basis[i] < basis[leave]):
                    leave, num, den = i, rhs[i], coeff
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded; malformed tableau")
        prow = tab[leave]
        p = prow[enter]
        pr = rhs[leave]
        for i, row in enumerate(tab):
            if i == leave:
                continue
            f = row[enter]
            if f:
                tab[i] = [(x * p - f * y) // D for x, y in zip(row, prow)]
                rhs[i] = (rhs[i] * p - f * pr) // D
            elif p != D:
                tab[i] = [x * p // D for x in row]
                rhs[i] = rhs[i] * p // D
        f = red[enter]
        red = [(x * p - f * y) // D for x, y in zip(red, prow)]
        obj = (obj * p - f * pr) // D
        basis[leave] = enter
        D = p

    if obj != 0:
        # red[n + i] - D is D * -pi_i, and D > 0
        y = [r - D if bi >= 0 else D - r for r, bi in zip(red[n:], b)]
        g = math.gcd(*y)
        return Feasibility(None, [v // g for v in y])
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(rhs[i], D)
    return Feasibility(x, None)
