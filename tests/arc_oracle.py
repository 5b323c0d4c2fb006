"""Pointwise oracle for the Farey arc families of `wgcircle.circle`.

This is the naive construction: loops over q and a with a gcd test, one
Fraction interval per arc, clipped to [0, 1] and sorted by left endpoint.
Membership of a point is tested arc by arc.  The tests compare the int64
(q, a) rows of the families, their masks and exact measures against it, and
the f-envelope constant against the covering-arc weight `upsilon`.
"""

import bisect
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


def oracle_arcs(q_top: int, width: Fraction, reach_is_q: bool) -> list[tuple]:
    """(lo, hi, q, a) of |alpha - a/q| <= half-width, (a, q) = 1, q <= q_top.

    The half-width is width/q (major arcs) or width (core arcs).
    """
    arcs = []
    for q in range(1, q_top + 1):
        half = width if reach_is_q else width / q
        for a in range(q + 1):
            if math.gcd(a, q) != 1:
                continue
            center = Fraction(a, q)
            arcs.append((max(Fraction(0), center - half), min(Fraction(1), center + half), q, a))
    arcs.sort()
    return arcs


def major_oracle(Q: float, denom: int) -> list[tuple]:
    return oracle_arcs(math.floor(Q), Fraction(Q) / denom, reach_is_q=False)


def core_oracle(height: float, n: int) -> list[tuple]:
    return oracle_arcs(math.floor(height), Fraction(height) / n, reach_is_q=True)


def disjoint(arcs: list[tuple]) -> bool:
    """Closed arcs sorted by lo are pairwise disjoint iff neighbours are."""
    return all(hi1 < lo2 for (_, hi1, _, _), (lo2, _, _, _) in zip(arcs, arcs[1:]))


def holder(arcs: list[tuple], x: Fraction) -> tuple | None:
    """The arc that holds x, or None (arcs disjoint and sorted by lo)."""
    i = bisect.bisect_right([lo for lo, _, _, _ in arcs], x) - 1
    return arcs[i] if i >= 0 and x <= arcs[i][1] else None


def contains(arcs: list[tuple], x: Fraction) -> bool:
    """x lies in some arc (arcs disjoint and sorted by lo)."""
    return holder(arcs, x) is not None


@lru_cache(maxsize=8)
def _covering_arcs(n: int) -> list[tuple]:
    return major_oracle(math.sqrt(n) / 2, n)


def upsilon(alpha, n: int) -> float:
    """1/(q + n*|q*alpha - a|) on the arc around a/q of height sqrt(n)/2 that
    holds alpha, else 0; alpha is taken exactly, as a Fraction."""
    x = Fraction(alpha)
    arc = holder(_covering_arcs(n), x)
    if arc is None:
        return 0.0
    q, a = arc[2], arc[3]
    return float(1 / (q + n * abs(q * x - a)))


def mask(arcs: list[tuple], m: int) -> np.ndarray:
    """Pointwise membership of j/m for j in [0, m)."""
    los = [lo for lo, _, _, _ in arcs]
    out = np.zeros(m, dtype=bool)
    for j in range(m):
        x = Fraction(j, m)
        i = bisect.bisect_right(los, x) - 1
        out[j] = i >= 0 and x <= arcs[i][1]
    return out


def span_mask(arcs: list[tuple], m: int) -> np.ndarray:
    """Membership of j/m for j in [0, m), arc by arc: the points of [lo, hi]
    are ceil(lo*m) <= j <= floor(hi*m).  The same mask as `mask`, fast on
    large grids."""
    out = np.zeros(m, dtype=bool)
    for lo, hi, _, _ in arcs:
        out[math.ceil(lo * m) : min(math.floor(hi * m), m - 1) + 1] = True
    return out


def measure(arcs: list[tuple]) -> Fraction:
    return sum((hi - lo for lo, hi, _, _ in arcs), Fraction(0))


def gaps_measure(arcs: list[tuple]) -> Fraction:
    """Exact measure of [0, 1] outside the (disjoint, sorted) arcs, gap by gap."""
    edges = [Fraction(0)] + [x for lo, hi, _, _ in arcs for x in (lo, hi)] + [Fraction(1)]
    return sum((right - left for left, right in zip(edges[0::2], edges[1::2])), Fraction(0))


def measure_minus(outer: list[tuple], inner: list[tuple]) -> Fraction:
    """Exact measure of the outer arcs less the (disjoint) inner arcs."""
    total = Fraction(0)
    for lo, hi, _, _ in outer:
        total += hi - lo
        for ilo, ihi, _, _ in inner:
            total -= max(Fraction(0), min(hi, ihi) - max(lo, ilo))
    return total


def family_endpoints(union) -> list[tuple]:
    """(lo, hi, q, a) read off a family's (q, a) rows: (a*den -+ num)/(q*den), clipped."""
    out = []
    for q, a in union.intervals.tolist():
        lo = Fraction(a * union.den - union.num, q * union.den)
        hi = Fraction(a * union.den + union.num, q * union.den)
        out.append((max(Fraction(0), lo), min(Fraction(1), hi), q, a))
    return out
