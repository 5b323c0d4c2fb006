"""Exponential sums on grids, Farey arc unions, arc integrals, level sets.

The two generating functions share one representation: an integer-frequency
spectrum with real weights.  The smooth-power sum places weight 1 at the
frequencies x^k for x in A(P, R); the prime sum places weight log p at each
prime p <= n.  Real weights give g(1 - alpha) = conj g(alpha), so with an
integer n the integrand g * f^s * e(-alpha n) at 1 - alpha is the conjugate
of its value at alpha.  Every grid consumer therefore reads each spectrum on
the half grid alpha_j = j/M, j in [0, M/2], where a point stands for itself
and its mirror M - j: it counts twice, except j = 0 and j = M/2, which are
their own mirrors (`HalfPoints`).  One engine evaluates it: one real FFT on
small grids, cache-sized residue classes on large ones, of which amplitude
readers keep |.| only.  A Riemann sum over the grid integrates
g * f^s * e(-alpha n) exactly on the full circle whenever M exceeds the
bandwidth (trig-polynomial orthogonality); on arc subsets the endpoint error
is reported, never hidden.

An arc union is one closed Farey family: the reduced fractions a/q <= 1
with q <= q_top, in ascending order from the Farey next-term recurrence, held
as int64 rows (q, a), with one exact width W (a float height is a dyadic
rational, so W = num/den is exact).  The arc around a/q is
|q*alpha - a| <= W, with integer-ratio endpoints, so grid points and measures
are exact integer arithmetic.  Neighbouring rows are Farey neighbours
(a'q - aq' = 1), so the family is disjoint iff num * max(q + q') < den, one
exact comparison.  Every family is symmetric under a/q -> (q - a)/q, so the
half grid holds its points, and `ArcUnion.grid_points` is the one selection
of them: ascending indices j, each with its arc's centre.  The major arcs of
height Q have W = Q/denom, q <= Q; the core arcs, of height Qcal < 2, are the
order-1 family with W = Qcal/n.  The minor arcs are the half grid less a
family's points; a height slice is the grid points of one family that the
spans of a narrower one miss; both have exact measures.  The dissection
ledger keeps |g| and |f| at the base points of the minor arcs and of one
height slice only, so its level partitions work on compressed arrays.

Grid evaluation and classification are data-parallel over grid indices;
reductions use numpy's fixed-order pairwise sums, so results are reproducible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import (
    check_double_range, check_exponents, gauss_sums_all, kth_root_floor, sieve_primes, smooth_set,
)
from .convolve import next_pow2
from .errors import DomainError, InternalConsistencyError, ensure_memory
from .serialize import JsonRecords
from .specialfn import check_theta, eta

#: Exponent of the core-arc height (log n)^CORE_HEIGHT_EXPONENT; tiny by
#: design: the height stays below 2 unless log n >= 2^99, so the core arcs
#: are the two q = 1 arcs at every n.
CORE_HEIGHT_EXPONENT = 1.0 / 99.0

#: Exponent e in the pruned-arc height P^e; any small power works.
PRUNED_HEIGHT_EXPONENT = 1.0 / 5.0


# ---------------------------------------------------------------------------
# Spectra and grids


def build_f_spectrum(n: int, k: int, R: int) -> tuple[np.ndarray, np.ndarray]:
    """Indicator spectrum of the smooth k-th powers x^k <= n, x in A(P, R):
    float64 weights on the frequencies 0..n, and the members of A(P, R)."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    check_exponents(k)
    P = kth_root_floor(n, k)
    members = smooth_set(P, R)
    ensure_memory(8 * (n + 1), "smooth-power spectrum")
    coeffs = np.zeros(n + 1, dtype=np.float64)
    coeffs[members**k] = 1.0
    return coeffs, members


def build_g_spectrum(n: int) -> np.ndarray:
    """log p at each prime frequency p <= n: float64 weights on 0..n."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    primes = np.flatnonzero(sieve_primes(n))
    ensure_memory(8 * (n + 1), "prime spectrum")
    coeffs = np.zeros(n + 1, dtype=np.float64)
    coeffs[primes] = np.log(primes)
    return coeffs


def alias_free_size(n: int, s: int, oversample: int) -> int:
    """Smallest power-of-two grid exceeding the bandwidth (s+1)*n, times
    oversample rounded up to a power of two."""
    return next_pow2((s + 1) * n + 1) * next_pow2(oversample)


def half_grid_conj(coeffs: np.ndarray, m: int, amplitudes: bool = False) -> np.ndarray:
    """The conjugates of the values sum_j c_j e(j * i/m) at the grid points
    i/m, 0 <= i <= m/2, as rfft(coeffs, n=m) gives them, or with `amplitudes`
    their absolute values, computed without the complex half grid (`_half_grid`).

    rfft sums c_j e(-j * i/m): with real weights that is the conjugate of the
    value at i/m, and it is the value itself at the mirror point (m - i)/m.
    Callers that want values take np.conj.
    """
    if m < len(coeffs):
        raise DomainError(f"grid size {m} <= max frequency {len(coeffs) - 1}")
    ensure_memory(_half_grid_bytes(m, 8 if amplitudes else 16), "half-grid evaluation")
    return _half_grid(coeffs, m, amplitudes)


#: Power-of-two grids of 2^20 points or more (measured: below that one real FFT
#: is as fast) are evaluated by residue classes of 2^16 points, 4 at a time.
#: One real FFT peaks at 48 bytes per half-grid point: pocketfft's padded copy
#: of the input and its scratch, outside numpy, then the complex output.  A
#: batch of classes peaks at 64 per class point: their folds and complex
#: values, the partial last block's product, and pocketfft's scratch.
_CLASS_POINTS = 1 << 16
_CLASSES_FROM = 1 << 20
_CLASS_BATCH = 4


def _class_count(m: int) -> int:
    """R, the number of residue classes of the grid of size m (1: one real FFT)."""
    return m // _CLASS_POINTS if m >= _CLASSES_FROM and m & (m - 1) == 0 else 1


def _half_grid_bytes(m: int, point_bytes: int) -> int:
    """Peak bytes of `_half_grid` whose result holds point_bytes per half-grid point."""
    if _class_count(m) == 1:
        return 16 * m + 16 * half_size(m)
    return point_bytes * half_size(m) + 64 * _CLASS_BATCH * _CLASS_POINTS


def _half_grid(coeffs: np.ndarray, m: int, amplitudes: bool) -> np.ndarray:
    """rfft(coeffs, n=m), or its absolute values, by residue class i = r mod R
    (decimation in frequency): with m = R*M, the point R*t + r is the M-point
    FFT at t of the fold F_r(y) = sum_b c_{y + M*b} e(-r*b/R) twisted by
    e(-r*y/m).  Class 0 is real, and its real FFT holds t in [0, M/2]; class
    R - r at t is the conjugate of class r at M - 1 - t, so the complex FFTs
    of classes 1..R/2 hold the rest.  Each batch goes into the half grid at once."""
    R = _class_count(m)
    take, mirror = (np.abs, np.abs) if amplitudes else (np.asarray, np.conj)
    if R == 1:
        return take(np.fft.rfft(coeffs, n=m))
    M, h, g = m // R, m // (2 * R), min(_CLASS_BATCH, R // 2)
    full, rest = divmod(len(coeffs), M)
    blocks, tail = coeffs[: full * M].reshape(full, M), coeffs[full * M :]
    out = np.empty(m // 2 + 1, dtype=np.float64 if amplitudes else np.complex128)
    fold = blocks.sum(axis=0)
    fold[:rest] += tail
    out[::R] = take(np.fft.rfft(fold))
    grid = out[:-1].reshape(h, R)  # grid[t, r] is the point R*t + r
    split = 1 << (M.bit_length() // 2)  # the twist e(-r*y/m) from two tables in y = y_hi + y_lo
    b, y_lo, y_hi = np.arange(full + (rest > 0)), np.arange(split), np.arange(0, M, split)
    values = np.empty((g, M), dtype=np.complex128)  # one batch, transformed in place
    for r0 in range(1, R // 2 + 1, g):
        r = np.arange(r0, r0 + g)
        angles = (np.outer(r, b) % R) * (-2 * np.pi / R)
        weights = np.concatenate((np.cos(angles), np.sin(angles)))  # real parts, then imaginary
        folds = weights[:, :full] @ blocks
        folds[:, :rest] += weights[:, full:] * tail  # the partial last block, if any
        values.real, values.imag = folds[:g], folds[g:]
        del folds
        twisted = values.reshape(g, -1, split)
        twisted *= np.exp((-2j * np.pi / m) * np.outer(r, y_lo))[:, None, :]
        twisted *= np.exp((-2j * np.pi / m) * np.outer(r, y_hi))[:, :, None]
        np.fft.fft(values, axis=1, out=values)
        grid[:, r0 : r0 + g] = take(values[:, :h]).T
        grid[::-1, R - r0 : R - r0 - g : -1] = mirror(values[:, h:]).T  # t = h + j is R - r at h - 1 - j
    return out


def half_size(m: int) -> int:
    """Points j in [0, m/2] of the grid of size m."""
    return m // 2 + 1


@dataclass(frozen=True)
class HalfPoints:
    """A set of grid points j/m symmetric under j -> m - j, held as its
    `size` points on the half grid j in [0, m/2], in grid order.

    Each point stands for itself and its mirror m - j, so it counts twice;
    `once` holds the positions, among the points, of j = 0 and j = m/2, which
    are their own mirrors and count once.  Values given at the points, and
    classes of them (masks over the points or their ascending positions),
    then count and sum as on the full grid.
    """

    size: int
    once: np.ndarray
    m: int

    @classmethod
    def of(cls, points: np.ndarray, m: int) -> HalfPoints:
        """The points selected by a boolean mask over the half grid, or by
        their indices j in ascending order; either selects the values at the
        points from a half-grid array."""
        top = half_size(m) - 1
        if points.dtype == bool and len(points) != top + 1:
            raise DomainError(f"half-grid arrays need {top + 1} points for a grid of size {m}")
        size, mirrors = _picks(points, np.array([0, top] if m % 2 == 0 else [0], dtype=np.int64))
        # j = 0 is the first of the points and j = m/2 the last
        return cls(size=size, once=np.where(mirrors == 0, 0, size - 1), m=m)

    def count(self, points: np.ndarray | None = None) -> int:
        """Full-grid points of the set, or of the class given by a mask over
        its points or by their ascending positions among them."""
        size, once = (self.size, self.once) if points is None else _picks(points, self.once)
        return 2 * size - len(once)

    def total(self, values: np.ndarray, points: np.ndarray | None = None) -> float:
        """Sum over the full-grid points of the set, or of a class given as
        in `count`, of real values given at the points."""
        if points is None:
            return float(2.0 * values.sum() - values[self.once].sum())
        return float(2.0 * values[points].sum() - values[_picks(points, self.once)[1]].sum())

    def measure(self) -> float:
        return self.count() / self.m


def _picks(points: np.ndarray, ends: np.ndarray) -> tuple[int, np.ndarray]:
    """How many entries of an array a selection picks, given as a boolean mask
    or as ascending indices, and which of `ends`, indices of the array's first
    or last entry, it picks."""
    if points.dtype == bool:
        return int(np.count_nonzero(points)), ends[points[ends]]
    # not np.isin, whose first call imports numpy.ma: 0.6 MiB of the ledger's peak
    return len(points), ends[(ends == points[0]) | (ends == points[-1])] if len(points) else ends[:0]


# ---------------------------------------------------------------------------
# Farey arcs

# peak bytes per arc while a family is built (the list of Python integers the
# recurrence makes, then the int64 rows and the int64 neighbour checks);
# tracemalloc measures up to ~88 for the K family at n = 10^8; per arc of a
# built family that stays alive (its int64 row), 16
_ARC_BYTES = 128
_ARC_LIVE_BYTES = 24


@dataclass(frozen=True, eq=False)
class ArcUnion:
    """A closed Farey family: the arcs |q*alpha - a| <= W around each reduced
    a/q in [0, 1] with q <= q_top, clipped to [0, 1].

    `intervals` is an int64 array with one row (q, a) per arc, in ascending
    a/q.  The family shares one exact width W = num/den, so the arc around a/q
    runs from (a*den - num)/(q*den) to (a*den + num)/(q*den) and everything
    below is integer arithmetic on those ratios.

    Neighbouring rows are Farey neighbours, a'q - aq' = 1 (Hardy and Wright,
    Theorem 28), which construction asserts: the gap a'/q' - a/q is then
    1/(qq'), so the two arcs meet iff W*(1/q + 1/q') >= 1/(qq'), that is iff
    num*(q + q') >= den, and the family is disjoint iff num*max(q + q') < den.
    """

    label: str
    intervals: np.ndarray
    num: int
    den: int

    def __post_init__(self) -> None:
        q, a = self.intervals.T
        if not (a[1:] * q[:-1] - a[:-1] * q[1:] == 1).all():
            raise InternalConsistencyError(f"{self.label}: neighbouring rows are not Farey neighbours")
        widths = q[:-1] + q[1:]
        if self.num * int(widths.max(initial=0)) >= self.den:
            # the first seam: q + q' >= ceil(den/num), a bound no larger than max(q + q')
            first = int(np.argmax(widths >= -(-self.den // self.num)))
            q1, a1 = self.intervals[first + 1].tolist()
            seam = max(0, a1 * self.den - self.num) / (q1 * self.den)
            raise DomainError(f"{self.label}: overlapping intervals at {seam:.6g}")

    def measure_exact(self) -> Fraction:
        """Exact length inside [0, 1]: each arc is 2*W/q long, summed per
        distinct q, less what the arcs at 0 and 1 reach past [0, 1] (the family
        is disjoint, so no other arc can)."""
        counts = np.bincount(self.intervals[:, 0]).tolist()
        per_width = sum((Fraction(count, q) for q, count in enumerate(counts) if count), Fraction(0))
        (q0, a0), (q1, a1) = self.intervals[[0, -1]].tolist()
        past_zero = Fraction(max(0, self.num - a0 * self.den), q0 * self.den)
        past_one = Fraction(max(0, (a1 - q1) * self.den + self.num), q1 * self.den)
        return Fraction(2 * self.num, self.den) * per_width - past_zero - past_one

    def measure(self) -> float:
        return float(self.measure_exact())

    def _spans(self, m: int) -> tuple[np.ndarray, ...]:
        """q, a, j0, j1 of the arcs holding half-grid points j/m, j0 <= j <= j1 <= m/2.

        With F = floor(m*W) the arc's grid points are exactly
        ceil((m*a - F)/q) <= j <= floor((m*a + F)/q): m*a is an integer, so
        the fractional part of m*W never moves either bound.
        """
        q, a = self.intervals.T
        F = m * self.num // self.den
        j0 = np.maximum(-((F - m * a) // q), 0)
        j1 = np.minimum((m * a + F) // q, half_size(m) - 1)
        hit = j0 <= j1
        return q[hit], a[hit], j0[hit], j1[hit]

    def grid_points(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat int64 arrays (j, q, a): each point j/m of the family on the
        half grid j in [0, m/2], in ascending j, with the centre a/q of its arc.
        The family is symmetric under a/q -> (q - a)/q, so its points on the
        full grid are symmetric under j -> m - j and the half grid holds them all."""
        q, a, j0, j1 = self._spans(m)
        lengths = j1 - j0 + 1
        # the points of arc i are j0[i] + (position in the flat run - where arc i starts)
        j = np.arange(lengths.sum()) + np.repeat(j0 - (np.cumsum(lengths) - lengths), lengths)
        return j, np.repeat(q, lengths), np.repeat(a, lengths)

    def endpoint_count(self) -> int:
        return 2 * len(self.intervals)

    def to_json_arcs(self) -> JsonRecords:
        """One record q, a, center, half_width per arc, as float64 columns
        holding the correctly rounded a/q and W/q."""
        q, a = self.intervals.T
        # a and q are below 2^53, so the float quotient is the rounded a/q; each
        # q gets its num/(q*den) from exact integer division
        widths = np.array([self.num / (qq * self.den) for qq in range(1, int(q.max()) + 1)])
        return JsonRecords(columns=(q, a, a / q, widths[q - 1]), fields=("q", "a", "center", "half_width"))


def _family_bytes(q_top: int, per_arc: int = _ARC_BYTES) -> int:
    """Bytes of the Farey family of order q_top, at per_arc bytes per arc: it
    has at most 2 + q_top^2/2 arcs (phi(q) < q)."""
    return per_arc * (q_top * q_top // 2 + 2)


def _charge_family(label: str, q_top: int) -> None:
    ensure_memory(_family_bytes(q_top), f"Farey family {label} of order {q_top}")


def _farey_family(label: str, q_top: int, width: Fraction) -> ArcUnion:
    """The arcs |q*alpha - a| <= width around the Farey fractions of order q_top.

    The next-term recurrence yields every reduced a/q in [0, 1] with q <= q_top
    in ascending order, so there is no gcd test and no sort.  The family is
    charged against the budget first.
    """
    _charge_family(label, q_top)
    rows = [1, 0]
    a, b, c, d = 0, 1, 1, q_top
    while c <= q_top:
        step = (q_top + b) // d
        a, b, c, d = c, d, step * c - a, step * d - b
        rows += (b, a)
    intervals = np.array(rows, dtype=np.int64).reshape(-1, 2)
    del rows  # its int objects go before the exact check makes its own
    return ArcUnion(label=label, intervals=intervals, num=width.numerator, den=width.denominator)


def major_arcs(Q: float, denom: int, label: str | None = None) -> ArcUnion:
    """|q*alpha - a| <= Q/denom around each reduced a/q in [0, 1] with q <= Q.

    Disjoint when Q <= sqrt(denom)/2 (enforced); the width is exact.
    """
    _check_major_height(Q, denom)
    return _farey_family(label or f"M({Q:g})", int(math.floor(Q)), Fraction(Q) / denom)


def _check_major_height(Q: float, denom: int) -> None:
    if not Q >= 1:  # refuses NaN too
        raise DomainError(f"height must be >= 1, got {Q}")
    # 1e-9 slack: callers pass Q = sqrt(denom)/2 as a float, which may round a
    # hair above the irrational bound; disjointness genuinely needs only
    # 2*Q^2 < denom, so the slack is harmless and overlap is still asserted
    # exactly at construction.
    if Q > 0.5 * math.sqrt(denom) * (1.0 + 1e-9):
        raise DomainError(f"height {Q} above the disjointness bound sqrt({denom})/2")


def major_height(label: str, n: int, k: int) -> float:
    """The height of the named family at scale n: the core arcs N, the pruned
    arcs L, and the wide major arcs K and Kprime.

    The core height (log n)^(1/99) stays below 2 unless log n >= 2^99.
    """
    if label == "N":
        return math.log(n) ** CORE_HEIGHT_EXPONENT
    if label == "L":
        return max(1.0, kth_root_floor(n, k) ** PRUNED_HEIGHT_EXPONENT)
    if label == "K":
        return n**0.4
    if label == "Kprime":
        return 0.5 * math.sqrt(n)
    raise DomainError(f"unknown arc-union label {label!r}")


def build_arc_union(label: str, n: int, k: int) -> ArcUnion:
    """The named family N, L, K or Kprime at scale n.  N, of height Qcal < 2, is
    the order-1 family with W = Qcal/n, free of the major arcs' sqrt(n)/2 bound."""
    height = major_height(label, n, k)
    if label != "N":
        return major_arcs(height, n, label=label)
    if not height >= 1:
        raise DomainError(f"core height must be >= 1, got {height}")
    return _farey_family("N", 1, Fraction(height) / n)


def _check_slice_height(n: int, Y: float) -> None:
    if not 0.5 <= Y <= 0.25 * math.sqrt(n):
        raise DomainError(f"slice height must lie in [1/2, sqrt(n)/4], got {Y}")


def height_slice(n: int, Y: float, m: int) -> tuple[str, np.ndarray, float]:
    """The slice P(Y) = M(2Y) minus M(Y) at scale n: its label, its points
    on the half grid j/m, j in [0, m/2], as ascending int64 j, and its measure.

    Both families are symmetric under j -> m - j, so the half grid holds the
    whole slice.  Its points are those of M(2Y) that no span of M(max(1, Y))
    holds: the spans ascend, so for each point the last span starting at or
    before it must end before it.  Each arc of M(max(1, Y)) has the centre of
    an arc of M(2Y) and is no wider (Y >= 1/2), so the slice measure is the
    exact difference of the two.
    """
    _check_slice_height(n, Y)
    outer = major_arcs(2 * Y, n)
    inner = major_arcs(max(1.0, Y), n)
    j = outer.grid_points(m)[0]
    _, _, j0, j1 = inner._spans(m)
    ends = np.concatenate(([-1], j1))  # ends[i]: the end of the i-th span, -1 before the first
    points = j[j > ends[np.searchsorted(j0, j, side="right")]]
    return f"P({Y:g})", points, float(outer.measure_exact() - inner.measure_exact())


# ---------------------------------------------------------------------------
# Arc integrals


def integrate_over_set(
    spectra: list[np.ndarray],
    conjugate_flags: list[bool],
    twist: int | None,
    region: ArcUnion | None,
    m: int,
) -> dict:
    """Riemann sum of prod spectra * e(-alpha*twist) over the region's points
    of the grid of size m, as {value, boundary_error, points, measure}.

    Real spectra and an integer twist make the integrand at 1 - alpha the
    conjugate of its value at alpha, and every region is mirror-symmetric,
    so the sum is real: a float, taken over the half grid.  On the full circle
    (region None) with an alias-free grid this equals the true integral
    exactly; on subsets the reported boundary error bounds the endpoint
    effect (endpoint count * sup |integrand| / m; 0 on the full circle).
    """
    if len(spectra) != len(conjugate_flags):
        raise DomainError("one conjugate flag per spectrum required")
    if not all(np.isrealobj(coeffs) for coeffs in spectra):
        raise DomainError("spectra must have real weights")
    if twist is not None and not isinstance(twist, numbers.Integral):
        raise DomainError(f"twist must be an integer, got {twist!r}")
    prod = np.ones(half_size(m), dtype=np.complex128)
    for coeffs, conj in zip(spectra, conjugate_flags):
        vals = half_grid_conj(coeffs, m)  # already conjugated
        prod *= vals if conj else np.conj(vals)
    if twist:
        prod *= np.exp((-2j * np.pi * twist / m) * np.arange(half_size(m)))
    j = np.arange(half_size(m)) if region is None else region.grid_points(m)[0]
    bound = 0.0 if region is None else region.endpoint_count() * float(np.abs(prod).max()) / m
    points = HalfPoints.of(j, m)
    return {"value": points.total(prod.real[j]) / m, "boundary_error": bound,
            "points": points.count(), "measure": points.measure()}


@lru_cache(maxsize=64)
def _v_weights(n: int, k: int) -> np.ndarray:
    m = np.arange(1, n + 1, dtype=np.float64)
    return m ** (-1.0 + 1.0 / k) / k


def v_poly(beta: float, n: int, k: int) -> complex:
    """(1/k) sum_{m<=n} m^(1/k - 1) e(beta m), by direct summation."""
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    w = _v_weights(n, k)
    phases = np.exp(2j * np.pi * beta * np.arange(1, n + 1))
    return complex(np.dot(w, phases))


#: Composite Gauss-Legendre rule of singular_integral: nodes per panel, and
#: panels no wider than 1/(_PANELS_PER_PERIOD * n) in beta, half the period of
#: the fastest phase e(-beta n).
_GL_NODES = 16
_PANELS_PER_PERIOD = 2


def singular_integral(n: int, k: int, s: int, X: float) -> float:
    """Composite Gauss-Legendre quadrature of v_1(b) * v_k(b)^s * e(-b n) over |b| <= X/n.

    The integrand has conjugate symmetry, so the value is twice the real part
    of the half-range integral.
    """
    if not 1 <= X <= n / 2:
        raise DomainError(f"need 1 <= X <= n/2, got X={X}")
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
    edges = np.linspace(0.0, X / n, math.ceil(_PANELS_PER_PERIOD * X) + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        for node, weight in zip(nodes, weights):
            beta = lo + half * (node + 1.0)
            value = v_poly(beta, n, 1) * v_poly(beta, n, k) ** s * np.exp(-2j * np.pi * beta * n)
            total += half * weight * value.real
    return 2.0 * total


# ---------------------------------------------------------------------------
# Major-arc model and moments


def major_arc_model_error(n: int, k: int, R: int) -> dict:
    """Sup over core-arc grid points of |f(alpha) - rho * S(q,a)/q * v_k(alpha - a/q)|.

    rho is the empirical smooth density |A(P, R)| / P.  The sup is also
    reported normalized by n^(1/k), with the grid points and arcs it ran over.
    """
    spectrum, members = build_f_spectrum(n, k, R)
    P = kth_root_floor(n, k)
    rho_hat = len(members) / P
    m = alias_free_size(n, 1, 1)
    f_conj = half_grid_conj(spectrum, m)
    core = build_arc_union("N", n, k)
    j, q, a = core.grid_points(m)
    # the half grid holds the sup: at the mirror point f, S(q, q - a) and
    # v_k(-beta) are all conjugated, so |f - model| repeats
    sup_err = 0.0
    for jj, qq, aa in zip(j.tolist(), q.tolist(), a.tolist()):
        model = rho_hat * gauss_sums_all(qq, k)[aa % qq] / qq * v_poly(jj / m - aa / qq, n, k)
        sup_err = max(sup_err, abs(f_conj[jj].conjugate() - model))
    return {"n": int(n), "k": int(k), "R": int(R), "rho_hat": rho_hat,
            "sup_abs_error": sup_err, "normalized": sup_err / n ** (1.0 / k),
            "points": HalfPoints.of(j, m).count(), "arcs": len(core.intervals)}


def _moment_amplitudes(P: int, R: int, k: int, t: float) -> tuple[np.ndarray, int, float]:
    """|f| on the half grid j in [0, m/2] at denominator P^k, the grid size m
    and max |f|^t over the grid; refused before the FFT when the sums of
    |f|^t <= P^t over the grid could leave the double range."""
    m = alias_free_size(P**k, 0, 2)
    check_double_range(P, t, f"P^t * grid size = {P}^{t:g} * {m}", factor=m)
    f_half = half_grid_conj(build_f_spectrum(P**k, k, R)[0], m, amplitudes=True)
    # the grid max, not f_half[0] = |f(0)|: the two differ by rounding when |f| is flat
    return f_half, m, float(f_half.max() ** t)


def _moment_row(Q: float, t: float, denom: int, f_half: np.ndarray, m: int, sup_t: float) -> dict:
    """The report row of V(Q), the Riemann sum of |f|^t over the major arcs of
    height Q at denominator P^k, from |f| on the half grid of size m and
    max |f|^t over it; the caller adds the slope."""
    arcs = major_arcs(Q, denom)
    j = arcs.grid_points(m)[0]
    points = HalfPoints.of(j, m)
    return {"Q": Q, "V": points.total(f_half[j] ** t) / m, "measure": points.measure(),
            "boundary_error": arcs.endpoint_count() * sup_t / m}


def moment_doubling_report(P: int, R: int, k: int, t: float, q_values: list[float] | None = None) -> dict:
    """V(Q) over a dyadic ladder with log2 slopes and the reference 2*Delta_t/k."""
    if P < 2 or k < 1:
        raise DomainError(f"need P >= 2 and k >= 1, got P={P}, k={k}")
    check_double_range(P, k, f"P^k = {P}^{k}")  # the heights and the ladder take P^k as a double
    _check_positive(t=t)
    reference = 2.0 * eta(t / k)  # 2*Delta_t/k with Delta_t = k*eta(t/k)
    denom = P**k
    if q_values is None:
        q_values, q = [], 1.0
        while q <= 0.5 * math.sqrt(denom):
            q_values.append(q)
            q *= 2.0
    for q in q_values:
        _check_major_height(q, denom)
    grid = _moment_amplitudes(P, R, k, t)  # one grid pass for the whole ladder
    rows = []
    prev = None
    for q in q_values:
        row = _moment_row(q, t, denom, *grid)
        value = row["V"]
        row["log2_ratio"] = math.log2(value / prev) if prev and prev > 0 and value > 0 else None
        rows.append(row)
        prev = value
    return {
        "P": P, "R": R, "k": k, "t": t,
        "reference_slope": reference,
        "rows": rows,
        "below_guaranteed_range": t < k + 1,
    }


# ---------------------------------------------------------------------------
# Level sets


def _check_positive(**values: float | None) -> None:
    """Each named value (the band thresholds U and V, which divide n, and the
    moment order t) must be finite and positive."""
    for name, value in values.items():
        if value is not None and not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be finite and positive, got {value}")


def level_partition(
    n: int,
    k: int,
    s: int,
    theta: int,
    points: HalfPoints,
    g_abs: np.ndarray,
    f_abs: np.ndarray,
    *,
    family: str,
    U: float | None = None,
    V: float | None = None,
    Q: float | None = None,
) -> dict:
    """Classify the points of a symmetric base set on the half grid by the size
    of |g| (and then |f|), given |g| and |f| at the points in grid order: the
    report block of the thresholds, the warnings, the sum of the class
    measures, the base measure and one row [label, measure, sup_g, sup_f,
    contribution_abs] per class.

    Counts, measures and sums are over the full grid (each half-grid point
    standing for its mirror too).  family="minor": tiny_g is |g| <= sqrt(n);
    the band is n/U <= |g| <= 2n/U, split at |f|^s = P^s/(U * L^3).  family="slice":
    small_g is |g| <= n/Q on a height slice, band n/V <= |g| <= 2n/V split at
    |f|^s = P^s/(V * L^4).  Points of the base in neither class land in
    "unbanded", so the classes partition the base exactly.  Thresholds outside
    the ranges the theory covers produce warnings, not errors.
    """
    _check_positive(U=U, V=V)
    L = math.log(n)
    if family == "minor":
        if U is None:
            raise DomainError("minor-family partition needs U")
        name, scale, first_label, first_cut = "U", U, "tiny_g", math.sqrt(n)
        lo, hi, log_power = n ** (1.0 / theta) / L**5, math.sqrt(n), 3
        thresholds = {"U": U, "theta": theta}
    elif family == "slice":
        if V is None or Q is None:
            raise DomainError("slice-family partition needs V and Q")
        name, scale, first_label, first_cut = "V", V, "small_g", n / Q
        lo, hi, log_power = math.sqrt(Q) / L**5, Q, 4
        thresholds = {"V": V, "Q": Q, "theta": theta}
    else:
        raise DomainError(f"unknown level-set family {family!r}")
    warnings = []
    if not lo <= scale <= hi:
        warnings.append(f"{name}={scale:g} outside the covered range [{lo:g}, {hi:g}]")
    split = kth_root_floor(n, k) ** s / (scale * L**log_power)
    thresholds["f_split"] = split

    f_pow = f_abs**s
    first = g_abs <= first_cut
    band = ~first & (g_abs >= n / scale) & (g_abs <= 2 * n / scale)
    band_small = band & (f_pow <= split)
    weight = np.multiply(f_pow, g_abs, out=f_pow)  # |g| |f|^s, in the buffer of |f|^s
    labels = (first_label, "band_small_f", "band_large_f", "unbanded")
    masks = (first, band_small, band & ~band_small, ~first & ~band)
    classes = []
    for label, mask in zip(labels, masks):
        # the class's positions among the base points: its three selections read
        # the same values, in the same order, as the mask would; amplitudes are
        # >= 0, so an empty class has sup 0.0
        at = np.flatnonzero(mask)
        classes.append([label, points.count(at) / points.m, float(g_abs[at].max(initial=0.0)),
                        float(f_abs[at].max(initial=0.0)), points.total(weight, at) / points.m])
    return {"thresholds": thresholds, "warnings": warnings, "measure_sum": float(sum(row[1] for row in classes)),
            "base_measure": points.measure(), "classes": classes}


def dyadic_band_cover(n: int, theta: int, g_abs: np.ndarray, points: HalfPoints) -> dict:
    """Check that O(log n) dyadic bands cover the base points with |g| > sqrt(n),
    given |g| at the points.

    Bands are n/U <= |g| <= 2n/U for U halving from sqrt(n) down to
    n^(1/theta)/L^5 (at most 200 bands).
    Consecutive bands share an endpoint exactly in floating point (n/(U/2)
    and 2n/U round the same quotient), so together they are the one interval
    from n/sqrt(n) to 2n/U_last, and coverage can fail only above the top band
    (a point would contradict the prime-sum envelope at scale; at desk scale
    it simply reports).
    """
    u_min = n ** (1.0 / theta) / math.log(n) ** 5
    bands, u, top = 0, math.sqrt(n), None
    while u >= u_min and bands < 200:
        top = 2 * n / u
        u /= 2.0
        bands += 1
    over = g_abs > math.sqrt(n)
    uncovered = over if top is None else over & ~((g_abs >= n / math.sqrt(n)) & (g_abs <= top))
    return {"bands": bands, "points_above_tiny": points.count(over), "uncovered": points.count(uncovered)}


def g_envelope_constant(n: int, sup_g: float) -> dict:
    """Empirical C with sup |g| on the base <= C * n^(4/5) * L^4 (reported, not asserted)."""
    scale = n**0.8 * math.log(n) ** 4
    return {"sup_g": sup_g, "scale": scale, "constant": sup_g / scale}


# peak bytes per half-grid point while dissection_ledger partitions the minor
# arcs (most of the grid): |g| and |f| there (16), |f|^s (8), the class masks
# (4), one class's positions and values (16), and what the allocator keeps:
# VmHWM rises by 42 to 48 at n = 10^6
_LEDGER_HALF_POINT_BYTES = 56
# what the ledger adds whatever its size, past the three phases: numpy.fft's
# import at the first transform, the interpreter's object arenas and the heap
# glibc keeps between phases; VmHWM rises 0.6 to 1.1 MiB past them for n from
# 4*10^3 to 7*10^4
_LEDGER_FIXED_BYTES = 2 << 20


def _theta_families(theta: int) -> tuple[str, str]:
    """The labels of the wide major arcs and of the minor arcs, their
    complement, for theta = 4 or 5."""
    return {4: ("Kprime", "kprime"), 5: ("K", "k")}[check_theta(theta)]


def ledger_bytes(n: int, k: int, theta: int, m: int, Q_slice: float) -> int:
    """Peak working set of dissection_ledger at scale n on a grid of size m.

    It is the largest of three phases.  First the Farey families are built: K
    or Kprime, L and N, which stay alive, and the two families of the slice
    P(Q_slice), which go once its mask is taken.  Then the two transforms run
    one after the other, each beside its spectrum (8 bytes per frequency) and
    the minor-arc mask, the second beside the first's half grid as well; and
    then the minor arcs are partitioned, beside the three families that stayed.
    A fixed charge covers what no phase holds, which dominates on small grids.
    """
    kept = [major_height(label, n, k) for label in (_theta_families(theta)[0], "L", "N")]
    orders = [math.floor(height) for height in (*kept, 2 * Q_slice, max(1.0, Q_slice))]
    arcs = sum(_family_bytes(q_top) for q_top in orders)
    transforms = 8 * (n + 1) + 9 * half_size(m) + _half_grid_bytes(m, 8)
    grid = max(transforms, _LEDGER_HALF_POINT_BYTES * half_size(m))
    kept_arcs = sum(_family_bytes(q_top, _ARC_LIVE_BYTES) for q_top in orders[:3])
    return _LEDGER_FIXED_BYTES + max(arcs, grid + kept_arcs)


def _band_scale(n: int, sup: float) -> float:
    """2n/sup, lowered an ulp at a time until 2n/U >= sup in floating point:
    the band n/U <= |g| <= 2n/U then holds the point |g| = sup however the
    two divisions round."""
    scale = 2.0 * n / sup
    while 2 * n / scale < sup:
        scale = math.nextafter(scale, 0.0)
    return scale


def dissection_ledger(
    n: int,
    k: int,
    s: int,
    theta: int,
    R: int,
    oversample: int = 1,
    U: float | None = None,
    V: float | None = None,
    Q_slice: float | None = None,
) -> dict:
    """Full arc dissection at scale n with both level-set families.

    Builds the named arc unions, takes |g| and |f| on the half of an
    alias-free grid, partitions the minor arcs and one height slice by the
    size of |g|, runs the dyadic covering check, and reports the empirical
    envelope constants.  Thresholds default to values that keep the bands
    populated at desk scale: U = 2n/sup |g| on the minor arcs and V likewise
    on the slice (clamped to their covered ranges), so the band's top edge
    holds the largest |g|.  All of them are recorded in the output.
    """
    check_exponents(k, s)
    wide_label, minor_label = _theta_families(theta)
    _check_positive(U=U, V=V)
    m = alias_free_size(n, s, oversample)
    # |g| <= theta(n) < 2n and |f| <= P: the m-point sums of |g| |f|^s stay below P^s * 2n * m
    P = kth_root_floor(n, k)
    check_double_range(P, s, f"P^s * 2n * grid size = {P}^{s} * {2 * n} * {m}", factor=2 * n * m)
    if Q_slice is None:  # within [1/2, sqrt(n)/4] wherever n >= 4
        q_hi = min(16.0, 0.5 * n ** (2.0 / theta))
        Q_slice = min(max(P**PRUNED_HEIGHT_EXPONENT, q_hi), 0.25 * math.sqrt(n))
    # the heights, in the order the families are built, then the widest
    # family's charge and the whole working set's, before anything is built
    for label in (wide_label, "L"):
        _check_major_height(major_height(label, n, k), n)
    _check_slice_height(n, Q_slice)
    _charge_family(wide_label, math.floor(major_height(wide_label, n, k)))
    ensure_memory(ledger_bytes(n, k, theta, m, Q_slice), f"dissection ledger at n = {n} on a grid of {m} points")
    wide = build_arc_union(wide_label, n, k)
    pruned = build_arc_union("L", n, k)
    core = build_arc_union("N", n, k)
    slice_label, slice_points, slice_measure = height_slice(n, Q_slice, m)
    minor_mask = np.ones(half_size(m), dtype=bool)
    minor_mask[wide.grid_points(m)[0]] = False

    # |g| and |f| once on the half grid, one after the other, each spectrum dropped
    # once transformed; they are kept at the base points of each family only
    g_half = half_grid_conj(build_g_spectrum(n), m, amplitudes=True)
    f_spec, members = build_f_spectrum(n, k, R)
    f_half = half_grid_conj(f_spec, m, amplitudes=True)
    del f_spec
    minor, minor_g, minor_f = HalfPoints.of(minor_mask, m), g_half[minor_mask], f_half[minor_mask]
    sliced, slice_g, slice_f = HalfPoints.of(slice_points, m), g_half[slice_points], f_half[slice_points]
    f_envelope = f_envelope_constant(n, k, f_half, m, pruned)
    del f_half, g_half, minor_mask, slice_points  # the partitions below need only the base points

    sup_g_minor = float(minor_g.max()) if len(minor_g) else 0.0
    if U is None:
        U = min(math.sqrt(n), max(1.0, _band_scale(n, sup_g_minor) if sup_g_minor else math.sqrt(n)))
    part_minor = level_partition(n, k, s, theta, minor, minor_g, minor_f, family="minor", U=U)

    sup_g_slice = float(slice_g.max()) if len(slice_g) else 0.0
    if V is None:
        V = min(Q_slice, max(math.sqrt(Q_slice), _band_scale(n, sup_g_slice) if sup_g_slice else Q_slice))
    part_slice = level_partition(n, k, s, theta, sliced, slice_g, slice_f, family="slice", V=V, Q=Q_slice)

    return {
        "n": n, "k": k, "s": s, "theta": theta, "R": R,
        "grid_size": m,
        "smooth_count": len(members),
        "arc_unions": {
            wide.label: {"measure": wide.measure(), "arcs": len(wide.intervals)},
            minor_label: {"measure": float(1 - wide.measure_exact())},
            pruned.label: {"measure": pruned.measure(), "arcs": len(pruned.intervals)},
            core.label: {"measure": core.measure(), "arcs": len(core.intervals)},
            slice_label: {"measure": slice_measure},
        },
        "arcs_json": {
            wide.label: wide.to_json_arcs(),
            pruned.label: pruned.to_json_arcs(),
            core.label: core.to_json_arcs(),
        },
        "minor_partition": part_minor,
        "slice_partition": part_slice,
        "covering": dyadic_band_cover(n, theta, minor_g, minor),
        "g_envelope": g_envelope_constant(n, sup_g_minor),
        "f_envelope": f_envelope,
    }


def f_envelope_constant(n: int, k: int, f_half: np.ndarray, m: int, pruned: ArcUnion) -> dict:
    """Empirical C with |f| <= C * P * L^3 * upsilon^(1/2k) on the pruned arcs,
    from f_half = |f| on the half grid, which holds the maximum over the grid."""
    scale = kth_root_floor(n, k) * math.log(n) ** 3
    j, q, a = pruned.grid_points(m)
    ups = 1.0 / (q + n * np.abs(q * (j / m) - a))
    ratio = f_half[j] / (scale * ups ** (1.0 / (2 * k)))
    return {"scale": scale, "constant": float(ratio.max(initial=0.0))}
