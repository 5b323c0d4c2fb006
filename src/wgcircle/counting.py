"""Exact representation counts and the order-of-magnitude prediction.

r(n) counts ordered solutions of n = p + x_1^k + ... + x_s^k in primes p and
natural numbers x_j >= 1.  Two independent routes:

  * count_direct enumerates the s-fold power sums outright and looks up the
    prime complement (no convolution algorithm involved);
  * count_range raises the power-indicator polynomial to the s-th power by
    repeated convolution and convolves with the prime indicator; every entry
    is an exact integer (verified float FFT, splitting operands it rejects),
    held as a Python integer once it outgrows int64.

The prediction compared against is

    series(n) * Gamma(1 + 1/k)^s / Gamma(s/k + 1) * n^(s/k) / log n,

whose Gamma factor is the standard circle-method heuristic; only the order of
magnitude is backed by theory, and reports label the constant as heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import check_double_range, check_exponents, kth_root_floor, sieve_primes
from .convolve import ConvStats, convolve_exact, fft_working_bytes, next_pow2, power
from .errors import DomainError, ResourceError, ensure_memory
from .series import check_limits, singular_series_many

_DIRECT_BUDGET = 80_000_000  # tuple budget for the brute-force route

#: Peak bytes per tuple of one step of the brute-force route: the int64 sums,
#: the mask of those <= bucket and the int64 copy kept.
_TUPLE_BYTES = 17


@lru_cache(maxsize=32)
def _power_sums(k: int, s: int, bucket: int) -> np.ndarray:
    """Sorted s-fold sums x_1^k + ... + x_s^k <= bucket (ordered tuples kept)."""
    top = kth_root_floor(bucket, k)
    ensure_memory(8 * top, f"the direct count's {top} k-th powers")
    powers = np.arange(1, top + 1, dtype=np.int64) ** k
    sums = powers
    for _ in range(s - 1):
        tuples = len(sums) * len(powers)
        if tuples > _DIRECT_BUDGET:
            raise ResourceError(f"direct enumeration would exceed {_DIRECT_BUDGET} tuples")
        ensure_memory(_TUPLE_BYTES * tuples, f"direct enumeration of {tuples} tuples")
        sums = (sums[:, None] + powers[None, :]).ravel()
        sums = sums[sums <= bucket]
    out = np.sort(sums)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def _prime_mask_cached(bucket: int) -> np.ndarray:
    mask = sieve_primes(bucket)
    mask.setflags(write=False)
    return mask


def _solution_terms(k: int, s: int, n: int, table: np.ndarray | None = None) -> np.ndarray:
    """table[n - (x_1^k + ... + x_s^k)] for every ordered tuple of x_j >= 1
    leaving a complement >= 2; table defaults to the prime indicator."""
    check_exponents(k, s)
    if n < s + 2:  # smallest representable value is 2 + s
        return np.zeros(0, dtype=np.int64)
    bucket = max(16, next_pow2(n))
    sums = _power_sums(k, s, bucket)
    sums = sums[: int(np.searchsorted(sums, n - 2, side="right"))]
    return (_prime_mask_cached(bucket) if table is None else table)[n - sums]


def count_direct(k: int, s: int, n: int) -> int:
    """Exhaustive count of n = p + (s-fold k-th power sum), ordered tuples.

    Enumerates every power-sum value with multiplicity and tests the prime
    complement; independent of the convolution route.
    """
    return int(_solution_terms(k, s, n).sum())


def count_direct_weighted(k: int, s: int, n: int, log_weights: np.ndarray) -> float:
    """Like count_direct but summing log p over solutions (quadrature oracle)."""
    return float(_solution_terms(k, s, n, log_weights).sum())


def _power_indicator(k: int, n_max: int) -> np.ndarray:
    ind = np.zeros(n_max + 1, dtype=np.int64)
    ind[np.arange(1, kth_root_floor(n_max, k) + 1, dtype=np.int64) ** k] = 1
    return ind


def _power_part(k: int, s: int, n_max: int, stats: ConvStats | None) -> np.ndarray:
    """z^0..z^n_max of the s-th power of the k-th power indicator, refused up
    front when the FFT working set overruns the budget."""
    ensure_memory(fft_working_bytes(n_max + 1), f"the exact-count FFT up to n = {n_max}")
    # exact: summands are >= 1, so truncating every product at z^n_max is safe
    return power(_power_indicator(k, n_max), s, n_max + 1, stats=stats)


def count_range(k: int, s: int, n_max: int, stats: ConvStats | None = None) -> np.ndarray:
    """Exact r(n) for all n <= n_max, via generating-function convolution."""
    check_exponents(k, s)
    if n_max < 2:
        raise DomainError(f"need n_max >= 2, got {n_max}")
    power_part = _power_part(k, s, n_max, stats)
    return convolve_exact(power_part, sieve_primes(n_max).astype(np.int64), n_max + 1, stats)


def gamma_factor(k: int, s: int) -> float:
    """Gamma(1+1/k)^s / Gamma(s/k+1), the heuristic constant of the prediction."""
    try:
        denominator = math.gamma(s / k + 1.0)
    except OverflowError:
        raise DomainError(f"Gamma(s/k + 1) = Gamma({s / k + 1.0:g}) leaves the double range") from None
    return math.gamma(1.0 + 1.0 / k) ** s / denominator


def hl_prediction(k: int, s: int, n, series_value):
    """series(n) * Gamma(1+1/k)^s / Gamma(s/k+1) * n^(s/k) / log n, elementwise
    over arrays of n and series values, or scalars: the same numpy operations,
    so a scalar call gives bit for bit the matching element of an array call.

    The Gamma factor is the standard heuristic constant (labelled as such in
    reports); only the order of magnitude is backed by theory.
    """
    ns = np.asarray(n, dtype=np.int64)
    if ns.size and ns.min() < 3:
        raise DomainError(f"prediction needs n >= 3, got {int(ns.min())}")
    return series_value * gamma_factor(k, s) * ns ** (s / k) / np.log(ns)


#: Column names of a comparison report, in CSV order.
COMPARE_COLUMNS = ("n", "r", "prediction", "ratio", "series")


@dataclass(frozen=True, eq=False)
class CompareReport:
    """Counts against the prediction, one array per column (see COMPARE_COLUMNS).

    `r` is int64, or an object array of Python integers once a count
    outgrows int64; `ratio` is r / prediction, NaN where the prediction is
    not positive.
    """

    k: int
    s: int
    n_lo: int
    n_hi: int
    stride: int
    prime_cutoff: int
    n: np.ndarray
    r: np.ndarray
    prediction: np.ndarray
    ratio: np.ndarray
    series: np.ndarray
    min_ratio: float
    mean_ratio: float
    zero_count: int
    constant_note: str = "prediction constant is heuristic (circle-method shape); only the order is backed by theory"

    def columns(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in COMPARE_COLUMNS]


def compare_report(
    k: int,
    s: int,
    n_lo: int,
    n_hi: int,
    stride: int = 1,
    prime_cutoff: int = 1000,
    stats: ConvStats | None = None,
) -> CompareReport:
    """Exact counts against the prediction over a range, with aggregates."""
    if not 3 <= n_lo <= n_hi:
        raise DomainError(f"need 3 <= n_lo <= n_hi, got [{n_lo}, {n_hi}]")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")
    check_exponents(k, s)
    # refuse before any count: the series' limits, and the prediction's Gamma(s/k + 1) and n^(s/k)
    check_limits(s, prime_cutoff)
    gamma_factor(k, s)  # called only for its range check; hl_prediction computes the factor again
    check_double_range(n_hi, s / k, f"n^(s/k) = {n_hi}^({s}/{k})")
    counts = count_range(k, s, n_hi, stats)
    ns = np.arange(n_lo, n_hi + 1, stride, dtype=np.int64)
    series_vals = singular_series_many(n_lo, stride, len(ns), k, s, prime_cutoff)
    preds = hl_prediction(k, s, ns, series_vals)
    r = counts[ns]
    # int64 -> float64 and Python int -> float both round to nearest, so each
    # ratio is bit for bit the scalar r / pred
    ratio = np.full(len(ns), np.nan)
    np.divide(r.astype(np.float64), preds, out=ratio, where=preds > 0)
    return CompareReport(
        k=k, s=s, n_lo=n_lo, n_hi=n_hi, stride=stride, prime_cutoff=prime_cutoff,
        n=ns, r=r, prediction=preds, ratio=ratio, series=series_vals,
        min_ratio=float(ratio.min()), mean_ratio=float(ratio.mean()), zero_count=int((r == 0).sum()),
    )
