"""Exact representation counts and the order-of-magnitude prediction.

r(n) counts ordered solutions of n = p + x_1^k + ... + x_s^k in primes p and
natural numbers x_j >= 1; the conjugate count R(N) totals solutions of
p = x_1^k + ... + x_s^k with p <= N prime.  Two independent routes:

  * count_direct enumerates the s-fold power sums outright and looks up the
    prime complement (no convolution algorithm involved);
  * count_range raises the power-indicator polynomial to the s-th power by
    repeated convolution and convolves with the prime indicator; every entry
    is an exact integer (verified float FFT with an integer-safe fallback),
    held as a Python integer once it outgrows int64.

The prediction compared against is

    series(n) * Gamma(1 + 1/k)^s / Gamma(s/k + 1) * n^(s/k) / log n,

whose Gamma factor is the standard circle-method heuristic; only the order of
magnitude is backed by theory, and reports label the constant as heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .arith import check_double_range, kth_root_floor, sieve_primes
from .convolve import ConvStats, convolve_exact, fft_working_bytes, power
from .errors import DomainError, ResourceError, ensure_memory
from .series import singular_series_many

_DIRECT_BUDGET = 80_000_000  # tuple budget for the brute-force route


@dataclass
class ConvolutionPlan:
    method: str = "float_fft_verified"  # or "integer_safe", "direct"
    stats: ConvStats = field(default_factory=ConvStats)


def _bucket(limit: int) -> int:
    return 1 << max(4, (limit - 1).bit_length())


@lru_cache(maxsize=32)
def _power_sums(k: int, s: int, bucket: int) -> np.ndarray:
    """Sorted s-fold sums x_1^k + ... + x_s^k <= bucket (ordered tuples kept)."""
    powers = np.arange(1, kth_root_floor(bucket, k) + 1, dtype=np.int64) ** k
    sums = powers
    for _ in range(s - 1):
        if len(sums) * len(powers) > _DIRECT_BUDGET:
            raise ResourceError(f"direct enumeration would exceed {_DIRECT_BUDGET} tuples")
        sums = (sums[:, None] + powers[None, :]).ravel()
        sums = sums[sums <= bucket]
    out = np.sort(sums)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def _prime_mask_cached(bucket: int) -> np.ndarray:
    mask = sieve_primes(bucket).is_prime_mask()
    mask.setflags(write=False)
    return mask


def count_direct(k: int, s: int, n: int) -> int:
    """Exhaustive count of n = p + (s-fold k-th power sum), ordered tuples.

    Enumerates every power-sum value with multiplicity and tests the prime
    complement; independent of the convolution route.
    """
    if k < 1 or s < 1:
        raise DomainError(f"need k >= 1 and s >= 1, got k={k}, s={s}")
    if n < s + 2:  # smallest representable value is 2 + s
        return 0
    bucket = _bucket(n)
    sums = _power_sums(k, s, bucket)
    sums = sums[: int(np.searchsorted(sums, n - 2, side="right"))]
    if len(sums) == 0:
        return 0
    mask = _prime_mask_cached(bucket)
    return int(mask[n - sums].sum())


def count_direct_weighted(k: int, s: int, n: int, log_weights: np.ndarray) -> float:
    """Like count_direct but summing log p over solutions (quadrature oracle)."""
    if n < s + 2:
        return 0.0
    bucket = _bucket(n)
    sums = _power_sums(k, s, bucket)
    sums = sums[: int(np.searchsorted(sums, n - 2, side="right"))]
    if len(sums) == 0:
        return 0.0
    return float(log_weights[n - sums].sum())


def _power_indicator(k: int, n_max: int) -> np.ndarray:
    ind = np.zeros(n_max + 1, dtype=np.int64)
    ind[np.arange(1, kth_root_floor(n_max, k) + 1, dtype=np.int64) ** k] = 1
    return ind


def _check_budget(n_max: int) -> None:
    """Refuse up front when the FFT working set for z^0..z^n_max overruns the budget."""
    ensure_memory(fft_working_bytes(n_max + 1), f"the exact-count FFT up to n = {n_max}")


def count_range(k: int, s: int, n_max: int, plan: ConvolutionPlan | None = None) -> np.ndarray:
    """Exact r(n) for all n <= n_max, via generating-function convolution."""
    if k < 1 or s < 1 or n_max < 2:
        raise DomainError(f"need k, s >= 1 and n_max >= 2, got k={k}, s={s}, n_max={n_max}")
    _check_budget(n_max)
    plan = plan or ConvolutionPlan()
    # exact: summands are >= 1, so truncating every product at z^n_max is safe
    power_part = power(_power_indicator(k, n_max), s, n_max + 1, method=plan.method, stats=plan.stats)
    prime_ind = sieve_primes(n_max).is_prime_mask().astype(np.int64)
    return convolve_exact(power_part, prime_ind, n_max + 1, plan.method, plan.stats)


def count_conjugate(k: int, s: int, N: int, plan: ConvolutionPlan | None = None) -> int:
    """Solutions of p = x_1^k + ... + x_s^k with p <= N prime (ordered tuples)."""
    if N < 2:
        return 0
    _check_budget(N)
    plan = plan or ConvolutionPlan()
    power_part = power(_power_indicator(k, N), s, N + 1, method=plan.method, stats=plan.stats)
    mask = sieve_primes(N).is_prime_mask()
    return int(power_part[mask].sum())


def gamma_factor(k: int, s: int) -> float:
    """Gamma(1+1/k)^s / Gamma(s/k+1), the heuristic constant of the prediction."""
    try:
        denominator = math.gamma(s / k + 1.0)
    except OverflowError:
        raise DomainError(f"Gamma(s/k + 1) = Gamma({s / k + 1.0:g}) leaves the double range") from None
    return math.gamma(1.0 + 1.0 / k) ** s / denominator


def hl_prediction(k: int, s: int, n: int, series_value: float) -> float:
    """series(n) * Gamma(1+1/k)^s / Gamma(s/k+1) * n^(s/k) / log n.

    The Gamma factor is the standard heuristic constant (labelled as such in
    reports); only the order of magnitude is backed by theory.
    """
    if n < 3:
        raise DomainError(f"prediction needs n >= 3, got {n}")
    return series_value * gamma_factor(k, s) * n ** (s / k) / math.log(n)


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
    plan: ConvolutionPlan | None = None,
) -> CompareReport:
    """Exact counts against the prediction over a range, with aggregates."""
    if not 3 <= n_lo <= n_hi:
        raise DomainError(f"need 3 <= n_lo <= n_hi, got [{n_lo}, {n_hi}]")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")
    if k < 1 or s < 1:
        raise DomainError(f"need k, s >= 1, got k={k}, s={s}")
    # the float routes divide by Gamma(s/k + 1) and p^s (p - 1) and scale by n^(s/k): refuse before any count
    factor = gamma_factor(k, s)
    check_double_range(prime_cutoff, s, f"cutoff^s (cutoff - 1) = {prime_cutoff}^{s} ({prime_cutoff} - 1)",
                       factor=prime_cutoff - 1)
    check_double_range(n_hi, s / k, f"n^(s/k) = {n_hi}^({s}/{k})")
    counts = count_range(k, s, n_hi, plan)
    ns = np.arange(n_lo, n_hi + 1, stride, dtype=np.int64)
    series_vals = singular_series_many(ns, k, s, prime_cutoff)
    preds = series_vals * factor * ns ** (s / k) / np.log(ns)
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
