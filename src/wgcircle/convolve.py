"""Exact integer convolution and the one power engine built on it.

Counting by generating functions needs convolutions whose entries are exact
integers.  There are two routes, and the operands alone choose between them.
While max(a) * max(b) * min(len(a), len(b)), the bound on the product's
entries, is below 2^52:

  * when the nonzero pairs are few, nnz(a) * nnz(b) <= the transform length,
    the product is a sum over those pairs: an `np.bincount` of the index sums
    i + j below out_len, weighted by the float64 products a_i * b_j unless both
    operands are 0/1.  Every weight and every partial sum is a nonnegative
    integer below the entry bound, so each float sum is exact by construction
    and needs no check.  The k-th power indicator has n^(1/k) ones among n + 1
    entries, so its first products go this way;
  * otherwise a real FFT product, rounded, is accepted when every entry of the
    whole product rounds with residue < 0.25 and the largest stays below 2^52.

When the float check rejects, or the entry bound already reaches 2^52 (as it
does for Python integers past int64), the operand with more bits is split at
half its bit length, a = hi * 2^h + lo, each half is convolved the same way
(either route), and the two products recombine as hi * 2^h + lo.  Every split
halves a bit length, so the pieces reach the float range.  The transforms have
the least length 2^a 3^b 5^c >= len(a) + len(b) - 1: pocketfft is mixed-radix,
so such a length is about as fast per point as a power of two and pads far
less (2,048,000 points instead of 2^21 for a product of two 1,020,000-entry
operands).

`power` raises a histogram to the s-th power on these routes, truncated at a
window of n (representation counts r(n)).  Results are int64 while they fit
and Python integers beyond, never wrapped.  All inputs are nonnegative
integer sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalConsistencyError

_FLOAT_EXACT_MAX = 2.0**52
_RESIDUE_LIMIT = 0.25
_INT64_LIMIT = 2**63
# peak bytes per FFT point of one checked float convolution of two int64
# inputs (float copies, the half spectra multiplied in place, the inverse and
# the rounding temporaries); tracemalloc measures 28 to 29.3 for a squaring and
# for two operands alike, at a power of two (inputs fill half the transform) and
# at a 5-smooth length that the inputs fill; pocketfft's own scratch is not traced
_FFT_BYTES_PER_POINT = 48


@dataclass
class ConvStats:
    """Float products accepted and rejected, products by pair sums, and
    operand splits made."""

    float_ok: int = 0
    float_rejected: int = 0
    direct: int = 0
    splits: int = 0


def next_pow2(n: int) -> int:
    """Smallest power of two >= n, for n >= 1."""
    return 1 << max(0, (n - 1).bit_length())


def next_smooth(n: int) -> int:
    """Least 2^a 3^b 5^c >= n, for n >= 1: a length pocketfft transforms fast."""
    best = next_pow2(n)
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 * next_pow2(-(-n // p35)))
            p35 *= 3
        p5 *= 5
    return best


def fft_working_bytes(out_len: int) -> int:
    """Peak bytes of a checked float-FFT self-convolution of out_len entries."""
    return _FFT_BYTES_PER_POINT * next_smooth(2 * out_len - 1)


def fft_convolve_checked(a: np.ndarray, b: np.ndarray, out_len: int) -> np.ndarray | None:
    """Float-FFT convolution truncated at out_len, or None when the rounded
    product fails a check.  The spectra are multiplied in place, into the
    spectrum of a, so no third half spectrum is allocated.

    The product passes when every entry rounds with residue < 0.25 and stays
    below 2^52 in magnitude.  These checks are not a proof of exactness: a
    true error between 0.75 and 1.25 also leaves a residue under 0.25.  The
    rounding error of every entry scales with the whole product, so both
    checks cover all len(a) + len(b) - 1 entries: a large tail that is cut
    off can still corrupt the kept prefix.
    """
    n = len(a) + len(b) - 1
    size = next_smooth(n)
    fa = np.fft.rfft(a.astype(np.float64), size)
    if b is a:  # a squaring transforms once
        fa *= fa
    else:
        fa *= np.fft.rfft(b.astype(np.float64), size)  # b's spectrum is dropped before the inverse
    conv = np.fft.irfft(fa, size)[:n]
    rounded = np.rint(conv)
    if float(rounded.max()) >= _FLOAT_EXACT_MAX:
        return None
    conv -= rounded  # the rounding residues, in place
    if float(np.abs(conv, out=conv).max()) >= _RESIDUE_LIMIT:
        return None
    return rounded[:out_len].astype(np.int64)


def _exact(values) -> np.ndarray:
    """int64 when every entry fits, else an object array of Python integers."""
    arr = np.asarray(values)
    if arr.dtype != object:
        return arr.astype(np.int64, copy=False)
    if arr.size == 0 or -_INT64_LIMIT <= min(arr) and max(arr) < _INT64_LIMIT:
        return arr.astype(np.int64)
    return arr


def _pair_sums(a: np.ndarray, b: np.ndarray, out_len: int, weighted: bool) -> np.ndarray:
    """sum_{i + j = m} a_i b_j for m < out_len, over the nonzero pairs only:
    exact when every entry of the product is below 2^52.

    At most 25 bytes per pair and 16 per output entry are live at once: with
    no more pairs than transform points, and at least out_len of those, that
    is under the 48 bytes per point that `fft_working_bytes` charges.
    """
    ia = np.flatnonzero(a)
    ib = ia if b is a else np.flatnonzero(b)
    sums = (ia[:, None] + ib).ravel()
    keep = sums < out_len
    sums = sums[keep]
    weights = None  # 0/1 operands: bincount counts the pairs as integers
    if weighted:
        weights = np.multiply.outer(a[ia].astype(np.float64), b[ib].astype(np.float64)).ravel()[keep]
    return np.bincount(sums, weights, minlength=out_len).astype(np.int64, copy=False)


def _convolve(a: np.ndarray, b: np.ndarray, out_len: int, stats: ConvStats) -> np.ndarray:
    """Pair sums or the checked float FFT, tried while the entry bound is below
    2^52, splitting the wider operand until one of them gives the product."""
    max_a, max_b = int(a.max()), int(b.max())
    if max_a * max_b * min(len(a), len(b)) < _FLOAT_EXACT_MAX:
        # count_nonzero allocates nothing, so the FFT route keeps its working set
        if np.count_nonzero(a) * np.count_nonzero(b) <= next_smooth(len(a) + len(b) - 1):
            stats.direct += 1
            return _pair_sums(a, b, out_len, weighted=max(max_a, max_b) > 1)
        result = fft_convolve_checked(a, b, out_len)
        if result is not None:
            stats.float_ok += 1
            return result
        stats.float_rejected += 1
    if max_a < max_b:
        a, b, max_a = b, a, max_b
    if max_a <= 1:
        raise InternalConsistencyError(
            f"the float FFT rejected a 0/1 convolution of lengths {len(a)} and {len(b)}")
    h = max_a.bit_length() // 2
    stats.splits += 1
    hi = _convolve(_exact(a >> h), b, out_len, stats)
    lo = _convolve(_exact(a & ((1 << h) - 1)), b, out_len, stats)
    # int64 shifts and sums wrap silently: widen to Python integers first when they could
    if hi.dtype != object and (int(hi.max()) << h) + int(lo.max()) >= _INT64_LIMIT:
        hi = hi.astype(object)
    return _exact((hi << h) + lo)


def convolve_exact(a, b, out_len: int | None = None, stats: ConvStats | None = None) -> np.ndarray:
    """Exact linear convolution of nonnegative sequences, truncated at out_len.

    The result is int64 when every entry fits and an object array of Python
    integers otherwise; inputs may be either.
    """
    a, b = _exact(a), _exact(b)
    if not (len(a) and len(b)):
        return np.zeros(0, dtype=np.int64)
    if min(a.min(), b.min()) < 0:
        raise DomainError("exact convolution requires nonnegative entries")
    n_out = len(a) + len(b) - 1
    out_len = n_out if out_len is None else min(out_len, n_out)
    return _convolve(a, b, out_len, stats if stats is not None else ConvStats())


def power(hist, s: int, out_len: int | None = None, stats: ConvStats | None = None) -> np.ndarray:
    """hist^s as a generating function, by binary exponentiation, exact.

    Every product is truncated at out_len (None keeps it whole).  Entries are
    int64 when they fit and Python integers otherwise.
    """
    if s < 1:
        raise DomainError(f"power must be >= 1, got {s}")
    square = _exact(hist)[:out_len]
    result = None
    e = s
    while e > 0:
        if e & 1:
            result = square if result is None else convolve_exact(result, square, out_len, stats)
        e >>= 1
        if e:
            square = convolve_exact(square, square, out_len, stats)
    return result
