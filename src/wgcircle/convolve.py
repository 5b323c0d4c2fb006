"""Exact integer convolution and the one power engine built on it.

Counting by generating functions needs convolutions whose entries are exact
integers.  There are two routes, and the operands alone choose between them.
While max(a) * max(b) * min(len(a), len(b)), the bound on the product's
entries, is below 2^52:

  * when the nonzero pairs are few, nnz(a) * nnz(b) <= the transform length,
    the product is a sum over those pairs: an `np.bincount` of the index sums
    i + j in the kept window, weighted by the float64 products a_i * b_j
    unless both operands are 0/1.  Every weight and every partial sum is a nonnegative
    integer below the entry bound, so each float sum is exact by construction
    and needs no check.  The k-th power indicator has n^(1/k) ones among n + 1
    entries, so its first products go this way;
  * otherwise a real FFT product, rounded, is accepted when every entry of the
    cyclic product, kept or not, rounds with residue < 0.25 and the largest
    stays below 2^52.

When the float check rejects, or the entry bound already reaches 2^52 (as it
does for Python integers past int64), the operand with more bits is split at
half its bit length, a = hi * 2^h + lo, each half is convolved the same way
(either route), and the two products recombine as hi * 2^h + lo.  Every split
halves a bit length, so the pieces reach the float range.

A product may keep only a window [keep_from, out_len) of its entries.  The
operands are first cut to out_len entries, which loses nothing kept.  Pair
sums bin only the index sums in the window.  The float route transforms at
the least length L = 2^a 3^b 5^c >= max(out_len, len(a) + len(b) - 1 -
keep_from): pocketfft is mixed-radix, so such a length is about as fast per
point as a power of two and pads far less.  The cyclic product of length L is
the linear one with entry t + L added onto entry t; for every kept t that
entry is past the end of the product, so the wrap lands only on the indices
below the window, which no caller reads (the wrapped, or middle, product).
With keep_from = 0 nothing wraps at all.  Both operands are no longer than
L, so each cyclic entry still sums at most one pair per index of the shorter
operand: the entry bound covers all L entries, and the checks run over all
of them.  From _SIDE_BY_SIDE_POINTS on, the second operand of a product
that is not a squaring is transformed beside the first (`errors._beside`).

`power` raises a histogram to the s-th power on these routes, truncated at a
window of n (representation counts r(n)).  Results are int64 while they fit
and Python integers beyond, never wrapped.  All inputs are nonnegative
integer sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalConsistencyError, _beside

_FLOAT_EXACT_MAX = 2.0**52
_RESIDUE_LIMIT = 0.25
_INT64_LIMIT = 2**63
# peak bytes per FFT point of one checked float convolution of two int64
# inputs (float copies, the half spectra, which then hold the inverse and its
# rounding, and the kept entries); tracemalloc measures 18.6 to 21.4 for a
# squaring or two operands transformed one after the other, and 24 to 30.3 for
# two operands transformed side by side, at a power of two (inputs fill half
# the transform), at a 5-smooth length that the inputs fill and for a window of
# the upper half; pocketfft's own scratch is not traced
_FFT_BYTES_PER_POINT = 48
# pocketfft's scratch per point of each transform running at once, allocated
# outside numpy: a lone 2^23-point rfft raises the peak resident set (VmHWM)
# by 192 MB against its 64 MB output
_POCKETFFT_SCRATCH_BYTES = 16
# the least transform length at which the second operand is transformed beside
# the first: below it, starting the thread costs more than it saves (on two
# CPUs the side-by-side pair of 2^15-point transforms broke even, 2^16 won)
_SIDE_BY_SIDE_POINTS = 2**16


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


def fft_working_bytes(points: int, transforms: int) -> int:
    """Peak bytes of a checked float-FFT convolution transformed at `points`
    points, with pocketfft's scratch for `transforms` transforms running at
    once (two when the operands are transformed side by side)."""
    return (_FFT_BYTES_PER_POINT + transforms * _POCKETFFT_SCRATCH_BYTES) * points


def _transform_length(len_a: int, len_b: int, out_len: int, keep_from: int) -> int:
    """The float route's length: no entry kept in [keep_from, out_len) wraps."""
    return next_smooth(max(out_len, len_a + len_b - 1 - keep_from))


def _spectrum(x: np.ndarray, size: int) -> np.ndarray:
    return np.fft.rfft(x.astype(np.float64), size)


def fft_convolve_checked(a: np.ndarray, b: np.ndarray, out_len: int, keep_from: int = 0) -> np.ndarray | None:
    """Entries [keep_from, out_len) of the float-FFT convolution, or None when
    the rounded product fails a check.

    The transform has the least 5-smooth length L >= max(out_len, len(a) +
    len(b) - 1 - keep_from).  Entry t + L of the linear product wraps onto
    entry t; for every kept t it is past the product's end, so only entries
    below keep_from take a wrapped part (an operand entry past L is past
    out_len and is not transformed).  The spectra are multiplied in place, into
    the spectrum of a, whose memory then takes the rounded inverse; for two
    operands the inverse itself goes into the spectrum of b.

    The product passes when every one of the L cyclic entries rounds with
    residue < 0.25 and stays below 2^52 in magnitude.  These checks are not a
    proof of exactness: a true error between 0.75 and 1.25 also leaves a
    residue under 0.25.  The rounding error of every entry scales with the
    whole product, so the checks cover the entries that are not kept as well:
    a large tail, or a large wrapped part, can still corrupt the kept window.
    """
    size = _transform_length(len(a), len(b), out_len, keep_from)
    if b is a:  # a squaring transforms once
        spectrum = _spectrum(a, size)
        spectrum *= spectrum
        conv = np.fft.irfft(spectrum, size)
    else:
        other = _beside(_spectrum, b, size) if size >= _SIDE_BY_SIDE_POINTS else lambda: _spectrum(b, size)
        spectrum = _spectrum(a, size)
        other = other()
        spectrum *= other
        conv = np.fft.irfft(spectrum, size, out=other.view(np.float64)[:size])  # into b's spectrum
    rounded = np.rint(conv, out=spectrum.view(np.float64)[:size])  # into a's spectrum
    if float(rounded.max()) >= _FLOAT_EXACT_MAX:
        return None
    conv -= rounded  # the rounding residues, in place
    if float(np.abs(conv, out=conv).max()) >= _RESIDUE_LIMIT:
        return None
    return rounded[keep_from:out_len].astype(np.int64)


def _exact(values) -> np.ndarray:
    """int64 when every entry fits, else an object array of Python integers."""
    arr = np.asarray(values)
    if arr.dtype != object:
        return arr.astype(np.int64, copy=False)
    if arr.size == 0 or -_INT64_LIMIT <= min(arr) and max(arr) < _INT64_LIMIT:
        return arr.astype(np.int64)
    return arr


def _pair_sums(a: np.ndarray, b: np.ndarray, out_len: int, keep_from: int, weighted: bool) -> np.ndarray:
    """sum_{i + j = m} a_i b_j for keep_from <= m < out_len, over the nonzero
    pairs only: exact when every entry of the product is below 2^52.

    At most 25 bytes per pair and 16 per output entry are live at once: with
    no more pairs than transform points, and at least out_len - keep_from of
    those, that is under the 48 bytes per point that `fft_working_bytes`
    charges.
    """
    ia = np.flatnonzero(a)
    ib = ia if b is a else np.flatnonzero(b)
    sums = (ia[:, None] + (ib - keep_from)).ravel()
    keep = sums.view(np.uint64) < out_len - keep_from  # a sum below the window reads as a huge uint64
    sums = sums[keep]
    weights = None  # 0/1 operands: bincount counts the pairs as integers
    if weighted:
        weights = np.multiply.outer(a[ia].astype(np.float64), b[ib].astype(np.float64)).ravel()[keep]
    return np.bincount(sums, weights, minlength=out_len - keep_from).astype(np.int64, copy=False)


def _convolve(a: np.ndarray, b: np.ndarray, out_len: int, keep_from: int, stats: ConvStats) -> np.ndarray:
    """Entries [keep_from, out_len) of the product by pair sums or the checked
    float FFT, tried while the entry bound is below 2^52, splitting the wider
    operand until one of them gives the product."""
    max_a, max_b = int(a.max()), int(b.max())
    if max_a * max_b * min(len(a), len(b)) < _FLOAT_EXACT_MAX:
        # count_nonzero allocates nothing, so the FFT route keeps its working set
        if np.count_nonzero(a) * np.count_nonzero(b) <= _transform_length(len(a), len(b), out_len, keep_from):
            stats.direct += 1
            return _pair_sums(a, b, out_len, keep_from, weighted=max(max_a, max_b) > 1)
        result = fft_convolve_checked(a, b, out_len, keep_from)
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
    hi = _convolve(_exact(a >> h), b, out_len, keep_from, stats)
    lo = _convolve(_exact(a & ((1 << h) - 1)), b, out_len, keep_from, stats)
    # int64 shifts and sums wrap silently: widen to Python integers first when they could
    if hi.dtype != object and (int(hi.max()) << h) + int(lo.max()) >= _INT64_LIMIT:
        hi = hi.astype(object)
    return _exact((hi << h) + lo)


def convolve_exact(a, b, out_len: int | None = None, stats: ConvStats | None = None,
                   keep_from: int = 0) -> np.ndarray:
    """Entries [keep_from, out_len) of the exact linear convolution of
    nonnegative sequences; out_len defaults to the whole product.

    Both operands are cut to out_len entries first.  The result is int64 when
    every entry fits and an object array of Python integers otherwise; inputs
    may be either.
    """
    a, b = _exact(a), _exact(b)
    same = b is a
    if not (len(a) and len(b)):
        return np.zeros(0, dtype=np.int64)
    if min(a.min(), b.min()) < 0:
        raise DomainError("exact convolution requires nonnegative entries")
    n_out = len(a) + len(b) - 1
    out_len = n_out if out_len is None else min(out_len, n_out)
    if not 0 <= keep_from <= out_len:
        raise DomainError(f"need 0 <= keep_from <= out_len, got keep_from={keep_from}, out_len={out_len}")
    if keep_from == out_len:
        return np.zeros(0, dtype=np.int64)
    a = a[:out_len]
    b = a if same else b[:out_len]  # a squaring stays one operand, transformed once
    return _convolve(a, b, out_len, keep_from, stats if stats is not None else ConvStats())


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
