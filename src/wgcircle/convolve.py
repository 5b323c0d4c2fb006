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
of them.  A product of two operands transforms them one after the other.

`power` raises a histogram to the s-th power on these routes, truncated at a
window of n (representation counts r(n)).  Results are int64 while they fit
and Python integers beyond, never wrapped.  All inputs are nonnegative
integer sequences.

A product's peak bytes come from one function of its operands' shapes
(`_product_bytes`), which reads the route rules above; `_convolve` checks
them against `WGCIRCLE_MEM_BYTES` before it allocates.  `power` takes its
products from one binary-exponentiation walk (`_binary_power`), and the same
walk over shapes gives the up-front charge of a power and one windowed
product after it (`_charge_power`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalConsistencyError, ResourceError, ensure_memory

_FLOAT_EXACT_MAX = 2.0**52
_RESIDUE_LIMIT = 0.25
_INT64_LIMIT = 2**63
# peak bytes per transform point of one checked float product, beyond the
# float copies of its operands and its kept entries: the half spectra, which
# then hold the inverse and its rounding, and pocketfft's scratch (allocated
# outside numpy).  The peak resident set (VmHWM) rises by 20.5 to 21.8 per
# point for a squaring and 24.3 to 27.6 for two operands transformed one after
# the other, from 150,000 to 2 million points, whole or windowed
_FFT_BYTES_PER_POINT = 28
# peak bytes of pair sums: per nonzero pair (the int64 index sums, their keep
# mask and the float64 weights) and per kept entry (the float sums and their
# int64 copy)
_PAIR_BYTES = 25
_PAIR_ENTRY_BYTES = 16
# the walk of a power charges products whose entries sum to less than this,
# and refuses the power past it: the walk stays cheap, and no bound is cut
_BOUND_CAP = 2**4096


@dataclass
class ConvStats:
    """Float products accepted and rejected, products by pair sums, and
    operand splits made."""

    float_ok: int = 0
    float_rejected: int = 0
    direct: int = 0
    splits: int = 0


@dataclass(frozen=True, eq=False)
class _Operand:
    """What the memory model reads of a nonnegative sequence: its length, and
    upper bounds on its nonzero entries, on every entry and on their sum."""

    length: int
    nonzero: int
    bound: int
    mass: int

    @classmethod
    def of(cls, x: np.ndarray) -> _Operand:
        """The shape of a sequence held, read without a new array: Python
        integers are summed one at a time, and an int64 sum in floats is exact
        below 2^53 and raised past its rounding error above."""
        if x.dtype == object:
            mass = sum(x)
        else:
            mass = float(x.sum(dtype=np.float64))
            mass = int(mass) if mass < 2.0**53 else math.ceil(mass * (1 + 2**-40))
        return cls(len(x), int(np.count_nonzero(x)), int(x.max()), mass)

    @classmethod
    def flags(cls, length: int, ones: int) -> _Operand:
        """A 0/1 sequence with at most `ones` ones."""
        return cls(length, ones, 1, ones)

    @property
    def nbytes(self) -> int:
        """int64 while the bound fits, else a pointer and a CPython integer
        (24 bytes and 4 per 30-bit digit, in 16-byte allocator blocks) each."""
        if self.bound < _INT64_LIMIT:
            return 8 * self.length
        digits = -(-self.bound.bit_length() // 30)
        return (8 + 16 * -(-(24 + 4 * digits) // 16)) * self.length

    def times(self, other: _Operand, out_len: int, keep_from: int = 0, cap: float = math.inf) -> _Operand:
        """Entries [keep_from, out_len) of the product: an entry sums at most
        min(len) pairs, each at most bound(a) bound(b), and at most every
        entry of one operand against the largest of the other; `cap` bounds
        the sum of the product's entries, and so each of them."""
        length = min(out_len, self.length + other.length - 1) - keep_from
        mass = min(self.mass * other.mass, cap)
        bound = min(self.bound * other.bound * min(self.length, other.length),
                    self.bound * other.mass, self.mass * other.bound, mass)
        return _Operand(length, min(length, self.nonzero * other.nonzero), bound, min(mass, length * bound))

    def split(self) -> _Operand:
        """Either half of the operand split at half its bit length."""
        h = _half_bits(self.bound)
        bound = max(self.bound >> h, (1 << h) - 1)
        return _Operand(self.length, self.nonzero, bound, min(self.mass, self.nonzero * bound))


def _half_bits(bound: int) -> int:
    """Where an operand with this largest entry is split: a = hi 2^h + lo."""
    return bound.bit_length() // 2


def _in_float_range(a: _Operand, b: _Operand) -> bool:
    """The float routes are tried while the entry bound is below 2^52."""
    return a.bound * b.bound * min(a.length, b.length) < _FLOAT_EXACT_MAX


def _by_pair_sums(a: _Operand, b: _Operand, size: int) -> bool:
    """Pair sums when the nonzero pairs are no more than the transform points."""
    return a.nonzero * b.nonzero <= size


def _product_bytes(a: _Operand, b: _Operand, out_len: int, keep_from: int) -> int:
    """Peak bytes of `_convolve` on operands of these shapes (b is a for a
    squaring), the operands included.  Down the splits, each level holds a
    piece and the first piece's product, and recombines the two products in
    place; the last level takes pair sums or the float product.  A float
    product the check rejects splits once more than this walk foresees."""
    squaring = b is a
    out_len = min(out_len, a.length + b.length - 1)
    size = _transform_length(a.length, b.length, out_len, keep_from)
    held = a.nbytes + (0 if squaring else b.nbytes)
    peak = held
    while not _in_float_range(a, b):
        if a.bound < b.bound:
            a, b = b, a
        whole, piece = a.times(b, out_len, keep_from), a.split()
        part = piece.times(b, out_len, keep_from)
        peak = max(peak, held + 2 * part.nbytes + whole.nbytes)
        held += piece.nbytes + part.nbytes
        a, squaring = piece, False
    if _by_pair_sums(a, b, size):
        return max(peak, held + _PAIR_BYTES * a.nonzero * b.nonzero + _PAIR_ENTRY_BYTES * (out_len - keep_from))
    floats = a.length + (0 if squaring else b.length)
    return max(peak, held + 8 * (floats + out_len - keep_from) + _FFT_BYTES_PER_POINT * size)


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
        spectrum = _spectrum(a, size)
        other = _spectrum(b, size)
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

    At most _PAIR_BYTES per pair and _PAIR_ENTRY_BYTES per output entry are
    live at once.
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
    operand until one of them gives the product.  The product's peak bytes,
    from the operands held, are checked against the budget first."""
    x = _Operand.of(a)
    y = x if b is a else _Operand.of(b)
    ensure_memory(_product_bytes(x, y, out_len, keep_from), f"a product of {len(a)} by {len(b)} entries")
    if not (x.nonzero and y.nonzero):  # no pair, so the other operand, maybe past the double range, is never converted
        stats.direct += 1
        return np.zeros(out_len - keep_from, dtype=np.int64)
    if _in_float_range(x, y):
        if _by_pair_sums(x, y, _transform_length(len(a), len(b), out_len, keep_from)):
            stats.direct += 1
            return _pair_sums(a, b, out_len, keep_from, weighted=max(x.bound, y.bound) > 1)
        result = fft_convolve_checked(a, b, out_len, keep_from)
        if result is not None:
            stats.float_ok += 1
            return result
        stats.float_rejected += 1
    if x.bound < y.bound:
        a, b, x = b, a, y
    if x.bound <= 1:
        raise InternalConsistencyError(
            f"the float FFT rejected a 0/1 convolution of lengths {len(a)} and {len(b)}")
    h = _half_bits(x.bound)
    stats.splits += 1
    hi = _convolve(_exact(a >> h), b, out_len, keep_from, stats)
    lo = _convolve(_exact(a & ((1 << h) - 1)), b, out_len, keep_from, stats)
    # int64 shifts and sums wrap silently: widen to Python integers first when they could
    if hi.dtype != object and (int(hi.max()) << h) + int(lo.max()) >= _INT64_LIMIT:
        hi = hi.astype(object)
    hi <<= h  # in place: an object array replaces each integer as it goes
    hi += lo
    return _exact(hi)


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


def _binary_power(x, s: int, multiply):
    """x^s by binary exponentiation, the one schedule of `power` and of its
    charge: multiply(a, b, held) forms each product, a squaring when b is a,
    while the walk holds `held` (the result so far, or None) beside it."""
    result = None
    while True:
        if s & 1:
            result = x if result is None else multiply(result, x, None)
        s >>= 1
        if not s:
            return result
        x = multiply(x, x, result)


def _charge_power(hist: _Operand, s: int, factor: _Operand, keep_from: int, what: str, mass,
                  held: int = 0) -> None:
    """Refuse power(hist, s, len(hist)) times `factor`, kept on [keep_from,
    len(hist)), when the peak bytes of any of its products, with the `held`
    bytes of the caller, overrun the budget.  The walk is `power`'s own; each
    product is charged with what the walk holds beside it (hist, and the
    result during a squaring).  mass(j) bounds the sum of the entries of
    hist^j truncated at len(hist)."""
    peak = 0
    start = (hist, 1)

    def multiply(a, b, walk_held):
        nonlocal peak
        (x, i), (y, j) = a, b
        beside = sum(v[0].nbytes for v in {start, walk_held} - {None, a, b})
        peak = max(peak, _product_bytes(x, y, hist.length, 0) + beside)
        product = x.times(y, hist.length, cap=mass(i + j))
        if product.mass >= _BOUND_CAP:
            raise ResourceError(f"{what} has entries that may sum past 2^{_BOUND_CAP.bit_length() - 1}, "
                                "beyond the range of its memory model")
        return product, i + j

    part, _ = _binary_power(start, s, multiply)
    ensure_memory(max(peak, _product_bytes(part, factor, hist.length, keep_from)) + held, what)


def power(hist, s: int, out_len: int | None = None, stats: ConvStats | None = None) -> np.ndarray:
    """hist^s as a generating function, by binary exponentiation, exact.

    Every product is truncated at out_len (None keeps it whole).  Entries are
    int64 when they fit and Python integers otherwise.
    """
    if s < 1:
        raise DomainError(f"power must be >= 1, got {s}")
    return _binary_power(_exact(hist)[:out_len], s, lambda a, b, held: convolve_exact(a, b, out_len, stats))
