"""Exact integer convolution and the one power engine built on it.

Counting by generating functions needs convolutions whose entries are exact
integers.  Three routes:

  * float_fft_verified: real FFT product, then round.  Accepted only when
    every entry rounds with residue < 0.25 and the largest value stays below
    2^52, i.e. when exactness is certain; otherwise it falls back to kronecker.
  * integer_safe (kronecker): pack each sequence into one big integer with
    slots wide enough that no carries cross, multiply, unpack.  Exact for any
    magnitudes (Python integers), and fast thanks to big-int multiplication.
  * direct: numpy's O(n*m) convolution on Python integers, for small inputs
    and as a test oracle.

`power` raises a histogram to the s-th power over these routes, truncated
(representation counts r(n)) or cyclic (local counts M_p(n)).  Results are
int64 while they fit and Python integers beyond, never wrapped.  All inputs
are nonnegative integer sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_FLOAT_EXACT_MAX = 2.0**52
_RESIDUE_LIMIT = 0.25
_INT64_LIMIT = 2**63
# peak bytes per FFT point of one verified float convolution of two int64
# inputs (float copies, both half spectra, their product, the inverse and the
# rounding temporaries); tracemalloc measures up to ~44 when the inputs fill
# half the transform
_FFT_BYTES_PER_POINT = 48

METHODS = ("float_fft_verified", "integer_safe", "direct")


@dataclass
class ConvStats:
    """Counts of which route actually ran (the float route records fallbacks)."""

    float_ok: int = 0
    float_rejected: int = 0
    kronecker: int = 0
    direct: int = 0


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def fft_working_bytes(out_len: int) -> int:
    """Peak bytes of a verified float-FFT self-convolution of out_len entries."""
    return _FFT_BYTES_PER_POINT * _next_pow2(2 * out_len - 1)


def fft_convolve_checked(a: np.ndarray, b: np.ndarray, out_len: int) -> np.ndarray | None:
    """Float-FFT convolution, returned only when provably exact, else None."""
    n = len(a) + len(b) - 1
    size = _next_pow2(n)
    fa = np.fft.rfft(a.astype(np.float64), size)
    fb = np.fft.rfft(b.astype(np.float64), size)
    conv = np.fft.irfft(fa * fb, size)[:out_len]
    rounded = np.rint(conv)
    if rounded.size and float(rounded.max()) >= _FLOAT_EXACT_MAX:
        return None
    if conv.size and float(np.abs(conv - rounded).max()) >= _RESIDUE_LIMIT:
        return None
    return rounded.astype(np.int64)


def _pack(arr, nbytes: int) -> int:
    if nbytes <= 8:
        buf = np.asarray(arr, dtype=np.uint64).astype("<u8").tobytes()
        if nbytes != 8:
            # repack into tight slots
            tight = bytearray()
            for i in range(0, len(buf), 8):
                tight += buf[i : i + nbytes]
            buf = bytes(tight)
    else:
        buf = b"".join(int(v).to_bytes(nbytes, "little") for v in arr)
    return int.from_bytes(buf, "little")


def kronecker_convolve(a, b, out_len: int | None = None) -> list[int]:
    """Exact linear convolution of nonnegative integer sequences.

    Slot width is chosen from the worst-case entry bound, so no carry can
    cross slot boundaries and unpacking recovers the exact coefficients.
    """
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return []
    amax = max(int(v) for v in a)
    bmax = max(int(v) for v in b)
    if amax < 0 or bmax < 0 or min(int(v) for v in a) < 0 or min(int(v) for v in b) < 0:
        raise DomainError("kronecker convolution requires nonnegative entries")
    bound = amax * bmax * min(la, lb) + 1
    nbytes = max(1, (bound.bit_length() + 7) // 8)
    product = _pack(a, nbytes) * _pack(b, nbytes)
    n_out = la + lb - 1
    raw = product.to_bytes(n_out * nbytes + nbytes, "little")
    out = [int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little") for i in range(n_out)]
    if out_len is not None:
        out = out[:out_len]
    return out


def _exact(values) -> np.ndarray:
    """int64 when every entry fits, else an object array of Python integers."""
    arr = np.asarray(values)
    if arr.dtype != object:
        return arr.astype(np.int64, copy=False)
    if arr.size == 0 or -_INT64_LIMIT <= min(arr) and max(arr) < _INT64_LIMIT:
        return arr.astype(np.int64)
    return arr


def convolve_exact(
    a,
    b,
    out_len: int | None = None,
    method: str = "float_fft_verified",
    stats: ConvStats | None = None,
) -> np.ndarray:
    """Exact linear convolution, truncated at out_len.

    The result is int64 when every entry fits and an object array of Python
    integers otherwise; inputs may be either.
    """
    if method not in METHODS:
        raise DomainError(f"unknown convolution method {method!r}")
    stats = stats if stats is not None else ConvStats()
    a, b = _exact(a), _exact(b)
    if not (len(a) and len(b)):
        return np.zeros(0, dtype=np.int64)
    n_out = len(a) + len(b) - 1
    out_len = n_out if out_len is None else min(out_len, n_out)
    if method == "direct":
        stats.direct += 1
        return _exact(np.convolve(a.astype(object), b.astype(object))[:out_len])
    if method == "float_fft_verified" and a.dtype != object and b.dtype != object:
        result = fft_convolve_checked(a, b, out_len)
        if result is not None:
            stats.float_ok += 1
            return result
        stats.float_rejected += 1
    stats.kronecker += 1
    return _exact(np.array(kronecker_convolve(a, b, out_len), dtype=object))


def _fold(values: np.ndarray, modulus: int) -> np.ndarray:
    """Reduce a polynomial modulo x^modulus - 1, exactly."""
    rows = -(-len(values) // modulus)
    if values.dtype != object and rows * int(values.max(initial=0)) >= _INT64_LIMIT:
        values = values.astype(object)
    wide = np.zeros(rows * modulus, dtype=values.dtype)
    wide[: len(values)] = values
    return _exact(wide.reshape(rows, modulus).sum(axis=0))


def power(
    hist,
    s: int,
    out_len: int | None = None,
    modulus: int | None = None,
    method: str = "float_fft_verified",
    stats: ConvStats | None = None,
) -> np.ndarray:
    """hist^s as a generating function, by binary exponentiation, exact.

    Every product is truncated at out_len (None keeps it whole) and, when a
    modulus is given, folded modulo x^modulus - 1: the s-fold cyclic
    self-convolution over Z_modulus.  Entries are int64 when they fit and
    Python integers otherwise.
    """
    if s < 1:
        raise DomainError(f"power must be >= 1, got {s}")

    def reduce(values: np.ndarray) -> np.ndarray:
        return values if modulus is None else _fold(values, modulus)

    square = reduce(_exact(hist)[:out_len])
    result = None
    e = s
    while e > 0:
        if e & 1:
            result = square if result is None else reduce(convolve_exact(result, square, out_len, method, stats))
        e >>= 1
        if e:
            square = reduce(convolve_exact(square, square, out_len, method, stats))
    return result
