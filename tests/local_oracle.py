"""Cyclic-convolution oracle for the local counts of `wgcircle.arith`.

This is the residue-wide construction: the k-th power histogram over a
complete residue system mod p is raised to the s-th power by binary
exponentiation on the exact convolution engine, each product folded modulo
x^p - 1.  It knows nothing of primitive roots or cyclotomic classes, so the
tests compare the class counts of `series.class_factors` against it exactly.
For the smallest cases `brute_mp_count` enumerates all p^s tuples.
"""

import numpy as np

from wgcircle.arith import power_residue_counts
from wgcircle.convolve import convolve_exact


def fold(values: np.ndarray, modulus: int) -> np.ndarray:
    """Reduce a polynomial modulo x^modulus - 1, exactly, in Python integers."""
    out = [0] * modulus
    for i, v in enumerate(values.tolist()):
        out[i % modulus] += v
    return np.array(out, dtype=object)


def cyclic_power(hist, s: int, modulus: int) -> list[int]:
    """The s-fold cyclic self-convolution of hist over Z_modulus."""
    square = fold(np.asarray(hist), modulus)
    result = None
    e = s
    while e > 0:
        if e & 1:
            result = square if result is None else fold(convolve_exact(result, square), modulus)
        e >>= 1
        if e:
            square = fold(convolve_exact(square, square), modulus)
    return [int(v) for v in result]


def mp_count(p: int, n: int, k: int, s: int) -> int:
    """M_p(n) = p^s - N_s(n mod p), N_s the s-fold cyclic power of the k-th power histogram."""
    return p**s - cyclic_power(power_residue_counts(p, k), s, p)[n % p]


def brute_mp_count(p: int, n: int, k: int, s: int) -> int:
    count = 0
    for tup in range(p**s):
        total = 0
        v = tup
        for _ in range(s):
            total += pow(v % p, k, p)
            v //= p
        b = (n - total) % p
        if b != 0:
            count += 1
    return count
