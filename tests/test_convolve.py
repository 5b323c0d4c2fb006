"""Tests for the exact convolution routes."""

import random

import numpy as np
import pytest

from wgcircle import convolve
from wgcircle.errors import DomainError


def naive_conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestKronecker:
    def test_small_matches_naive(self):
        rng = random.Random(3)
        for _ in range(30):
            a = [rng.randrange(0, 50) for _ in range(rng.randrange(1, 12))]
            b = [rng.randrange(0, 50) for _ in range(rng.randrange(1, 12))]
            assert convolve.kronecker_convolve(a, b) == naive_conv(a, b)

    def test_huge_entries(self):
        a = [2**90, 3, 1]
        b = [5, 2**77]
        assert convolve.kronecker_convolve(a, b) == naive_conv(a, b)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            convolve.kronecker_convolve([1, -2], [3])


class TestFloatChecked:
    def test_accepts_small(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        b = np.array([4, 5], dtype=np.int64)
        out = convolve.fft_convolve_checked(a, b, 4)
        assert out.tolist() == [4, 13, 22, 15]

    def test_rejects_oversized_values(self):
        big = np.array([2**40, 2**40], dtype=np.int64)
        assert convolve.fft_convolve_checked(big, big, 3) is None


class TestConvolveExact:
    def test_auto_falls_back(self):
        stats = convolve.ConvStats()
        a = np.array([2**30, 2**30, 1], dtype=np.int64)
        out = convolve.convolve_exact(a, a, stats=stats)  # the float-first default
        assert out.tolist() == naive_conv(a.tolist(), a.tolist())
        assert stats.kronecker == 1 and stats.float_rejected == 1

    def test_direct_method(self):
        a = np.array([1, 1, 1], dtype=np.int64)
        assert convolve.convolve_exact(a, a, method="direct").tolist() == [1, 2, 3, 2, 1]

    def test_truncation(self):
        a = np.arange(1, 6, dtype=np.int64)
        full = convolve.convolve_exact(a, a)
        trunc = convolve.convolve_exact(a, a, out_len=3)
        assert trunc.tolist() == full.tolist()[:3]

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            convolve.convolve_exact(np.array([1]), np.array([1]), method="fft")

    def test_associativity_with_truncation(self):
        # ((A*A)*B) == (A*(A*B)) entrywise on the window n <= 1e4, with A the
        # square indicator and B the prime indicator
        from wgcircle.arith import sieve_primes

        n = 10**4
        a = np.zeros(n + 1, dtype=np.int64)
        a[np.arange(1, 101) ** 2] = 1
        b = sieve_primes(n).is_prime_mask().astype(np.int64)
        window = n + 1
        left = convolve.convolve_exact(convolve.convolve_exact(a, a, window), b, window)
        right = convolve.convolve_exact(a, convolve.convolve_exact(a, b, window), window)
        assert left.tolist() == right.tolist()


def folded(values, m):
    out = [0] * m
    for i, v in enumerate(values):
        out[i % m] += v
    return out


class TestCyclic:
    def test_cyclic_matches_direct(self):
        a = [1, 2, 0, 3]
        assert convolve.power(np.array(a), 2, modulus=4).tolist() == folded(naive_conv(a, a), 4)

    def test_cyclic_power_counts_sums(self):
        # histogram of residues of x mod 5 for x in 0..4 is all ones; the
        # s-fold convolution counts tuples by residue sum, so it is uniform
        out = convolve.power(np.ones(5, dtype=np.int64), 3, modulus=5)
        assert list(out) == [25] * 5

    def test_cyclic_power_big_path(self):
        # (7 * 10^5)^4 / 7 per residue is past int64: exact Python integers
        hist = np.full(7, 10**5, dtype=np.int64)
        out = convolve.power(hist, 4, modulus=7)
        assert out.dtype == object
        assert out.tolist() == [(7 * 10**5) ** 4 // 7] * 7

    def test_power_one_is_identity(self):
        hist = np.array([3, 1, 4], dtype=np.int64)
        assert list(convolve.power(hist, 1, modulus=3)) == [3, 1, 4]


class TestPower:
    def test_rejects_zero_power(self):
        with pytest.raises(DomainError):
            convolve.power(np.ones(3, dtype=np.int64), 0)
