"""Tests for the exact convolution route and the power engine."""

import random
import tracemalloc

import numpy as np
import pytest

import local_oracle
from wgcircle import convolve
from wgcircle.errors import DomainError, InternalConsistencyError


def naive_conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestFloatChecked:
    def test_accepts_small(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        b = np.array([4, 5], dtype=np.int64)
        out = convolve.fft_convolve_checked(a, b, 4)
        assert out.tolist() == [4, 13, 22, 15]

    def test_rejects_oversized_values(self):
        big = np.array([2**40, 2**40], dtype=np.int64)
        assert convolve.fft_convolve_checked(big, big, 3) is None

    def test_discarded_tail_is_checked(self):
        # the tail past out_len reaches 2^62: its rounding error corrupts the
        # kept prefix, whose own values are tiny, so the check must see it
        a = np.ones(128, dtype=np.int64)
        a[64:] = 2**28 - 1
        assert convolve.fft_convolve_checked(a, a, 64) is None
        assert convolve.convolve_exact(a, a, 64).tolist() == list(range(1, 65))

    def test_squaring_transforms_once(self, monkeypatch):
        calls = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda *args: calls.append(1) or rfft(*args))
        a = np.array([1, 2, 3], dtype=np.int64)
        assert convolve.fft_convolve_checked(a, a, 5).tolist() == [1, 4, 10, 12, 9]
        assert len(calls) == 1
        assert convolve.fft_convolve_checked(a, a.copy(), 5).tolist() == [1, 4, 10, 12, 9]
        assert len(calls) == 3

    def test_next_smooth_is_least_5_smooth(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        expected = 5120  # the least 5-smooth number past 5000
        for n in range(5000, 0, -1):
            if smooth(n):
                expected = n
            assert convolve.next_smooth(n) == expected

    # 2 out_len - 1 is 98415 = 3^9 * 5 itself (the inputs fill the transform), or 100001, padded to 101250
    @pytest.mark.parametrize("out_len", [49208, 50001])
    def test_traced_peak_within_working_bytes(self, out_len):
        rng = np.random.default_rng(out_len)
        a, b = (rng.integers(0, 50, out_len) for _ in range(2))
        for x, y in ((a, a), (a, b)):
            tracemalloc.start()
            try:
                assert convolve.fft_convolve_checked(x, y, out_len) is not None
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= convolve.fft_working_bytes(out_len)


class TestConvolveExact:
    def test_auto_falls_back(self):
        # the entry bound 1024 * (2^21 - 1)^2 is just below 2^52, so the float
        # product is tried; its rounding fails the check, and splitting at 10
        # bits makes two accepted halves
        stats = convolve.ConvStats()
        m, size = 2**21 - 1, 1024
        out = convolve.convolve_exact(np.full(size, m, dtype=np.int64), np.full(size, m, dtype=np.int64),
                                      stats=stats)
        assert out.tolist() == [m * m * min(i + 1, 2 * size - 1 - i) for i in range(2 * size - 1)]
        assert out.dtype == np.int64
        assert stats == convolve.ConvStats(float_ok=2, float_rejected=1, splits=1)

    def test_bound_past_float_splits_at_once(self):
        # the entry bound 3 * 2^60 is past 2^52: a is split at 15 bits with no float try
        stats = convolve.ConvStats()
        a = np.array([2**30, 2**30, 1], dtype=np.int64)
        out = convolve.convolve_exact(a, a, stats=stats)
        assert out.tolist() == naive_conv(a.tolist(), a.tolist())
        assert out.dtype == np.int64
        assert stats == convolve.ConvStats(float_ok=2, float_rejected=0, splits=1)

    def test_small_matches_naive(self):
        rng = random.Random(3)
        for _ in range(30):
            a = [rng.randrange(0, 50) for _ in range(rng.randrange(1, 12))]
            b = [rng.randrange(0, 50) for _ in range(rng.randrange(1, 12))]
            assert convolve.convolve_exact(a, b).tolist() == naive_conv(a, b)

    def test_huge_entries(self):
        a = [2**90, 3, 1]
        b = [5, 2**77]
        out = convolve.convolve_exact(np.array(a, dtype=object), np.array(b, dtype=object))
        assert out.dtype == object
        assert out.tolist() == naive_conv(a, b)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            convolve.convolve_exact([1, -2], [3])

    def test_split_needs_progress(self, monkeypatch):
        # 0/1 operands cannot be split further: a rejection there is a fault, not a loop
        monkeypatch.setattr(convolve, "fft_convolve_checked", lambda a, b, out_len: None)
        with pytest.raises(InternalConsistencyError):
            convolve.convolve_exact(np.array([1, 0, 1]), np.array([1, 1]))

    def test_truncation(self):
        a = np.arange(1, 6, dtype=np.int64)
        full = convolve.convolve_exact(a, a)
        trunc = convolve.convolve_exact(a, a, out_len=3)
        assert trunc.tolist() == full.tolist()[:3]

    def test_associativity_with_truncation(self):
        # ((A*A)*B) == (A*(A*B)) entrywise on the window n <= 1e4, with A the
        # square indicator and B the prime indicator
        from wgcircle.arith import sieve_primes

        n = 10**4
        a = np.zeros(n + 1, dtype=np.int64)
        a[np.arange(1, 101) ** 2] = 1
        b = sieve_primes(n).astype(np.int64)
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
    """The cyclic power of the local-count oracle, against direct folding."""

    def test_cyclic_matches_direct(self):
        a = [1, 2, 0, 3]
        assert local_oracle.cyclic_power(np.array(a), 2, 4) == folded(naive_conv(a, a), 4)

    def test_cyclic_power_counts_sums(self):
        # histogram of residues of x mod 5 for x in 0..4 is all ones; the
        # s-fold convolution counts tuples by residue sum, so it is uniform
        out = local_oracle.cyclic_power(np.ones(5, dtype=np.int64), 3, 5)
        assert out == [25] * 5

    def test_cyclic_power_big_path(self):
        # (7 * 10^5)^4 / 7 per residue is past int64: exact Python integers
        hist = np.full(7, 10**5, dtype=np.int64)
        out = local_oracle.cyclic_power(hist, 4, 7)
        assert out == [(7 * 10**5) ** 4 // 7] * 7

    def test_power_one_is_identity(self):
        hist = np.array([3, 1, 4], dtype=np.int64)
        assert local_oracle.cyclic_power(hist, 1, 3) == [3, 1, 4]


class TestPower:
    def test_rejects_zero_power(self):
        with pytest.raises(DomainError):
            convolve.power(np.ones(3, dtype=np.int64), 0)
