"""Tests for exact counting and the prediction comparisons."""

import math
import tracemalloc

import numpy as np
import pytest

from wgcircle import circle, counting, series
from wgcircle.arith import sieve_primes
from wgcircle.convolve import ConvStats
from wgcircle.errors import DomainError, ResourceError


class TestCountDirect:
    def test_hand_value(self):
        # 10 = 2 + 4 + 4 = 5 + 1 + 4 = 5 + 4 + 1
        assert counting.count_direct(2, 2, 10) == 3

    def test_no_prime_below_two(self):
        assert counting.count_direct(2, 1, 2) == 0

    def test_too_small(self):
        for k in (1, 2, 3):
            for s in (1, 2, 4):
                assert counting.count_direct(k, s, s) == 0
                assert counting.count_direct(k, s, s + 1) == 0

    @pytest.mark.parametrize("k, s", [(2, 0), (0, 2), (2, -1)])
    def test_direct_routes_refuse_k_or_s_below_one(self, k, s):
        # s = 0 once gave the weighted oracle the one-fold sums: 3.7136 at n = 50
        log_weights = circle.build_g_spectrum(63)
        for route in (lambda: counting.count_direct(k, s, 50),
                      lambda: counting.count_direct_weighted(k, s, 50, log_weights)):
            with pytest.raises(DomainError, match=r"need 1 <= [ks] <= 2\*\*53, got [ks]=(0|-1)$"):
                route()

    @pytest.mark.parametrize("k, s, n, budget", [(1, 1, 10**7, 1_000_000), (2, 3, 10**5, 10_000_000)])
    def test_direct_arrays_charged_before_they_are_built(self, monkeypatch, k, s, n, budget):
        # the 2^24 powers of k = 1 (134 MB), or a step of 37 million tuples
        # (k = 2, s = 3), were once allocated with no charge
        monkeypatch.setenv("WGCIRCLE_MEM_BYTES", str(budget))
        counting._power_sums.cache_clear()
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError):
                counting.count_direct(k, s, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget

    def test_pure_python_oracle(self):
        # tiny independent double loop
        def slow(k, s, n):
            primes = [p for p in range(2, n) if all(p % d for d in range(2, p))]
            count = 0

            def rec(remaining, slots):
                nonlocal count
                if slots == 0:
                    count += remaining in primes
                    return
                x = 1
                while remaining - x**k >= 2:
                    rec(remaining - x**k, slots - 1)
                    x += 1

            rec(n, s)
            return count

        for n in (10, 21, 34, 55, 89):
            for (k, s) in ((2, 2), (3, 3)):
                assert counting.count_direct(k, s, n) == slow(k, s, n)


class TestCountRange:
    @pytest.mark.parametrize("k,s", [(2, 2), (3, 3), (3, 4)])
    def test_matches_direct_on_prefix(self, k, s):
        counts = counting.count_range(k, s, 600)
        for n in range(601):
            assert int(counts[n]) == counting.count_direct(k, s, n)

    def test_row_example(self):
        assert int(counting.count_range(2, 2, 16)[10]) == 3

    def test_past_int64_every_method_is_exact(self):
        # r(1000) for k = 2, s = 40 is ~3e37; a Python-int oracle fixes it
        n, k, s = 1000, 2, 40
        mask = sieve_primes(n)
        poly = [1] + [0] * n
        for _ in range(s):
            poly = [sum(poly[m - x * x] for x in range(1, math.isqrt(m) + 1)) for m in range(n + 1)]
        oracle = sum(poly[n - p] for p in range(2, n + 1) if mask[p])
        stats = ConvStats()
        counts = counting.count_range(k, s, n, stats)
        assert int(counts[n]) == oracle
        assert min(counts) >= 0
        # the one route got here by splitting operands past the float range
        assert stats.splits > 0

    def test_cumulative_identity(self):
        # sum_{n <= N} r(n) counts triples with p + x^2 + y^2 <= N
        N = 10**4
        counts = counting.count_range(2, 2, N)
        primes = np.flatnonzero(sieve_primes(N))
        direct = 0
        x = 1
        while x * x + 3 <= N:
            y = 1
            while x * x + y * y + 2 <= N:
                direct += int(np.searchsorted(primes, N - x * x - y * y, side="right"))
                y += 1
            x += 1
        assert int(counts.sum()) == direct


class TestPrediction:
    def test_linear_case_has_unit_constant(self):
        n = 1000
        assert counting.hl_prediction(1, 1, n, 1.0) == pytest.approx(n / math.log(n))

    def test_scales_with_series(self):
        assert counting.hl_prediction(2, 2, 100, 2.0) == pytest.approx(
            2 * counting.hl_prediction(2, 2, 100, 1.0)
        )

    def test_order_normalization(self):
        # prediction / (n^{s/k} / log n) equals the series value times the
        # fixed Gamma factor
        k, s, n = 3, 4, 777
        pred = counting.hl_prediction(k, s, n, 1.3)
        factor = pred / (n ** (s / k) / math.log(n))
        assert factor == pytest.approx(1.3 * math.gamma(1 + 1 / 3) ** 4 / math.gamma(4 / 3 + 1))


class TestCompareReport:
    def test_bookkeeping(self):
        rep = counting.compare_report(2, 2, 100, 300, stride=7, prime_cutoff=200)
        assert rep.n[0] == 100
        ratios = rep.ratio.tolist()
        assert rep.min_ratio == pytest.approx(min(ratios))
        assert rep.mean_ratio == pytest.approx(sum(ratios) / len(ratios))
        assert rep.zero_count == sum(1 for r in rep.r.tolist() if r == 0)
        for r, prediction, ratio in zip(rep.r.tolist(), rep.prediction.tolist(), ratios):
            if prediction > 0:
                assert ratio == pytest.approx(r / prediction)

    def test_csv_shape(self):
        rep = counting.compare_report(2, 2, 50, 60, prime_cutoff=100)
        rows = list(zip(*rep.columns()))
        assert len(rows) == 11
        assert all(len(r) == 5 for r in rows)

    def test_positive_ratio_region(self):
        rep = counting.compare_report(2, 2, 1000, 1200, prime_cutoff=300)
        assert rep.zero_count == 0
        assert rep.min_ratio > 0

    def test_cubes_window_never_vanishes(self):
        # four cubes plus a prime over [1e4, 2e4]: normalized count stays positive
        counts = counting.count_range(3, 4, 2 * 10**4)
        ns = np.arange(10**4, 2 * 10**4 + 1)
        normalized = counts[ns] / (ns ** (4 / 3) / np.log(ns))
        assert float(normalized.min()) > 0

    def test_validation(self):
        with pytest.raises(DomainError):
            counting.compare_report(2, 2, 100, 50)

    @pytest.mark.parametrize("k, s, lo, hi", [(2, 2, 61190, 61200), (3, 11, 5000, 5030)])
    def test_series_column_is_the_euler_product(self, k, s, lo, hi):
        # both multiply the same checked class values in ascending p; the
        # column once came from a DFT and differed at n = 61194 in the last bit
        rep = counting.compare_report(k, s, lo, hi, prime_cutoff=1000)
        assert rep.series.tolist() == [series.euler_product(n, k, s, 1000).product_value for n in rep.n.tolist()]

    def test_prediction_column_is_hl_prediction(self):
        rep = counting.compare_report(3, 11, 5000, 5400, prime_cutoff=1000)
        assert np.array_equal(counting.hl_prediction(3, 11, rep.n, rep.series), rep.prediction)
        for i in (0, 17, 233, 400):
            assert counting.hl_prediction(3, 11, int(rep.n[i]), float(rep.series[i])) == rep.prediction[i]
