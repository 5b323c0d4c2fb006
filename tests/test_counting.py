"""Tests for exact counting and the prediction comparisons."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wgcircle import circle, convolve, counting, series
from wgcircle.arith import sieve_primes
from wgcircle.convolve import ConvStats, next_smooth
from wgcircle.errors import DomainError, ResourceError


def recorded_charges(monkeypatch) -> list[int]:
    """The bytes of every memory check of the convolution layer, in order: the
    count's up-front charge, then one per product."""
    charges = []
    ensure_memory = convolve.ensure_memory
    monkeypatch.setattr(convolve, "ensure_memory", lambda nbytes, what: charges.append(nbytes) or ensure_memory(nbytes, what))
    return charges


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

    @pytest.mark.parametrize("n_min", [0, 900000])
    @pytest.mark.parametrize("k, s", [(2, 9), (3, 11), (4, 13), (5, 15), (6, 17)])
    def test_charge_against_the_measured_peak(self, k, s, n_min):
        # the paper's regime s >= c k + 4 at 10^6: the rise of the peak resident set
        # (VmHWM) across one count in a fresh interpreter, which sees pocketfft's scratch
        # and the allocator's own holdings, stays within the up-front charge, and over
        # the last 10^5 rows the charge is at most 1.5 times the rise
        script = (
            "import sys\n"
            "from wgcircle import convolve, counting\n"
            "def peak_kib():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
            "charges = []\n"
            "check = convolve.ensure_memory\n"
            "convolve.ensure_memory = lambda nbytes, what: charges.append(nbytes) or check(nbytes, what)\n"
            "k, s, n_max, n_min = map(int, sys.argv[1:])\n"
            "before = peak_kib()\n"
            "counting.count_range(k, s, n_max, None, n_min)\n"
            "print(charges[0], 1024 * (peak_kib() - before))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(counting.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script, str(k), str(s), str(10**6), str(n_min)],
                             env=env, capture_output=True, text=True, check=True).stdout
        charge, rise = map(int, out.split())
        assert rise <= charge
        if n_min:
            assert charge <= 1.5 * rise

    def test_power_past_the_memory_model_refused(self, monkeypatch):
        # the lattice volume bounds the sum of r(n) at n = 10^5 by about 2^4360: the walk
        # refuses the count before any array rather than charge its integers too little
        def no_products(*args):
            raise AssertionError("a product ran")

        monkeypatch.setattr(convolve, "_convolve", no_products)
        with pytest.raises(ResourceError, match=r"^the exact count up to n = 100000 has entries that may sum past 2\^4096"):
            counting.count_range(2, 1000, 10**5)


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
        n, counts, predictions, ratio_column, _ = rep["rows"].columns
        assert n[0] == 100
        ratios = ratio_column.tolist()
        assert rep["min_ratio"] == pytest.approx(min(ratios))
        assert rep["mean_ratio"] == pytest.approx(sum(ratios) / len(ratios))
        assert rep["zero_count"] == sum(1 for r in counts.tolist() if r == 0)
        for r, prediction, ratio in zip(counts.tolist(), predictions.tolist(), ratios):
            if prediction > 0:
                assert ratio == pytest.approx(r / prediction)

    def test_csv_shape(self):
        rep = counting.compare_report(2, 2, 50, 60, prime_cutoff=100)
        rows = list(zip(*rep["rows"].columns))
        assert len(rows) == 11
        assert all(len(r) == 5 for r in rows)

    def test_positive_ratio_region(self):
        rep = counting.compare_report(2, 2, 1000, 1200, prime_cutoff=300)
        assert rep["zero_count"] == 0
        assert rep["min_ratio"] > 0

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
        expected = [series.euler_product(n, k, s, 1000)["product"] for n in range(lo, hi + 1)]
        column = counting.compare_report(k, s, lo, hi, prime_cutoff=1000)["rows"].columns[-1]
        assert column.tolist() == expected

    def test_traced_peak_within_the_charge(self, monkeypatch):
        # tracemalloc sees the arrays of the count's float product, at most 48 B per point
        # of its transform, but not pocketfft's scratch, and 24 B per row for the columns
        # built after the count; s = 2, so its largest product is the windowed one.  The
        # charge covers all of it
        charges = recorded_charges(monkeypatch)
        lo, hi = 10**5, 2 * 10**5
        tracemalloc.start()
        try:
            counting.compare_report(2, 2, lo, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= min(charges[0], 48 * next_smooth(2 * hi + 1 - lo) + 24 * (hi - lo + 1))

    def test_compare_object_counts_charged(self, monkeypatch):
        # r(n) <= Gamma(4/3)^11 n^(11/3) / Gamma(14/3) passes 2^63 below 10^6, so the counts
        # may be Python integers; compare refuses them by the count's charge, before any count
        def no_counts(*args, **kwargs):
            raise AssertionError("count_range ran")

        monkeypatch.setattr(counting, "count_range", no_counts)
        charges = recorded_charges(monkeypatch)
        with pytest.raises(AssertionError, match="count_range ran"):
            counting.compare_report(3, 11, 500000, 999999)
        monkeypatch.setenv("WGCIRCLE_MEM_BYTES", str(charges[0] - 1))
        with pytest.raises(ResourceError, match=f"the exact count up to n = 999999 needs {charges[0]} bytes"):
            counting.compare_report(3, 11, 500000, 999999)
        # past int64 an entry is a pointer and a Python integer, 48-byte blocks up to six digits
        for bound, nbytes in ((2**63 - 1, 8), (2**63, 56), (2**180 - 1, 56), (2**180, 72)):
            assert convolve._Operand(10, 10, bound, 10 * bound).nbytes == 10 * nbytes

    def test_prediction_column_is_hl_prediction(self):
        n, _, prediction, _, column = counting.compare_report(3, 11, 5000, 5400, prime_cutoff=1000)["rows"].columns
        assert np.array_equal(counting.hl_prediction(3, 11, n, column), prediction)
        for i in (0, 17, 233, 400):
            assert counting.hl_prediction(3, 11, int(n[i]), float(column[i])) == prediction[i]
