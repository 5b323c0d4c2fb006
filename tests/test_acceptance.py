"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; runtime limits are
asserted against wall-clock time.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from arc_oracle import core_oracle, family_endpoints, gaps_measure, major_oracle, measure, measure_minus
from wgcircle import circle, counting, exponents, series
from wgcircle import specialfn as sf
from wgcircle.arith import sieve_primes
from wgcircle.cli import main
from wgcircle.serialize import json_chunks, to_csv_bytes


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.monotonic()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.monotonic() - start
        status = "FAIL" if failed else "PASS"
        print(f"ACCEPTANCE {number:2d}: {status} ({elapsed:6.2f}s / {limit_seconds:g}s) - {description}")
        if not failed:
            assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def test_criterion_1_constants():
    with criterion(1, "transcendental constants to stated precision", 1.0):
        assert abs(sf.critical_ratio(5) - 2.134693) < 1e-6
        assert abs(sf.critical_ratio(4) - 1.961969) < 1e-6
        for theta in (4, 5):
            assert abs(sf.critical_ratio(theta) - sf.critical_ratio_via_optimizer(theta)) < 1e-8
        assert abs(sf.coarse_constant(5) - 2.409437) < 1e-6
        assert abs(sf.coarse_constant(4) - 2.136294) < 1e-6


def test_criterion_2_eta_suite(tmp_path):
    with criterion(2, "implicit-function residuals, bound, derivative", 1.0):
        for i in range(1000):
            t = 0.01 + (10.0 - 0.01) * (i + 1) / 1000
            u = sf.eta(t)
            assert abs(u + math.log(u) - (1.0 - t)) < 1e-10
        for i in range(1000):
            t = 1.0 + 2.0 * i / 999
            assert sf.eta(t) > 1.0 / (4.0 * t - 1.0)
        # the derivative the eta command reports, against a central difference of eta
        out = tmp_path / "eta.json"
        h = 1e-5
        for i in range(100):
            t = 0.5 + 4.5 * i / 99
            assert main(["eta", "--t", repr(t), "--out", str(out)]) == 0
            fd = (sf.eta(t + h) - sf.eta(t - h)) / (2 * h)
            assert abs(json.loads(out.read_text())["eta_prime"] - fd) < 1e-6


def test_criterion_3_optimizer():
    with criterion(3, "closed forms vs direct minimization; even-target plans", 5.0):
        inv_phi = (math.sqrt(5) - 1) / 2
        for theta in (4, 5):
            for i in range(50):
                sigma = 1.5 + 1.5 * i / 49
                h = lambda tau: tau / sigma + theta * sf.eta(sigma + tau)
                lo, hi = 0.0, sigma
                c = hi - inv_phi * (hi - lo)
                d = lo + inv_phi * (hi - lo)
                while hi - lo > 1e-10:
                    if h(c) < h(d):
                        hi, d = d, c
                        c = hi - inv_phi * (hi - lo)
                    else:
                        lo, c = c, d
                        d = lo + inv_phi * (hi - lo)
                direct = h(0.5 * (lo + hi))
                assert abs(sf.big_e(sigma, theta) - direct) < 1e-6
        step = 1e-6
        for theta in (4, 5):
            for i in range(50):
                sigma = 1.5 + (1.5 - 2 * step) * i / 49 + step
                fd = (sf.tau_of_sigma(sigma + step, theta) - sf.tau_of_sigma(sigma - step, theta)) / (2 * step)
                assert abs(sf.tau_prime(sigma, theta) - fd) < 1e-6
        for k in range(17, 61):
            for theta in (4, 5):
                plan = sf.sigma_even_plan(k, theta)
                assert plan["gap_bound"] < 2.0
                assert plan["interval"][0] < plan["even_target"] < plan["interval"][1]


def test_criterion_4_tables():
    with criterion(4, "shipped tables recompute and cross-check", 1.0):
        checks = exponents.verify_table2()
        assert len(checks) == 32
        assert all(c["ok"] for c in checks)
        cross = exponents.cross_check_table1()
        assert cross and all(c["ok"] for c in cross)


def test_criterion_5_local_factors():
    with criterion(5, "dual-route local factors over the full grid", 30.0):
        factors = series.class_factors(3, 2, 3)
        assert abs(factors.chi[factors.slot(1)] - 7 / 6) < 1e-12
        for p in np.flatnonzero(sieve_primes(50)).tolist():
            for k in range(1, 6):
                for s in range(3, 7):
                    factors = series.class_factors(p, k, s)
                    for n in range(1, 31):
                        i = factors.slot(n % p)
                        assert abs(1.0 - factors.snp[i].real / (p - 1) - factors.chi[i]) < 1e-9


def test_criterion_6_series_convergence():
    with criterion(6, "q-sum decay slope and product agreement", 60.0):
        partials = {
            x: value.real
            for x, value in series.series_partials(100, 3, 4, (8, 16, 32, 64, 128, 256, 512, 1024)).items()
        }
        xs, ys = [], []
        for x in (8, 16, 32, 64, 128, 256, 512):
            d = abs(partials[2 * x] - partials[x])
            if d > 0:
                xs.append(math.log(x))
                ys.append(math.log(d))
        slope = float(np.polyfit(xs, ys, 1)[0])
        assert slope <= -0.3
        rep = series.euler_product(100, 3, 4, 10**4, partial_xs=(512, 1024))
        series_tail = 3.5 * abs(partials[1024] - partials[512])
        assert abs(rep["product"] - partials[1024]) <= rep["tail_bound"] + series_tail + 1e-9


def test_criterion_7_exact_counting():
    with criterion(7, "convolution counts equal enumeration, zero tolerance", 60.0):
        assert counting.count_direct(2, 2, 10) == 3
        for (k, s) in ((2, 2), (3, 3), (3, 4)):
            counts = counting.count_range(k, s, 3000)
            for n in range(3001):
                assert int(counts[n]) == counting.count_direct(k, s, n)


def test_criterion_8_quadrature_exactness():
    with criterion(8, "grid integral equals weighted enumeration", 120.0):
        logp = circle.build_g_spectrum(2000)
        for (k, s) in ((2, 2), (3, 3)):
            for n in range(s + 3, 2001):
                fspec, _ = circle.build_f_spectrum(n, k, circle.kth_root_floor(n, k))
                gspec = circle.build_g_spectrum(n)
                res = circle.integrate_over_set(
                    [gspec] + [fspec] * s, [False] * (s + 1), n, None, circle.alias_free_size(n, s, 1)
                )
                direct = counting.count_direct_weighted(k, s, n, logp)
                assert abs(res["value"].real - direct) <= 1e-6 * max(1.0, abs(direct))
                assert abs(res["value"].imag) <= 1e-6


def test_criterion_9_prediction_desk_check():
    with criterion(9, "mean count/prediction ratio inside [0.8, 1.2]", 600.0):
        _, counts, _, _, column = counting.compare_report(2, 2, 5 * 10**4, 10**5, prime_cutoff=1000)["rows"].columns
        ns = np.arange(5 * 10**4, 10**5 + 1, dtype=np.int64)
        gamma_factor = math.gamma(1.5) ** 2 / math.gamma(2.0)
        preds = column * gamma_factor * ns / np.log(ns)
        ratios = counts / preds
        assert float(ratios.min()) > 0
        assert 0.8 <= float(ratios.mean()) <= 1.2


def test_criterion_10_dissection_ledger():
    with criterion(10, "arc dissection and level-set ledgers at n = 1e5", 600.0):
        n, k, s, theta = 10**5, 2, 3, 5
        oracles = {
            "K": major_oracle(n**0.4, n),
            "Kprime": major_oracle(0.5 * math.sqrt(n), n),
            "L": major_oracle(max(1.0, circle.kth_root_floor(n, k) ** circle.PRUNED_HEIGHT_EXPONENT), n),
            "N": core_oracle(math.log(n) ** circle.CORE_HEIGHT_EXPONENT, n),
        }
        for label, oracle in oracles.items():
            arcs = family_endpoints(circle.build_arc_union(label, n, k))
            assert arcs == oracle
            for (_, hi1, _, _), (lo2, _, _, _) in zip(arcs, arcs[1:]):
                assert hi1 < lo2  # exact Fraction comparison of closed arcs
        rep = circle.dissection_ledger(n, k, s, theta, R=2)
        measures = rep["arc_unions"]
        assert measures["K"]["measure"] == float(measure(oracles["K"]))
        assert measures["k"]["measure"] == float(gaps_measure(oracles["K"]))
        assert measures["L"]["measure"] == float(measure(oracles["L"]))
        assert measures["N"]["measure"] == float(measure(oracles["N"]))
        assert measures["P(16)"]["measure"] == float(measure_minus(major_oracle(32.0, n), major_oracle(16.0, n)))
        assert rep["minor_partition"]["measure_sum"] == pytest.approx(
            rep["minor_partition"]["base_measure"], abs=1e-9
        )
        assert rep["slice_partition"]["measure_sum"] == pytest.approx(
            rep["slice_partition"]["base_measure"], abs=1e-9
        )
        csv_payload = to_csv_bytes(
            ["label", "measure", "sup_g", "sup_f", "contribution_abs"],
            rep["minor_partition"]["classes"] + rep["slice_partition"]["classes"],
        )
        assert csv_payload.count(b"\n") == 9
        env = rep["g_envelope"]
        assert env["constant"] > 0
        assert env["sup_g"] <= env["constant"] * n**0.8 * math.log(n) ** 4 + 1e-9
        assert rep["covering"]["uncovered"] == 0


def test_criterion_11_moment_diagnostics():
    with criterion(11, "dyadic moment report with reference slope", 300.0):
        first = circle.moment_doubling_report(64, 2, 3, 8.0)
        second = circle.moment_doubling_report(64, 2, 3, 8.0)
        assert b"".join(json_chunks(first)) == b"".join(json_chunks(second))
        assert first["reference_slope"] == pytest.approx(2 * sf.eta(8 / 3), abs=1e-9)
        assert len(first["rows"]) == 9  # Q = 1, 2, ..., 256
        assert all(row["V"] >= 0 for row in first["rows"])
