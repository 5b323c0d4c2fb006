"""Tests for the singular series: local factors, q-sums, Euler products."""

import math

import numpy as np
import pytest

import series_oracle
from wgcircle import series
from wgcircle.arith import sieve_primes
from wgcircle.errors import DomainError


class TestNormalizedSum:
    def test_trivial_modulus(self):
        assert series.s_n_q(1, 7, 3, 4) == pytest.approx(1.0)

    def test_hand_value(self):
        # p=3, k=2, s=3: S(3,1) = i*sqrt(3), S(3,2) = -i*sqrt(3) collapse to -1/3
        v = series.s_n_q(3, 1, 2, 3)
        assert v.real == pytest.approx(-1 / 3, abs=1e-12)
        assert abs(v.imag) < 1e-12

    def test_real_valued(self):
        for q in (2, 3, 4, 6, 10, 15):
            for n in (0, 1, 5):
                assert abs(series.s_n_q(q, n, 3, 4).imag) < 1e-10

    def test_multiplicative(self):
        for q1 in (2, 3, 4, 5, 7):
            for q2 in (3, 5, 7, 9):
                if math.gcd(q1, q2) != 1 or q1 * q2 > 50:
                    continue
                for n in (1, 4, 9):
                    lhs = series.s_n_q(q1 * q2, n, 3, 3)
                    rhs = series.s_n_q(q1, n, 3, 3) * series.s_n_q(q2, n, 3, 3)
                    assert lhs == pytest.approx(rhs, abs=1e-9)
        # three primes, with d = gcd(k, p - 1) > 1 on every odd p for k = 2 and up to 6 for k = 6
        for k in (2, 6):
            for primes in ((2, 3, 5), (3, 5, 7), (2, 7, 13), (5, 7, 13)):
                for n in (0, 1, 4, 9, 1000):
                    lhs = series.s_n_q(math.prod(primes), n, k, 3)
                    rhs = math.prod(series.s_n_q(p, n, k, 3) for p in primes)
                    assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_prime_decay_trend(self):
        # recorded empirical constant: max sqrt(p) * |S_n(p)| over p <= 200
        # measured 1.188 for (k, s, n) = (3, 3, 10); assert it stays recorded
        worst = max(
            abs(series.s_n_q(int(p), 10, 3, 3)) * math.sqrt(p)
            for p in np.flatnonzero(sieve_primes(200))
        )
        assert worst == pytest.approx(1.1879, abs=1e-3)
        assert worst < 2.0


def local_factor(p, n, k, s):
    """(chi_p by the sum route, chi_p by the count route, M_p, S_n(p)) at the
    slot of n in `series.class_factors`."""
    factors = series.class_factors(p, k, s)
    i = factors.slot(n % p)
    snp = factors.snp[i]
    return 1.0 - snp.real / (p - 1), factors.chi[i], factors.mp[i], snp


class TestLocalFactor:
    def test_dual_route_hand_value(self):
        via_snp, chi, mp, _ = local_factor(3, 1, 2, 3)
        assert via_snp == pytest.approx(7 / 6, abs=1e-12)
        assert chi == pytest.approx(7 / 6, abs=1e-12)
        assert mp == 21

    @pytest.mark.parametrize("k, s", [(0, 3), (-3, 4), (3, 0), (2, -1)])
    def test_nonpositive_k_or_s_refused(self, k, s):
        with pytest.raises(DomainError, match="need s >= 1 and k >= 1"):
            series.class_factors(7, k, s)

    def test_dual_route_grid(self):
        for p in (2, 3, 5, 7, 11, 13):
            for k in (1, 2, 3):
                for s in (3, 4):
                    for n in (0, 1, 2, 9):
                        via_snp, chi, _, _ = local_factor(p, n, k, s)
                        assert abs(via_snp - chi) < 1e-9

    def test_lower_bound(self):
        for p in (2, 3, 5, 11):
            for n in range(6):
                assert local_factor(p, n, 2, 3)[1] >= p ** (-3) - 1e-12

    def test_large_p_trend(self):
        c = series.euler_product(10, 3, 3, 500).tail_constant
        assert c < 3.0  # recorded: 1.386 at p <= 1000

    @pytest.mark.parametrize("n", [0, 1, 46380, 123457])
    def test_past_the_old_ceiling(self, n):
        # p = 46381 > 46341 and d = gcd(3, p - 1) = 3
        via_snp, chi, _, snp = local_factor(46381, n, 3, 4)
        assert abs(via_snp - chi) < 1e-9
        assert abs(series.s_n_q(46381, n, 3, 4) - snp) < 1e-9

    def test_coprime_power_map_gives_one(self):
        # d = gcd(3, p - 1) = 1: x -> x^3 permutes the residues and chi_p = 1 exactly
        for p in (2, 5, 11, 2999):
            via_snp, chi, _, snp = local_factor(p, 7, 3, 4)
            assert snp == 0 and via_snp == chi == 1.0

    def test_residue_table_matches_pointwise(self):
        # the slot of a whole residue array against the slot of each residue alone
        for p in (3, 7, 13):
            factors = series.class_factors(p, 3, 4)
            table = factors.chi_at(np.arange(p))
            for r in range(p):
                assert table[r] == factors.chi_at(r) == local_factor(p, r, 3, 4)[1]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 12])
    def test_residue_table_matches_cyclic_power(self, k):
        # the class values against the residue-wide oracle, with the same exact division
        for p in (2, 3, 5, 7, 13, 37, 61):
            for s in (1, 4, 11):
                table = series.class_factors(p, k, s).chi_at(np.arange(p))
                assert np.array_equal(table, series_oracle.residue_table(p, k, s))


class TestSeriesPartial:
    def test_x_one(self):
        assert series.series_partials(100, 3, 4, (1,))[1] == 1.0

    def test_squarefull_terms_vanish(self):
        # q = 4 contributes nothing: partial sums at X=3 and X=4 coincide
        partials = series.series_partials(100, 3, 4, (3, 4))
        assert partials[3].real == pytest.approx(partials[4].real, abs=1e-15)

    def test_imag_residue_small(self):
        assert abs(series.series_partials(100, 3, 4, (64,))[64].imag) < 1e-9

    def test_low_s_flagged(self):
        assert series.euler_product(50, 2, 2, 10, partial_xs=(8,)).converges is False
        assert series.euler_product(50, 2, 3, 10, partial_xs=(8,)).converges is True

    def test_one_pass_matches_separate_sums(self):
        # each running total is summed in the order of a pass stopping at its X,
        # and the products over p | q round apart from one s_n_q call per q
        n, k, s = 100, 3, 4
        partials = series.series_partials(n, k, s, (40, 7, 1, 7, 24))
        assert sorted(partials) == [1, 7, 24, 40]
        expected = series_oracle.qsum_partials(n, k, s, (1, 7, 24, 40))
        for x, value in partials.items():
            assert series.series_partials(n, k, s, (x,))[x] == value
            assert abs(value.real - expected[x].real) < 1e-12
            assert abs(abs(value.imag) - abs(expected[x].imag)) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            series.series_partials(100, 3, 4, (8, 0))

    def test_convergence_slope(self):
        # |S(n,2X) - S(n,X)| should decay at least like X^(-0.3) in the fit
        partials = {x: value.real for x, value in
                    series.series_partials(100, 3, 4, (8, 16, 32, 64, 128, 256, 512, 1024)).items()}
        xs, ys = [], []
        for x in (8, 16, 32, 64, 128, 256, 512):
            d = abs(partials[2 * x] - partials[x])
            if d > 0:
                xs.append(math.log(x))
                ys.append(math.log(d))
        slope = np.polyfit(xs, ys, 1)[0]
        assert slope <= -0.3


class TestEulerProduct:
    def test_cutoff_two_is_single_factor(self):
        rep = series.euler_product(10, 3, 4, 2)
        assert rep.product_value == pytest.approx(local_factor(2, 10, 3, 4)[1], abs=1e-12)

    @pytest.mark.parametrize("k,s,n", [(3, 4, 100), (2, 3, 50), (3, 5, 999)])
    def test_agrees_with_partial_within_tails(self, k, s, n):
        rep = series.euler_product(n, k, s, 2000, partial_xs=(512, 1024))
        best = rep.partials[-1][1]
        series_tail = 3.5 * abs(rep.partials[-1][1] - rep.partials[0][1])
        assert abs(rep.product_value - best) <= rep.tail_bound + series_tail + 1e-9

    def test_partials_keep_the_given_order(self):
        rep = series.euler_product(100, 3, 4, 50, partial_xs=(16, 4, 16))
        partials = series.series_partials(100, 3, 4, (4, 16))
        assert rep.partials == [(16, partials[16].real), (4, partials[4].real), (16, partials[16].real)]

    def test_positivity_sample(self):
        rng = np.random.default_rng(11)
        n_lo, stride = (int(v) for v in rng.integers(1, 10**6, 2))
        vals = series.singular_series_many(n_lo, stride, 100, 3, 4, 100)
        assert (vals > 0).all()

    def test_many_matches_single(self):
        # k = 2: d = 2 on every odd p, so chi_p(n) varies with n mod p; counts
        # below, equal to and above p = 7, 11, 13
        for k, s in ((2, 3), (3, 4)):
            for n_lo, stride in ((100, 1), (100, 7), (999, 1), (10**6 + 3, 7)):
                for count in (1, 6, 7, 11, 13, 40):
                    many = series.singular_series_many(n_lo, stride, count, k, s, 13)
                    ns = n_lo + stride * np.arange(count)
                    assert np.array_equal(many, series_oracle.gather_product(ns, k, s, 13))
        # against the Euler product at cutoff 200, at n = 100, 107, ..., 128 and 100, 101, 999
        for k, s in ((2, 3), (3, 4)):
            for n_lo, stride, count in ((100, 7, 5), (100, 1, 2), (999, 1, 1)):
                many = series.singular_series_many(n_lo, stride, count, k, s, 200)
                ns = n_lo + stride * np.arange(count)
                assert np.array_equal(many, series_oracle.gather_product(ns, k, s, 200))
                for n, v in zip(ns.tolist(), many.tolist()):
                    assert v == series.euler_product(n, k, s, 200).product_value

    def test_report_schema(self):
        rep = series.euler_product(100, 3, 4, 50, partial_xs=(8,))
        d = rep.to_json_dict()
        assert set(d) == {"n", "k", "s", "cutoff", "product", "tail_bound",
                          "tail_constant", "convergence_guaranteed", "partials"}

    def test_empirical_smallest_good_prime(self):
        rng = np.random.default_rng(5)
        ns = rng.integers(1, 10**6, 30)
        # an empirical p0 <= 13: chi_q(n) >= 1 - q^(-5/4) at every sampled n for all primes 13 <= q <= 200
        for q in np.flatnonzero(sieve_primes(200)).tolist():
            if q >= 13:
                assert np.all(series.class_factors(q, 3, 4).chi_at(ns % q) >= 1.0 - q ** (-1.25))

    def test_bad_cutoff(self):
        with pytest.raises(DomainError):
            series.euler_product(10, 3, 4, 1)
