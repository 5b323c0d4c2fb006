"""Tests for the implicit function, its constants, and the optimizer."""

import math

import pytest

from wgcircle import specialfn as sf
from wgcircle.errors import ConvergenceError, DomainError, InternalConsistencyError


def bisect_omega_inverse(target: float) -> float:
    """Independent oracle: solve u * e^u = target by plain bisection."""
    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestEta:
    def test_eta_at_one_is_omega_constant(self):
        # u + log u = 0 means u * e^u = 1
        oracle = bisect_omega_inverse(1.0)
        point = sf.eta(1.0)
        assert point.eta == pytest.approx(oracle, abs=1e-10)
        assert point.eta == pytest.approx(0.5671432904, abs=1e-9)

    @pytest.mark.parametrize(
        "t,expected",
        [
            (4 / 5 + math.log(5), 0.2),
            (1 / 2 + math.log(2), 0.5),
            (3 / 4 + math.log(4), 0.25),
        ],
    )
    def test_level_values(self, t, expected):
        assert sf.eta(t).eta == pytest.approx(expected, abs=1e-10)

    def test_residual_on_grid(self):
        for i in range(1000):
            t = 0.01 + (10.0 - 0.01) * (i + 1) / 1000
            u = sf.eta(t).eta
            assert abs(u + math.log(u) - (1.0 - t)) < 1e-10

    def test_strictly_decreasing(self):
        values = [sf.eta(0.05 * j + 0.05).eta for j in range(1, 150)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_lower_bound_on_unit_window(self):
        # eta(t) > 1/(4t - 1) strictly on [1, 3]
        for i in range(1000):
            t = 1.0 + 2.0 * i / 999
            assert sf.eta(t).eta > 1.0 / (4.0 * t - 1.0)

    def test_derivative_matches_finite_difference(self):
        h = 1e-5
        for i in range(60):
            t = 0.5 + 4.5 * i / 59
            fd = (sf.eta(t + h).eta - sf.eta(t - h).eta) / (2 * h)
            assert abs(sf.eta(t).eta_prime - fd) < 1e-6

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            sf.eta(bad)

    def test_inverse_round_trip(self):
        for u in (0.1, 0.25, 0.5, 0.9):
            assert sf.eta(sf.eta_inverse(u)).eta == pytest.approx(u, abs=1e-10)

    def test_large_t_asymptotic_residual(self):
        u = sf.eta(650.0).eta
        assert 0.0 < u < 1e-250
        # residual in the exponential form: u * e^u should equal e^(1-t)
        assert u * math.exp(u) == pytest.approx(math.exp(1 - 650.0), rel=1e-12)

    def test_scan_to_the_underflow_limit_raises_nothing(self):
        # step 0.01 up to 709.39, the last such t before e^(1-t) leaves the normal doubles;
        # the solver once failed for most t in (142, 600]
        prev = 1.0
        for i in range(1, 70940):
            u = sf.eta(i / 100).eta
            assert 0.0 < u < prev
            prev = u

    def test_tiny_t_stays_below_one(self):
        u = sf.eta(1e-9).eta
        assert 0.999 < u < 1.0
        assert abs(u + math.log(u) - (1.0 - 1e-9)) < 1e-10


class TestRootConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            sf.RootConfig(abs_tol=0.0)
        with pytest.raises(DomainError):
            sf.RootConfig(max_iter=0)
        with pytest.raises(DomainError):
            sf.RootConfig(bracket=(2.0, 1.0))

    def test_no_sign_change_raises(self):
        with pytest.raises(ConvergenceError):
            sf._bisect_newton(lambda x: x * x + 1, lambda x: 2 * x, -1.0, 1.0, sf.DEFAULT_ROOT_CONFIG)

    def test_iteration_budget_enforced(self):
        with pytest.raises(ConvergenceError):
            sf.eta(2.0, sf.RootConfig(max_iter=2))


class TestCriticalRatio:
    def test_values(self):
        assert sf.critical_ratio(5) == pytest.approx(2.134693, abs=1e-6)
        assert sf.critical_ratio(4) == pytest.approx(1.961969, abs=1e-6)

    def test_defining_residual(self):
        for theta in (4, 5):
            c = sf.critical_ratio(theta)
            assert abs(2 * c - 2 - math.log(theta * c - 1)) < 1e-10

    def test_optimizer_route_agrees(self):
        for theta in (4, 5):
            assert abs(sf.critical_ratio(theta) - sf.critical_ratio_via_optimizer(theta)) < 1e-8

    def test_theta_validation(self):
        with pytest.raises(DomainError):
            sf.critical_ratio(3)

    def test_coarse_constants(self):
        assert sf.coarse_constant(5) == pytest.approx(2.409437, abs=1e-6)
        assert sf.coarse_constant(4) == pytest.approx(2.136294, abs=1e-6)


class TestTauAndBigE:
    def test_tau_at_critical_ratio(self):
        # independent route: the defining equation of c collapses tau(c) to
        # c - 1 - 1/(theta*c - 1)
        for theta, frozen in ((5, 1.0313178305), (4, 0.8159387255)):
            c = sf.critical_ratio(theta)
            tau = sf.tau_of_sigma(c, theta)
            assert tau == pytest.approx(c - 1 - 1 / (theta * c - 1), abs=1e-10)
            assert tau == pytest.approx(frozen, abs=1e-9)

    def test_stationarity(self):
        sigma, theta = 2.0, 5
        tau = sf.tau_of_sigma(sigma, theta)
        assert sf.eta(sigma + tau).eta == pytest.approx(1.0 / (theta * sigma - 1.0), abs=1e-9)

    def test_tau_below_sigma_at_left_endpoint(self):
        # the inequality underlying tau < sigma: 1 + log(21/4) < 5/2 + 4/21
        lhs = 1 + math.log(21 / 4)
        rhs = 2.5 + 4 / 21
        assert lhs == pytest.approx(2.658, abs=1e-3)
        assert rhs == pytest.approx(2.690, abs=1e-3)
        assert lhs < rhs
        assert sf.tau_of_sigma(1.25, 5) < 1.25

    def test_tau_domain(self):
        with pytest.raises(DomainError):
            sf.tau_of_sigma(1.0, 5)
        with pytest.raises(DomainError):
            sf.tau_of_sigma(3.5, 5)

    def test_tau_prime_matches_finite_difference_and_is_negative(self):
        h = 1e-6
        for theta in (4, 5):
            for i in range(40):
                sigma = 1.5 + 1.5 * i / 39
                if not 1.5 + h <= sigma <= 3.0 - h:
                    continue
                fd = (sf.tau_of_sigma(sigma + h, theta) - sf.tau_of_sigma(sigma - h, theta)) / (2 * h)
                tp = sf.tau_prime(sigma, theta)
                assert abs(tp - fd) < 1e-6
                assert tp < 0.0

    def test_big_e_monotone_and_straddles_one(self):
        for theta in (4, 5):
            e_vals = [sf.big_e(s, theta) for s in (1.5, 2.0, 3.0)]
            assert e_vals[0] > e_vals[1] > e_vals[2]
            assert sf.big_e(3.0, theta) < 1.0 < sf.big_e(1.5, theta)

    def test_big_e_cross_check_against_direct_minimum(self):
        # closed form vs in-test golden-section oracle at sigma = 2.5, theta = 4
        sigma, theta = 2.5, 4
        h = lambda tau: tau / sigma + theta * sf.eta(sigma + tau).eta
        lo, hi = 0.0, sigma
        inv_phi = (math.sqrt(5) - 1) / 2
        c = hi - inv_phi * (hi - lo)
        d = lo + inv_phi * (hi - lo)
        while hi - lo > 1e-11:
            if h(c) < h(d):
                hi, d = d, c
                c = hi - inv_phi * (hi - lo)
            else:
                lo, c = c, d
                d = lo + inv_phi * (hi - lo)
        direct = h(0.5 * (lo + hi))
        assert sf.big_e(sigma, theta) == pytest.approx(direct, abs=1e-6)
        # built-in cross-check flag must agree with itself too
        assert sf.big_e(sigma, theta, cross_check=True) == pytest.approx(direct, abs=1e-6)

    def test_big_e_domain(self):
        with pytest.raises(DomainError):
            sf.big_e(1.4, 5)


class TestSigmaEvenPlan:
    def test_k17_theta5(self):
        plan = sf.sigma_even_plan(17, 5)
        assert plan.even_target == 54
        assert plan.interval[0] == pytest.approx(53.822, abs=1e-3)
        assert plan.interval[1] == pytest.approx(55.964, abs=1e-3)
        c = sf.critical_ratio(5)
        assert c < plan.sigma < c + 4 / 17
        assert plan.gap_bound < 2.0
        assert 17 * (plan.sigma + plan.tau) == pytest.approx(54.0, abs=1e-9)
        assert 0 < plan.tau < plan.sigma

    def test_target_is_smallest_even_in_interval(self):
        for k in (17, 23, 40):
            for theta in (4, 5):
                plan = sf.sigma_even_plan(k, theta)
                assert plan.even_target % 2 == 0
                assert plan.interval[0] < plan.even_target < plan.interval[1]
                assert plan.even_target - 2 <= plan.interval[0]

    def test_small_k_rejected(self):
        with pytest.raises(DomainError):
            sf.sigma_even_plan(16, 5)
