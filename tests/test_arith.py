"""Tests for sieves, smooth sets, complete sums, and local counts."""

import cmath
import json
import math
import random
import sys

import numpy as np
import pytest

import local_oracle
from wgcircle import arith, circle, series
from wgcircle.cli import main
from wgcircle.errors import DomainError, ResourceError


def segmented_prime_count(limit: int, segment: int = 10**5) -> int:
    """Independent oracle: segmented sieve recount."""
    base = np.flatnonzero(arith.sieve_primes(int(math.isqrt(limit)) + 1)).tolist()
    count = 0
    lo = 2
    while lo <= limit:
        hi = min(lo + segment - 1, limit)
        flags = bytearray([1]) * (hi - lo + 1)
        for p in base:
            start = max(p * p, ((lo + p - 1) // p) * p)
            for j in range(start, hi + 1, p):
                flags[j - lo] = 0
        count += sum(flags)
        lo = hi + 1
    return count


class TestPrimeTable:
    """The prime flags of sieve_primes and what the callers make of them."""

    def test_small(self):
        flags = arith.sieve_primes(10)
        assert flags.dtype == bool and len(flags) == 11
        assert np.flatnonzero(flags).tolist() == [2, 3, 5, 7]

    def test_chebyshev_theta_ten(self, capsys):
        # log 2 + log 3 + log 5 + log 7, as the sieve command reports it
        assert main(["sieve", "--limit", "10", "--format", "json"]) == 0
        theta = json.loads(capsys.readouterr().out)["chebyshev_theta"]
        assert theta == pytest.approx(5.3471075307, abs=1e-9)

    def test_log_weights(self):
        # the prime spectrum of g: log p at each prime, 0 elsewhere
        flags = arith.sieve_primes(1000)
        weights = circle.build_g_spectrum(1000)
        assert np.array_equal(weights != 0, flags)
        for p in np.flatnonzero(flags).tolist()[:20]:
            assert abs(weights[p] - math.log(p)) < 1e-12

    def test_pi_of_one_million(self):
        assert int(arith.sieve_primes(10**6).sum()) == 78498
        assert segmented_prime_count(10**6) == 78498

    def test_domain(self):
        with pytest.raises(DomainError):
            arith.sieve_primes(1)


class TestSmoothSet:
    def test_example(self):
        ss = arith.smooth_set(10, 3)
        assert ss.dtype == np.int64 and ss.tolist() == [1, 2, 3, 4, 6, 8, 9]

    def test_r_equals_p_is_everything(self):
        assert arith.smooth_set(12, 12).tolist() == list(range(1, 13))

    def test_r_one_is_trivial(self):
        assert arith.smooth_set(10, 1).tolist() == [1]

    def test_membership_against_trial_division(self):
        members = set(arith.smooth_set(200, 13).tolist())
        for x in range(1, 201):
            v = x
            for p in (2, 3, 5, 7, 11, 13):
                while v % p == 0:
                    v //= p
            assert (x in members) == (v == 1)

    def test_cardinality_monotone_in_r(self):
        sizes = [len(arith.smooth_set(500, r)) for r in range(1, 30)]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            arith.smooth_set(10, 11)


def naive_gauss_sum(q: int, a: int, k: int) -> complex:
    return sum(cmath.exp(2j * cmath.pi * a * pow(x, k, q) / q) for x in range(1, q + 1))


def gauss_sum_at(q: int, a: int, k: int) -> complex:
    """S(q, a) read from the vector of all a mod q, as the model error reads it."""
    return complex(arith.gauss_sums_all(q, k)[a % q])


class TestGaussSum:
    def test_trivial_modulus(self):
        assert gauss_sum_at(1, 0, 3) == pytest.approx(1.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_modulus_two(self, k):
        assert abs(gauss_sum_at(2, 1, k)) < 1e-12

    def test_hand_values(self):
        assert gauss_sum_at(4, 1, 2) == pytest.approx(2 + 2j)
        assert abs(gauss_sum_at(3, 1, 3)) < 1e-12

    def test_against_naive(self):
        # a = q is the arc at alpha = 1: S(q, q) = S(q, 0)
        rng = random.Random(1)
        for _ in range(40):
            q = rng.randrange(1, 60)
            a = rng.randrange(0, q + 1)
            k = rng.randrange(1, 6)
            assert gauss_sum_at(q, a, k) == pytest.approx(naive_gauss_sum(q, a, k), abs=1e-9)

    def test_absolute_bound(self):
        for q in range(1, 40):
            assert abs(gauss_sum_at(q, 3, 4)) <= q + 1e-9

    def test_quadratic_modulus(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            for a in (1, 2, p - 1):
                if a % p == 0:
                    continue
                assert abs(gauss_sum_at(p, a, 2)) == pytest.approx(math.sqrt(p), abs=1e-9)

    def test_crt_multiplicativity(self):
        # S(q1*q2, a) = S(q1, a*q2^(k-1)) * S(q2, a*q1^(k-1)) for coprime parts
        for k in (2, 3):
            for q1 in range(2, 11):
                for q2 in range(2, 11):
                    if math.gcd(q1, q2) != 1 or q1 * q2 > 100:
                        continue
                    for a in (1, 3, 7):
                        if math.gcd(a, q1 * q2) != 1:
                            continue
                        lhs = gauss_sum_at(q1 * q2, a, k)
                        rhs = gauss_sum_at(q1, a * pow(q2, k - 1, q1), k) * gauss_sum_at(
                            q2, a * pow(q1, k - 1, q2), k
                        )
                        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_all_a_vector_matches_scalar(self):
        q, k = 12, 3
        sums = arith.gauss_sums_all(q, k)
        assert len(sums) == q
        for a in range(q):
            assert sums[a] == pytest.approx(naive_gauss_sum(q, a, k), abs=1e-9)


def naive_ramanujan(q: int, a: int) -> complex:
    return sum(
        cmath.exp(2j * cmath.pi * a * x / q) for x in range(1, q + 1) if math.gcd(x, q) == 1
    )


@pytest.fixture(scope="module")
def tables():
    return arith.arith_tables(200)


class TestRamanujanSum:
    def test_prime_not_dividing(self, tables):
        assert arith.ramanujan_sum(5, 2, tables) == -1
        assert arith.ramanujan_sum(13, 7, tables) == -1

    def test_zero_argument_gives_totient(self, tables):
        for q in (1, 4, 6, 12, 30):
            assert arith.ramanujan_sum(q, 0, tables) == int(tables.phi[q])

    def test_hand_value(self, tables):
        assert arith.ramanujan_sum(4, 2, tables) == -2

    def test_against_naive(self, tables):
        for q in range(1, 61):
            for a in (0, 1, 2, 7, q // 2):
                expected = naive_ramanujan(q, a).real
                assert arith.ramanujan_sum(q, a, tables) == pytest.approx(expected, abs=1e-8)


class TestArithTables:
    def test_basics(self):
        t = arith.arith_tables(100)
        assert t.mobius[1] == 1 and t.phi[1] == 1
        assert t.mobius[4] == 0 and t.mobius[12] == 0
        assert t.mobius[6] == 1 and t.mobius[30] == -1
        assert t.phi[12] == 4 and t.phi[97] == 96

    def test_totient_divisor_sum(self):
        t = arith.arith_tables(100)
        for q in (1, 6, 12, 36, 97, 100):
            assert sum(int(t.phi[d]) for d in range(1, q + 1) if q % d == 0) == q


def class_count(p: int, n: int, k: int, s: int) -> int:
    """M_p(n) read from the class counts of `series.class_factors` at the slot of n."""
    factors = series.class_factors(p, k, s)
    return factors.mp[factors.slot(n % p)]


class TestMpCount:
    def test_hand_value(self):
        assert class_count(3, 1, 2, 3) == 21

    def test_linear_case(self):
        for p in (2, 3, 5, 7, 11):
            assert class_count(p, 4, 1, 1) == p - 1

    def test_against_brute_force(self):
        for p in (2, 3, 5, 7, 11, 13):
            for k in (1, 2, 3, 4):
                for s in (1, 2, 3, 4):
                    if p**s > 30000:
                        continue
                    for n in range(p):
                        assert class_count(p, n, k, s) == local_oracle.brute_mp_count(p, n, k, s)

    def test_always_at_least_one(self):
        for p in (2, 5, 13, 31):
            for n in (0, 1, 17):
                assert class_count(p, n, 3, 4) >= 1

    def test_past_the_old_ceiling(self):
        # p = 46381 > 46341, d = gcd(3, p - 1) = 3: the class route against the cyclic power
        for n in (0, 1, 123457):
            assert class_count(46381, n, 3, 4) == local_oracle.mp_count(46381, n, 3, 4)

    @pytest.mark.parametrize("p, k, s", [(7, 6, 22), (7, 6, 23), (13, 12, 17), (13, 12, 18), (13, 4, 18)])
    def test_large_d_and_counts_past_int64(self, p, k, s):
        # d = p - 1 in all but the k = 4 case; p^s passes 2^63 at s = 23 for p = 7, s = 18 for p = 13
        for n in range(p):
            assert class_count(p, n, k, s) == local_oracle.mp_count(p, n, k, s)


class TestIndexClasses:
    @pytest.mark.parametrize("p, d", [(3, 2), (7, 3), (7, 6), (13, 4), (101, 5), (2003, 7)])
    def test_labels_are_a_homomorphism_onto_z_mod_d(self, p, d):
        labels = arith.index_classes(p, d)
        x = np.arange(1, p)
        y = (x * 5 + 1) % (p - 1) + 1  # a second walk over the nonzero residues
        assert np.array_equal(labels[x * y % p], (labels[x] + labels[y]) % d)
        assert np.array_equal(np.bincount(labels[1:], minlength=d), np.full(d, (p - 1) // d))
        # the k-th powers for gcd(k, p - 1) = d are exactly the class 0
        assert set(np.nonzero(labels[1:] == 0)[0] + 1) == {pow(int(v), d, p) for v in x}

    def test_budget_checked(self, monkeypatch):
        monkeypatch.setenv("WGCIRCLE_MEM_BYTES", "1000")
        with pytest.raises(ResourceError):
            arith.index_classes(2003, 7)


class TestDoubleRange:
    @pytest.mark.parametrize("base, exponent, factor, fits", [
        (2, 1023, 1, True), (2, 1024, 1, False), (10, 308, 1, True), (10, 308, 2, False),
        (1000, 101, 999, True), (1000, 102, 999, False), (997, 101, 996, True), (997, 102, 996, False),
        (1, 10**9, 1, True), (5, 10**9, 4, False),
    ])
    def test_matches_exact_comparison(self, base, exponent, factor, fits):
        if exponent < 10**4:
            assert fits == (base**exponent * factor <= sys.float_info.max)
        if fits:
            arith.check_double_range(base, exponent, "x", factor=factor)
        else:
            with pytest.raises(DomainError, match="leaves the double range"):
                arith.check_double_range(base, exponent, "x", factor=factor)

    @pytest.mark.parametrize("base, exponent, factor, fits", [
        (10, 308.25, 1, True), (10, 308.3, 1, False), (2, 1023.5, 1, True), (2, 1023.5, 2, False),
        (1500, 50.5, 1, True), (1500, 100.0, 1, False), (40, 180.0, 4096, True), (40, 1000.0, 4096, False),
        (3, 10.0**9, 1, False),
    ])
    def test_fractional_exponent(self, base, exponent, factor, fits):
        # a float power, as n^(s/k) and P^t are computed, raises past the largest double
        if fits:
            arith.check_double_range(base, exponent, "x", factor=factor)
        else:
            with pytest.raises(DomainError, match="leaves the double range"):
                arith.check_double_range(base, exponent, "x", factor=factor)
