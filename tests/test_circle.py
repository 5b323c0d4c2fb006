"""Tests for spectra, arc unions, arc integrals, moments, and level sets."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from arc_oracle import (
    contains, core_oracle, disjoint, family_endpoints, gaps_measure, major_oracle, mask, measure,
    measure_minus, oracle_arcs, upsilon,
)
from grid_oracle import grid_values
from wgcircle import circle, counting
from wgcircle.arith import smooth_set
from wgcircle.errors import AliasingError, DomainError


class TestSpectra:
    def test_f_spectrum_counts_smooth_numbers(self):
        coeffs, members = circle.build_f_spectrum(100, 2, 3)
        assert coeffs.sum() == 7.0  # |A(10, 3)|
        assert int((coeffs != 0).sum()) == len(members)

    def test_g_spectrum_zero_value(self):
        coeffs = circle.build_g_spectrum(10)
        assert coeffs.sum() == pytest.approx(5.3471075307, abs=1e-9)

    def test_kth_root_floor(self):
        assert circle.kth_root_floor(100, 2) == 10
        assert circle.kth_root_floor(99, 2) == 9
        assert circle.kth_root_floor(2**45 - 1, 3) == 32767

    def test_kth_root_floor_of_huge_k(self):
        # k >= bit length of n: the root is 1 with no Newton step, whose x^(k - 1) would not finish
        assert circle.kth_root_floor(10, 2**64) == 1
        assert circle.kth_root_floor(2**64 - 1, 64) == 1
        assert circle.kth_root_floor(2**64, 64) == 2
        assert circle.kth_root_floor(3**100, 100) == 3
        assert circle.kth_root_floor(3**100 - 1, 100) == 2


class TestGridEvaluation:
    def test_constant_spectrum(self):
        vals = circle.half_grid_conj(np.array([3.5]), 8)
        assert len(vals) == 5
        assert np.allclose(vals, 3.5)

    def test_single_frequency_gives_roots_of_unity(self):
        # the primitive gives the conjugates: e(-i/8) at i/8
        vals = circle.half_grid_conj(np.array([0.0, 1.0]), 8)
        expected = np.exp(2j * np.pi * np.arange(5) / 8)
        assert np.allclose(np.conj(vals), expected)
        assert np.allclose(np.conj(vals), grid_values(np.array([0.0, 1.0]), 8)[:5])

    def test_parseval(self):
        rng = np.random.default_rng(2)
        coeffs = rng.random(33)
        for m in (64, 65):
            vals = circle.half_grid_conj(coeffs, m)
            everywhere = circle.HalfPoints.of_mask(np.ones(circle.half_size(m), dtype=bool), m)
            lhs = everywhere.total(np.abs(vals) ** 2) / m
            assert lhs == pytest.approx(float((coeffs**2).sum()), rel=1e-12)
            assert lhs == pytest.approx(float((np.abs(grid_values(coeffs, m)) ** 2).mean()), rel=1e-12)

    def test_aliasing_guard(self):
        coeffs = np.ones(20)
        with pytest.raises(AliasingError):
            circle.half_grid_conj(coeffs, 16)
        # any size past the top frequency is alias-free, a power of two or not
        assert np.allclose(circle.half_grid_conj(coeffs, 20)[1:], 0.0)
        assert np.allclose(circle.half_grid_conj(coeffs, 20), np.conj(grid_values(coeffs, 20)[:11]))

    def test_half_grid_amplitudes(self):
        # real weights: the value at (m - i)/m is the conjugate of the value at
        # i/m, so i <= m/2 holds them all, and rfft gives the conjugates
        coeffs = np.random.default_rng(3).random(40)
        for m in (64, 65):
            full = grid_values(coeffs, m)
            half = circle.half_grid_conj(coeffs, m)
            assert len(half) == circle.half_size(m) == m // 2 + 1
            assert np.allclose(np.conj(half), full[: len(half)], rtol=1e-13, atol=1e-12)
            assert np.allclose(half[1:], full[::-1][: len(half) - 1], rtol=1e-13, atol=1e-12)
            assert np.allclose(np.abs(half), np.abs(full[: len(half)]), rtol=1e-13, atol=1e-12)
        with pytest.raises(AliasingError):
            circle.half_grid_conj(coeffs, 39)

    def test_grid_validation(self):
        assert circle.alias_free_size(100, 2, 1) == 512  # 2^k > (s+1)*n
        # oversample rounds up to a power of two
        assert circle.alias_free_size(100, 2, 2) == 1024
        assert circle.alias_free_size(100, 2, 3) == circle.alias_free_size(100, 2, 4) == 2048


class TestUpsilon:
    # the covering-arc weight of the oracle, which the f-envelope test reads
    def test_exact_rational(self):
        assert upsilon(1 / 3, 100) == pytest.approx(1 / 3)

    def test_off_center(self):
        assert upsilon(1 / 3 + 0.01, 100) == pytest.approx(1 / 6)

    def test_zero_far_from_low_denominators(self):
        golden = (math.sqrt(5) - 1) / 2
        assert upsilon(golden, 100) == 0.0

    def test_endpoints(self):
        assert upsilon(0.0, 400) == pytest.approx(1.0)
        assert upsilon(1.0, 400) == pytest.approx(1.0)


class TestArcUnions:
    def test_unit_height_structure(self):
        union = circle.major_arcs(1.0, 100)
        assert family_endpoints(union) == major_oracle(1.0, 100)
        assert [(float(lo), float(hi)) for lo, hi, _, _ in family_endpoints(union)] == [(0.0, 0.01), (0.99, 1.0)]
        assert union.measure() == pytest.approx(0.02)
        assert union.intervals.tolist() == [[1, 0], [1, 1]] and union.intervals.dtype == np.int64

    def test_measure_bound(self):
        for n, q in ((10**4, 4.0), (10**4, 16.0), (10**5, 50.0), (4 * 10**4, 9.0)):
            union = circle.major_arcs(q, n)
            assert union.measure_exact() == measure(major_oracle(q, n))
            assert union.measure() <= 3 * q * q / n

    def test_disjointness_is_exact(self):
        union = circle.major_arcs(40.0, 10**4)
        arcs = family_endpoints(union)
        assert arcs == major_oracle(40.0, 10**4)
        for (_, hi1, _, _), (lo2, _, _, _) in zip(arcs, arcs[1:]):
            assert hi1 < lo2  # Fractions: exact comparison of closed arcs
        # the arcs |2*alpha - 1| <= 1/3 and |alpha| <= 1/3 share the point 1/3
        with pytest.raises(DomainError, match=r"overlapping intervals at 0\.333333$"):
            circle._farey_family("x", 2, Fraction(1, 3))
        assert not disjoint(oracle_arcs(2, Fraction(1, 3), reach_is_q=False))

    def test_height_bound_enforced(self):
        with pytest.raises(DomainError):
            circle.major_arcs(51.0, 10**4)

    def test_slice_algebra(self):
        n, y, m = 10**4, 8.0, 1 << 15
        outer = circle.major_arcs(2 * y, n)
        inner = circle.major_arcs(y, n)
        label, sl, sl_measure = circle.height_slice(n, y, m)
        assert label == "P(8)"
        # on the half grid: disjoint from the inner set, together they restore the outer set
        assert len(sl) == circle.half_size(m)
        assert not (sl & inner.grid_mask(m)).any()
        assert ((sl | inner.grid_mask(m)) == outer.grid_mask(m)).all()
        exact = measure_minus(major_oracle(2 * y, n), major_oracle(y, n))
        assert exact + inner.measure_exact() == outer.measure_exact()
        assert sl_measure == float(exact)

    def test_complement_partitions_unit_interval(self):
        union = circle.major_arcs(5.0, 10**4)
        oracle = major_oracle(5.0, 10**4)
        # the minor-arc measure is 1 - measure_exact; the oracle sums the gaps
        assert 1 - union.measure_exact() == gaps_measure(oracle)
        m = 4096
        minor = ~union.grid_mask(m)
        assert (minor == ~mask(oracle, m)[: circle.half_size(m)]).all()
        assert not (union.grid_mask(m) & minor).any() and (union.grid_mask(m) | minor).all()

    def test_named_unions(self):
        n = 10**4
        for label in ("K", "Kprime", "L", "N"):
            union = circle.build_arc_union(label, n, 2)
            assert union.measure() > 0
        assert circle.build_arc_union("K", n, 2).measure() < circle.build_arc_union("Kprime", n, 2).measure()

    def test_core_arcs_desk_scale(self):
        union = circle.build_arc_union("N", 10**5, 2)
        assert union.intervals.tolist() == [[1, 0], [1, 1]]
        assert family_endpoints(union) == core_oracle(math.log(10**5) ** circle.CORE_HEIGHT_EXPONENT, 10**5)

    def test_set_algebra_against_pointwise_oracle(self):
        import random

        rng = random.Random(17)
        n, m = 5000, 4 * 5000
        a, b = major_oracle(12.0, n), major_oracle(6.0, n)
        a_mask = circle.major_arcs(12.0, n).grid_mask(m)
        b_mask = circle.major_arcs(6.0, n).grid_mask(m)
        _, diff, _ = circle.height_slice(n, 6.0, m)
        for _ in range(3000):
            j = rng.randrange(0, m)
            in_a, in_b = contains(a, Fraction(j, m)), contains(b, Fraction(j, m))
            h = min(j, m - j)  # the half-grid masks, mirrored
            assert a_mask[h] == in_a and b_mask[h] == in_b
            assert diff[h] == (in_a and not in_b)
            assert (~a_mask)[h] == (not in_a)
            assert (a_mask | b_mask)[h] == (in_a or in_b)

    def test_grid_mask_matches_contains(self):
        n, m = 3000, 2048
        union = circle.major_arcs(9.0, n)
        assert (union.grid_mask(m) == mask(major_oracle(9.0, n), m)[: circle.half_size(m)]).all()
        j, q, a = union.grid_points(m)
        placed = 0
        for lo, hi, q2, a2 in major_oracle(9.0, n):
            run = j[(q == q2) & (a == a2)]
            placed += len(run)
            if not len(run):
                continue
            # each arc's points are one run j0..j1, and the run is the whole arc
            j0, j1 = int(run[0]), int(run[-1])
            assert (run == np.arange(j0, j1 + 1)).all()
            assert lo <= Fraction(j0, m) and Fraction(j1, m) <= hi
            assert Fraction(j0 - 1, m) < lo and (Fraction(j1 + 1, m) > hi or j1 == m // 2)
        assert placed == len(j)  # no point on an arc the oracle lacks

    def test_difference_excludes_seam_points(self):
        # choose scales so the inner arc's endpoint lands exactly on a grid
        # point: the slice must not claim it
        n, y, m = 1024, 2.0, 4096
        outer = circle.major_arcs(2 * y, n)
        inner = circle.major_arcs(y, n)
        _, sl, _ = circle.height_slice(n, y, m)
        seam = Fraction(2, 1024)  # right endpoint of the inner arc at 0
        j = int(seam * m)
        assert contains(major_oracle(y, n), seam) and inner.grid_mask(m)[j]
        assert not sl[j]
        assert not (sl & inner.grid_mask(m)).any()
        combined = sl | inner.grid_mask(m)
        assert (combined == outer.grid_mask(m)).all()
        expected = mask(major_oracle(2 * y, n), m) & ~mask(major_oracle(y, n), m)
        assert (sl == expected[: circle.half_size(m)]).all()

    def test_complement_seam_is_single_owner(self):
        n = 1024
        union = circle.major_arcs(2.0, n)
        edge = Fraction(2, 1024)
        m = 4096
        j = int(edge * m)
        assert contains(major_oracle(2.0, n), edge)
        assert union.grid_mask(m)[j] and not (~union.grid_mask(m))[j]
        assert (union.grid_mask(m) == mask(major_oracle(2.0, n), m)[: circle.half_size(m)]).all()


class TestIntegration:
    def test_orthogonality(self):
        m, n_freq = 64, 7
        coeffs = np.eye(1, 33, n_freq)[0]
        hit = circle.integrate_over_set([coeffs], [False], n_freq, None, m)
        miss = circle.integrate_over_set([coeffs], [False], n_freq + 1, None, m)
        assert hit.value == pytest.approx(1.0, abs=1e-12)
        assert abs(miss.value) < 1e-12

    def test_weighted_count_example(self):
        # n = 20, squares, one power: contributions from 19 + 1 and 11 + 9
        n = 20
        fspec, _ = circle.build_f_spectrum(n, 2, circle.kth_root_floor(n, 2))
        gspec = circle.build_g_spectrum(n)
        res = circle.integrate_over_set([gspec, fspec], [False, False], n, None, circle.alias_free_size(n, 1, 1))
        assert res.value.real == pytest.approx(math.log(19) + math.log(11), rel=1e-6)
        assert res.boundary_error == 0.0

    def test_count_bound(self):
        # log-weighted integral never exceeds r(n) log n when all x are allowed
        for n in (30, 50, 90):
            fspec, _ = circle.build_f_spectrum(n, 2, circle.kth_root_floor(n, 2))
            gspec = circle.build_g_spectrum(n)
            m = circle.alias_free_size(n, 2, 1)
            val = circle.integrate_over_set([gspec, fspec, fspec], [False] * 3, n, None, m).value.real
            assert val <= counting.count_direct(2, 2, n) * math.log(n) + 1e-9

    def test_subset_boundary_error_reported(self):
        n = 64
        fspec, _ = circle.build_f_spectrum(n, 2, 8)
        union = circle.major_arcs(2.0, n)
        res = circle.integrate_over_set([fspec], [False], None, union, circle.alias_free_size(n, 1, 1))
        assert res.boundary_error > 0
        assert res.measure <= 1.0

    def test_conjugate_flag_gives_power_mean(self):
        # f * conj(f) over the full circle is the second moment: sum of
        # squared coefficients, by orthogonality
        n = 200
        fspec, _ = circle.build_f_spectrum(n, 2, 5)
        res = circle.integrate_over_set([fspec, fspec], [False, True], None, None, circle.alias_free_size(n, 2, 1))
        assert res.value.real == pytest.approx(float((fspec**2).sum()), rel=1e-9)
        assert abs(res.value.imag) < 1e-9


    def test_complex_spectra_and_fractional_twist_refused(self):
        # the half-grid sum needs the integrand at 1 - alpha to be the
        # conjugate of its value at alpha: real weights and an integer twist
        real = np.ones(4)
        with pytest.raises(DomainError, match="real weights"):
            circle.integrate_over_set([real, real * 1j], [False, False], None, None, 16)
        for twist in (2.5, 2.0, Fraction(1, 2)):
            with pytest.raises(DomainError, match="twist must be an integer"):
                circle.integrate_over_set([real], [False], twist, None, 16)
        hit = circle.integrate_over_set([np.eye(1, 4, 3)[0]], [False], np.int64(3), None, 16)
        assert hit.value == 1.0

class TestVPoly:
    def test_zero_values(self):
        assert circle.v_poly(0.0, 100, 2).real == pytest.approx(9.2948019124, abs=1e-9)
        assert circle.v_poly(0.0, 50, 1).real == pytest.approx(50.0)

    def test_triangle_bound(self):
        v0 = abs(circle.v_poly(0.0, 200, 3))
        for beta in (0.01, 0.1, 0.37):
            assert abs(circle.v_poly(beta, 200, 3)) <= v0 + 1e-12


class TestSingularIntegral:
    def test_positive_and_right_order(self):
        n = 10**4
        x = math.log(n) ** (1 / 99)
        j = circle.singular_integral(n, 2, 3, x)
        assert j > 0
        # recorded: J / n^(3/2) = 0.501 at this scale
        assert 0.1 < j / n**1.5 < 2.0

    def test_doubling_increments_shrink(self):
        n = 10**4
        x = 1.02
        values = [circle.singular_integral(n, 2, 3, x * 2**i) for i in range(4)]
        increments = [abs(b - a) for a, b in zip(values, values[1:])]
        assert increments[0] > increments[1] > increments[2]

    def test_degenerate_power_against_trapezoid(self):
        n, x = 1000, 4.0
        j = circle.singular_integral(n, 3, 0, x)
        betas = np.linspace(-x / n, x / n, 20001)
        vals = np.array([(circle.v_poly(b, n, 1) * np.exp(-2j * np.pi * b * n)).real for b in betas])
        assert j == pytest.approx(float(np.trapezoid(vals, betas)), abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            circle.singular_integral(100, 2, 3, 0.5)


class TestModelError:
    def test_normalized_error_decreases(self):
        norms = []
        for n in (2**10, 2**12, 2**14):
            P = circle.kth_root_floor(n, 2)
            R = max(2, int(P ** (1 / 3)))
            rep = circle.major_arc_model_error(n, 2, R)
            norms.append(rep.normalized)
        assert norms[0] > norms[1] > norms[2]

    def test_zero_arc_is_tight(self):
        # at alpha = 0 the model is rho * v_k(0), close to |A| by construction
        n = 4096
        P = circle.kth_root_floor(n, 2)
        coeffs, members = circle.build_f_spectrum(n, 2, P)
        model = len(members) / P * circle.v_poly(0.0, n, 2).real
        assert coeffs.sum() == pytest.approx(model, rel=0.02)

    def test_full_range_smoothness_is_classical(self):
        rep = circle.major_arc_model_error(1024, 2, circle.kth_root_floor(1024, 2))
        assert rep.rho_hat == 1.0


class TestMoments:
    def test_subset_of_full_circle(self):
        P, k, t, R = 32, 3, 8.0, 2
        denom = P**k
        coeffs, _ = circle.build_f_spectrum(denom, k, R)
        vals = grid_values(coeffs, circle.alias_free_size(denom, 0, 2))
        full = float((np.abs(vals) ** t).mean())
        row, = circle.moment_doubling_report(P, R, k, t, [0.5 * math.sqrt(denom)])["rows"]
        assert row["V"] <= full

    def test_measure_dominated_near_unit_height(self):
        # at Q = 1 the mass sits on two arcs around 0 and 1 where f is near
        # f(0); recorded ratio 0.719 for t = 2
        row, = circle.moment_doubling_report(32, 2, 3, 2.0, [1.0])["rows"]
        f0 = len(smooth_set(32, 2))
        ratio = row["V"] / (f0**2.0 * row["measure"])
        assert 0.5 <= ratio <= 2.0

    def test_fractional_moment_allowed(self):
        rep = circle.moment_doubling_report(16, 2, 3, 4.5, [2.0])
        assert rep["rows"][0]["V"] > 0
        assert rep["below_guaranteed_range"] is False

    def test_small_t_flagged(self):
        rep = circle.moment_doubling_report(16, 2, 3, 2.0, [2.0])
        assert rep["below_guaranteed_range"] is True

    def test_doubling_report_schema(self):
        rep = circle.moment_doubling_report(16, 2, 3, 8.0, [1.0, 2.0, 4.0])
        assert rep["reference_slope"] == pytest.approx(2 * 0.1605, abs=0.02)
        assert len(rep["rows"]) == 3
        assert rep["rows"][1]["log2_ratio"] is not None

    def test_height_domain(self):
        with pytest.raises(DomainError):
            circle.moment_doubling_report(16, 2, 3, 8.0, [2000.0])


@pytest.fixture(scope="module")
def scene():
    n, k, s, theta = 10**4, 2, 3, 5
    m = circle.alias_free_size(n, s, 1)
    fspec, _ = circle.build_f_spectrum(n, k, 2)
    gspec = circle.build_g_spectrum(n)
    return {
        "n": n, "k": k, "s": s, "theta": theta, "m": m,
        "f": np.abs(circle.half_grid_conj(fspec, m)),
        "g": np.abs(circle.half_grid_conj(gspec, m)),
        # the minor arcs k = [0, 1] minus K on the half grid, as the ledger builds them
        "minor": ~circle.build_arc_union("K", n, k).grid_mask(m),
    }


def base_points(scene, mask):
    """|g| and |f| at the base points of the half grid, as the ledger selects them."""
    return circle.BasePoints.select(scene["g"], scene["f"], mask, scene["m"])


class TestLevelSets:
    def test_minor_partition_is_exact(self, scene):
        part = circle.level_partition(
            scene["n"], scene["k"], scene["s"], scene["theta"],
            base_points(scene, scene["minor"]), family="minor", U=20.0,
        )
        full_minor = ~mask(major_oracle(scene["n"] ** 0.4, scene["n"]), scene["m"])
        assert (scene["minor"] == full_minor[: circle.half_size(scene["m"])]).all()
        assert part.measures_sum() == pytest.approx(float(full_minor.mean()), abs=1e-12)
        assert sum(c.points for c in part.classes) == int(full_minor.sum())
        labels = [c.label for c in part.classes]
        assert labels == ["tiny_g", "band_small_f", "band_large_f", "unbanded"]

    def test_gentle_class_contribution_bound(self, scene):
        # on the small-f band the contribution is at most
        # (2n/U) * split * measure, the mechanism behind the band bound
        n, s = scene["n"], scene["s"]
        u = 20.0
        part = circle.level_partition(
            n, scene["k"], s, scene["theta"], base_points(scene, scene["minor"]), family="minor", U=u,
        )
        gentle = part.classes[1]
        cap = (2 * n / u) * part.thresholds["f_split"] * gentle.measure
        assert gentle.contribution_abs <= cap + 1e-9

    def test_low_band_empty(self, scene):
        # a band threshold below the covered range forces |g| >= n/U > sup g
        part = circle.level_partition(
            scene["n"], scene["k"], scene["s"], scene["theta"],
            base_points(scene, scene["minor"]), family="minor", U=1e-6,
        )
        assert part.warnings
        assert part.classes[1].points == 0 and part.classes[2].points == 0

    def test_slice_partition_is_exact(self, scene):
        n = scene["n"]
        q = 8.0
        _, sl, _ = circle.height_slice(n, q, scene["m"])
        part = circle.level_partition(
            n, scene["k"], scene["s"], scene["theta"], base_points(scene, sl), family="slice", V=q / 2, Q=q,
        )
        base_measure = (mask(major_oracle(2 * q, n), scene["m"]) & ~mask(major_oracle(q, n), scene["m"])).mean()
        assert part.measures_sum() == pytest.approx(float(base_measure), abs=1e-12)
        assert [c.label for c in part.classes] == ["small_g", "band_small_f", "band_large_f", "unbanded"]

    def test_dyadic_cover(self, scene):
        base = base_points(scene, scene["minor"])
        cover = circle.dyadic_band_cover(scene["n"], scene["theta"], base.g, base.points)
        assert cover["uncovered"] == 0
        assert cover["bands"] >= 5

    def test_envelope_reports(self, scene):
        n = scene["n"]
        env = circle.g_envelope_constant(n, float(base_points(scene, scene["minor"]).g.max()))
        assert env["constant"] > 0
        assert env["sup_g"] <= env["constant"] * env["scale"] + 1e-9
        fenv = circle.f_envelope_constant(n, scene["k"], scene["f"], scene["m"],
                                          circle.build_arc_union("L", n, scene["k"]))
        assert fenv["constant"] > 0

    @pytest.mark.parametrize("n, k", [(10**4, 2), (10**4, 3), (30011, 2)])
    def test_f_envelope_matches_pointwise_upsilon(self, n, k):
        # every pruned arc a/q, q <= P^(1/5), lies inside the covering arc of
        # height sqrt(n)/2 around the same a/q, so upsilon gives its weight
        m = circle.alias_free_size(n, 3, 1)
        f_half = np.abs(circle.half_grid_conj(circle.build_f_spectrum(n, k, 2)[0], m))
        pruned = circle.build_arc_union("L", n, k)
        scale = circle.kth_root_floor(n, k) * math.log(n) ** 3
        expected = max(f_half[j] / (scale * upsilon(Fraction(int(j), m), n) ** (1.0 / (2 * k)))
                       for j in np.flatnonzero(pruned.grid_mask(m)))
        fenv = circle.f_envelope_constant(n, k, f_half, m, pruned)
        assert fenv["scale"] == scale
        assert fenv["constant"] == pytest.approx(expected, rel=1e-12)


class TestDissectionLedger:
    def test_working_set_estimate_bounds_the_traced_peak(self):
        # the rise of the peak resident set (VmHWM) across one ledger call in a
        # fresh interpreter, which sees pocketfft's scratch as tracemalloc
        # cannot; ru_maxrss would not do, since a child started by fork and
        # exec inherits the parent's peak.  At n = 10^5 the estimate sits
        # within 1% of the rise, at 5 * 10^5 about 10% above it
        script = (
            "import json, sys\n"
            "from wgcircle import circle\n"
            "def peak_kib():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
            "before = peak_kib()\n"
            "rep = circle.dissection_ledger(int(sys.argv[1]), 2, 3, 5, R=2)\n"
            "rise = peak_kib() - before\n"
            "print(json.dumps([rise, rep['grid_size'], rep['slice_partition']['thresholds']['Q']]))\n"
        )
        n = 5 * 10**5
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(circle.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script, str(n)], env=env, capture_output=True,
                             text=True, check=True).stdout
        rise_kib, m, q_slice = json.loads(out)
        rise = 1024 * rise_kib
        assert rise <= circle.ledger_bytes(n, 2, 5, m, q_slice) <= 2 * rise

    def test_largest_g_lies_in_the_band(self):
        # the default U puts the band's top edge 2n/U on the largest |g| of the
        # minor arcs, and that point is banded however 2n/(2n/sup) rounds; at
        # this shape a full-grid inverse FFT gives the point and its mirror
        # values one ulp apart, on either side of an unlowered edge
        rep = circle.dissection_ledger(200000, 3, 4, 5, R=2)
        sup = rep["g_envelope"]["sup_g"]
        classes = {label: sup_g for label, _, sup_g, _, _ in rep["minor_partition"]["classes"]}
        assert rep["minor_partition"]["thresholds"]["U"] < math.sqrt(200000)
        assert max(classes["band_small_f"], classes["band_large_f"]) == sup
        assert classes["unbanded"] < sup

    def test_one_real_fft_per_family(self, monkeypatch):
        calls = []
        rfft = np.fft.rfft

        def counted(*args, **kwargs):
            calls.append(kwargs["n"])
            return rfft(*args, **kwargs)

        def no_complex_grid(*args, **kwargs):
            raise AssertionError("a complex FFT ran in the ledger")

        monkeypatch.setattr(np.fft, "rfft", counted)
        monkeypatch.setattr(np.fft, "ifft", no_complex_grid)
        monkeypatch.setattr(np.fft, "fft", no_complex_grid)
        rep = circle.dissection_ledger(10**4, 2, 3, 5, R=2)
        assert calls == [rep["grid_size"]] * 2

    @pytest.mark.parametrize("theta", [3, 6])
    def test_theta_outside_four_and_five_refused(self, theta):
        # the wide family and the minor arcs once took their labels from two
        # tests of theta, so theta = 3 ran as K beside the minor arcs kprime
        with pytest.raises(DomainError, match="theta must be 4 or 5"):
            circle.dissection_ledger(4096, 2, 3, theta, R=2)
        with pytest.raises(DomainError, match="theta must be 4 or 5"):
            circle.ledger_bytes(4096, 2, theta, 1 << 15, 4.0)

    def test_small_scale_ledger(self):
        rep = circle.dissection_ledger(10**4, 2, 3, 5, R=2)
        assert rep["minor_partition"]["measure_sum"] == pytest.approx(rep["minor_partition"]["base_measure"], abs=1e-12)
        assert rep["slice_partition"]["measure_sum"] == pytest.approx(rep["slice_partition"]["base_measure"], abs=1e-12)
        assert rep["covering"]["uncovered"] == 0
        assert len(rep["csv_rows"]) == 8
        for row in rep["csv_rows"]:
            assert len(row) == 5
