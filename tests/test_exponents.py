"""Tests for admissible exponents, the shipped tables, and plan selection."""

import math

import pytest

from wgcircle import exponents as ex
from wgcircle import specialfn as sf
from wgcircle.errors import DomainError


class TestDeltaFromEta:
    def test_even_moment_above_half_threshold(self):
        # smallest even t with t/k above the ratio where eta = 1/2
        k = 5
        t = 2 * math.ceil((0.5 + math.log(2)) * k / 2)
        delta = ex.delta_from_eta(k, t)
        assert delta < k / 2

    def test_tracks_eta_level(self):
        # t/k near the ratio where eta = 1/5 gives delta/k near 1/5
        k, t = 100, 242
        delta = ex.delta_from_eta(k, t)
        assert abs(delta / k - 0.2) < 0.01

    def test_monotone_in_t(self):
        assert ex.delta_from_eta(10, 22) < ex.delta_from_eta(10, 20)

    def test_range(self):
        for k in (3, 7, 20, 2**41):  # t/k = 2**-40 puts eta's root above its solver bracket
            for t in (2, 8, 40):
                d = ex.delta_from_eta(k, t)
                assert 0.0 < d < k

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ex.delta_from_eta(2, 4)
        with pytest.raises(DomainError):
            ex.delta_from_eta(5, 7)  # odd t has no eta-formula exponent


class TestCheckConditions:
    def test_row_k8_theta5(self):
        plan = ex.check_conditions(8, 5, 16, 8, 1.8429, 0.6562)
        assert plan["omega"] == pytest.approx(0.9101250, abs=1e-7)
        assert ex.round_up_4dp(plan["omega"]) == pytest.approx(0.9102)
        assert plan["cond_half_ok"] and plan["cond_omega_ok"]

    def test_row_k6_theta4(self):
        plan = ex.check_conditions(6, 4, 10, 4, 1.7247, 0.8506)
        assert ex.round_up_4dp(plan["omega"]) == pytest.approx(0.9671)

    def test_t_zero_collapses_ratio(self):
        plan = ex.check_conditions(9, 5, 12, 0, 1.5, 1.5)
        assert plan["omega"] == pytest.approx(5 * 1.5 / 9)

    def test_t_above_s_rejected(self):
        with pytest.raises(DomainError):
            ex.check_conditions(9, 5, 4, 5, 1.0, 1.0)

    def test_round_up_guard_handles_exact_boundaries(self):
        # 6/12 + 4*0.8470/7 is exactly 0.984; naive ceiling of the float
        # product would bump it to 0.9841
        omega = 6 / 12 + 4 * 0.8470 / 7
        assert ex.round_up_4dp(omega) == pytest.approx(0.9840)
        assert ex.round_up_4dp(0.91012) == pytest.approx(0.9102)


class TestShippedTables:
    def test_all_blocks_pass(self):
        checks = ex.verify_table2()
        assert len(checks) == 32
        assert all(c["ok"] for c in checks)
        blanks = [c for c in checks if c["blank"]]
        assert [(c["k"], c["theta"]) for c in blanks] == [(5, 5)]

    def test_margins_positive(self):
        for c in ex.verify_table2():
            if c["blank"]:
                continue
            assert c["cond1_margin"] > 0.0
            assert c["cond2_margin"] > 0.0

    def test_table1_cross_checks(self):
        results = ex.cross_check_table1()
        assert results, "no overlapping rows found"
        assert all(c["ok"] for c in results)
        lookup = {c["detail"]: c["ok"] for c in results}
        assert any(d.startswith("S0(6)=11") for d in lookup)
        assert any(d.startswith("S1(5)=8") for d in lookup)

    def test_table1_blank_is_preserved(self):
        t1 = ex.load_table1()
        assert t1[5][0] is None
        assert t1[5][1] == 8

    def test_malformed_table_raises_with_line(self, tmp_path):
        p = tmp_path / "t2.csv"
        p.write_text("k,s4,t4,d_s4,d_s4t4,om4,s5,t5,d_s5,d_s5t5,om5\n5,8,x,1,1,1,,,,,\n")
        with pytest.raises(DomainError, match="line 2"):
            ex.load_table2(p)
        p.write_text("k,s4,t4,d_s4,d_s4t4,om4,s5,t5,d_s5,d_s5t5,om5\n5,8,4,1,1,1,,,,,\n6,3,4,1,1,1,,,,,\n")
        with pytest.raises(DomainError, match="line 3: need 0 <= t <= s"):
            ex.load_table2(p)
        # the line prefix once, though the refusal is raised inside the loader's try
        p.write_text("k,s4,t4,d_s4,d_s4t4,om4,s5,t5,d_s5,d_s5t5,om5\n5,8,,1,1,1,,,,,\n")
        with pytest.raises(DomainError, match=r"^table2\.csv line 2: partially blank theta=4 block$"):
            ex.load_table2(p)

    def test_blocks_are_checked_plans(self):
        plans = ex.load_table2()
        assert list(plans)[:3] == [(5, 4), (5, 5), (6, 4)]
        assert plans[(5, 5)] is None
        plan = plans[(8, 5)]
        expected = ex.check_conditions(8, 5, 16, 8, 1.8429, 0.6562, source="table2_literal")
        assert plan == (expected, 0.9102)


class TestTamperedTable:
    """A table2.csv with k = 8, theta = 5 Omega moved two units and k = 9, theta = 4 Delta_s >= k/2."""

    @pytest.fixture
    def path(self, tmp_path):
        text = ex._data_text("table2.csv")
        lines = text.splitlines()
        for i, line in enumerate(lines):
            cells = line.split(",")
            if cells[0] == "8":
                assert cells[10] == "0.9102"
                cells[10] = "0.9104"
            if cells[0] == "9":
                cells[3] = "4.5"
            lines[i] = ",".join(cells)
        p = tmp_path / "table2.csv"
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_verify_reports_both_faults(self, path):
        checks = {(c["k"], c["theta"]): c for c in ex.verify_table2(ex.load_table2(path))}
        moved, half = checks[(8, 5)], checks[(9, 4)]
        assert not moved["ok"] and moved["detail"].endswith(" MISMATCH")
        assert not half["ok"] and half["cond1_margin"] <= 0.0
        assert [key for key, c in checks.items() if not c["ok"]] == [(8, 5), (9, 4)]

    def test_cli_exits_three(self, path, monkeypatch, capsys):
        from wgcircle.cli import main

        load = ex.load_table2
        monkeypatch.setattr(ex, "load_table2", lambda: load(path))
        code = main(["verify-tables"])
        out = capsys.readouterr().out
        assert code == 3
        assert "FAIL k=8 theta=5 " in out and "FAIL k=9 theta=4 " in out
        assert out.splitlines()[-1] == "summary: FAILURES PRESENT"


PLAN_KEYS = ["k", "theta", "s", "t", "delta_s", "delta_st", "omega", "cond_half_ok", "cond_omega_ok", "source"]


class TestPlanForK:
    def test_k17_theta5_uses_even_target(self):
        plan = ex.plan_for_k(17, 5)
        assert plan["s"] + plan["t"] == 54
        assert plan["cond_half_ok"] and plan["cond_omega_ok"]
        assert plan["source"] == "eta_formula"
        optimizer, fields = sf.sigma_even_plan(17, 5), ["sigma", "tau", "even_target", "gap_bound"]
        assert list(plan) == PLAN_KEYS + fields
        assert all(plan[key] == optimizer[key] for key in fields)
        assert plan["delta_st"] == ex.delta_from_eta(17, 54)

    @pytest.mark.parametrize("theta", [4, 5])
    def test_largest_k_meets_both_conditions(self, theta):
        plan = ex.plan_for_k(2**40, theta)
        assert plan["cond_half_ok"] and plan["cond_omega_ok"]

    def test_k8_theta4_is_table_row(self):
        plan = ex.plan_for_k(8, 4)
        assert (plan["s"], plan["t"]) == (14, 6)
        assert plan["source"] == "table2_literal"
        assert list(plan) == PLAN_KEYS

    def test_k25_bound(self):
        plan = ex.plan_for_k(25, 5)
        assert plan["s"] <= math.ceil(sf.critical_ratio(5) * 25) + 4

    def test_small_k_external(self):
        for k, s in ((3, 4), (4, 6)):
            plan = ex.plan_for_k(k, 5)
            assert plan["s"] == s
            assert plan["source"] == "external_result"
            assert plan["cond_half_ok"] is None and plan["cond_omega_ok"] is None
            assert math.isnan(plan["omega"])

    def test_k5_theta5_blank_raises(self):
        with pytest.raises(DomainError, match="^table has a blank block for k=5, theta=5$"):
            ex.plan_for_k(5, 5)

    def test_k_below_3_rejected(self):
        with pytest.raises(DomainError):
            ex.plan_for_k(2, 5)

    def test_bound_property_over_range(self):
        for k in range(17, 41):
            for theta in (4, 5):
                plan = ex.plan_for_k(k, theta)
                assert plan["cond_half_ok"] and plan["cond_omega_ok"]
                assert plan["s"] <= sf.critical_ratio(theta) * k + 5.0
                assert 0 <= plan["t"] <= plan["s"]
