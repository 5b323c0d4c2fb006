"""End-to-end tests of the command-line surface."""

import json
import math
import time
import warnings

import pytest

from wgcircle.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestConstants:
    def test_json_contains_critical_ratio(self, capsys):
        code, out = run_cli(capsys, "constants", "--theta", "5")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["c"] - 2.134693) < 1e-6
        assert abs(payload["coarse_c1"] - 2.409437) < 1e-6

    def test_theta_four(self, capsys):
        code, out = run_cli(capsys, "constants", "--theta", "4")
        payload = json.loads(out)
        assert abs(payload["c"] - 1.961969) < 1e-6
        assert abs(payload["coarse_c1"] - 2.136294) < 1e-6


class TestVerifyTables:
    def test_pass_lines(self, capsys):
        code, out = run_cli(capsys, "verify-tables")
        assert code == 0
        passes = [line for line in out.splitlines() if line.startswith("PASS ")]
        assert len(passes) == 32
        assert "summary: all checks passed" in out

    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "verify-tables", "--format", "json")
        payload = json.loads(out)
        assert payload["all_ok"] is True
        assert len(payload["blocks"]) == 32


class TestCount:
    def test_example(self, capsys):
        code, out = run_cli(capsys, "count", "--k", "2", "--s", "2", "--n", "10")
        assert code == 0
        assert json.loads(out)["r"] == 3

    def test_plain(self, capsys):
        code, out = run_cli(capsys, "count", "--k", "2", "--s", "2", "--n", "10", "--format", "plain")
        assert out.strip() == "r = 3"

    def test_methods_agree(self, capsys):
        results = set()
        for method in ("float_fft_verified", "integer_safe", "direct"):
            _, out = run_cli(capsys, "count", "--k", "3", "--s", "3", "--n", "600", "--method", method)
            results.add(json.loads(out)["r"])
        assert len(results) == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("constants", "--theta", "5"),
            ("eta", "--t", "1.75"),
            ("plan", "--k", "20", "--theta", "4"),
            ("series", "--n", "100", "--k", "3", "--s", "4", "--cutoff", "50", "--xs", "8,16"),
            ("compare", "--k", "2", "--s", "2", "--lo", "100", "--hi", "130", "--cutoff", "100"),
            ("moments", "--P", "16", "--k", "3", "--t", "8", "--q-values", "1,2,4"),
            ("dissect", "--n", "2000", "--k", "2", "--s", "3", "--format", "json"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second and first


class TestSubcommands:
    def test_eta(self, capsys):
        code, out = run_cli(capsys, "eta", "--t", "1.0")
        payload = json.loads(out)
        assert abs(payload["eta"] - 0.5671432904) < 1e-9
        assert payload["residual"] < 1e-10

    def test_plan(self, capsys):
        code, out = run_cli(capsys, "plan", "--k", "17", "--theta", "5")
        payload = json.loads(out)
        assert payload["s"] + payload["t"] == 54
        assert payload["even_target"] == 54

    def test_sieve(self, capsys):
        code, out = run_cli(capsys, "sieve", "--limit", "100")
        payload = json.loads(out)
        assert payload["prime_count"] == 25
        assert payload["largest_prime"] == 97

    def test_series(self, capsys):
        code, out = run_cli(capsys, "series", "--n", "100", "--k", "3", "--s", "4",
                            "--cutoff", "100", "--xs", "16")
        payload = json.loads(out)
        assert payload["product"] > 0
        assert payload["partials"][0][0] == 16

    def test_compare_csv(self, capsys):
        code, out = run_cli(capsys, "compare", "--k", "2", "--s", "2",
                            "--lo", "100", "--hi", "110", "--cutoff", "100")
        lines = out.strip().splitlines()
        assert lines[0] == "n,r,prediction,ratio,series"
        assert len(lines) == 12

    def test_dissect_csv(self, capsys):
        code, out = run_cli(capsys, "dissect", "--n", "2000", "--k", "2", "--s", "3")
        lines = out.strip().splitlines()
        assert lines[0] == "label,measure,sup_g,sup_f,contribution_abs"
        assert len(lines) == 9
        assert code == 0

    def test_moments(self, capsys):
        code, out = run_cli(capsys, "moments", "--P", "16", "--k", "3", "--t", "8")
        payload = json.loads(out)
        assert payload["reference_slope"] > 0
        assert payload["rows"]

    def test_model_error(self, capsys):
        code, out = run_cli(capsys, "model-error", "--n", "1024", "--k", "2")
        payload = json.loads(out)
        assert payload["normalized"] > 0
        assert payload["points"] > 0


class TestFailureModes:
    def test_bad_flags_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--k", "2"])
        assert exc.value.code == 2

    def test_unknown_command_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_domain_error_exit_two(self, capsys):
        code = main(["eta", "--t", "-3"])
        assert code == 2

    def test_validation_r_eta(self, capsys):
        code = main(["dissect", "--n", "2000", "--k", "2", "--s", "3", "--r-eta", "0.5"])
        assert code == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(["constants", "--theta", "5", "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["theta"] == 5

    @pytest.mark.parametrize("flag", ["--R", "--r-eta"])
    @pytest.mark.parametrize("command", [
        ("dissect", "--n", "2000", "--k", "2", "--s", "3"),
        ("moments", "--P", "16", "--k", "3", "--t", "8"),
        ("model-error", "--n", "1024", "--k", "2"),
    ])
    def test_zero_smoothness_flag_is_rejected(self, capsys, command, flag):
        # zero is a value, not an unset flag
        code = main([*command, flag, "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_eta_past_underflow_exits_two(self, capsys):
        code = main(["eta", "--t", "800"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_eta_subnormal_exits_two(self, capsys):
        # e^(1-745) is subnormal: eta would keep only a few significant bits
        code = main(["eta", "--t", "745"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_eta_last_normal_point_is_accurate(self, capsys):
        code, out = run_cli(capsys, "eta", "--t", "709")
        assert code == 0
        assert json.loads(out)["residual"] < 1e-9

    @pytest.mark.parametrize("command", [
        ("compare", "--k", "2", "--s", "2", "--lo", "3", "--hi", "1000000"),
        ("count", "--k", "2", "--s", "2", "--n", "1000000"),
    ])
    def test_count_budget_checked_up_front(self, capsys, monkeypatch, command):
        monkeypatch.setenv("WGCIRCLE_MEM_BYTES", "1500000")
        start = time.perf_counter()
        code = main(list(command))
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "WGCIRCLE_MEM_BYTES" in err

    @pytest.mark.parametrize("limit_flag", [("--cutoff", "46400"), ("--xs", "64,46400")])
    def test_modulus_ceiling_checked_up_front(self, capsys, limit_flag):
        start = time.perf_counter()
        code = main(["series", "--n", "100", "--k", "3", "--s", "4", *limit_flag])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "46400" in capsys.readouterr().err


    @pytest.mark.parametrize("threshold", [("--u", "0"), ("--v", "0"), ("--u", "-1"), ("--u", "nan"),
                                           ("--v", "inf")])
    def test_band_threshold_checked_up_front(self, capsys, threshold):
        start = time.perf_counter()
        code = main(["dissect", "--n", "4096", "--k", "2", "--s", "2", *threshold])
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite and positive" in err

    @pytest.mark.parametrize("command", [
        ("series", "--n", "100", "--k", "3", "--s", "120", "--cutoff", "1000"),
        ("compare", "--k", "3", "--s", "120", "--lo", "1500", "--hi", "1500"),
        ("compare", "--k", "1", "--s", "300", "--lo", "1500", "--hi", "1500", "--cutoff", "5"),
        ("compare", "--k", "1", "--s", "100", "--lo", "1500", "--hi", "1500", "--cutoff", "5"),
        ("dissect", "--n", "100000", "--k", "2", "--s", "400"),
        ("moments", "--P", "40", "--k", "2", "--t", "1000"),
    ])
    def test_double_range_checked_up_front(self, capsys, command):
        # modulus^s (series, compare), Gamma(s/k + 1) or n^(s/k) (compare), P^s times the
        # contribution bound (dissect) or P^t times the grid size (moments) past the largest double
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(list(command))
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "leaves the double range" in err

    @pytest.mark.parametrize("s", ["-2", "0"])
    def test_dissect_s_checked_up_front(self, capsys, s):
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["dissect", "--n", "100000", "--k", "2", "--s", s])
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: need k, s >= 1, got k=2, s={s}\n"

    @pytest.mark.parametrize("P", ["-3", "1"])
    def test_moments_needs_P_two(self, capsys, P):
        # a negative P once reached P**(1/8) in the default R and raised TypeError
        code = main(["moments", "--P", P, "--k", "3", "--t", "4.5"])
        assert code == 2
        assert capsys.readouterr().err == f"error: need P >= 2 and k >= 1, got P={P}, k=3\n"

    def test_eta_past_the_solver_range_is_solved(self, capsys):
        # t = 300 lies where the bisection-Newton solver once ran out of iterations
        code, out = run_cli(capsys, "eta", "--t", "300")
        assert code == 0
        assert json.loads(out)["eta"] == pytest.approx(math.exp(-299.0), rel=1e-15)


class TestCountPastInt64:
    def test_routes_agree_exactly(self, capsys):
        results = set()
        for method in ("float_fft_verified", "integer_safe"):
            code, out = run_cli(capsys, "count", "--k", "2", "--s", "40", "--n", "1000", "--method", method)
            assert code == 0
            results.add(json.loads(out)["r"])
        assert results == {30385489528274579244650671984815416064}
