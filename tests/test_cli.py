"""End-to-end tests of the command-line surface."""

import contextlib
import io
import json
import math
import os
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgcircle import counting, series
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
        for method in ("float_fft_verified", "direct"):
            _, out = run_cli(capsys, "count", "--k", "3", "--s", "3", "--n", "600", "--method", method)
            results.add(json.loads(out)["r"])
        assert len(results) == 1

    def test_integer_safe_is_not_a_method(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--k", "2", "--s", "2", "--n", "10", "--method", "integer_safe"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


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

    def test_sieve_plain_text(self, capsys):
        # all digits of theta: the JSON digest rounds to 12, so it would miss a
        # change of summation order (np.sum and math.fsum end in ...6342)
        code, out = run_cli(capsys, "sieve", "--limit", "1000000", "--format", "plain")
        assert code == 0
        assert out == ("limit = 1000000\nprime_count = 78498\n"
                       "chebyshev_theta = 998484.1750256323\nlargest_prime = 999983\n")

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

    @pytest.mark.parametrize("argv, message", [
        (["count", "--k", "2", "--s", "2"], "wgcircle count: the following arguments are required: --n"),
        (["constants", "--theta", "3"], "wgcircle constants: argument --theta: invalid choice: 3 (choose from 4, 5)"),
        (["count", "--k", "x", "--s", "2", "--n", "10"], "wgcircle count: argument --k: invalid int value: 'x'"),
    ])
    def test_usage_errors_are_one_line(self, capsys, argv, message):
        # argparse's own usage block would take two or three lines
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

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

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_series_nonpositive_k_exits_two(self, capsys, k):
        # gcd(k, p - 1) would give a class count for k = 0 and the k = 3 numbers for k = -3
        code = main(["series", "--n", "10", "--k", k, "--s", "3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: need s >= 1 and k >= 1, got s=3, k={k}\n"

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

    @pytest.mark.parametrize("t", ["1.5e-12", "1e-13", "1e-320"])
    def test_eta_root_above_the_bracket_exits_zero(self, capsys, t):
        code, out = run_cli(capsys, "eta", "--t", t)
        assert code == 0
        assert json.loads(out)["residual"] < 1e-15

    @pytest.mark.parametrize("k", [2**40 + 1, 10**400], ids=["2**40+1", "10**400"])
    def test_plan_past_the_k_limit_exits_two(self, capsys, k):
        code = main(["plan", "--k", str(k)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: sigma_even_plan supports k <= 2**40") and err.count("\n") == 1

    def test_plan_blank_block_message_is_unquoted(self, capsys):
        code = main(["plan", "--k", "5", "--theta", "5"])
        assert code == 2
        assert capsys.readouterr().err == "error: table has a blank block for k=5, theta=5\n"

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

    @pytest.mark.parametrize("limit_flag", [("--cutoff", "3100000000"), ("--xs", "64,3100000000")])
    def test_modulus_ceiling_checked_up_front(self, capsys, limit_flag):
        # past 3,037,000,500 the product of two residues leaves int64
        start = time.perf_counter()
        code = main(["series", "--n", "100", "--k", "3", "--s", "4", *limit_flag])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert capsys.readouterr().err == "error: modulus 3100000000 outside the supported range [1, 3037000500]\n"

    @pytest.mark.parametrize("limit_flag", [("--cutoff", "200000"), ("--xs", "64,200000")])
    def test_modulus_budget_checked_up_front(self, capsys, monkeypatch, limit_flag):
        # the index classes of the largest prime, or the q-sum arrays of the largest q
        monkeypatch.setenv("WGCIRCLE_MEM_BYTES", "1000000")
        start = time.perf_counter()
        code = main(["series", "--n", "100", "--k", "3", "--s", "4", *limit_flag])
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "WGCIRCLE_MEM_BYTES" in err

    def test_qsum_terms_charged_up_front(self, capsys, monkeypatch):
        # X = 10000: the s_n_q arrays (88 B per residue) fit 10^6 bytes, the
        # complex terms of every q <= X on top of them (16 B each) do not
        monkeypatch.setenv("WGCIRCLE_MEM_BYTES", "1000000")
        start = time.perf_counter()
        code = main(["series", "--n", "100", "--k", "3", "--s", "4", "--cutoff", "50", "--xs", "64,10000"])
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert capsys.readouterr().err == (
            "error: q-sum arrays up to 10000 needs 1040016 bytes; budget is 1000000 "
            "(set WGCIRCLE_MEM_BYTES to raise it)\n"
        )

    def test_truncation_point_checked_before_the_product(self, capsys):
        # X = 0 was once refused only after every local factor up to the cutoff
        start = time.perf_counter()
        code = main(["series", "--n", "100", "--k", "3", "--s", "4", "--cutoff", "20000", "--xs", "64,0"])
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert capsys.readouterr().err == "error: need X >= 1, got 0\n"

    def test_cutoff_past_the_old_ceiling_runs(self, capsys):
        code, out = run_cli(capsys, "series", "--n", "100", "--k", "3", "--s", "4", "--cutoff", "46400")
        assert code == 0
        assert json.loads(out)["product"] > 0

    @pytest.mark.parametrize("command", [
        ("series", "--n", "100", "--k", "3", "--s", "4", "--cutoff", "50", "--xs", "8,x"),
        ("series", "--n", "100", "--k", "3", "--s", "4", "--cutoff", "50", "--xs", "8,,16"),
        ("series", "--n", "100", "--k", "3", "--s", "4", "--cutoff", "50", "--xs", "8.5"),
        ("moments", "--P", "16", "--k", "3", "--t", "8", "--q-values", "1,abc"),
        ("moments", "--P", "16", "--k", "3", "--t", "8", "--q-values", "1,"),
    ])
    def test_malformed_list_exits_two(self, capsys, command):
        code = main(list(command))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "comma-separated" in err

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
        assert err == f"error: need 1 <= s <= 2**53, got s={s}\n"

    @pytest.mark.parametrize("height", ["nan", "0.5", "2000"])
    def test_moment_height_checked_before_the_fft(self, capsys, monkeypatch, height):
        # a NaN height fails every comparison, so the check must refuse it, not pass it
        def no_grid(*args, **kwargs):
            raise AssertionError("half_grid_conj ran before the height check")

        monkeypatch.setattr("wgcircle.circle.half_grid_conj", no_grid)
        code = main(["moments", "--P", "16", "--k", "3", "--t", "8", "--q-values", f"1,{height}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: height ") and err.count("\n") == 1

    def test_dissect_height_checked_before_the_ffts(self, capsys, monkeypatch):
        # at n < 1024 the default theta = 5 puts K = n^0.4 above sqrt(n)/2
        def no_grid(*args, **kwargs):
            raise AssertionError("half_grid_conj ran before the arc check")

        monkeypatch.setattr("wgcircle.circle.half_grid_conj", no_grid)
        code = main(["dissect", "--n", "1000", "--k", "1", "--s", "1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: height 15.848931924611136 above the disjointness bound sqrt(1000)/2\n")

    @pytest.mark.parametrize("command", [
        ("dissect", "--n", str(10**400), "--k", "2", "--s", "3"),
        ("model-error", "--n", str(10**400), "--k", "2"),
        ("moments", "--P", str(2**1030), "--k", "1", "--t", "2"),
        ("count", "--k", str(2**64), "--s", "2", "--n", "10"),
        ("count", "--k", str(2**64), "--s", "2", "--n", "10", "--method", "direct"),
        ("count", "--k", "2", "--s", str(10**400), "--n", "100"),
        ("count", "--k", str(2**53 + 1), "--s", "2", "--n", "7"),
        ("compare", "--k", str(10**400), "--s", "3", "--lo", "10", "--hi", "20"),
        ("compare", "--k", "2", "--s", str(10**400), "--lo", "10", "--hi", "20"),
        ("dissect", "--n", "4096", "--k", str(2**64), "--s", "3"),
        ("dissect", "--n", "4096", "--k", str(2**64), "--s", "3", "--R", "1"),
        ("model-error", "--n", "1024", "--k", str(2**64)),
        ("model-error", "--n", "1024", "--k", str(2**64), "--R", "1"),
        ("moments", "--P", "16", "--k", str(2**64), "--t", "3"),
        ("moments", "--P", "16", "--k", str(10**400), "--t", "3"),
        ("moments", "--P", "2", "--k", "1100", "--t", "3"),
    ])
    def test_huge_inputs_exit_two(self, capsys, command):
        # n or P past the double range: a float k-th root or P^eta once raised
        # OverflowError.  k or s: a Newton step of the k-th root once built
        # x^(k - 1); 1/k, s/k, t/k and P^k once left the doubles, and numpy
        # once took k as an int64
        start = time.perf_counter()
        code = main(list(command))
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_dissect_arcs_charged_before_they_are_built(self, capsys, monkeypatch):
        # the K family of order 1584 would take ~320 MB; the spectra are never reached
        monkeypatch.setenv("WGCIRCLE_MEM_BYTES", "10000000")
        start = time.perf_counter()
        code = main(["dissect", "--n", "100000000", "--k", "2", "--s", "3"])
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: Farey family K of order 1584 needs ") and err.count("\n") == 1

    @pytest.mark.parametrize("budget, n", [("1000000000", "30000000"), (None, "20000000")])
    def test_dissect_grid_charged_before_the_arcs_and_spectra(self, capsys, monkeypatch, budget, n):
        # the half-grid working set, past 1e9 bytes at n = 3e7 and past the 4 GiB default at 2e7
        def no_build(*args, **kwargs):
            raise AssertionError("built before the grid charge")

        for name in ("build_g_spectrum", "build_f_spectrum", "_farey_family"):
            monkeypatch.setattr(f"wgcircle.circle.{name}", no_build)
        if budget is None:
            monkeypatch.delenv("WGCIRCLE_MEM_BYTES", raising=False)
        else:
            monkeypatch.setenv("WGCIRCLE_MEM_BYTES", budget)
        start = time.perf_counter()
        code = main(["dissect", "--n", n, "--k", "2", "--s", "3"])
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: dissection ledger at n = {n} on a grid of ") and err.count("\n") == 1

    def test_dissect_charge_counts_the_arc_families(self, capsys, monkeypatch):
        # at n = 10^7 the half grid takes 2,307,483,728 bytes and the Kprime,
        # L and N families, kept through the FFTs, 30 MB more: the grid alone
        # fits a 2.32 GB budget, the two together do not
        def no_build(*args, **kwargs):
            raise AssertionError("built before the working-set charge")

        for name in ("build_g_spectrum", "build_f_spectrum", "_farey_family"):
            monkeypatch.setattr(f"wgcircle.circle.{name}", no_build)
        monkeypatch.setenv("WGCIRCLE_MEM_BYTES", "2320000000")
        code = main(["dissect", "--n", "10000000", "--k", "2", "--s", "3", "--theta", "4"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: dissection ledger at n = 10000000 on a grid of ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("--n", "2000", "--k", "2", "--s", "3", "--theta", "4"),
        ("--n", "1024", "--k", "2", "--s", "3", "--theta", "4"),
        ("--n", "4095", "--k", "2", "--s", "3", "--theta", "4"),
        ("--n", "1024", "--k", "2", "--s", "3"),
    ])
    def test_dissect_default_slice_height_lies_in_range(self, capsys, argv):
        # the default slice height once passed sqrt(n)/4 with no --q-slice given:
        # 16.0 at theta = 4 for n in [1024, 4096), 8.000000000000002 at n = 1024
        code = main(["dissect", *argv])
        assert code == 0 and capsys.readouterr().err == ""

    def test_dissect_slice_height_checked_before_the_charge(self, capsys):
        # a slice far past sqrt(n)/4 would make a huge family; its range is refused first
        code = main(["dissect", "--n", "100000", "--k", "2", "--s", "3", "--q-slice", "1e9"])
        assert code == 2
        assert capsys.readouterr().err == "error: slice height must lie in [1/2, sqrt(n)/4], got 1000000000.0\n"

    def test_dissect_oversample_checked(self, capsys):
        code = main(["dissect", "--n", "100000", "--k", "2", "--s", "3", "--oversample", "0"])
        assert code == 2
        assert capsys.readouterr().err == "error: --oversample must be >= 1, got 0\n"

    @pytest.mark.parametrize("P", ["-3", "1"])
    def test_moments_needs_P_two(self, capsys, P):
        # a negative P once reached P**(1/8) in the default R and raised TypeError
        code = main(["moments", "--P", P, "--k", "3", "--t", "4.5"])
        assert code == 2
        assert capsys.readouterr().err == f"error: need P >= 2 and k >= 1, got P={P}, k=3\n"

    @pytest.mark.parametrize("t", ["-1", "0", "nan", "inf"])
    def test_moments_t_checked_before_the_fft(self, capsys, monkeypatch, t):
        # the message once named t/k: "eta is defined for t > 0, got -0.5"
        def no_grid(*args, **kwargs):
            raise AssertionError("half_grid_conj ran before the t check")

        monkeypatch.setattr("wgcircle.circle.half_grid_conj", no_grid)
        code = main(["moments", "--P", "8", "--k", "2", "--t", t])
        assert code == 2
        assert capsys.readouterr().err == f"error: t must be finite and positive, got {float(t)}\n"

    def test_compare_cutoff_checked_before_the_counts(self, capsys, monkeypatch):
        # a cutoff below 2 once failed in the sieve, after every exact count
        def no_counts(*args, **kwargs):
            raise AssertionError("count_range ran before the cutoff check")

        monkeypatch.setattr("wgcircle.counting.count_range", no_counts)
        code = main(["compare", "--k", "3", "--s", "11", "--lo", "500000", "--hi", "999999", "--cutoff", "1"])
        assert code == 2
        assert capsys.readouterr().err == "error: need prime_cutoff >= 2, got 1\n"

    def test_compare_cutoff_budget_is_the_series_check(self, capsys, monkeypatch):
        # the index classes of the primes up to 2*10^8 need 6.4 GB: compare once
        # found out only inside its product, at p ~ 1.3*10^8, after every count
        def no_counts(*args, **kwargs):
            raise AssertionError("count_range ran before the series check")

        monkeypatch.delenv("WGCIRCLE_MEM_BYTES", raising=False)
        assert main(["series", "--n", "1000", "--k", "3", "--s", "4", "--cutoff", "200000000"]) == 2
        expected = capsys.readouterr().err
        assert expected.startswith("error: index classes of primes up to 200000000 needs 6400000000 bytes")
        monkeypatch.setattr("wgcircle.counting.count_range", no_counts)
        start = time.perf_counter()
        code = main(["compare", "--k", "3", "--s", "4", "--lo", "1000", "--hi", "1010", "--cutoff", "200000000"])
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert capsys.readouterr().err == expected

    def test_compare_takes_every_s_the_series_takes(self, capsys):
        # 1000^102 fits a double; compare once refused 1000^102 (1000 - 1), a number no route computes
        code, out = run_cli(capsys, "compare", "--k", "2", "--s", "102", "--lo", "200", "--hi", "203",
                            "--cutoff", "1000", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row[0] for row in rows] == [200, 201, 202, 203]
        for n, _, _, _, value in rows:
            code, out = run_cli(capsys, "series", "--n", str(n), "--k", "2", "--s", "102", "--cutoff", "1000")
            assert code == 0
            assert json.loads(out)["product"] == value
        # and unrounded, in process: the series column is the one-n product bit for bit
        column = counting.compare_report(2, 102, 200, 203, 1, 1000).series
        assert column.tolist() == [series.euler_product(n, 2, 102, 1000).product_value for n in range(200, 204)]

    @pytest.mark.parametrize("k", [100, 2**53])
    def test_count_with_one_power_runs(self, capsys, k):
        # n < 2^k leaves x = 1 only: 7 = 5 + 1 + 1
        code, out = run_cli(capsys, "count", "--k", str(k), "--s", "2", "--n", "7")
        assert code == 0
        assert json.loads(out)["r"] == 1

    def test_eta_past_the_solver_range_is_solved(self, capsys):
        # t = 300 lies where the bisection-Newton solver once ran out of iterations
        code, out = run_cli(capsys, "eta", "--t", "300")
        assert code == 0
        assert json.loads(out)["eta"] == pytest.approx(math.exp(-299.0), rel=1e-15)


class TestLocalFactorCheck:
    """The dual-route check of the local factors covers every class of every
    prime, not only the class of the n being evaluated."""

    @staticmethod
    def tamper(monkeypatch):
        # one extra solution in the count route, on the last index class of every p with d > 1
        honest = series.mp_classes

        def tampered(p, k, s, labels):
            counts = honest(p, k, s, labels)
            if labels is not None:
                counts[-1] += 1
            return counts

        monkeypatch.setattr(series, "mp_classes", tampered)

    def test_compare_exits_three(self, capsys, monkeypatch):
        self.tamper(monkeypatch)
        code = main(["compare", "--k", "2", "--s", "2", "--lo", "100", "--hi", "200"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("internal-consistency failure: local factor routes disagree at p=3 ")
        assert err.count("\n") == 1

    def test_series_exits_three_when_n_lies_in_another_class(self, capsys, monkeypatch):
        # n = 100 is 1 mod 3, a square: class 0, while the tamper hits class 1
        self.tamper(monkeypatch)
        code = main(["series", "--n", "100", "--k", "2", "--s", "2", "--cutoff", "50"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("internal-consistency failure: local factor routes disagree at p=3 ")
        assert err.count("\n") == 1


class TestCountPastInt64:
    def test_routes_agree_exactly(self, capsys):
        # the float route, splitting its operands past 2^52, against the value
        # fixed by the Python-int oracle in test_counting
        code, out = run_cli(capsys, "count", "--k", "2", "--s", "40", "--n", "1000")
        assert code == 0
        assert json.loads(out)["r"] == 30385489528274579244650671984815416064


# ---------------------------------------------------------------------------
# Contract fuzz: well-formed argv for every subcommand, values in and out of range


INT_VALUES = [-3, -1, 0, 1, 2, 3, 5, 8]
INTS = st.sampled_from(INT_VALUES)
EXPONENTS = st.sampled_from(INT_VALUES + [2**64, 10**400])  # --k and --s: past int64 and past the doubles too
FLOATS = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.1", "0.5", "1", "2.5", "8"])
LISTS = st.sampled_from(["8", "8,16", "16,8,16", "0", "-4", "8,x", "8,,16", "1e3", " 2", ",", "nan,inf"])
SMALL = st.sampled_from([-5, 0, 1, 2, 10, 100, 1000])


def required(name, values):
    # --flag=value: argparse would take a value such as -inf for an option
    return values.map(lambda v: [f"{name}={v}"])


def flag(name, values):
    """The flag and one drawn value, or nothing: every optional flag is optional."""
    return st.one_of(st.just([]), required(name, values))


def argv_of(command, *parts):
    return st.tuples(*parts).map(lambda ps: [command] + [x for p in ps for x in p])


SUBCOMMANDS = st.one_of(
    argv_of("constants", flag("--theta", st.sampled_from([4, 5]))),
    argv_of("eta", required("--t", FLOATS)),
    argv_of("plan", required("--k", st.sampled_from([-1, 0, 1, 2, 3, 17, 20, 10**400])),
            flag("--theta", st.sampled_from([4, 5]))),
    argv_of("sieve", required("--limit", SMALL)),
    argv_of("series", required("--n", SMALL), required("--k", EXPONENTS), required("--s", EXPONENTS),
            flag("--cutoff", SMALL), flag("--xs", LISTS)),
    argv_of("count", required("--k", EXPONENTS), required("--s", EXPONENTS), required("--n", SMALL),
            flag("--method", st.sampled_from(["float_fft_verified", "direct"]))),
    argv_of("compare", required("--k", EXPONENTS), required("--s", EXPONENTS), required("--lo", SMALL),
            required("--hi", SMALL), flag("--stride", INTS), flag("--cutoff", SMALL)),
    argv_of("dissect", required("--n", st.sampled_from([-1, 0, 1, 100, 2000, 4096])), required("--k", EXPONENTS),
            required("--s", EXPONENTS), flag("--theta", st.sampled_from([4, 5])), flag("--R", INTS),
            flag("--r-eta", FLOATS), flag("--oversample", INTS), flag("--u", FLOATS), flag("--v", FLOATS),
            flag("--q-slice", FLOATS)),
    argv_of("moments", required("--P", st.sampled_from([-3, 0, 1, 2, 16, 64])), required("--k", EXPONENTS),
            required("--t", FLOATS), flag("--R", INTS), flag("--r-eta", FLOATS), flag("--q-values", LISTS)),
    argv_of("model-error", required("--n", st.sampled_from([-1, 0, 1, 100, 1024])), required("--k", EXPONENTS),
            flag("--R", INTS), flag("--r-eta", FLOATS)),
)


def malformed(argv):
    """The argv with the command or one flag dropped, the command or one value
    made unparsable, or an unknown flag added: usage errors for argparse."""
    spots = st.integers(0, len(argv) - 1)
    return st.one_of(
        spots.map(lambda i: argv[:i] + argv[i + 1:]),
        spots.map(lambda i: argv[:i] + [argv[i].partition("=")[0] + "=x" if i else "x"] + argv[i + 1:]),
        st.just(argv + ["--bogus"]),
    )


# about half the draws are malformed: 500 keeps the well-formed ones near 300
@settings(max_examples=500, derandomize=True, deadline=None)
@given(argv=st.one_of(SUBCOMMANDS, SUBCOMMANDS.flatmap(malformed)), fmt=st.sampled_from(["json", "csv", "plain"]),
       budget=st.sampled_from([None, "1", "100000", "0", "-5", "lots"]))
def test_cli_contract(argv, fmt, budget):
    # exit 0, 2 or 3 and, when nonzero, exactly one line on stderr: never a traceback
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        if budget is None:
            mp.delenv("WGCIRCLE_MEM_BYTES", raising=False)
        else:
            mp.setenv("WGCIRCLE_MEM_BYTES", budget)
        try:
            code = main([*argv, "--format", fmt, "--out", os.devnull])
        except SystemExit as exc:  # argparse refuses the argv before main's handlers
            code = exc.code
    assert code in (0, 2, 3), (argv, code)
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), (argv, err.getvalue())
