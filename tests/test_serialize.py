"""Serializer determinism, the number-text kernel of the column writers, their
row blocks on threads, the one worker-thread helper and the memory-budget guard."""

import functools
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from wgcircle import circle, cli, counting, errors, serialize
from wgcircle.arith import sieve_primes
from wgcircle.errors import DomainError, ResourceError, MEMORY_BUDGET_ENV


class TestRounding:
    def test_floats_rounded_to_12_significant_digits(self):
        value = 2.1346933843229214
        out = serialize.round_floats({"c": value})
        assert out["c"] == float("2.13469338432")

    def test_nested_structures(self):
        obj = {"rows": [(1, 0.123456789012345), [2.0, {"x": 1e-17}]], "flag": True}
        out = serialize.round_floats(obj)
        assert out["rows"][0][1] == float("0.123456789012")
        assert out["flag"] is True

    def test_complex_becomes_pair(self):
        out = serialize.round_floats(complex(1.5, -2.25))
        assert out == {"re": 1.5, "im": -2.25}


class TestFormats:
    def test_json_round_trip(self):
        report = {"a": 1, "b": [1.5, "x"], "c": {"d": None}}
        payload = serialize.to_json_bytes(report)
        assert json.loads(payload) == report

    def test_json_deterministic(self):
        report = {"z": 1.0 / 3.0, "a": [2, 3]}
        assert serialize.to_json_bytes(report) == serialize.to_json_bytes(dict(report))

    def test_csv_quoting(self):
        payload = serialize.to_csv_bytes(["label", "value"], [["needs,quote", 0.5], ["plain", 2]])
        lines = payload.decode().splitlines()
        assert lines[1] == '"needs,quote",0.5'
        assert lines[2] == "plain,2"

    def test_csv_float_formatting(self):
        payload = serialize.to_csv_bytes(["v"], [[1.0 / 3.0]])
        assert payload.decode().splitlines()[1] == "0.333333333333"

    def test_unknown_format(self):
        with pytest.raises(DomainError):
            serialize.serialize({}, "yaml")

    def test_csv_refused_without_a_table(self, capsys):
        # only compare, dissect and moments have a table: elsewhere argparse refuses
        # csv with one line and exit 2
        for argv in (["count", "--k", "2", "--s", "2", "--n", "10"], ["series", "--n", "100", "--k", "3", "--s", "4"],
                     ["model-error", "--n", "1024", "--k", "2"], ["constants"]):
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, "--format", "csv"])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.count("\n") == 1 and err.startswith(f"error: wgcircle {argv[0]}: argument --format: ")
            assert "invalid choice: 'csv'" in err
        # and serialize itself takes no JSON in place of a missing table or missing lines
        with pytest.raises(DomainError, match="^csv output needs a header and a table$"):
            serialize.serialize({"a": 1}, "csv")
        with pytest.raises(DomainError, match="^plain output needs its lines$"):
            serialize.serialize({"a": 1}, "plain")


# what the number-text kernel replaces: Python's own formatting, value by value
LAYOUTS = {"csv": (serialize._CSV, lambda v: f"{v:.12g}"), "json": (serialize._JSON, serialize._json_float)}


def python_text(values, fmt):
    return [fmt(v).encode() for v in values.tolist()]


class TestNumberText:
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_every_binade(self, layout):
        rng = np.random.default_rng(20240)
        # random sign and mantissa bits under every exponent field: subnormals (field 0) through 2046
        fields = rng.integers(0, 2047, 100_000, dtype=np.uint64)
        bits = (rng.integers(0, 2, 100_000, dtype=np.uint64) << np.uint64(63)) | (fields << np.uint64(52))
        bits |= rng.integers(0, 2**52, 100_000, dtype=np.uint64)
        # and the decades the fast path covers, densely
        decades = 10.0 ** rng.uniform(-12, 34, 20_000) * rng.choice([-1.0, 1.0], 20_000)
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-4,
                   9.99999999999e-5, 1.0, 10.0, 1e11, 1e12, 1e15, 1e16, 1e22, 1e23, 999999999999.5, 0.1 + 0.2]
        x = np.concatenate([bits.view(np.float64), decades, special])
        kernel, fmt = LAYOUTS[layout]
        assert serialize._column_text(x, kernel).tolist() == python_text(x, fmt)

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_near_ties(self, layout):
        rng = np.random.default_rng(7)
        values = []
        for exp in range(-12, 21):
            digits = rng.integers(10**11, 10**12, 300)
            tie = (digits + 0.5) * 10.0 ** (exp - 11)  # within a few ulps of D + 1/2 in the 12th digit
            values += [tie, np.nextafter(tie, np.inf), np.nextafter(tie, -np.inf), -tie]
            # on both sides of the certified margin of 2^-12 around the tie
            for offset in (2.0**-14, 2.0**-12 - 2.0**-16, 2.0**-12 + 2.0**-16, 2.0**-11, 2.0**-8):
                values += [(digits + (0.5 + sign * offset)) * 10.0 ** (exp - 11) for sign in (-1, 1)]
            # where rounding to 12 digits carries into a 13th, or lands on 10^11
            values.append(np.array([(edge + offset) * 10.0 ** (exp - 11)
                                    for offset in (0.3, 0.7, 1.5) for edge in (1e11, 1e12 - 2 * offset)]))
        # exact ties, which round half to even: D + 1/2 and 10 D + 5 for 12-digit D
        values += [np.arange(10**11, 10**11 + 2000) + 0.5, 10.0 * np.arange(10**11, 10**11 + 2000) + 5]
        x = np.concatenate(values)
        kernel, fmt = LAYOUTS[layout]
        assert serialize._column_text(x, kernel).tolist() == python_text(x, fmt)

    def test_int64_extremes(self):
        x = np.array([-(2**63), 2**63 - 1, 0, -1, 1, 9999, 10000, -10**18, 10**18], dtype=np.int64)
        expected = [str(v).encode() for v in x.tolist()]
        assert serialize._column_text(x, serialize._CSV).tolist() == expected
        assert serialize._column_text(x, serialize._JSON).tolist() == expected
        assert serialize._column_text(np.zeros(3, dtype=np.int64), serialize._CSV).tolist() == [b"0"] * 3

    def test_columns_longer_than_three_row_blocks(self):
        rows = 3 * 2**16 + 5
        rng = np.random.default_rng(11)
        n = np.arange(rows, dtype=np.int64) - rows // 2
        r = rng.integers(0, 2**62, rows, dtype=np.int64)
        # exponents drawn at random: every row block holds many exponent groups and some fallbacks
        x = 10.0 ** rng.uniform(-7, 18, rows) * rng.choice([-1.0, 1.0], rows)
        x[rng.integers(0, rows, 50)] = np.nan
        x[rng.integers(0, rows, 50)] = 1.0
        columns = [n, r, x]
        expected = serialize.to_csv_bytes(["n", "r", "x"], list(zip(n.tolist(), r.tolist(), x.tolist())))
        assert serialize.to_csv_columns_bytes(["n", "r", "x"], columns) == expected
        plain = [dict(zip(("n", "r", "x"), row)) for row in zip(n.tolist(), r.tolist(), x.tolist())]
        expected = (json.dumps(serialize.round_floats({"rows": plain}), indent=2) + "\n").encode()
        assert serialize.to_json_bytes({"rows": serialize.JsonRecords(tuple(columns), ("n", "r", "x"))}) == expected


ROOT = Path(__file__).resolve().parent.parent
# 149,998 rows: three row blocks of at most 2^16
COMPARE_THREE_BLOCKS = ["compare", "--k", "2", "--s", "2", "--lo", "3", "--hi", "150000"]
# 1,001 rows: the periods of the primes up to 89 hold 963 floats and with 97 they
# would pass 1,001, so the series worker takes 2..89 and 97..199 follow after the count
COMPARE_STRICT_PREFIX = ["compare", "--k", "3", "--s", "5", "--lo", "1000", "--hi", "8000",
                         "--stride", "7", "--cutoff", "200"]


def traced_modules() -> tuple[str, ...]:
    """The modules whose public functions the benchmark's span tracer wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED_MODULES


class TestBeside:
    @staticmethod
    def run_beside(fn, *args):
        """fn's result through `_beside`, or the exception it raised, and the
        threads alive when `_beside` returned."""
        started = threading.enumerate()
        result = errors._beside(fn, *args)
        alive = [t for t in threading.enumerate() if t not in started]
        try:
            return result(), alive
        except ValueError as exc:
            return (type(exc), str(exc)), alive

    def test_same_result_on_one_cpu_and_two(self, use_cpus):
        def work(x, y):
            return threading.get_ident(), np.arange(x) * y

        def fail(x):
            raise ValueError(f"no {x}")

        (ident, value), _ = self.run_beside(work, 5, 3)
        assert ident != threading.get_ident()
        failed, _ = self.run_beside(fail, 7)
        use_cpus(1)
        (ident_one, value_one), alive_one = self.run_beside(work, 5, 3)
        assert ident_one == threading.get_ident() and alive_one == []  # one CPU: no thread starts
        assert value_one.tolist() == value.tolist() == [0, 3, 6, 9, 12]
        assert self.run_beside(fail, 7) == (failed, []) and failed == (ValueError, "no 7")

    def test_one_cpu_runs_fn_when_asked(self, use_cpus):
        use_cpus(1)
        calls = []
        result = errors._beside(calls.append, 1)
        assert calls == []
        result()
        assert calls == [1]


class TestRowBlocksOnThreads:
    @pytest.fixture
    def text_threads(self, monkeypatch, use_cpus):
        """A worker beside this thread for any two or more blocks, whatever the
        CPUs, and the thread of every `_column_text` call."""
        threads = []
        column_text = serialize._column_text

        def recorded(column, layout):
            threads.append(threading.get_ident())
            return column_text(column, layout)

        monkeypatch.setattr(serialize, "_column_text", recorded)
        return threads

    @pytest.fixture
    def series_products(self, monkeypatch):
        """(thread, primes) of every `_multiply_periods` call of `compare`."""
        products = []
        multiply = counting._multiply_periods

        def recorded(out, periods):
            periods = list(periods)
            products.append((threading.get_ident(), [p for p, _ in periods]))
            multiply(out, periods)

        monkeypatch.setattr(counting, "_multiply_periods", recorded)
        return products

    @staticmethod
    def compare_bytes(tmp_path, fmt: str, argv=COMPARE_THREE_BLOCKS) -> bytes:
        out = tmp_path / f"compare.{fmt}"
        assert cli.main([*argv, "--format", fmt, "--out", str(out)]) == 0
        return out.read_bytes()

    def test_bytes_do_not_depend_on_the_worker_count(self, tmp_path, use_cpus, text_threads):
        threads = text_threads
        on_two = [self.compare_bytes(tmp_path, fmt) for fmt in ("csv", "json")]
        assert on_two[0].count(b"\n") == 149_999 > 2 * serialize._ROW_BLOCK
        assert set(threads) - {threading.get_ident()}  # some block ran on a worker
        threads.clear()
        use_cpus(1)
        assert [self.compare_bytes(tmp_path, fmt) for fmt in ("csv", "json")] == on_two
        assert set(threads) == {threading.get_ident()}

    def test_every_block_once_under_fast_switching(self, monkeypatch, text_threads):
        # this thread and the worker take blocks from one shared iterator: a block taken
        # twice or skipped would change the bytes or the number of text calls
        rows = 4000
        columns = [np.arange(rows, dtype=np.int64), np.linspace(0.0, 1.0, rows)]
        expected = serialize.to_csv_bytes(["n", "x"], [list(row) for row in zip(*(c.tolist() for c in columns))])
        monkeypatch.setattr(serialize, "_ROW_BLOCK", 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert serialize.to_csv_columns_bytes(["n", "x"], columns) == expected
        finally:
            sys.setswitchinterval(interval)
        assert len(text_threads) == 2 * -(-rows // 3)
        assert set(text_threads) - {threading.get_ident()}

    @pytest.mark.parametrize("argv", [COMPARE_THREE_BLOCKS, COMPARE_STRICT_PREFIX], ids=["all-primes", "strict-prefix"])
    def test_bytes_do_not_depend_on_the_series_worker(self, tmp_path, monkeypatch, use_cpus, series_products, argv):
        on_two = [self.compare_bytes(tmp_path, fmt, argv) for fmt in ("csv", "json")]
        # per format: the prefix on the worker, then here the first prime past it and the rest
        assert len(series_products) == 6
        threads, primes = zip(*series_products[:3])
        assert threads[0] != threading.get_ident() and threads[1:] == (threading.get_ident(),) * 2
        prefix, rest = primes[0], primes[1] + primes[2]
        cutoff = int(argv[argv.index("--cutoff") + 1]) if "--cutoff" in argv else 1000
        assert prefix + rest == np.flatnonzero(sieve_primes(cutoff)).tolist()
        assert (prefix[-1], rest[:1]) == ((89, [97]) if argv is COMPARE_STRICT_PREFIX else (997, []))
        series_products.clear()
        use_cpus(1)
        count_range = counting.count_range
        monkeypatch.setattr(counting, "count_range",
                            lambda *args: series_products.append("count") or count_range(*args))
        assert [self.compare_bytes(tmp_path, fmt, argv) for fmt in ("csv", "json")] == on_two
        # one CPU: the same three products, all on this thread, the prefix once the count is done
        here = [(threading.get_ident(), list(p)) for p in primes]
        assert series_products == ["count", *here] * 2

    def test_public_functions_run_on_the_main_thread(self, tmp_path, monkeypatch, text_threads,
                                                     series_products, spectrum_threads):
        # a public function called from a worker would interleave the tracer's one span stack
        modules = [importlib.import_module(f"wgcircle.{name}") for name in traced_modules()]
        public = {id(obj): obj for mod in modules for attr, obj in vars(mod).items()
                  if not attr.startswith("_") and callable(obj) and not inspect.isclass(obj)
                  and getattr(obj, "__module__", None) == mod.__name__}
        calls = []

        def wrap(fn):
            @functools.wraps(fn)
            def recorded(*args, **kwargs):
                calls.append((fn.__qualname__, threading.get_ident()))
                return fn(*args, **kwargs)
            return recorded

        wrappers = {key: wrap(fn) for key, fn in public.items()}
        # every binding, as `from .serialize import serialize` in cli is a second one
        for name, mod in list(sys.modules.items()):
            if name == "wgcircle" or name.startswith("wgcircle."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in public and public[id(obj)] is obj:
                        monkeypatch.setattr(mod, attr, wrappers[id(obj)])
        for fmt in ("csv", "json"):
            self.compare_bytes(tmp_path, fmt)
        # a ledger above the crossover (2^21 grid points): g's half grid by classes on a worker
        engine, grid_threads = circle._half_grid, []
        monkeypatch.setattr(circle, "_half_grid", lambda *args: grid_threads.append(threading.get_ident())
                            or engine(*args))
        out = tmp_path / "dissect.json"
        assert cli.main(["dissect", "--n", "300000", "--k", "2", "--s", "3", "--format", "json",
                         "--out", str(out)]) == 0
        assert json.loads(out.read_bytes())["grid_size"] >= circle._CLASSES_FROM
        assert len(grid_threads) == 2 and threading.get_ident() in grid_threads
        assert set(grid_threads) - {threading.get_ident()}
        # on two CPUs the series prefix is multiplied beside the count, and the count's
        # float product transforms its second operand on a worker
        assert {"main", "serialize", "count_range", "class_factors", "convolve_exact",
                "fft_convolve_checked", "dissection_ledger", "build_g_spectrum",
                "half_grid_conj"} <= {name for name, _ in calls}
        assert {ident for _, ident in calls} == {threading.get_ident()}
        assert set(text_threads) - {threading.get_ident()}
        assert series_products and series_products[0][0] != threading.get_ident()
        assert threading.get_ident() in spectrum_threads and set(spectrum_threads) - {threading.get_ident()}

    def test_cli_import_loads_no_thread_pool(self):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        code = "import sys, wgcircle.cli; print('concurrent.futures' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert run.stdout == "False\n"


class TestMemoryBudget:
    def test_budget_enforced(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "1000")
        with pytest.raises(ResourceError):
            sieve_primes(10**6)

    def test_budget_validation(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "not-a-number")
        with pytest.raises(ResourceError):
            sieve_primes(10**6)

    def test_generous_budget_passes(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV, str(2**34))
        assert int(sieve_primes(100).sum()) == 25
