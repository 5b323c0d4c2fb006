"""Serializer determinism, the number-text kernel of the column writers, their
row blocks on threads, the one worker-thread helper and the memory-budget guard."""

import argparse
import concurrent.futures
import errno
import functools
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

from wgcircle import circle, cli, counting, errors, serialize
from wgcircle.arith import sieve_primes
from wgcircle.errors import DomainError, ResourceError, MEMORY_BUDGET_ENV


def json_bytes(report) -> bytes:
    return b"".join(serialize.serialize_chunks(report, "json"))


def csv_column_bytes(header, columns) -> bytes:
    return b"".join(serialize.serialize_chunks({}, "csv", header, csv_columns=columns))


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
        payload = json_bytes(report)
        assert json.loads(payload) == report

    def test_json_deterministic(self):
        report = {"z": 1.0 / 3.0, "a": [2, 3]}
        assert json_bytes(report) == json_bytes(dict(report))

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
            serialize.serialize_chunks({}, "yaml")

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
            serialize.serialize_chunks({"a": 1}, "csv")
        with pytest.raises(DomainError, match="^plain output needs its lines$"):
            serialize.serialize_chunks({"a": 1}, "plain")

    @pytest.mark.parametrize("fmt, table", [
        ("yaml", {}),
        ("csv", {}),
        ("csv", {"csv_header": ["x"], "csv_columns": [np.array(["a"])]}),
    ], ids=["format", "no-table", "column-kind"])
    def test_refused_report_opens_no_file(self, tmp_path, fmt, table):
        # every refusal comes before the first chunk, so --out is never opened
        out = tmp_path / "report"
        with pytest.raises(DomainError):
            cli._emit(argparse.Namespace(format=fmt, out=str(out)), {"a": 1}, **table)
        assert not out.exists()
        # records of another kind are refused when they are made
        with pytest.raises(DomainError, match=r"^JSON record columns must be integer or float arrays"):
            serialize.JsonRecords((np.array(["a"]),))


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
        assert csv_column_bytes(["n", "r", "x"], columns) == expected
        plain = [dict(zip(("n", "r", "x"), row)) for row in zip(n.tolist(), r.tolist(), x.tolist())]
        expected = (json.dumps(serialize.round_floats({"rows": plain}), indent=2) + "\n").encode()
        assert json_bytes({"rows": serialize.JsonRecords(tuple(columns), ("n", "r", "x"))}) == expected


ROOT = Path(__file__).resolve().parent.parent
# 149,998 rows: three row blocks of at most 2^16
COMPARE_THREE_BLOCKS = ["compare", "--k", "2", "--s", "2", "--lo", "3", "--hi", "150000"]
# 1,001 rows: the periods of the primes up to 89 hold 963 floats and with 97 they
# would pass 1,001, so the series worker takes 2..89 and 97..199 follow after the count
COMPARE_STRICT_PREFIX = ["compare", "--k", "3", "--s", "5", "--lo", "1000", "--hi", "8000",
                         "--stride", "7", "--cutoff", "200"]


class FullAfterOneChunk:
    """A binary file whose writes after the first fail as on a full disk."""

    def __init__(self):
        self.chunks = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def write(self, chunk):
        if self.chunks:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.chunks.append(bytes(chunk))


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

    @staticmethod
    def blocking_worker():
        """A worker of `_beside` that runs until the returned event is set, and its result."""
        started, release = threading.Event(), threading.Event()

        def block():
            started.set()
            release.wait(10)
            return threading.get_ident()

        result = errors._beside(block)
        assert started.wait(10)
        return release, result

    def test_two_cpus_run_a_second_call_on_the_caller(self, use_cpus):
        release, first = self.blocking_worker()
        try:
            calls = []
            (ident, _), alive = self.run_beside(lambda: calls.append(1) or (threading.get_ident(), None))
        finally:
            release.set()
        assert ident == threading.get_ident() and alive == [] and calls == [1]
        assert first() != threading.get_ident()

    def test_three_cpus_start_a_second_worker(self, use_cpus):
        use_cpus(3)
        release, first = self.blocking_worker()
        try:
            (ident, _), _ = self.run_beside(lambda: (threading.get_ident(), None))
        finally:
            release.set()
        assert ident not in {threading.get_ident(), first()}

    def test_failed_worker_frees_its_slot(self, use_cpus):
        threads = []

        def fail(x):
            threads.append(threading.get_ident())
            raise ValueError(f"no {x}")

        failed, _ = self.run_beside(fail, 7)
        assert failed == (ValueError, "no 7") and threads[0] != threading.get_ident()
        (ident, _), _ = self.run_beside(lambda: (threading.get_ident(), None))
        assert ident != threading.get_ident()
        assert errors._workers == 0

    def test_worker_count_under_fast_switching(self, use_cpus):
        # four callers take and free slots while the interpreter switches threads at every
        # chance: a lost update to the count would let a third worker run, or leave a slot taken
        use_cpus(3)
        callers, running, most, lock = set(), [0], [0], threading.Lock()

        def work():
            on_worker = threading.get_ident() not in callers
            with lock:
                running[0] += on_worker
                most[0] = max(most[0], running[0])
            with lock:
                running[0] -= on_worker

        def call():
            callers.add(threading.get_ident())
            for _ in range(100):
                errors._beside(work)()

        threads = [threading.Thread(target=call) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert 1 <= most[0] <= 2 and errors._workers == 0


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
            assert csv_column_bytes(["n", "x"], columns) == expected
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
        # on two CPUs the series prefix is multiplied beside the count
        assert {"main", "serialize_chunks", "count_range", "class_factors", "convolve_exact",
                "fft_convolve_checked", "dissection_ledger", "build_g_spectrum",
                "half_grid_conj"} <= {name for name, _ in calls}
        assert {ident for _, ident in calls} == {threading.get_ident()}
        assert set(text_threads) - {threading.get_ident()}
        assert series_products and series_products[0][0] != threading.get_ident()
        assert threading.get_ident() in spectrum_threads

    @pytest.mark.parametrize("where", ["out", "stdout"])
    def test_failed_write_mid_stream(self, tmp_path, capsys, monkeypatch, text_threads, where):
        # a full disk after the header: exit 2 with one line, and no helper formats a block
        # after the error; three blocks, of which only the first pair was formatted
        writer = FullAfterOneChunk()
        argv = [*COMPARE_THREE_BLOCKS, "--format", "csv"]
        if where == "out":
            monkeypatch.setattr(cli, "open", lambda path, mode: writer, raising=False)
            argv += ["--out", str(tmp_path / "compare.csv")]
        else:
            monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(buffer=writer))
        assert cli.main(argv) == 2
        target = f"--out {tmp_path / 'compare.csv'}" if where == "out" else "stdout"
        assert capsys.readouterr().err == f"error: cannot write {target}: No space left on device\n"
        assert writer.chunks == [b"n,r,prediction,ratio,series\n"]
        assert len(text_threads) == 2 * len(counting.COMPARE_COLUMNS)
        time.sleep(0.05)
        assert len(text_threads) == 2 * len(counting.COMPARE_COLUMNS) and errors._workers == 0

    def test_one_package_worker_at_a_time_on_two_cpus(self, tmp_path, monkeypatch, use_cpus, spectrum_threads):
        # the series product, the count's second transform, g's half grid and the row
        # blocks all ask `_beside` for a worker; on two CPUs at most one may run at once
        running, most, lock = [0], [0], threading.Lock()

        class Counted(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, *args):
                def counted():
                    with lock:
                        running[0] += 1
                        most[0] = max(most[0], running[0])
                    try:
                        return fn(*args)
                    finally:
                        with lock:
                            running[0] -= 1
                return super().submit(counted)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
        for fmt in ("csv", "json"):
            self.compare_bytes(tmp_path, fmt)
        assert cli.main(["dissect", "--n", "300000", "--k", "2", "--s", "3", "--format", "json",
                         "--out", str(tmp_path / "dissect.json")]) == 0
        assert most == [1] and running == [0] and errors._workers == 0
        assert len(spectrum_threads) >= 2  # the count made a float product of two operands

    def test_cli_import_loads_no_thread_pool(self):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        code = "import sys, wgcircle.cli; print('concurrent.futures' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert run.stdout == "False\n"


# a fresh interpreter on at most two CPUs, as on the benchmark's host; it prints the
# rise of the peak resident set (VmHWM) over the resident set after the imports
PEAK_PRELUDE = (
    "import os, sys\n"
    "os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])\n"
    "import argparse\n"
    "import numpy as np\n"
    "from wgcircle import cli, counting, serialize\n"
    "def status_kib(key):\n"
    "    with open('/proc/self/status') as fh:\n"
    "        return next(int(line.split()[1]) for line in fh if line.startswith(key + ':'))\n"
)


def peak_rise(script: str, *argv: str) -> int:
    """The bytes the script prints, run after PEAK_PRELUDE in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", PEAK_PRELUDE + script, *argv], env=env, capture_output=True,
                         text=True, check=True)
    return 1024 * int(run.stdout)


@pytest.mark.skipif(not os.path.exists("/proc/self/status") or not hasattr(os, "sched_setaffinity"),
                    reason="reads VmHWM from /proc/self/status")
class TestPeakMemory:
    def test_compare_sweep_peak(self, tmp_path):
        # the benchmark's compare: the series product holds the one worker while the count's
        # windowed product transforms its operands one after the other, and the writer holds
        # two row blocks at a time; 139 MiB at the parent (a rise of 108), 107 MiB now
        script = (
            "before = status_kib('VmRSS')\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(status_kib('VmHWM') - before)\n"
        )
        rise = peak_rise(script, "compare", "--k", "2", "--s", "2", "--lo", "520000", "--hi", "1019999",
                         "--format", "csv", "--out", str(tmp_path / "compare.csv"))
        assert rise <= 95 * 2**20

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writer_peak_does_not_grow_with_the_rows(self, tmp_path, fmt):
        # compare's columns for 150,000 and for 600,000 rows, written by the CLI's writer:
        # its working set is a pair of row blocks either way.  The 600,000 rows rise by 8 to
        # 16 MiB more, the free heap that glibc keeps once it has freed a block's arrays;
        # a writer that joined every block rose by 64 MiB more for CSV and 104 for JSON
        script = (
            "rows = int(sys.argv[1])\n"
            "rng = np.random.default_rng(1)\n"
            "n = np.arange(520000, 520000 + rows, dtype=np.int64)\n"
            "columns = (n, rng.integers(0, 3000, rows), 1e3 * rng.random(rows), rng.random(rows), rng.random(rows))\n"
            "report = {'k': 2, 'rows': serialize.JsonRecords(columns)}\n"
            "args = argparse.Namespace(format=sys.argv[2], out=sys.argv[3])\n"
            "before = status_kib('VmHWM')\n"
            "cli._emit(args, report, csv_header=list(counting.COMPARE_COLUMNS), csv_columns=columns)\n"
            "print(status_kib('VmHWM') - before)\n"
        )
        rises = [peak_rise(script, str(rows), fmt, str(tmp_path / f"rows.{fmt}")) for rows in (150_000, 600_000)]
        assert rises[1] <= rises[0] + 24 * 2**20, rises


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
