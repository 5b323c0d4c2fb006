"""Serializer determinism, the number-text kernel of the column writers, their
row blocks, their peak memory and the memory-budget guard."""

import argparse
import errno
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from wgcircle import cli, counting, serialize
from wgcircle.arith import sieve_primes
from wgcircle.errors import DomainError, ResourceError, MEMORY_BUDGET_ENV


def json_bytes(report) -> bytes:
    return b"".join(serialize.json_chunks(report))


def csv_column_bytes(header, columns) -> bytes:
    return b"".join(serialize.csv_column_chunks(header, columns))


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

    @pytest.mark.parametrize("column", [np.array(["a"]), np.array([1j])], ids=["column-kind", "complex-column"])
    def test_refused_report_opens_no_file(self, tmp_path, column):
        # a column of another kind is refused when its chunks are asked for, so --out is never opened
        out = tmp_path / "report"
        with pytest.raises(DomainError, match=r"^CSV columns must be integer or float arrays"):
            cli._emit(argparse.Namespace(format="csv", out=str(out)), {"a": 1},
                      csv=serialize.csv_column_chunks(["x"], [column]))
        assert not out.exists()
        # records of another kind are refused when they are made
        with pytest.raises(DomainError, match=r"^JSON record columns must be integer or float arrays"):
            serialize.JsonRecords((np.array(["a"]),))


# what the number-text kernel replaces: Python's own formatting, value by value
LAYOUTS = {"csv": (serialize._CSV, lambda v: f"{v:.12g}"), "json": (serialize._JSON, serialize._json_float)}


def python_text(values, fmt):
    return [fmt(v).encode() for v in values.tolist()]


def column_text(column, layout):
    """Each entry's text on its own: the bytes the kernel's write puts in its row, less the NULs."""
    width, write = serialize._column_text(column, layout)
    cells = np.zeros((len(column), width), np.uint8)
    write(cells)
    return [text.replace(b"\0", b"") for text in cells.view(f"S{width}").ravel().tolist()]


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
        assert column_text(x, kernel) == python_text(x, fmt)

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
        assert column_text(x, kernel) == python_text(x, fmt)

    def test_int64_extremes(self):
        x = np.array([-(2**63), 2**63 - 1, 0, -1, 1, 9999, 10000, -10**18, 10**18], dtype=np.int64)
        expected = [str(v).encode() for v in x.tolist()]
        assert column_text(x, serialize._CSV) == expected
        assert column_text(x, serialize._JSON) == expected
        assert column_text(np.zeros(3, dtype=np.int64), serialize._CSV) == [b"0"] * 3

    @pytest.mark.parametrize("layout,exps", [("csv", (-5, -4)), ("json", (-5, -4)), ("csv", (11, 12)),
                                             ("json", (15, 16))])
    def test_fixed_and_scientific_in_one_block(self, layout, exps):
        # the exponents on both sides of a layout's switch between fixed and d.ddd e+XX
        # notation, side by side in one block, with all 12 digits and with trailing zeros
        rng = np.random.default_rng(5)
        digits = np.concatenate([rng.integers(10**11, 10**12, 1000), rng.integers(1, 10**4, 1000) * 10**8,
                                 np.full(10, 10**11)])
        x = np.concatenate([digits * 10.0 ** (e - 11) for e in exps])
        x = rng.permutation(np.concatenate([x, -x]))
        kernel, fmt = LAYOUTS[layout]
        assert column_text(x, kernel) == python_text(x, fmt)
        # and on their own, each exponent filling the block
        for e in exps:
            single = digits * 10.0 ** (e - 11)
            assert column_text(single, kernel) == python_text(single, fmt)

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_block_of_fallbacks(self, layout):
        # no value of the block is certified: zeros, non-finite, subnormal, beyond 10^34, near ties
        ties = (np.arange(10**11, 10**11 + 50) + 0.5) * 10.0**-7
        x = np.concatenate([[0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1e-310, 1e-300, 1e40, -1e300], ties])
        kernel, fmt = LAYOUTS[layout]
        assert column_text(x, kernel) == python_text(x, fmt)
        for value in x[:10]:
            assert column_text(np.array([value]), kernel) == python_text(np.array([value]), fmt)

    def test_one_row_block(self):
        # the last block of these columns holds one row
        rows = serialize._ROW_BLOCK + 1
        n = np.arange(rows, dtype=np.int64)
        x = np.linspace(0.5, 2.5, rows)
        big = np.array([10**30 + i for i in range(rows)], dtype=object)
        expected = serialize.to_csv_bytes(["n", "x", "big"], list(zip(n.tolist(), x.tolist(), big.tolist())))
        chunks = list(serialize.csv_column_chunks(["n", "x", "big"], [n, x, big]))
        assert len(chunks) == 3 and chunks[-1].count(b"\n") == 1
        assert b"".join(chunks) == expected
        plain = [dict(zip(("n", "x", "big"), row)) for row in zip(n.tolist(), x.tolist(), big.tolist())]
        expected = (json.dumps(serialize.round_floats(plain), indent=2) + "\n").encode()
        assert json_bytes(serialize.JsonRecords((n, x, big), ("n", "x", "big"))) == expected

    def test_int_digit_count_edges(self):
        edges = [0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 99999, 10**8 - 1, 10**8, 10**8 + 1, 2**53 - 1, 2**53,
                 2**53 + 1, 10**18, 2**63 - 1]
        values = edges + [-v for v in edges] + [-(2**63)]
        column = np.array(values, dtype=np.int64)
        for layout in (serialize._CSV, serialize._JSON):
            assert column_text(column, layout) == [str(v).encode() for v in values]
        # alone, each value sets the column's width
        for v in values:
            assert column_text(np.array([v], dtype=np.int64), serialize._CSV) == [str(v).encode()]

    def test_object_int_columns(self):
        values = [0, 1, -1, 2**63, -(2**63) - 1, 2**64, 10**30, -(10**40), 7]
        column = np.array(values, dtype=object)
        assert column_text(column, serialize._CSV) == [str(v).encode() for v in values]
        assert column_text(column, serialize._JSON) == [str(v).encode() for v in values]
        expected = serialize.to_csv_bytes(["r", "n"], [[v, i] for i, v in enumerate(values)])
        assert csv_column_bytes(["r", "n"], [column, np.arange(len(values))]) == expected

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
# 149,998 rows: ten row blocks of at most 2^14
COMPARE_MANY_BLOCKS = ["compare", "--k", "2", "--s", "2", "--lo", "3", "--hi", "150000"]


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


class TestRowBlocksOnThreads:
    @pytest.fixture
    def text_calls(self, monkeypatch):
        """The number of `_column_text` calls, one per column of each block formatted."""
        calls = [0]
        column_text = serialize._column_text

        def recorded(column, layout):
            calls[0] += 1
            return column_text(column, layout)

        monkeypatch.setattr(serialize, "_column_text", recorded)
        return calls

    @pytest.mark.parametrize("where", ["out", "stdout"])
    def test_failed_write_mid_stream(self, tmp_path, capsys, monkeypatch, text_calls, where):
        # a full disk after the header: exit 2 with one line; of the ten blocks only
        # the first was formatted, the one whose write failed
        writer = FullAfterOneChunk()
        argv = [*COMPARE_MANY_BLOCKS, "--format", "csv"]
        if where == "out":
            monkeypatch.setattr(cli, "open", lambda path, mode: writer, raising=False)
            argv += ["--out", str(tmp_path / "compare.csv")]
        else:
            monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(buffer=writer))
        assert cli.main(argv) == 2
        target = f"--out {tmp_path / 'compare.csv'}" if where == "out" else "stdout"
        assert capsys.readouterr().err == f"error: cannot write {target}: No space left on device\n"
        assert writer.chunks == [b"n,r,prediction,ratio,series\n"]
        assert text_calls == [len(counting.COMPARE_COLUMNS)]


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
        # the benchmark's compare: the count's windowed product transforms its operands one
        # after the other, and the writer holds one row block at a time; a rise of about 72 MiB
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
        # its working set is one row block either way, a rise of 4-5 MiB for CSV and 6-8
        # for JSON.  The 600,000 rows rise by 1-2 MiB more, the free heap that glibc keeps
        # once it has freed a block's arrays; a writer that joined every block rose by
        # 64 MiB more for CSV and 104 for JSON
        script = (
            "rows = int(sys.argv[1])\n"
            "rng = np.random.default_rng(1)\n"
            "n = np.arange(520000, 520000 + rows, dtype=np.int64)\n"
            "columns = (n, rng.integers(0, 3000, rows), 1e3 * rng.random(rows), rng.random(rows), rng.random(rows))\n"
            "report = {'k': 2, 'rows': serialize.JsonRecords(columns)}\n"
            "args = argparse.Namespace(format=sys.argv[2], out=sys.argv[3])\n"
            "before = status_kib('VmHWM')\n"
            "cli._emit(args, report, csv=serialize.csv_column_chunks(list(counting.COMPARE_COLUMNS), columns))\n"
            "print(status_kib('VmHWM') - before)\n"
        )
        rises = [peak_rise(script, str(rows), fmt, str(tmp_path / f"rows.{fmt}")) for rows in (150_000, 600_000)]
        assert rises[1] <= rises[0] + 6 * 2**20, rises


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
