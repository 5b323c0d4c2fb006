"""Serializer determinism, the number-text kernel of the column writers, and the memory-budget guard."""

import json

import numpy as np
import pytest

from wgcircle import serialize
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

    def test_csv_fallback_to_json(self):
        payload = serialize.serialize({"a": 1}, "csv")
        assert json.loads(payload) == {"a": 1}


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
