"""Golden outputs: the bytes of every README command, pinned by sha256.

Each command runs in-process with ``--out`` and the digest of the written
bytes must match ``golden_readme.json``.  The ``compare`` variants pin the
JSON, plain and strided CSV forms of the comparison report as well, and its
CSV at the benchmark's shape (500k rows, float columns over several decimal
exponents); the arc
variants pin the arc lists and region measures of ``dissect --format json``
(including slices whose seams land on grid points and an empty slice), the
level-set ledgers of ``dissect`` with band thresholds inside and outside the
covered ranges, oversampled, in plain and CSV form, for k = 3 and at the
benchmark's shape (n = 1040000, a 2^22-point grid), and a ``moments`` run over
every integer height up to 8 and one with a single member.  The series
variants pin truncated q-sums at ascending, unsorted and repeated points.
Three runs in the paper's regime (s >= ck + 4) pin counts past 2^52, and one
at s = 40 counts past 2^115; two JSON comparison reports print 50-bit counts
and counts past int64 exactly.  The format variants pin the plain form of the
key = value reports, of ``series``, ``sieve`` and ``count``, the CSV and plain forms
of ``moments``, ``verify-tables`` as JSON, and ``plan`` at a block of the
shipped exponent table as JSON and plain.  Refactors that keep behaviour keep these digests.

    PYTHONPATH=src python tests/test_golden.py --record

records the digest of every command whose key is missing from the file and
never overwrites an existing key, so a refactor cannot re-pin changed bytes
by accident.  To re-record a key on purpose, delete it from the file first,
run the command above, and say why in CHANGES.md.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from wgcircle.cli import main

GOLDEN = Path(__file__).with_name("golden_readme.json")

README_COMMANDS = {
    "constants": ["constants", "--theta", "5"],
    "eta": ["eta", "--t", "1.0"],
    "plan": ["plan", "--k", "17", "--theta", "5"],
    "verify-tables": ["verify-tables"],
    "sieve": ["sieve", "--limit", "1000000"],
    "series": ["series", "--n", "100", "--k", "3", "--s", "4", "--cutoff", "1000", "--xs", "64,256"],
    "count": ["count", "--k", "2", "--s", "2", "--n", "10"],
    "compare": ["compare", "--k", "2", "--s", "2", "--lo", "50000", "--hi", "100000", "--format", "csv"],
    "dissect": ["dissect", "--n", "100000", "--k", "2", "--s", "3", "--theta", "5"],
    "moments": ["moments", "--P", "64", "--k", "3", "--t", "8"],
    "model-error": ["model-error", "--n", "16384", "--k", "2"],
}

COMPARE_VARIANTS = {
    "compare-json": ["compare", "--k", "2", "--s", "2", "--lo", "50000", "--hi", "100000", "--format", "json"],
    "compare-plain": ["compare", "--k", "2", "--s", "2", "--lo", "50000", "--hi", "100000", "--format", "plain"],
    "compare-stride7": ["compare", "--k", "2", "--s", "2", "--lo", "50000", "--hi", "100000",
                        "--stride", "7", "--format", "csv"],
    # the compare_sweep benchmark shape: 2,039,999-entry products (on 2^21 points before
    # 5-smooth lengths), and float columns that span several decimal exponents
    "compare-500k": ["compare", "--k", "2", "--s", "2", "--lo", "520000", "--hi", "1019999", "--format", "csv"],
}

ARC_VARIANTS = {
    "dissect-json": ["dissect", "--n", "100000", "--k", "2", "--s", "3", "--theta", "5", "--format", "json"],
    "dissect-json-theta4": ["dissect", "--n", "100000", "--k", "2", "--s", "3", "--theta", "4",
                            "--format", "json"],
    "dissect-seams": ["dissect", "--n", "1024", "--k", "2", "--s", "3", "--q-slice", "2", "--format", "json"],
    "dissect-empty-slice": ["dissect", "--n", "4096", "--k", "2", "--s", "2", "--q-slice", "0.5",
                            "--format", "json"],
    "moments-qvalues": ["moments", "--P", "16", "--k", "2", "--t", "4.5", "--q-values", "1,2,3,4,5,6,7,8"],
    # one member: |f| = 1 everywhere, and the grid max of |f| sits one rounding above f(0)
    "moments-one-member": ["moments", "--P", "64", "--k", "3", "--t", "8", "--R", "1"],
    # band thresholds inside the covered ranges, then outside them (warnings present)
    "dissect-uv-inside": ["dissect", "--n", "100000", "--k", "2", "--s", "3", "--u", "200", "--v", "12",
                          "--format", "json"],
    "dissect-uv-outside": ["dissect", "--n", "100000", "--k", "2", "--s", "3", "--u", "1000", "--v", "40",
                           "--format", "json"],
    "dissect-oversample2": ["dissect", "--n", "100000", "--k", "2", "--s", "3", "--oversample", "2",
                            "--format", "json"],
    "dissect-theta4-plain": ["dissect", "--n", "100000", "--k", "2", "--s", "3", "--theta", "4",
                             "--format", "plain"],
    # --oversample 3 rounds up to x4: 2^21 grid points against 2^19 without it
    "dissect-oversample3": ["dissect", "--n", "100000", "--k", "2", "--s", "3", "--oversample", "3",
                            "--format", "json"],
    "model-error-k3": ["model-error", "--n", "16384", "--k", "3"],
    # the dissect_ledger benchmark shape, a cubic ledger and the CSV form
    "dissect-ledger": ["dissect", "--n", "1040000", "--k", "2", "--s", "3", "--theta", "5", "--format", "json"],
    "dissect-k3": ["dissect", "--n", "200000", "--k", "3", "--s", "4", "--format", "json"],
    "dissect-csv": ["dissect", "--n", "100000", "--k", "2", "--s", "3", "--format", "csv"],
}

# truncated q-sums at several points: ascending (the benchmark's series_euler
# shape), and unsorted with a repeat, which the report keeps in the given order
SERIES_VARIANTS = {
    "series-euler": ["series", "--n", "123457", "--k", "3", "--s", "4", "--cutoff", "3000",
                     "--xs", "512,1024", "--format", "json"],
    "series-xs-unsorted": ["series", "--n", "100", "--k", "3", "--s", "4", "--cutoff", "1000",
                           "--xs", "256,64,256"],
    # the paper's regime s = 11, local counts past int64 (p^11 > 2^63 from p = 53)
    "series-k3-s11": ["series", "--n", "100", "--k", "3", "--s", "11", "--cutoff", "3000",
                      "--xs", "512,1024"],
    # d = gcd(6, p - 1) takes every value in {1, 2, 3, 6}
    "series-k6": ["series", "--n", "1000", "--k", "6", "--s", "8", "--cutoff", "2000", "--xs", "64"],
    # a cutoff close to the old int32-sized modulus ceiling
    "series-cutoff-40000": ["series", "--n", "100", "--k", "3", "--s", "4", "--cutoff", "40000"],
}

# the paper's regime s >= ck + 4 (s >= 9 for k = 2, s >= 11 for k = 3), where
# r(n) passes 2^52 and the exact convolution splits its operands
PAPER_REGIME_VARIANTS = {
    "count-k3-s11": ["count", "--k", "3", "--s", "11", "--n", "100000"],
    "count-k2-s9": ["count", "--k", "2", "--s", "9", "--n", "100000"],
    "compare-k3-s11": ["compare", "--k", "3", "--s", "11", "--lo", "50000", "--hi", "100000", "--format", "csv"],
    # JSON rows with 50-bit counts, then with counts past int64 (an object column of Python integers)
    "compare-k3-s11-json": ["compare", "--k", "3", "--s", "11", "--lo", "50000", "--hi", "60000",
                            "--format", "json"],
    "compare-k3-s24-json": ["compare", "--k", "3", "--s", "24", "--lo", "5000", "--hi", "5100",
                            "--format", "json"],
    # entries past 2^115: splits on both operands, several levels deep, over Python integers
    "count-k2-s40": ["count", "--k", "2", "--s", "40", "--n", "20000"],
}

# the other format of each small report: plain key = value lines (NaN and None
# fields among them for k = 3's external plan), the exponent-table checks as JSON,
# the plain lines of sieve and count, the CSV and plain tables of moments, and
# the plans of table 2's blocks
FORMAT_VARIANTS = {
    "series-plain": ["series", "--n", "100", "--k", "3", "--s", "4", "--cutoff", "1000", "--xs", "64,256",
                     "--format", "plain"],
    "verify-tables-json": ["verify-tables", "--format", "json"],
    "plan-k17-plain": ["plan", "--k", "17", "--format", "plain"],
    "plan-k3-plain": ["plan", "--k", "3", "--format", "plain"],
    # the shipped table 2's blocks (5 <= k <= 16), as JSON and as plain lines
    "plan-k10-theta4": ["plan", "--k", "10", "--theta", "4", "--format", "json"],
    "plan-k16-plain": ["plan", "--k", "16", "--format", "plain"],
    "eta-plain": ["eta", "--t", "1.0", "--format", "plain"],
    "constants-plain": ["constants", "--format", "plain"],
    "model-error-plain": ["model-error", "--n", "16384", "--k", "2", "--format", "plain"],
    "sieve-plain": ["sieve", "--limit", "1000000", "--format", "plain"],
    "count-plain": ["count", "--k", "2", "--s", "2", "--n", "10", "--format", "plain"],
    "moments-csv": ["moments", "--P", "64", "--k", "3", "--t", "8", "--format", "csv"],
    "moments-plain": ["moments", "--P", "64", "--k", "3", "--t", "8", "--format", "plain"],
}

GOLDEN_COMMANDS = {**README_COMMANDS, **COMPARE_VARIANTS, **ARC_VARIANTS, **SERIES_VARIANTS,
                   **PAPER_REGIME_VARIANTS, **FORMAT_VARIANTS}


def output_digest(argv: list[str], path: Path) -> str:
    code = main([*argv, "--out", str(path)])
    assert code == 0, f"{argv} exited {code}"
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", list(README_COMMANDS))
def test_readme_command_bytes(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert output_digest(README_COMMANDS[name], tmp_path / "out") == expected


@pytest.mark.parametrize("name", list(COMPARE_VARIANTS))
def test_compare_variant_bytes(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert output_digest(COMPARE_VARIANTS[name], tmp_path / "out") == expected


@pytest.mark.parametrize("name", list(ARC_VARIANTS))
def test_arc_variant_bytes(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert output_digest(ARC_VARIANTS[name], tmp_path / "out") == expected


@pytest.mark.parametrize("name", list(SERIES_VARIANTS))
def test_series_variant_bytes(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert output_digest(SERIES_VARIANTS[name], tmp_path / "out") == expected


@pytest.mark.parametrize("name", list(PAPER_REGIME_VARIANTS))
def test_paper_regime_bytes(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert output_digest(PAPER_REGIME_VARIANTS[name], tmp_path / "out") == expected


@pytest.mark.parametrize("name", list(FORMAT_VARIANTS))
def test_format_variant_bytes(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert output_digest(FORMAT_VARIANTS[name], tmp_path / "out") == expected


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile

    digests = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in GOLDEN_COMMANDS.items():
            if name not in digests:
                digests[name] = output_digest(argv, Path(tmp) / "out")
                print(f"recorded {name}")
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
