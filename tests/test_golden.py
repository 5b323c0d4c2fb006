"""Golden outputs: the bytes of every README command, pinned by sha256.

Each command runs in-process with ``--out`` and the digest of the written
bytes must match ``golden_readme.json``.  The ``compare`` variants pin the
JSON, plain and strided CSV forms of the comparison report as well; the arc
variants pin the arc lists and region measures of ``dissect --format json``
(including slices whose seams land on grid points and an empty slice), the
level-set ledgers of ``dissect`` with band thresholds inside and outside the
covered ranges, oversampled and in plain form, and a ``moments`` run over
every integer height up to 8.  Refactors that keep behaviour keep these
digests.

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
}

ARC_VARIANTS = {
    "dissect-json": ["dissect", "--n", "100000", "--k", "2", "--s", "3", "--theta", "5", "--format", "json"],
    "dissect-json-theta4": ["dissect", "--n", "100000", "--k", "2", "--s", "3", "--theta", "4",
                            "--format", "json"],
    "dissect-seams": ["dissect", "--n", "1024", "--k", "2", "--s", "3", "--q-slice", "2", "--format", "json"],
    "dissect-empty-slice": ["dissect", "--n", "4096", "--k", "2", "--s", "2", "--q-slice", "0.5",
                            "--format", "json"],
    "moments-qvalues": ["moments", "--P", "16", "--k", "2", "--t", "4.5", "--q-values", "1,2,3,4,5,6,7,8"],
    # band thresholds inside the covered ranges, then outside them (warnings present)
    "dissect-uv-inside": ["dissect", "--n", "100000", "--k", "2", "--s", "3", "--u", "200", "--v", "12",
                          "--format", "json"],
    "dissect-uv-outside": ["dissect", "--n", "100000", "--k", "2", "--s", "3", "--u", "1000", "--v", "40",
                           "--format", "json"],
    "dissect-oversample2": ["dissect", "--n", "100000", "--k", "2", "--s", "3", "--oversample", "2",
                            "--format", "json"],
    "dissect-theta4-plain": ["dissect", "--n", "100000", "--k", "2", "--s", "3", "--theta", "4",
                             "--format", "plain"],
}

GOLDEN_COMMANDS = {**README_COMMANDS, **COMPARE_VARIANTS, **ARC_VARIANTS}


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


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile

    digests = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in GOLDEN_COMMANDS.items():
            if name not in digests:
                digests[name] = output_digest(argv, Path(tmp) / "out")
                print(f"recorded {name}")
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
