"""The three benchmark workloads: seeded argv generators and output oracles.

Each operation is one `wgcircle` CLI call.  The seed picks inputs only from
ranges that keep the work size fixed, so every seed costs about the same.
Each oracle returns an error message, or None when the output is correct.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from wgcircle import counting

COMPARE_ROWS = 500_000
COMPARE_SAMPLE = 200
DISSECT_GRID = 1 << 22


def _primes_upto(limit: int) -> int:
    """Prime count by trial division, independent of the package's sieve."""
    return sum(1 for p in range(2, limit + 1) if all(p % d for d in range(2, math.isqrt(p) + 1)))


def _series_argv(rng: random.Random) -> list[str]:
    n = rng.randrange(10, 10**6)
    return ["series", "--n", str(n), "--k", "3", "--s", "4", "--cutoff", "3000",
            "--xs", "512,1024", "--format", "json"]


def _series_check(argv: list[str], payload: bytes, rng: random.Random) -> str | None:
    rep = json.loads(payload)
    if rep["n"] != int(argv[2]) or rep["cutoff"] != 3000:
        return f"report echoes n={rep['n']} cutoff={rep['cutoff']}"
    partials = dict(rep["partials"])
    if sorted(partials) != [512, 1024]:
        return f"partials at {sorted(partials)}, expected [512, 1024]"
    product = rep["product"]
    if not product > 0:
        return f"product {product} is not positive"
    # the shape of acceptance criterion 6: product and q-sum agree within
    # the product's tail bound plus the q-sum's own tail estimate
    gap = abs(product - partials[1024])
    allowed = rep["tail_bound"] + 3.5 * abs(partials[1024] - partials[512]) + 1e-9
    if gap > allowed:
        return f"|product - partial(1024)| = {gap:.3g} exceeds {allowed:.3g}"
    return None


def _compare_argv(rng: random.Random) -> list[str]:
    lo = rng.randrange(500_000, 548_576)  # hi < 2^20 fixes the FFT length at 2^21
    return ["compare", "--k", "2", "--s", "2", "--lo", str(lo), "--hi", str(lo + COMPARE_ROWS - 1),
            "--format", "csv"]


def _compare_check(argv: list[str], payload: bytes, rng: random.Random) -> str | None:
    header, _, body = payload.partition(b"\n")
    if header != b"n,r,prediction,ratio,series":
        return f"unexpected CSV header {header[:60]!r}"
    table = np.loadtxt(io.BytesIO(body), delimiter=",", dtype=np.float64, ndmin=2)
    if table.shape != (COMPARE_ROWS, 5):
        return f"CSV has shape {table.shape}, expected ({COMPARE_ROWS}, 5)"
    lo = int(argv[argv.index("--lo") + 1])
    if not np.array_equal(table[:, 0], np.arange(lo, lo + COMPARE_ROWS, dtype=np.float64)):
        return "n column is not the requested range"
    for i in rng.sample(range(COMPARE_ROWS), COMPARE_SAMPLE):
        n = lo + i
        expected = counting.count_direct(2, 2, n)
        if int(table[i, 1]) != expected:
            return f"r({n}) = {int(table[i, 1])}, enumeration gives {expected}"
    ratios = table[:, 3]
    if not ratios.min() > 0:
        return f"min_ratio {ratios.min()} is not positive"
    if not 0.8 <= ratios.mean() <= 1.2:
        return f"mean_ratio {ratios.mean():.4f} outside [0.8, 1.2]"
    return None


def _dissect_argv(rng: random.Random) -> list[str]:
    n = rng.randrange(10**6, 1 << 20)  # keeps the alias-free grid at 2^22
    return ["dissect", "--n", str(n), "--k", "2", "--s", "3", "--theta", "5", "--format", "json"]


def _dissect_check(argv: list[str], payload: bytes, rng: random.Random) -> str | None:
    rep = json.loads(payload)
    if rep["n"] != int(argv[2]) or rep["grid_size"] != DISSECT_GRID:
        return f"report echoes n={rep['n']} grid_size={rep['grid_size']}"
    for family in ("minor_partition", "slice_partition"):
        part = rep[family]
        if abs(part["measure_sum"] - part["base_measure"]) > 1e-9:
            return f"{family}: measure_sum {part['measure_sum']} != base_measure {part['base_measure']}"
    if rep["covering"]["uncovered"] != 0:
        return f"{rep['covering']['uncovered']} points left uncovered by the dyadic bands"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    units_per_op: int
    make_argv: Callable[[random.Random], list[str]]
    check: Callable[[list[str], bytes, random.Random], str | None]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("series_euler", "primes verified by both routes", _primes_upto(3000),
                 _series_argv, _series_check),
        Workload("compare_sweep", "n values compared", COMPARE_ROWS, _compare_argv, _compare_check),
        Workload("dissect_ledger", "grid points classified", DISSECT_GRID, _dissect_argv, _dissect_check),
    )
}
