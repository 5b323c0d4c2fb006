"""Self-test of the benchmark: the workloads keep the shape they were built with.

    python3 perfbench/selftest.py

Runs one traced operation of every workload on seeds 1 and 2 and requires
the span counts below to repeat exactly; they were measured on the code the
benchmark was written against.  A workload whose inputs drift off the shape
its documentation describes fails here loudly.  A change that moves one of
these counts on purpose (an FFT-first cyclic power drives the Kronecker
calls towards 0) reports the new count against this one.  The test also
requires `BENCHMARK.json` to list exactly the workloads and metrics that
`run.py` prints, and the four caches the benchmark must clear before every
operation to be among those it clears.  Exit code 0 when everything holds,
1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = (1, 2)

EXPECTED_COUNTS = {
    "series_euler": {
        "convolve.kronecker_convolve.calls": 860,  # two squarings per prime p <= 3000
        "series.s_n_q.calls": 1366,
        "convolve.fft_convolve_checked.calls": 0,
    },
    "compare_sweep": {
        "convolve.fft_convolve_checked.calls": 2,
        "convolve.float_reject_ratio": 0,
        "convolve.kronecker_convolve.calls": 0,
    },
    "dissect_ledger": {
        "circle.major_arcs.calls": 4,
        "circle.ArcUnion.grid_mask.calls": 4,
        "circle.evaluate_on_grid.calls": 2,
    },
}


def check_manifest(problems: list[str]) -> None:
    import spans
    from workloads import WORKLOADS

    path = run.ROOT / "BENCHMARK.json"
    if not path.is_file():
        problems.append(f"{path.name} is missing")
        return
    manifest = json.loads(path.read_text())
    declared = {
        "workloads": [w["name"] for w in manifest["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in manifest["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in manifest["per_layer"]},
    }
    printed = {"workloads": list(WORKLOADS), "end_to_end": run.END_TO_END, "per_layer": spans.PER_LAYER}
    for key, names in printed.items():
        if declared[key] != names:
            problems.append(f"BENCHMARK.json {key} differ from what run.py prints")


#: the caches that must be cleared before every operation
NAMED_CACHES = ("arith.power_residue_counts", "counting._power_sums",
                "counting._prime_mask_cached", "circle._v_weights")


def check_caches(problems: list[str]) -> None:
    found = {f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}" for fn in run.package_caches()}
    for name in NAMED_CACHES:
        if name not in found:
            problems.append(f"cache {name} is not cleared before each operation")


def main() -> int:
    if not run.bootstrap():
        print(f"error: no wgcircle source under {run.SRC}", file=sys.stderr)
        return 2
    problems: list[str] = []
    check_manifest(problems)
    check_caches(problems)
    for name, expected in EXPECTED_COUNTS.items():
        for seed in SEEDS:
            result, record = run.run_workload(name, seed, seconds=0, traced=True)
            if not result["correct"]:
                errors = [op["error"] for op in record["ops"] if op["error"] is not None]
                problems.append(f"{name} seed {seed}: operations failed: {errors}")
            for metric, count in expected.items():
                got = result["metrics"][metric]["value"]
                status = "ok" if got == count else "MISMATCH"
                print(f"{status:8s} {name} seed {seed}: {metric} = {got} (expected {count})", flush=True)
                if got != count:
                    problems.append(f"{name} seed {seed}: {metric} = {got}, expected {count}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
