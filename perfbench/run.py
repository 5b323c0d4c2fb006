"""wgcircle benchmark: seeded CLI workloads, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py                       # every workload, one process each
    python3 perfbench/run.py --workload series_euler --seed 3 --seconds 36 --trace 0

Run from the root of a checkout.  Each workload runs in a warm interpreter,
one `cli.main([...argv, "--out", file])` call at a time (closed loop, one
client, no extra threads), and every output is checked by an oracle outside
the timed section.  `--trace 0` reports the end-to-end metrics; `--trace 1`
runs each operation untraced and then traced and reports the per-layer
metrics from spans.  The last line of stdout is the JSON result.

The timed end-to-end metrics are host-normalized: each wall time is divided
by the host slowdown that `host_factor` measures next to it, so that a
host that slows down for minutes does not read as a slower program.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
DEFAULT_SECONDS = 36

END_TO_END = {"setup_s": "s", "op_s": "s", "work_per_s": "units/s", "peak_rss_mb": "MB"}


def bootstrap() -> bool:
    """Pin BLAS/OpenMP pools to one thread and import wgcircle from this checkout.

    Must run before numpy is imported.  False when the checkout has no source.
    """
    os.environ.update({var: "1" for var in THREAD_VARS})
    if not (SRC / "wgcircle" / "cli.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def time_import() -> float:
    """Wall seconds for a fresh interpreter to `import wgcircle.cli`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    # no timeout: with one, the wait polls and rounds times up to 50 ms steps
    subprocess.run([sys.executable, "-c", "import wgcircle.cli"], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def _python_kernel() -> None:
    acc = 0
    for i in range(750_000):
        acc += i * i % 7


def _fft_kernel() -> None:
    import numpy as np

    signal = np.ones(1 << 12, dtype=complex)
    for _ in range(1200):
        np.fft.fft(signal)


def _format_kernel() -> None:
    ",".join([repr(i * 0.7071) for i in range(110_000)])


def _memory_kernel() -> None:
    import numpy as np

    block = np.ones(1 << 21)
    for _ in range(40):
        block.copy()  # a fresh 16 MB array each time, page faults included


#: reference kernels, with the seconds each took at the usual speed of a
#: 2-vCPU Xeon at 2.0 GHz
GAUGE_KERNELS = ((_python_kernel, 0.09), (_fft_kernel, 0.09), (_format_kernel, 0.09),
                 (_memory_kernel, 0.09))


def host_factor() -> float:
    """Host slowdown now, from reference kernels that do not touch wgcircle.

    The host this benchmark was tuned on runs the same code up to 2x slower
    for minutes at a time.  This times a kernel of each kind of work that
    every workload does (an interpreted loop, FFTs, numbers written as text
    and fresh arrays filled) and returns the geometric mean of their times
    over the nominal ones: 1.0 at nominal speed, 1.3 when the host runs 30%
    slow.  A change to wgcircle cannot move it, so a wall time divided by the
    factor next to it still shows every change to the program.
    """
    log_sum = 0.0
    for kernel, nominal in GAUGE_KERNELS:
        start = time.perf_counter()
        kernel()
        log_sum += math.log((time.perf_counter() - start) / nominal)
    return math.exp(log_sum / len(GAUGE_KERNELS))


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def package_caches() -> list:
    """Every lru_cache in the package, found before any tracing wraps it."""
    from wgcircle import cli  # noqa: F401  imports every module that holds a cache

    caches = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("wgcircle."):
            continue
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == name:
                caches[id(obj)] = obj
    return list(caches.values())


class Outcome(NamedTuple):
    seconds: float
    payload: bytes | None
    error: str | None
    #: process peak when cli.main returned, before the output is read back
    peak_rss_mb: float


def call_cli(argv: list[str], out: Path, caches: list) -> Outcome:
    """One timed operation from a cold cache."""
    from wgcircle import cli

    for cache in caches:
        cache.cache_clear()  # a CLI user always starts cold
    out.unlink(missing_ok=True)
    gc.collect()
    start = time.perf_counter()
    try:
        code = cli.main(argv + ["--out", str(out)])
        error = None if code == 0 else f"exit code {code}"
    except SystemExit as exc:  # argparse rejects the argv
        error = f"exit code {exc.code}"
    except Exception as exc:  # the benchmark keeps running and counts the failure
        error = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Outcome(elapsed, None if error else out.read_bytes(), error, peak_mb)


def checked_call(workload, argv: list[str], out: Path, caches: list, rng: random.Random) -> Outcome:
    """`call_cli`, then the workload's oracle on the output, outside the timing."""
    outcome = call_cli(argv, out, caches)
    if outcome.error is None:
        try:
            error = workload.check(argv, outcome.payload, rng)
        except Exception as exc:  # a malformed output is a failed operation
            error = f"oracle raised {type(exc).__name__}: {exc}"
        outcome = outcome._replace(error=error)
    return outcome


def traced_call(tracer, op_id: int, argv: list[str], out: Path, caches: list,
                untraced: bytes | None) -> tuple[float, dict, str | None]:
    """The same operation under tracing: (seconds, layer values, error)."""
    import spans
    from wgcircle import arith

    with tracer.installed(), tracer.operation(op_id):
        elapsed, payload, error, _ = call_cli(argv, out, caches)
    info = arith.power_residue_counts.cache_info()
    lookups = info.hits + info.misses
    values = spans.op_layer_values(tracer, op_id, info.hits / lookups if lookups else 0.0)
    gap = abs(spans.self_time_sum(tracer, op_id) - elapsed)
    if error is None and untraced is not None and payload != untraced:
        error = "traced output bytes differ from the untraced output"
    elif error is None and gap > 1e-3 * elapsed + 1e-4:
        error = f"self times miss the traced wall time by {gap:.3g} s"
    elif error is None:
        error = spans.nesting_error(tracer, op_id)
    return elapsed, values, error


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, record of inputs and timings)."""
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    caches = package_caches()
    SCRATCH.mkdir(exist_ok=True)
    out = SCRATCH / f"out-{name}-{os.getpid()}"
    rng = random.Random(seed)
    tracer = spans.Tracer()
    ops = []
    untraced_s, traced_s, layer_values = [], [], []
    setup_s, factors = [], []
    if traced:
        # The first operation in a process runs slower; keep it out of the
        # traced/untraced comparison behind trace.overhead_frac.
        argv = workload.make_argv(rng)
        ops.append({"argv": argv, "warm_up": True,
                    "error": checked_call(workload, argv, out, caches, rng).error})
    else:
        time_import()  # the first import after a while reads from disk; discarded
    loop_start = time.perf_counter()
    iteration_s: list[float] = []
    # closed loop: start another operation only while it should end in time
    while not iteration_s or (time.perf_counter() - loop_start
                              + statistics.median(iteration_s)) <= seconds:
        begin = time.perf_counter()
        argv = workload.make_argv(rng)
        elapsed, payload, error, peak_mb = checked_call(workload, argv, out, caches, rng)
        ops.append({"argv": argv, "seconds": elapsed, "error": error, "peak_rss_mb": peak_mb})
        untraced_s.append(elapsed)
        if traced:
            t_elapsed, values, t_error = traced_call(tracer, len(traced_s), argv, out, caches, payload)
            ops.append({"argv": argv, "seconds": t_elapsed, "traced": True, "error": t_error})
            traced_s.append(t_elapsed)
            layer_values.append(values)
        else:
            # Set-up samples are spread through the run, after the first
            # operation has read its peak memory, each followed by a host factor.
            setup_s.append(time_import())
            factors.append(host_factor())
        iteration_s.append(time.perf_counter() - begin)
    out.unlink(missing_ok=True)

    failed = sum(op["error"] is not None for op in ops)
    if traced:
        tracer.write_jsonl(SCRATCH / f"spans-{name}-seed{seed}.jsonl")
        metrics = spans.layer_metrics(layer_values, traced_s, untraced_s)
    else:
        # Operation i ran between host factors i-1 and i.
        op_factors = [statistics.fmean(factors[max(i - 1, 0):i + 1]) for i in range(len(factors))]
        op_norm = [t / f for t, f in zip(untraced_s, op_factors)]
        metrics = {
            "setup_s": statistics.median(t / f for t, f in zip(setup_s, factors)),
            "op_s": statistics.median(op_norm),
            "work_per_s": workload.units_per_op * (len(ops) - failed) / sum(op_norm),
            # A CLI call runs one operation in a fresh process.  Later
            # operations here inherit glibc's raised mmap threshold and grow
            # the heap by up to 10%, by an amount that varies run to run.
            "peak_rss_mb": ops[0]["peak_rss_mb"],
        }
        metrics = {key: {"value": value, "unit": END_TO_END[key]} for key, value in metrics.items()}
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "work_unit": workload.work_unit, "units_per_op": workload.units_per_op,
        "error_rate": failed / len(ops), "setup_wall_s": setup_s, "host_factors": factors,
        "environment": environment(), "ops": ops,
    }
    return result, record


def print_report(name: str, result: dict, record: dict) -> None:
    print(json.dumps({"record": record}))
    for metric, entry in result["metrics"].items():
        print(f"{name:15s} {metric:40s} {entry['value']:.6g} {entry['unit']}")
    if record["host_factors"]:
        walls = [op["seconds"] for op in record["ops"]]
        print(f"{name:15s} {'op wall time (median, not normalized)':40s} {statistics.median(walls):.6g} s")
        print(f"{name:15s} {'set-up wall time (median, not normalized)':40s} "
              f"{statistics.median(record['setup_wall_s']):.6g} s")
        print(f"{name:15s} {'host slowdown factor (median)':40s} {statistics.median(record['host_factors']):.6g}")
    print(f"{name:15s} {'error_rate':40s} {record['error_rate']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for op in record["ops"]:
        if op["error"] is not None:
            print(f"{name}: {' '.join(op['argv'])}: {op['error']}", file=sys.stderr)


def run_all(args) -> int:
    """Each workload in its own process, in turn; prints every metric."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status or int(not combined["correct"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="series_euler, compare_sweep, dissect_ledger or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not bootstrap():
        print(f"error: no wgcircle source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(args.workload, result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
