"""Span tracing of wgcircle from outside the package.

`Tracer.installed()` replaces every public function of the traced modules,
and the public methods of `circle.ArcUnion`, with a wrapper that records a
span (name, start, end, parent, operation id).  A function imported by name
into another module (`from .arith import mp_count`) is a second binding of
the same object, so the wrapper is installed in every wgcircle module that
holds it; patching only the defining module would miss those call sites.
Leaving the block restores the original objects, so untraced operations in
the same process run the unmodified code.

Spans stay in memory; `write_jsonl` writes them out at the end of a run.
`op_layer_values` reduces one operation's spans to the per-layer metrics and
`layer_metrics` combines the operations of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

TRACED_MODULES = ("cli", "serialize", "counting", "series", "convolve", "arith", "circle")

#: Per-layer metrics reported by a traced run, with their units.  Names are
#: `<module>.<function>.<stat>`: `s` inclusive seconds, `self_s` seconds not
#: covered by child spans, `calls` a count.  The rest are counted from call
#: results (`_result_counts`) or derived in `op_layer_values` and
#: `layer_metrics`.
PER_LAYER = {
    "convolve.kronecker_convolve.s": "s",
    "convolve.kronecker_convolve.calls": "count",
    "convolve.cyclic_power.self_s": "s",
    "convolve.cyclic_convolve_big.self_s": "s",
    "arith.mp_count.self_s": "s",
    "arith.power_residue_counts.hit_ratio": "ratio",
    "convolve.fft_convolve_checked.s": "s",
    "convolve.fft_convolve_checked.calls": "count",
    "convolve.convolve_exact.calls": "count",
    "convolve.float_reject_ratio": "ratio",
    "series.s_n_q.s": "s",
    "series.s_n_q.calls": "count",
    "series.chi_p.self_s": "s",
    "series.euler_product.self_s": "s",
    "series.series_partial.self_s": "s",
    "series.route_gap_max": "abs",
    "arith.gauss_sums_all.s": "s",
    "arith.arith_tables.s": "s",
    "series.singular_series_many.s": "s",
    "counting.count_range.self_s": "s",
    "counting.compare_report.self_s": "s",
    "serialize.serialize.s": "s",
    "serialize.bytes": "bytes",
    "circle.major_arcs.s": "s",
    "circle.major_arcs.calls": "count",
    "circle.arc_count": "count",
    "circle.ArcUnion.complement.s": "s",
    "circle.ArcUnion.difference.s": "s",
    "circle.ArcUnion.measure.s": "s",
    "circle.ArcUnion.grid_mask.s": "s",
    "circle.ArcUnion.grid_mask.calls": "count",
    "circle.level_partition.self_s": "s",
    "circle.f_envelope_constant.s": "s",
    "circle.dyadic_band_cover.s": "s",
    "circle.dissection_ledger.self_s": "s",
    "circle.evaluate_on_grid.s": "s",
    "circle.evaluate_on_grid.calls": "count",
    "circle.evaluate_on_grid.bytes": "bytes",
    "circle.build_f_spectrum.self_s": "s",
    "circle.build_g_spectrum.self_s": "s",
    "arith.smooth_set.s": "s",
    "arith.sieve_primes.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}


#: Counts kept as a running maximum rather than a sum.
_MAX_COUNTS = {"series.route_gap_max"}


def _result_counts(name: str, result) -> dict[str, float]:
    """Counts taken from a traced call's result."""
    if name == "circle.major_arcs":
        return {"circle.arc_count": len(result.intervals)}
    if name == "circle.evaluate_on_grid":
        return {"circle.evaluate_on_grid.bytes": result.nbytes}
    if name == "serialize.serialize":
        return {"serialize.bytes": len(result)}
    if name == "convolve.fft_convolve_checked":
        return {"convolve.fft_rejected": int(result is None)}
    if name == "series.chi_p":
        return {"series.route_gap_max": abs(result.chi_via_snp - result.chi_via_mp)}
    return {}


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Records spans of wgcircle calls; one instance per benchmark run."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []
        self._active: set[str] = set()
        self._op = -1

    def _wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A re-entry (round_floats recursing) folds into the outer span,
            # so inclusive times never count the same interval twice.
            if name in active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            spans.append(span)
            stack.append(idx)
            active.add(name)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                active.discard(name)
            op_counts = self.counts.setdefault(self._op, {})
            for key, value in _result_counts(name, result).items():
                if key in _MAX_COUNTS:
                    op_counts[key] = max(op_counts.get(key, 0.0), value)
                else:
                    op_counts[key] = op_counts.get(key, 0) + value
            return result

        return traced

    def _targets(self):
        """(owner, attribute, original) for every binding to be wrapped."""
        modules = [importlib.import_module(f"wgcircle.{m}") for m in TRACED_MODULES]
        originals = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj) and not inspect.isclass(obj)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    originals[id(obj)] = (f"{_short(mod.__name__)}.{attr}", obj)
        bindings = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "wgcircle" or mod_name.startswith("wgcircle.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][1] is obj:
                    bindings.append((mod, attr, originals[id(obj)]))
        arc_union = importlib.import_module("wgcircle.circle").ArcUnion
        for attr, obj in list(vars(arc_union).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                bindings.append((arc_union, attr, (f"circle.ArcUnion.{attr}", obj)))
        return bindings

    @contextmanager
    def installed(self):
        bindings = self._targets()
        wrappers = {}
        for owner, attr, (name, fn) in bindings:
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(name, fn)
            setattr(owner, attr, wrappers[id(fn)])
        try:
            yield
        finally:
            for owner, attr, (_, fn) in bindings:
                setattr(owner, attr, fn)

    @contextmanager
    def operation(self, op_id: int):
        """Tag the spans recorded inside the block with ``op_id``."""
        self._op = op_id
        try:
            yield
        finally:
            self._op = -1

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")


def span_totals(tracer: Tracer, op_id: int) -> dict[str, float]:
    """`<name>.s`, `<name>.self_s` and `<name>.calls` over one operation."""
    child_time: dict[int, float] = {}
    indexed = [(i, s) for i, s in enumerate(tracer.spans) if s[4] == op_id]
    for _, (_, start, end, parent, _) in indexed:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals: dict[str, float] = {}
    for i, (name, start, end, _, _) in indexed:
        duration = end - start
        totals[f"{name}.s"] = totals.get(f"{name}.s", 0.0) + duration
        totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + duration - child_time.get(i, 0.0)
        totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
    return totals


def self_time_sum(tracer: Tracer, op_id: int) -> float:
    """Sum of self times over one operation.

    Summed over every span, the self times collapse to the root span's
    duration, so comparing this with the traced wall time checks that the
    root span covers the timed call; `nesting_error` checks the tree itself.
    """
    totals = span_totals(tracer, op_id)
    return sum(v for k, v in totals.items() if k.endswith(".self_s"))


def nesting_error(tracer: Tracer, op_id: int) -> str | None:
    """A span of the operation outside its parent's interval, or with negative self time."""
    child_time: dict[int, float] = {}
    spans = tracer.spans
    for name, start, end, parent, op in spans:
        if op != op_id or parent < 0:
            continue
        _, p_start, p_end, _, p_op = spans[parent]
        if p_op != op_id or not p_start <= start <= end <= p_end:
            return f"span {name} lies outside its parent {spans[parent][0]}"
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    for i, duration in child_time.items():
        _, start, end = spans[i][:3]
        if duration > end - start:
            return f"children of span {spans[i][0]} cover more than its duration"
    return None


def op_layer_values(tracer: Tracer, op_id: int, hit_ratio: float) -> dict[str, float]:
    """Every per-layer metric except the overhead, for one traced operation."""
    totals = span_totals(tracer, op_id)
    counts = tracer.counts.get(op_id, {})
    fft_calls = totals.get("convolve.fft_convolve_checked.calls", 0)
    derived = {
        "arith.power_residue_counts.hit_ratio": hit_ratio,
        "convolve.float_reject_ratio": counts.get("convolve.fft_rejected", 0) / fft_calls if fft_calls else 0.0,
    }
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead_frac":
            continue
        out[name] = derived.get(name, counts.get(name, totals.get(name, 0)))
    return out


def layer_metrics(per_op: list[dict[str, float]], traced_s: list[float], untraced_s: list[float]) -> dict:
    """Medians over operations (the route gap is a max), plus tracing overhead."""
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_frac":
            value = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
        elif name == "series.route_gap_max":
            value = max(op[name] for op in per_op)
        else:
            value = statistics.median(op[name] for op in per_op)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
