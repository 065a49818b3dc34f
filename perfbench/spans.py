"""In-memory span tracing of the dualdetect layers, from outside the package.

Each traced function is replaced, for the duration of one traced
iteration, by a wrapper in every module namespace where a caller looks
it up (``from .fusion import fusion_quality`` binds a name in the
caller's module, so patching ``dualdetect.fusion`` alone would miss the
optimizer's calls). A function or site that is absent, or bound to
another object, is left alone, so its count reads 0 rather than failing
the run.

A span is ``(name, start, end, parent index)``. Self time is a span's
duration minus the durations of its direct children; calls are
sequential, so children never overlap.
"""

from __future__ import annotations

import importlib
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from typing import Callable

# (span name, defining module, function, modules whose binding is patched)
SPAN_SITES = (
    ("harness.load_config", "harness", "load_config", ("cli",)),
    ("harness.run_single", "harness", "run_single", ("cli",)),
    ("harness.run_sweep", "harness", "run_sweep", ("cli",)),
    ("optimize.minimize_error", "optimize", "minimize_error", ("cli", "harness")),
    ("fusion.prob_error_faulty", "fusion", "prob_error_faulty", ("optimize",)),
    ("fusion.fusion_quality", "fusion", "fusion_quality", ("optimize", "fusion")),
    ("fusion.fault_adjust", "fusion", "fault_adjust", ("fusion",)),
    ("decision_rules.local_metrics", "decision_rules", "local_metrics", ("optimize", "fusion")),
    ("decision_rules.gammas_from_lambdas", "decision_rules", "gammas_from_lambdas",
     ("optimize", "fusion", "harness")),
    ("decision_rules.classify_observations", "decision_rules", "classify_observations",
     ("simulator",)),
    ("simulator.generate_field", "simulator", "generate_field", ("harness",)),
    ("simulator.run_detection", "simulator", "run_detection", ("harness",)),
    ("simulator.fuse_decisions", "simulator", "fuse_decisions", ("simulator",)),
)
# Called tens of thousands of times per iteration: counted, not timed.
COUNT_SITES = (
    ("signal_model.normal_cdf", "signal_model", "normal_cdf", ("decision_rules",)),
)

MB = float(1 << 20)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MiB"),
                         ("_ratio", "ratio"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


class Tracer:
    """Patches the layer functions, records spans and counts, restores."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._seen_optimizations: set[object] = set()
        self._peak_alloc = 0

    # -- recording ---------------------------------------------------

    def span(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted_call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted_call

    def _after_minimize(self, args, kwargs, result) -> None:
        key = (args, tuple(sorted(kwargs.items())))
        if key in self._seen_optimizations:
            self.counts["optimize.repeats"] += 1
        self._seen_optimizations.add(key)
        self.counts["optimize.evaluations"] += result.evaluations
        self.counts["optimize.converged"] += bool(result.converged)

    def _after_generate(self, args, kwargs, result) -> None:
        self.counts["simulator.generate_field.sensors"] += result.positions.shape[0]

    def _after_detection(self, args, kwargs, result) -> None:
        self.counts["simulator.faults_injected"] += result.fault_count

    def _after_classify(self, args, kwargs, result) -> None:
        self.counts["decision_rules.classify_observations.items"] += result.size

    def _with_alloc_peak(self, fn: Callable) -> Callable:
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self._peak_alloc = max(self._peak_alloc, peak)

        return measured

    # -- patching ----------------------------------------------------

    def install(self) -> None:
        """Wrap every site; :meth:`uninstall` puts the originals back."""
        after = {
            "optimize.minimize_error": self._after_minimize,
            "simulator.generate_field": self._after_generate,
            "simulator.run_detection": self._after_detection,
            "decision_rules.classify_observations": self._after_classify,
        }
        sites = [(s, True) for s in SPAN_SITES] + [(s, False) for s in COUNT_SITES]
        for (name, home, attr, callers), timed in sites:
            original = getattr(importlib.import_module(f"dualdetect.{home}"), attr, None)
            if original is None:
                continue
            if not timed:
                wrapper = self.counted(name, original)
            elif name == "simulator.generate_field":
                wrapper = self.span(name, self._with_alloc_peak(original), after[name])
            else:
                wrapper = self.span(name, original, after.get(name))
            for caller in callers:
                module = importlib.import_module(f"dualdetect.{caller}")
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- aggregation -------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since construction."""
        calls: Counter[str] = Counter()
        busy: defaultdict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _), inside in zip(self.spans, child):
            self_s[name] += (end - start) - inside

        def layer(name: str, *fields: str) -> dict[str, float]:
            values = {"calls": calls[name], "busy_s": busy[name], "self_s": self_s[name]}
            return {f"{name}.{f}": values[f] for f in fields}

        c = self.counts
        opt_calls = calls["optimize.minimize_error"]
        opt_busy = busy["optimize.minimize_error"]
        return {
            **layer("optimize.minimize_error", "calls", "busy_s", "self_s"),
            "optimize.evaluations": c["optimize.evaluations"],
            "optimize.evals_per_s": c["optimize.evaluations"] / opt_busy if opt_busy else 0.0,
            "optimize.converged_ratio": c["optimize.converged"] / opt_calls if opt_calls else 0.0,
            "optimize.repeat_ratio": c["optimize.repeats"] / opt_calls if opt_calls else 0.0,
            **layer("fusion.fusion_quality", "calls", "busy_s"),
            **layer("fusion.fault_adjust", "calls", "busy_s"),
            **layer("fusion.prob_error_faulty", "self_s"),
            **layer("decision_rules.local_metrics", "calls", "busy_s"),
            **layer("decision_rules.gammas_from_lambdas", "calls", "busy_s"),
            **layer("decision_rules.classify_observations", "calls", "busy_s"),
            "decision_rules.classify_observations.items":
                c["decision_rules.classify_observations.items"],
            "signal_model.normal_cdf.calls": c["signal_model.normal_cdf"],
            **layer("simulator.generate_field", "calls", "busy_s"),
            "simulator.generate_field.sensors": c["simulator.generate_field.sensors"],
            "simulator.generate_field.peak_alloc_mb": self._peak_alloc / MB,
            **layer("simulator.run_detection", "calls", "busy_s", "self_s"),
            **layer("simulator.fuse_decisions", "calls", "busy_s"),
            "simulator.faults_injected": c["simulator.faults_injected"],
            **layer("harness.load_config", "busy_s"),
            **layer("harness.run_single", "self_s"),
            **layer("harness.run_sweep", "self_s"),
            **layer("cli.main", "self_s"),
        }


def median_layers(iterations: list[dict[str, float]]) -> tuple[dict, list[str]]:
    """Median of each metric over traced iterations, and the unstable counts.

    Counts, and the ratios of counts, must repeat exactly: they take the
    first iteration's value and are returned as unstable if any
    iteration differed.
    """
    medians, unstable = {}, []
    for name in iterations[0]:
        values = [it[name] for it in iterations]
        if layer_unit(name) in ("count", "bytes", "ratio"):
            medians[name] = values[0]
            if len(set(values)) > 1:
                unstable.append(name)
        else:
            medians[name] = statistics.median(values)
    return medians, unstable
