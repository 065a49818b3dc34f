"""Timed loop of one workload, run in a fresh child process by run.py.

Calls ``dualdetect.cli.main(argv)`` in-process: one warm-up iteration,
excluded from timing, then timed iterations until ``--seconds`` have
passed and at least ``MIN_SAMPLES`` were taken. With ``--trace 1`` the
timed iterations alternate between untraced and traced (at least
``MIN_TRACED_PAIRS`` pairs), so the tracing overhead is measured on the
same process and inputs. Every iteration's outputs are checked. Writes
one JSON object to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

import dualdetect  # noqa: E402
from dualdetect import cli  # noqa: E402

from spans import Tracer, median_layers  # noqa: E402
from workloads import build_workloads, check_outputs  # noqa: E402

MIN_SAMPLES = 3
MIN_TRACED_PAIRS = 2


def run_command(main, argv: list[str]) -> tuple[float, object]:
    """Wall time and exit code of one CLI call, its console output discarded."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # the program failed: record it as a failed check
        code = traceback.format_exc(limit=3)
    return time.perf_counter() - start, code


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    workload = build_workloads(args.tiny)[args.workload]
    out_dir = args.out / "cli"
    argv = workload.argv(args.seed, out_dir)
    checks = {"attempted": 0, "failed": 0, "failures": {}}

    def record(name: str, ok: bool, detail: str) -> None:
        checks["attempted"] += 1
        if not ok:
            checks["failed"] += 1
            checks["failures"].setdefault(name, detail[:2000])

    def iteration(traced: bool) -> tuple[float, dict | None]:
        shutil.rmtree(out_dir, ignore_errors=True)
        layers = None
        if traced:
            tracer = Tracer()
            tracer.install()
            try:
                seconds, code = run_command(tracer.span("cli.main", cli.main), argv)
            finally:
                tracer.uninstall()
            layers = tracer.layer_metrics()
            layers["harness.csv_bytes"] = sum(
                p.stat().st_size for p in out_dir.glob("*.csv"))
        else:
            seconds, code = run_command(cli.main, argv)
        for check in check_outputs(workload, out_dir, code, args.seed):
            record(*check)
        return seconds, layers

    iteration(traced=False)  # warm-up, not timed
    untraced: list[float] = []
    traced: list[float] = []
    layer_runs: list[dict] = []
    min_samples = MIN_TRACED_PAIRS if args.trace else MIN_SAMPLES
    start = time.perf_counter()
    while len(untraced) < min_samples or time.perf_counter() - start < args.seconds:
        if args.trace:
            # Alternate which side goes first so drift affects both equally.
            for mode in ((False, True) if len(untraced) % 2 == 0 else (True, False)):
                seconds, layers = iteration(mode)
                if mode:
                    traced.append(seconds)
                    layer_runs.append(layers)
                else:
                    untraced.append(seconds)
        else:
            untraced.append(iteration(False)[0])

    result = {
        "samples": untraced,
        "checks": checks,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "dualdetect": dualdetect.__version__,
    }
    if args.trace:
        layers, unstable = median_layers(layer_runs)
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        items = layers["decision_rules.classify_observations.items"]
        record("exact_counts_repeat", not unstable,
               f"counts differing between iterations: {unstable}")
        record("sensor_rounds_match", items == workload.sensor_rounds,
               f"classified {items} observations, workload defines {workload.sensor_rounds}")
        result["traced_samples"] = traced
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
