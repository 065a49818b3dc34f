"""dualdetect benchmark: one workload per run, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload count-sweep --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see perfbench/README.md). Every child process
runs single-threaded with OMP/OPENBLAS/MKL_NUM_THREADS=1. Outputs and a
full record of the run go to ``.bench_out/<workload>/``. The last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed``
(output checks) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import layer_unit  # noqa: E402
from workloads import CONFIG, build_workloads  # noqa: E402

# (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("wall_s_tail", "s"),
    ("sensor_rounds_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("check_pass_ratio", "ratio"),
)
# Fresh interpreters timed for setup_s, each timing its own import and
# config load; the first is discarded because it may compile bytecode.
SETUP_RUNS = 11
SETUP_CODE = (
    "import sys, time; start = time.perf_counter(); sys.path.insert(0, 'src'); "
    "import dualdetect; from dualdetect.harness import load_config; "
    f"load_config({CONFIG!r}); print(time.perf_counter() - start)"
)
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With 20 samples or fewer that percentile is at or below the median,
    so the maximum (the 100th percentile) is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n > 2 * TAIL_BEYOND:
        return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return ordered[-1], 100.0


def source_fingerprint(root: Path) -> dict[str, object]:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (root / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    return {"git_sha": git_sha, "src_sha256": digest.hexdigest()}


def time_setup(env: dict[str, str]) -> list[float]:
    samples = []
    for _ in range(SETUP_RUNS):
        child = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                               capture_output=True, text=True, timeout=60)
        samples.append(float(child.stdout))
    return samples[1:]


def run_worker(args: argparse.Namespace, env: dict[str, str], out: Path) -> tuple[dict, float]:
    """The worker's JSON result and its peak RSS in MiB."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(out)]
    if args.tiny:
        argv.append("--tiny")
    result_path = out / "worker.json"
    with result_path.open("w") as sink:
        proc = subprocess.Popen(argv, env=env, stdout=sink)
        deadline = time.monotonic() + WORKER_TIMEOUT_S
        while True:
            # wait4 rather than wait: it returns this child's own rusage.
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S} s")
            time.sleep(0.05)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text().splitlines()[-1]), usage.ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(build_workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken sizes for the smoke test; skips the recorded-seed check")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "dualdetect" / "__init__.py").is_file() or not (root / CONFIG).is_file():
        print(f"error: {root} is not a dualdetect checkout (needs src/dualdetect and {CONFIG})",
              file=sys.stderr)
        return 2
    out = root / ".bench_out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, **THREAD_ENV}
    record: dict[str, object] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, **source_fingerprint(root),
        "nproc": len(os.sched_getaffinity(0)), "loadavg_at_start": os.getloadavg(),
    }

    try:
        setup = [] if args.trace else time_setup(env)
        worker, peak_rss_mb = run_worker(args, env, out)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checks = worker["checks"]
    samples = worker["samples"]
    wall_s = statistics.median(samples)
    tail_s, tail_pct = tail(samples)
    workload = build_workloads(args.tiny)[args.workload]
    record.update({k: worker[k] for k in ("python", "numpy", "dualdetect")})
    record.update(samples=samples, setup_samples=setup, checks=checks,
                  check_fail_ratio=checks["failed"] / checks["attempted"])

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"git={record['git_sha']} src={str(record['src_sha256'])[:12]} "
          f"python={record['python']} numpy={record['numpy']} "
          f"nproc={record['nproc']} load={record['loadavg_at_start']}")
    if args.trace:
        layers = worker["layers"]
        traced = statistics.median(worker["traced_samples"])
        print(f"tracing overhead = {traced - wall_s:.4f} s "
              f"(traced {traced:.4f} s vs untraced {wall_s:.4f} s, median of "
              f"{len(worker['traced_samples'])} and {len(samples)} samples)")
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_s,
            "wall_s_tail": tail_s,
            "sensor_rounds_per_s": workload.sensor_rounds / wall_s,
            "peak_rss_mb": peak_rss_mb,
            "check_pass_ratio": 1.0 - record["check_fail_ratio"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        note = (" (the maximum: with 20 samples or fewer, no percentile above the median"
                " has ten samples beyond it)" if tail_pct == 100.0 else "")
        print(f"wall_s = median of {len(samples)} samples; "
              f"wall_s_tail = p{tail_pct:.1f} of {len(samples)} samples{note}")
        print(f"setup_s = median of {len(setup)} fresh interpreters; "
              f"sensor_rounds_per_s = {workload.sensor_rounds} observations / wall_s")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"check_fail_ratio = {record['check_fail_ratio']:.6g} "
          f"({checks['failed']} of {checks['attempted']} checks failed)")
    for name, detail in checks["failures"].items():
        print(f"FAILED {name}: {detail}")
    record["metrics"] = metrics
    (out / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
