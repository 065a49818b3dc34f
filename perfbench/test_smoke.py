"""Fast smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import RECORDED_SEED, REFERENCE_DIR, build_workloads, check_outputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(
    "workload, trace",
    [("pf-sweep", 0), ("count-sweep", 0), ("big-field", 0), ("count-sweep", 1)],
)
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in declared}


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(build_workloads())


def test_recorded_seed_check_catches_a_changed_value(tmp_path):
    workload = build_workloads()["pf-sweep"]
    rows = (REFERENCE_DIR / "pf-sweep.csv").read_text().splitlines()
    (tmp_path / "sweep.csv").write_text("\n".join(rows) + "\n")
    assert all(ok for _, ok, _ in check_outputs(workload, tmp_path, 0, RECORDED_SEED))
    fields = rows[1].split(",")
    fields[2] = repr(float(fields[2]) + 0.01)
    rows[1] = ",".join(fields)
    (tmp_path / "sweep.csv").write_text("\n".join(rows) + "\n")
    failed = [name for name, ok, _ in check_outputs(workload, tmp_path, 0, RECORDED_SEED) if not ok]
    assert failed == ["sweep_matches_reference"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "pf-sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
