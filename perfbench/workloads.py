"""The benchmark's workloads and the checks on their outputs.

Every workload runs one ``dualdetect`` command on ``configs/experiment2.conf``
(200 sensors, 50 repetitions, p_f = 0.12, forced-change faults) with the
benchmark's seed passed through ``--seed``. ``tiny`` variants shrink the
sizes so the smoke test stays fast; they skip the recorded-seed comparison.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

CONFIG = "configs/experiment2.conf"
CONFIG_SENSORS = 200
CONFIG_REPETITIONS = 50

# Outputs under perfbench/reference/ were captured with this seed.
RECORDED_SEED = 1
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SWEEP_HEADER = ["param", "ld_bf", "fd_bf", "ld_af", "fd_af", "lambda1", "lambda2"]
SUMMARY_PERCENT_FILES = {
    "local_error_percent": "local_decisions.csv",
    "final_error_percent": "final_decisions.csv",
    "local_error_faulty_percent": "local_decisions_faulty.csv",
    "final_error_faulty_percent": "final_decisions_faulty.csv",
}
BIG_FIELD_LAMBDAS = ("0.9504", "1.7231")

# Recorded values must match to this relative tolerance: loose enough for
# a reordered float sum, tight enough that one flipped decision shows.
REFERENCE_REL_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]
    sensors_per_cell: tuple[int, ...]
    repetitions: int
    labels: tuple[str, ...] = ()
    tiny: bool = False

    @property
    def is_sweep(self) -> bool:
        return self.command[0] == "sweep"

    @property
    def sensor_rounds(self) -> int:
        """Simulated sensor observations in one run of the command."""
        return self.repetitions * sum(self.sensors_per_cell)

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        out = ["--output", str(out_dir / "sweep.csv")] if self.is_sweep else [
            "--output-dir", str(out_dir)]
        sizes = ["--repetitions", str(self.repetitions)] if self.tiny else []
        return [*self.command, "--config", CONFIG, "--seed", str(seed), *sizes, *out]


def _sweep(name: str, param: str, values: list[str], sensors: list[int],
           repetitions: int, tiny: bool) -> Workload:
    labels = tuple(repr(float(v)) if param == "p_f" else v for v in values)
    return Workload(
        name=name,
        command=("sweep", "--param", param, "--values", ",".join(values)),
        sensors_per_cell=tuple(sensors),
        repetitions=repetitions,
        labels=labels,
        tiny=tiny,
    )


def build_workloads(tiny: bool = False) -> dict[str, Workload]:
    reps = 2 if tiny else CONFIG_REPETITIONS
    pf_values = ["0.12"] if tiny else ["0.12", "0.24", "0.36"]
    counts = [20, 40] if tiny else [200, 400, 700, 1000]
    big = 300 if tiny else 4000
    workloads = [
        _sweep("pf-sweep", "p_f", pf_values, [CONFIG_SENSORS] * len(pf_values), reps, tiny),
        _sweep("count-sweep", "sensor_count", [str(c) for c in counts], counts, reps, tiny),
        Workload(
            name="big-field",
            command=("simulate", "--sensor-count", str(big),
                     "--lambda1", BIG_FIELD_LAMBDAS[0], "--lambda2", BIG_FIELD_LAMBDAS[1]),
            sensors_per_cell=(big,),
            repetitions=1,
            tiny=tiny,
        ),
    ]
    return {w.name: w for w in workloads}


# ---------------------------------------------------------------------------
# output checks: each returns (check name, passed, detail)

Check = tuple[str, bool, str]


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="") as handle:
        return list(csv.reader(handle))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REFERENCE_REL_TOL, abs_tol=1e-9)


def _check_sweep(workload: Workload, out_dir: Path, compare: bool) -> list[Check]:
    path = out_dir / "sweep.csv"
    if not path.is_file():
        return [("sweep_csv", False, f"{path} missing")]
    rows = _read_csv(path)
    labels = tuple(row[0] for row in rows[1:])
    shape_ok = (rows[:1] == [SWEEP_HEADER] and labels == workload.labels
                and all(len(row) == len(SWEEP_HEADER) for row in rows[1:]))
    checks: list[Check] = [("sweep_rows", shape_ok, f"header {rows[:1]}, labels {labels}")]
    if not shape_ok:
        return checks
    values = [[float(v) for v in row[1:]] for row in rows[1:]]
    percents = [v for row in values for v in row[:4]]
    lambdas = [v for row in values for v in row[4:]]
    checks.append(("sweep_percent_range", all(0.0 <= p <= 100.0 for p in percents),
                   f"percentages {percents}"))
    checks.append(("sweep_lambda_positive",
                   all(math.isfinite(x) and x > 0.0 for x in lambdas), f"lambdas {lambdas}"))
    if compare:
        reference = _read_csv(REFERENCE_DIR / f"{workload.name}.csv")
        ref_values = [[float(v) for v in row[1:]] for row in reference[1:]]
        same = (rows[0] == reference[0] and [r[0] for r in reference[1:]] == list(labels)
                and all(_close(a, b) for got, ref in zip(values, ref_values)
                        for a, b in zip(got, ref)))
        checks.append(("sweep_matches_reference", same, f"got {values}, recorded {ref_values}"))
    return checks


def _error_percent(rows: list[list[str]]) -> float:
    wrong = sum(1 for row in rows if row[2] != row[3])
    return 100.0 * wrong / len(rows)


def _check_simulate(workload: Workload, out_dir: Path, compare: bool) -> list[Check]:
    path = out_dir / "summary.csv"
    if not path.is_file():
        return [("summary_csv", False, f"{path} missing")]
    summary = {row[0]: row[1] for row in _read_csv(path)[1:]}
    fixed = (summary.get("thresholds_from_optimizer") == "0"
             and (summary.get("lambda1"), summary.get("lambda2")) == BIG_FIELD_LAMBDAS)
    checks: list[Check] = [("summary_fixed_thresholds", fixed, f"summary {summary}")]
    sensors = workload.sensors_per_cell[0]
    for key, name in SUMMARY_PERCENT_FILES.items():
        scatter = out_dir / name
        if not scatter.is_file() or key not in summary:
            checks.append((f"{name}_recomputes", False, f"{scatter} or {key} missing"))
            continue
        rows = _read_csv(scatter)[1:]
        recomputed = _error_percent(rows)
        ok = len(rows) == sensors and math.isclose(recomputed, float(summary[key]),
                                                   rel_tol=1e-12, abs_tol=1e-12)
        checks.append((f"{name}_recomputes", ok,
                       f"{len(rows)} rows, recomputed {recomputed}, summary {summary[key]}"))
        if name == "local_decisions_faulty.csv":
            flagged = sum(1 for row in rows if row[4] == "1")
            checks.append(("fault_count_recomputes", str(flagged) == summary.get("fault_count"),
                           f"flagged {flagged}, summary {summary.get('fault_count')}"))
    if compare:
        reference = {row[0]: row[1] for row in _read_csv(REFERENCE_DIR / f"{workload.name}.csv")[1:]}
        same = summary.keys() == reference.keys() and all(
            _close(float(summary[k]), float(v)) if _is_number(v) else summary[k] == v
            for k, v in reference.items()
        )
        checks.append(("summary_matches_reference", same, f"got {summary}, recorded {reference}"))
    return checks


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def check_outputs(workload: Workload, out_dir: Path, exit_code: object, seed: int) -> list[Check]:
    """Every check on one command's exit code and output files."""
    checks: list[Check] = [("exit_code", exit_code == 0, f"exit code {exit_code!r}")]
    compare = seed == RECORDED_SEED and not workload.tiny
    try:
        if workload.is_sweep:
            checks += _check_sweep(workload, out_dir, compare)
        else:
            checks += _check_simulate(workload, out_dir, compare)
    except (ValueError, IndexError) as exc:
        checks.append(("outputs_parse", False, f"malformed output: {exc!r}"))
    return checks
