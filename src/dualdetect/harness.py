"""Experiment harness: configs, seeded runs, sweeps, CSV artifacts.

Configuration files are flat ``key = value`` text with ``#`` comments.
Every key can also be supplied (and overridden) on the command line.
A single run writes per-sensor scatter CSVs plus a summary; a sweep
varies one parameter, optimizes the likelihood thresholds once per
distinct objective among its values, averages the error rates over
seeded repetitions, and writes one CSV row per value.
"""

from __future__ import annotations

import hashlib
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .decision_rules import LikelihoodThresholds, ObservationThresholds, gammas_from_lambdas
from .fusion import FaultModel
from .optimize import OptimizationResult, minimize_error
from .signal_model import CODES, Priors, SignalModel
from .simulator import (
    FaultSpec,
    FieldConfig,
    Rectangle,
    RunResult,
    SensorField,
    generate_field,
    run_detection,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SingleRunArtifacts",
    "SweepRow",
    "SweepSummary",
    "load_config",
    "parse_config_text",
    "run_single",
    "run_sweep",
]

# Each sweep parameter names the config keys one '/'-separated value sets.
_SWEEP_KEYS = {
    "p_f": ("p_f",), "nk": ("neighborhood_size", "quorum"),
    "sensor_count": ("sensor_count",),
    "means": ("m0", "m1", "m2"), "priors": ("q0", "q1", "q2"),
}
SWEEP_PARAMS = tuple(_SWEEP_KEYS)
SCATTER_CSV_HEADER = "x,y,truth,decision,faulty"
SWEEP_CSV_HEADER = "param,ld_bf,fd_bf,ld_af,fd_af,lambda1,lambda2"
# Each decision layer's scatter file and summary.csv error key, in
# RunResult.layers order.
_SCATTER_FILES = ("local_decisions.csv", "final_decisions.csv",
                  "local_decisions_faulty.csv", "final_decisions_faulty.csv")
_ERROR_KEYS = ("local_error_percent", "final_error_percent",
               "local_error_faulty_percent", "final_error_faulty_percent")
# Sensors one batch of a sweep cell's realizations stacks: enough to share
# a neighbour search's fixed cost over many small fields, while a batch's
# arrays stay a few MiB.
_BATCH_SENSORS = 2**13


class ConfigError(ValueError):
    """Invalid configuration file, key, or value (CLI exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig(FieldConfig):
    """One experiment's complete parameter set.

    The first eight fields are the field's (``FieldConfig``, whose
    defaults are the reference field), so the simulator reads this
    config directly. The rest default to means (0, 3, 6) and priors
    (0.59, 0.25, 0.16) without faults. Building one, directly or through
    ``dataclasses.replace``, raises ConfigError on a bad value.
    """

    m0: float = 0.0
    m1: float = 3.0
    m2: float = 6.0
    q0: float = 0.59
    q1: float = 0.25
    q2: float = 0.16
    p_f: float = 0.0
    alphas: tuple[float, float, float, float, float, float] | None = None
    fault_mode: str = "forced-change"
    seed: int = 1
    repetitions: int = 50
    lambda1: float | None = None
    lambda2: float | None = None

    def __post_init__(self) -> None:
        """Run every derived constructor so a bad value fails here."""
        try:
            self.signal_model()
            self.priors()
            super().__post_init__()
            # A zero fault model stands in so fault_mode is checked without faults.
            FaultSpec(self.fault_model() or FaultModel.uniform_split(0.0), self.fault_mode)
            if self.alphas is not None and self.p_f != 0.0:
                raise ConfigError("give either p_f or alphas, not both")
            self.threshold_override()
            if self.repetitions < 1:
                raise ConfigError(f"repetitions must be positive, got {self.repetitions}")
            if self.seed < 0:
                raise ConfigError(f"seed must not be negative, got {self.seed}")
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc

    # -- derived building blocks -------------------------------------

    def signal_model(self) -> SignalModel:
        return SignalModel(self.m0, self.m1, self.m2)

    def priors(self) -> Priors:
        return Priors(self.q0, self.q1, self.q2)

    def fault_model(self) -> FaultModel | None:
        if self.alphas is not None:
            return FaultModel(*self.alphas)
        # Any nonzero p_f, negative or NaN included, reaches the range check.
        if self.p_f != 0.0:
            return FaultModel.uniform_split(self.p_f)
        return None

    def fault_spec(self) -> FaultSpec | None:
        model = self.fault_model()
        return None if model is None else FaultSpec(model, self.fault_mode)

    def threshold_override(self) -> LikelihoodThresholds | None:
        given = (self.lambda1 is not None, self.lambda2 is not None)
        if all(given):
            return LikelihoodThresholds(self.lambda1, self.lambda2)
        if any(given):
            raise ConfigError("lambda1 and lambda2 must be given together")
        return None

    def objective(self) -> tuple:
        """Everything the threshold search depends on, in its argument order."""
        return (self.signal_model(), self.priors(), self.fusion_params(), self.fault_model())


# ---------------------------------------------------------------------------
# config keys: one string parser per ExperimentConfig field, shared by the
# file parser and the command line

_BOOL_VALUES = {"true": True, "false": False, "yes": True, "no": False,
                "1": True, "0": False}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOL_VALUES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {raw!r}") from None


def _parse_floats(count: int, raw: str) -> tuple[float, ...]:
    parts = raw.split(",")
    if len(parts) != count:
        raise ValueError(f"expected {count} comma-separated numbers, got {raw!r}")
    return tuple(float(p) for p in parts)


def _parse_region(raw: str) -> Rectangle:
    return Rectangle(*_parse_floats(4, raw))


CONFIG_KEYS = {
    "width": float, "height": float, "sensor_count": int,
    "event1_region": _parse_region, "event2_region": _parse_region,
    "neighborhood_size": int, "quorum": int, "include_self": _parse_bool,
    "m0": float, "m1": float, "m2": float,
    "q0": float, "q1": float, "q2": float,
    "p_f": float, "alphas": partial(_parse_floats, 6), "fault_mode": str,
    "seed": int, "repetitions": int,
    "lambda1": float, "lambda2": float,
}


def parse_value(key: str, raw: str, where: str) -> object:
    """Parse one raw string with ``key``'s parser; ``where`` prefixes errors."""
    try:
        return CONFIG_KEYS[key](raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from None


def parse_config_text(text: str, source: str = "<config>") -> dict[str, object]:
    """Parse flat ``key = value`` lines into typed values."""
    values: dict[str, object] = {}
    set_on: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {raw_line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(f"{where}: {key} already set on line {set_on[key]}")
        set_on[key] = lineno
        values[key] = parse_value(key, raw, where)
    return values


def load_config(
    path: str | Path | None, overrides: dict[str, object] | None = None
) -> ExperimentConfig:
    """Build a config from an optional file plus override values."""
    values: dict[str, object] = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        values.update(parse_config_text(text, source=str(path)))
    if overrides:
        values.update(overrides)
    unknown = values.keys() - CONFIG_KEYS.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**values)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# single runs

@dataclass(frozen=True)
class SingleRunArtifacts:
    """Paths and headline numbers produced by one `simulate` call."""

    thresholds: LikelihoodThresholds
    optimization: OptimizationResult | None
    result: RunResult
    summary: dict[str, object]
    paths: tuple[Path, ...]


@dataclass(frozen=True)
class _Cell:
    """A config with its thresholds, their search (None under an override) and detection inputs."""

    config: ExperimentConfig
    thresholds: LikelihoodThresholds
    optimization: OptimizationResult | None
    model: SignalModel
    gammas: ObservationThresholds
    spec: FaultSpec | None

    def realize(self, rngs: list[np.random.Generator]) -> RunResult:
        """Run detection on one stacked field, one realization per generator."""
        field = generate_field(self.config, rngs)
        return run_detection(field, self.model, self.gammas, self.spec, rngs)


def _cell(config: ExperimentConfig, searches: dict[tuple, OptimizationResult]) -> _Cell:
    """``config``'s cell; ``searches`` maps objectives to searches, and an override runs none."""
    thresholds, optimization = config.threshold_override(), None
    if thresholds is None:
        objective = config.objective()
        if objective not in searches:
            searches[objective] = minimize_error(*objective)
        optimization = searches[objective]
        thresholds = optimization.thresholds
    model = config.signal_model()
    return _Cell(config, thresholds, optimization, model,
                 gammas_from_lambdas(model, thresholds), config.fault_spec())


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def _write_csv(path: Path, header: str, rows: list[list[object]]) -> None:
    lines = [header]
    lines.extend(",".join(_format_value(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def make_output_dir(path: Path) -> Path:
    """Create directory ``path`` and its parents, or raise ConfigError."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from None
    return path


# The "decision,faulty\n" end of a scatter row, at 2 * (code % 3) + faulty.
_SCATTER_SUFFIXES = np.array(
    [f"{code},{flag}\n" for code in CODES for flag in (0, 1)], dtype=object
)
# Rows formatted at a time: a block's strings take a few MiB, so the
# writer's memory follows the field's arrays, not the text.
_SCATTER_BLOCK_ROWS = 2**16


def _write_scatter(
    out: Path, field: SensorField, files: list[tuple[str, np.ndarray, np.ndarray]]
) -> list[Path]:
    """Write one x,y,truth,decision,faulty CSV per (name, decisions, flags).

    Rows go out in blocks of ``_SCATTER_BLOCK_ROWS``, appended to every
    file in turn. The files share x, y and truth, so a block's row
    prefixes are formatted once, into the even slots of a list of parts;
    each file fills the odd slots with its row ends and writes the
    joined block. Python floats' repr is the shortest string that reads
    back exactly.
    """
    paths = [out / name for name, _, _ in files]
    positions, truth = field.positions, field.truth
    with ExitStack() as stack:
        handles = [stack.enter_context(path.open("w")) for path in paths]
        for handle in handles:
            handle.write(f"{SCATTER_CSV_HEADER}\n")
        for a in range(0, truth.size, _SCATTER_BLOCK_ROWS):
            b = a + _SCATTER_BLOCK_ROWS
            parts = [""] * (2 * truth[a:b].size)
            parts[::2] = [
                f"{x!r},{y!r},{t},"
                for x, y, t in zip(
                    positions[a:b, 0].tolist(), positions[a:b, 1].tolist(), truth[a:b].tolist()
                )
            ]
            for handle, (_, decisions, flags) in zip(handles, files):
                parts[1::2] = _SCATTER_SUFFIXES[2 * (decisions[a:b] % 3) + flags[a:b]].tolist()
                handle.write("".join(parts))
    return paths


def run_single(config: ExperimentConfig, output_dir: str | Path) -> SingleRunArtifacts:
    """Run one seeded simulation and write its scatter + summary CSVs into ``output_dir``.

    Scatter files pair the decision layer (local/final) with the fault
    stage (clean always; faulty only when faults are configured). Every
    error percentage in the summary is recomputable from the matching
    scatter file.
    """
    out = make_output_dir(Path(output_dir))

    cell = _cell(config, {})
    result = cell.realize([np.random.default_rng(config.seed)])
    thresholds, optimization, spec = cell.thresholds, cell.optimization, cell.spec

    # The clean pair's rows are flagged 0; without faults only it is written.
    clean = np.zeros(config.sensor_count, dtype=bool)
    flags = (clean, clean) + (result.faulty,) * 2
    files = list(zip(_SCATTER_FILES, result.layers, flags))
    paths = _write_scatter(out, result.field, files if spec is not None else files[:2])

    summary: dict[str, object] = {
        "sensor_count": config.sensor_count,
        "seed": config.seed,
        "lambda1": thresholds.lambda1,
        "lambda2": thresholds.lambda2,
        "thresholds_from_optimizer": optimization is not None,
        "optimizer_objective": "" if optimization is None else optimization.objective_value,
        "optimizer_evaluations": "" if optimization is None else optimization.evaluations,
        "optimizer_converged": "" if optimization is None else optimization.converged,
        # Blank under alphas, whose sum need not be a probability.
        "p_f": "" if config.alphas is not None else config.p_f,
        "fault_mode": "" if spec is None else spec.mode,
        "fault_count": result.fault_count,
        **dict(zip(_ERROR_KEYS, (100.0 * result.error_rates[0]).tolist())),
    }
    summary_path = out / "summary.csv"
    _write_csv(summary_path, "key,value", [[k, v] for k, v in summary.items()])
    paths.append(summary_path)

    return SingleRunArtifacts(
        thresholds=thresholds,
        optimization=optimization,
        result=result,
        summary=summary,
        paths=tuple(paths),
    )


# ---------------------------------------------------------------------------
# sweeps

@dataclass(frozen=True)
class SweepRow:
    """Averaged results for one sweep value (percentages)."""

    label: str
    ld_bf: float
    fd_bf: float
    ld_af: float
    fd_af: float
    lambda1: float
    lambda2: float
    converged: bool


@dataclass(frozen=True)
class SweepSummary:
    rows: tuple[SweepRow, ...]

    @property
    def all_converged(self) -> bool:
        return all(row.converged for row in self.rows)

    def to_csv(self, path: str | Path) -> Path:
        path = Path(path)
        make_output_dir(path.parent)
        rows = [
            [row.label, row.ld_bf, row.fd_bf, row.ld_af, row.fd_af,
             row.lambda1, row.lambda2]
            for row in self.rows
        ]
        _write_csv(path, SWEEP_CSV_HEADER, rows)
        return path


def _apply_sweep_value(
    base: ExperimentConfig, param: str, raw: str
) -> tuple[ExperimentConfig, str]:
    """Return the cell config and its canonical label for one sweep value."""
    if param not in _SWEEP_KEYS:
        raise ConfigError(f"unknown sweep parameter {param!r}; expected one of {SWEEP_PARAMS}")
    keys = _SWEEP_KEYS[param]
    parts = raw.strip().split("/")
    if len(parts) != len(keys):
        raise ConfigError(f"bad {param} sweep value {raw!r}: expected {len(keys)} part(s)")
    values = {key: parse_value(key, part, f"{param} sweep value") for key, part in zip(keys, parts)}
    label = "/".join(repr(v) for v in values.values())
    if param == "p_f":
        # A swept total fault probability replaces any explicit alpha table.
        values["alphas"] = None
    return replace(base, **values), label


def _cell_key(param: str, label: str) -> int:
    # Decorrelates cells while keeping rows reproducible and independent
    # of their position in the value list.
    digest = hashlib.sha256(f"{param}={label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _cell_rng(base_seed: int, run_index: int, cell_key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((base_seed + run_index, cell_key)))


def run_sweep(base: ExperimentConfig, param: str, values: list[str]) -> SweepSummary:
    """Average seeded runs for each value of one swept parameter.

    Each cell uses the thresholds optimized for its own objective (the
    fault-adjusted one when faults are configured), searched once per
    distinct objective: cells that differ only in, say, sensor count
    share one search. Each cell then runs ``repetitions`` independent
    field realizations, stacked in batches of about
    ``_BATCH_SENSORS`` sensors that each run as one field.
    Error columns are percentages: local/final decision errors before
    (ld_bf, fd_bf) and after (ld_af, fd_af) fault injection.
    """
    if not values:
        raise ConfigError("sweep needs at least one value")
    # Every value is checked before the first repetition runs.
    configs = [_apply_sweep_value(base, param, raw) for raw in values]
    rows = []
    searches: dict[tuple, OptimizationResult] = {}
    for config, label in configs:
        cell = _cell(config, searches)
        key = _cell_key(param, label)
        batch = max(1, _BATCH_SENSORS // config.sensor_count)
        sums = np.zeros(4)
        for start in range(0, config.repetitions, batch):
            stop = min(start + batch, config.repetitions)
            result = cell.realize([_cell_rng(config.seed, r, key) for r in range(start, stop)])
            # Added one repetition at a time, in order, so batching
            # leaves every float sum unchanged.
            for rates in result.error_rates.tolist():
                sums += rates
            del result  # freed before the next batch is built
        averages = 100.0 * sums / config.repetitions
        rows.append(SweepRow(
            label, *averages.tolist(), cell.thresholds.lambda1, cell.thresholds.lambda2,
            converged=cell.optimization is None or cell.optimization.converged,
        ))
    return SweepSummary(rows=tuple(rows))
