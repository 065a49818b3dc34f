"""Spatial Monte Carlo simulator for a two-event sensor field.

Sensors are scattered uniformly over a rectangular field containing two
disjoint event regions. Each sensor's ground truth is fixed by which
region (if any) contains it, each observation is the truth's mean plus
unit Gaussian noise, and each node fuses the reported decisions of its
n nearest sensors (itself included by default) with a k-vote quorum.

Faults corrupt reported decisions between the local and fusion stages.
Two realizations are available:

``forced-change``
    Exactly floor(P_f * N) distinct sensors are drawn and each one's
    decision is replaced by one of the other two labels, chosen with
    probability proportional to the fault matrix's off-diagonal entries
    in its current label's row (an even split when both are zero).

``alpha-table``
    Every sensor independently draws its report from its decision's row
    of the fault matrix, so it keeps its decision with the diagonal
    mass; sensors whose reports changed are flagged faulty.

Both modes map one uniform draw per faulted sensor onto its row's two
off-diagonal arcs taken in ascending column order, which fixes the
labels a given seed produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decision_rules import ObservationThresholds, classify_observations
from .fusion import FaultModel, FusionParams, fuse_decisions
from .signal_model import Hypothesis, SignalModel

__all__ = [
    "Rectangle",
    "FieldConfig",
    "SensorField",
    "FaultSpec",
    "RunResult",
    "generate_field",
    "run_detection",
    "fuse_decisions",
]

FAULT_MODES = ("forced-change", "alpha-table")


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned closed rectangle [x_min, x_max] x [y_min, y_max]."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"degenerate rectangle {self!r}")

    def contains(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (
            (x >= self.x_min) & (x <= self.x_max)
            & (y >= self.y_min) & (y <= self.y_max)
        )

    def overlaps(self, other: "Rectangle") -> bool:
        return (
            self.x_min < other.x_max and other.x_min < self.x_max
            and self.y_min < other.y_max and other.y_min < self.y_max
        )

    def within(self, width: float, height: float) -> bool:
        return (
            0.0 <= self.x_min and self.x_max <= width
            and 0.0 <= self.y_min and self.y_max <= height
        )


@dataclass(frozen=True)
class FieldConfig:
    """Geometry and neighborhood layout of one simulated field."""

    width: float
    height: float
    sensor_count: int
    event1_region: Rectangle
    event2_region: Rectangle
    neighborhood_size: int
    quorum: int
    seed: int
    include_self: bool = True

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("field dimensions must be positive")
        if self.sensor_count < 1:
            raise ValueError(f"sensor_count must be positive, got {self.sensor_count}")
        for name in ("event1_region", "event2_region"):
            region = getattr(self, name)
            if not region.within(self.width, self.height):
                raise ValueError(f"{name} {region!r} does not fit inside the field")
        if self.event1_region.overlaps(self.event2_region):
            raise ValueError("event regions must not overlap")
        available = self.sensor_count if self.include_self else self.sensor_count - 1
        if not (1 <= self.neighborhood_size <= available):
            raise ValueError(
                f"neighborhood_size must lie in [1, {available}], "
                f"got {self.neighborhood_size}"
            )
        FusionParams(self.neighborhood_size, self.quorum)  # checks 1 <= quorum <= n


@dataclass(frozen=True)
class SensorField:
    """Realized sensor layout: positions, ground truth, neighbor lists."""

    config: FieldConfig
    positions: np.ndarray    # (N, 2) float64
    truth: np.ndarray        # (N,) int8 decision codes
    neighbors: np.ndarray    # (N, n) int64, nearest first


@dataclass(frozen=True)
class FaultSpec:
    """How faults are injected into one run."""

    probability: float
    model: FaultModel
    mode: str = "forced-change"

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"fault probability must lie in [0, 1], got {self.probability!r}")
        if self.mode not in FAULT_MODES:
            raise ValueError(f"fault mode must be one of {FAULT_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class RunResult:
    """One simulated detection round.

    The headline rates describe the reported (post-fault) decisions and
    the fusion of those reports; the clean_* rates describe the same
    realization before fault injection. Without faults the two pairs
    coincide.
    """

    field: SensorField
    observations: np.ndarray
    local: np.ndarray          # pre-fault decisions, int8 codes
    reported: np.ndarray       # post-fault decisions, int8 codes
    faulty: np.ndarray         # bool flags
    final: np.ndarray          # fusion of reported decisions
    clean_final: np.ndarray    # fusion of pre-fault decisions
    local_error_rate: float
    final_error_rate: float
    clean_local_error_rate: float
    clean_final_error_rate: float

    @property
    def fault_count(self) -> int:
        return int(self.faulty.sum())


def _nearest_neighbors(positions: np.ndarray, n: int, include_self: bool) -> np.ndarray:
    """Indices of the n nearest sensors per row, ties broken by index.

    Works on the squared-distance matrix: cheap candidate selection via
    argpartition, then an exact (distance, index) lexicographic sort of
    the candidates so tie handling is deterministic.
    """
    count = positions.shape[0]
    deltas = positions[:, None, :] - positions[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", deltas, deltas)
    if not include_self:
        np.fill_diagonal(d2, np.inf)
    m = min(count, max(2 * n, n + 16))
    if m >= count:
        candidates = np.broadcast_to(np.arange(count), (count, count)).copy()
        cand_d2 = d2
    else:
        candidates = np.argpartition(d2, m - 1, axis=1)[:, :m]
        cand_d2 = np.take_along_axis(d2, candidates, axis=1)
    order = np.lexsort((candidates, cand_d2), axis=1)[:, :n]
    return np.take_along_axis(candidates, order, axis=1)


def generate_field(config: FieldConfig, rng: np.random.Generator) -> SensorField:
    """Scatter sensors uniformly and fix truths and neighbor lists."""
    positions = rng.uniform(
        low=(0.0, 0.0),
        high=(config.width, config.height),
        size=(config.sensor_count, 2),
    )
    x, y = positions[:, 0], positions[:, 1]
    truth = np.zeros(config.sensor_count, dtype=np.int8)
    truth[config.event1_region.contains(x, y)] = Hypothesis.EVENT1.code
    truth[config.event2_region.contains(x, y)] = Hypothesis.EVENT2.code
    neighbors = _nearest_neighbors(
        positions, config.neighborhood_size, config.include_self
    )
    return SensorField(config=config, positions=positions, truth=truth,
                       neighbors=neighbors)


# FaultModel.matrix row and column order, and each row's off-diagonal
# columns in ascending order. A decision code's row is code % 3.
_MATRIX_CODES = np.array([0, 1, -1], dtype=np.int8)
_ARC_COLUMNS = np.array([[1, 2], [0, 2], [0, 1]])


def _row_arcs(model: FaultModel, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's two off-diagonal columns and their matrix entries."""
    columns = _ARC_COLUMNS[rows]
    return columns, np.array(model.matrix)[rows[:, None], columns]


def _inject_forced_change(
    local: np.ndarray, spec: FaultSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    count = local.shape[0]
    n_faulty = int(math.floor(spec.probability * count))
    faulty = np.zeros(count, dtype=bool)
    reported = local.copy()
    if n_faulty == 0:
        return reported, faulty
    chosen = rng.choice(count, size=n_faulty, replace=False)
    faulty[chosen] = True

    u = rng.random(n_faulty)
    columns, weights = _row_arcs(spec.model, local[chosen] % 3)
    total = weights[:, 0] + weights[:, 1]
    p_first = np.divide(
        weights[:, 0], total, out=np.full(n_faulty, 0.5), where=total > 0.0
    )
    reported[chosen] = _MATRIX_CODES[np.where(u < p_first, columns[:, 0], columns[:, 1])]
    return reported, faulty


def _inject_alpha_table(
    local: np.ndarray, spec: FaultSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    u = rng.random(local.shape[0])
    rows = local % 3
    columns, weights = _row_arcs(spec.model, rows)
    to_first = u < weights[:, 0]
    to_second = u < weights[:, 0] + weights[:, 1]
    chosen = np.where(to_first, columns[:, 0], np.where(to_second, columns[:, 1], rows))
    reported = _MATRIX_CODES[chosen]
    faulty = reported != local
    return reported, faulty


def run_detection(
    field: SensorField,
    model: SignalModel,
    gammas: ObservationThresholds,
    params: FusionParams,
    faults: FaultSpec | None,
    rng: np.random.Generator,
) -> RunResult:
    """Simulate one observation round over a realized field.

    The RNG is consumed in a fixed order (observations, then fault
    selection, then fault transitions) so a given seed reproduces the
    run bit for bit.
    """
    layout = (field.config.neighborhood_size, field.config.quorum)
    if (params.n, params.k) != layout:
        raise ValueError(
            f"fusion (n, k) = ({params.n}, {params.k}) does not match the field's "
            f"(neighborhood_size, quorum) = {layout}"
        )
    means = model.means_for_codes(field.truth)
    observations = means + rng.standard_normal(field.config.sensor_count)
    local = classify_observations(observations, gammas)

    if faults is None:
        reported = local
        faulty = np.zeros(local.shape, dtype=bool)
    elif faults.mode == "forced-change":
        reported, faulty = _inject_forced_change(local, faults, rng)
    else:
        reported, faulty = _inject_alpha_table(local, faults, rng)

    final = fuse_decisions(reported, field.neighbors, params.k)
    clean_final = final if faults is None else fuse_decisions(local, field.neighbors, params.k)

    truth = field.truth
    return RunResult(
        field=field,
        observations=observations,
        local=local,
        reported=reported,
        faulty=faulty,
        final=final,
        clean_final=clean_final,
        local_error_rate=float((reported != truth).mean()),
        final_error_rate=float((final != truth).mean()),
        clean_local_error_rate=float((local != truth).mean()),
        clean_final_error_rate=float((clean_final != truth).mean()),
    )
