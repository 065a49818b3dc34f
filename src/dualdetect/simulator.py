"""Spatial Monte Carlo simulator for a two-event sensor field.

Sensors are scattered uniformly over a rectangular field containing two
disjoint event regions. Each sensor's ground truth is fixed by which
region (if any) contains it, each observation is the truth's mean plus
unit Gaussian noise, and each node fuses the reported decisions of its
n nearest sensors (itself included by default) with a k-vote quorum.

Faults corrupt reported decisions between the local and fusion stages.
Two realizations are available:

``forced-change``
    Exactly floor(P_f * N) distinct sensors are drawn, the product taken
    exactly on P_f's shortest decimal form (0.29 * 100 is 29), and each
    one's decision is replaced by one of the other two labels, chosen
    with probability proportional to the fault matrix's off-diagonal
    entries in its current label's row (an even split when both are
    zero).

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
from fractions import Fraction

import numpy as np

from .decision_rules import ObservationThresholds, classify_observations
from .fusion import FaultModel, FusionParams, fuse_decisions
from .signal_model import CODES, Hypothesis, SignalModel

__all__ = [
    "Rectangle",
    "FieldConfig",
    "SensorField",
    "FaultSpec",
    "RunResult",
    "generate_field",
    "run_detection",
    "FAULT_MODES",
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
    include_self: bool = True

    def __post_init__(self) -> None:
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ValueError("field dimensions must be positive and finite")
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

    model: FaultModel
    mode: str = "forced-change"

    def __post_init__(self) -> None:
        total = self.model.total_probability
        if total > 1.0:
            raise ValueError(f"fault probability must not exceed 1, got {total!r}")
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
    """Indices of each sensor's n nearest sensors, nearest first.

    Sensors are ordered by squared Euclidean distance ``dx*dx + dy*dy``
    in float64, ties going to the lower index, so a coincident sensor
    with a lower index sorts ahead of the sensor itself. With
    ``include_self`` false the sensor itself is never listed.

    The search is a cell list (Allen & Tildesley, *Computer Simulation
    of Liquids*). Square cells of side h hold about n/2 sensors each on
    average, and a sensor's candidates are the sensors in the
    (2r+1)x(2r+1) block of cells around its own, starting at r = 1.
    Cell ids run along y within each column of the grid, so once the
    sensors are sorted by cell id, the block's cells in one column hold
    one contiguous run of them and a row's candidates are 2r+1 runs.
    Every sensor outside the block lies at least r*h away, so a row
    whose n-th candidate is nearer than that is exact, whatever h is;
    smaller cells only mean fewer candidates and a few more rows that
    need a second ring. Each row's n nearest candidates are picked with a
    partial selection (``argpartition``, Musser's introselect) and then
    sorted by (distance, index). A selection may keep any of several
    candidates tied at the n-th distance, so rows with more than n
    candidates at or below it (lattices, coincident sensors) are sorted
    in full instead; every tie then goes to the lower index.

    Rows that are not yet exact are searched again with r one larger,
    until the block covers the whole grid. Memory is O(N*n) for layouts
    as even as a uniform scatter; a dense cluster makes the blocks
    around it large.
    """
    count = positions.shape[0]
    lo = positions.min(axis=0)
    span = positions.max(axis=0) - lo
    # The second term caps the cells along a thin strip, so there are at
    # most 4.1 * count / n + 1 cells; sensors all at one point share one.
    h = max(0.7 * math.sqrt(span[0] * span[1] * n / count),
            span.max() * n / count) or 1.0
    shape = (span // h).astype(np.int64) + 1
    cell_xy = np.minimum(((positions - lo) // h).astype(np.int64), shape - 1)
    cell = cell_xy[:, 0] * shape[1] + cell_xy[:, 1]
    by_cell = np.argsort(cell, kind="stable")
    bounds = np.searchsorted(cell[by_cell], np.arange(shape[0] * shape[1] + 1))
    # Rounding in the floor division can put a sensor past its cell's edge
    # by a few ulps of the span, and the span is at most count / n cells.
    slack = 1.0 - 1e-14 * (count + 1)
    # Candidates are slots in by_cell order; slot `count` pads candidate
    # lists and its distance is always inf.
    xs = np.append(positions[by_cell, 0], np.inf)
    ys = np.append(positions[by_cell, 1], np.inf)
    ids = np.append(by_cell, count)

    neighbors = np.empty((count, n), dtype=np.int64)
    rows = np.arange(count)
    r = 1
    while rows.size:
        columns = cell_xy[rows, 0, None] + np.arange(-r, r + 1)
        inside = (columns >= 0) & (columns < shape[0])
        first = columns * shape[1] + np.maximum(cell_xy[rows, 1] - r, 0)[:, None]
        stop = columns * shape[1] + np.minimum(cell_xy[rows, 1] + r + 1, shape[1])[:, None]
        starts = bounds[np.where(inside, first, 0)]
        lengths = bounds[np.where(inside, stop, 0)] - starts
        per_row = lengths.sum(axis=1)
        starts, lengths = starts.ravel(), lengths.ravel()
        # Each row's candidates, concatenated row after row.
        ends = np.cumsum(lengths)
        # At least n wide: a row short of n candidates pads to inf and waits
        # for a larger ring.
        width = max(n, per_row.max())
        cand = np.full((rows.size, width), count)
        cand[np.arange(width) < per_row[:, None]] = (
            np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths))

        d2 = np.square(positions[rows, 0, None] - xs[cand])
        d2 += np.square(positions[rows, 1, None] - ys[cand])
        if not include_self:
            d2[ids[cand] == rows[:, None]] = np.inf
        part = np.argpartition(d2, n - 1, axis=1)[:, :n]
        kept = np.take_along_axis(d2, part, axis=1)
        nth = kept[:, -1]
        done = (nth < (r * h) ** 2 * slack) | (r >= shape.max() - 1)
        tied = done & (np.count_nonzero(d2 <= nth[:, None], axis=1) > n)
        found = ids[np.take_along_axis(cand, part, axis=1)]
        found = np.take_along_axis(found, np.lexsort((found, kept), axis=1), axis=1)
        if tied.any():
            tied_ids = ids[cand[tied]]
            best = np.lexsort((tied_ids, d2[tied]), axis=1)[:, :n]
            found[tied] = np.take_along_axis(tied_ids, best, axis=1)
        neighbors[rows[done]] = found[done]
        rows = rows[~done]
        r += 1
    return neighbors


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


# Each FaultModel.matrix row's off-diagonal columns in ascending order.
# Rows and columns follow CODES, so a decision code's row is code % 3.
_ARC_COLUMNS = np.array([[1, 2], [0, 2], [0, 1]])


def _row_arcs(model: FaultModel, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's two off-diagonal columns and their matrix entries."""
    columns = _ARC_COLUMNS[rows]
    return columns, np.array(model.matrix)[rows[:, None], columns]


def _inject_forced_change(
    local: np.ndarray, spec: FaultSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    count = local.shape[0]
    # The floor of the decimal product: the double nearest 0.29 lies
    # below it, so 0.29 * 100 would floor to 28 in floating point.
    n_faulty = math.floor(Fraction(repr(float(spec.model.total_probability))) * count)
    faulty = np.zeros(count, dtype=bool)
    reported = local.copy()
    chosen = rng.choice(count, size=n_faulty, replace=False)
    faulty[chosen] = True

    u = rng.random(n_faulty)
    columns, weights = _row_arcs(spec.model, local[chosen] % 3)
    total = weights[:, 0] + weights[:, 1]
    p_first = np.divide(
        weights[:, 0], total, out=np.full(n_faulty, 0.5), where=total > 0.0
    )
    reported[chosen] = CODES[np.where(u < p_first, columns[:, 0], columns[:, 1])]
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
    reported = CODES[chosen]
    faulty = reported != local
    return reported, faulty


def run_detection(
    field: SensorField,
    model: SignalModel,
    gammas: ObservationThresholds,
    faults: FaultSpec | None,
    rng: np.random.Generator,
) -> RunResult:
    """Simulate one observation round over a realized field.

    Fusion takes n from the field's neighbor lists and k from its
    config's quorum. The RNG is consumed in a fixed order (observations,
    then fault selection, then fault transitions) so a given seed
    reproduces the run bit for bit.
    """
    k = field.config.quorum
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

    final = fuse_decisions(reported, field.neighbors, k)
    clean_final = final if faults is None else fuse_decisions(local, field.neighbors, k)

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
