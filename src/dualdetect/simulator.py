"""Spatial Monte Carlo simulator for a two-event sensor field.

Sensors are scattered uniformly over a rectangular field containing two
disjoint event regions. Each sensor's ground truth is fixed by which
region (if any) contains it, each observation is the truth's mean plus
unit Gaussian noise, and each node fuses the reported decisions of its
n nearest sensors (itself included by default) with a k-vote quorum.
Every run takes a list of generators, one per realization of one field
config, and stacks the realizations into one field: neighbour search,
classification and fusion run once for the whole stack, each
realization draws exactly the numbers it would draw alone, and each
error rate holds one value per realization. A single field is a list
of one generator.

Faults corrupt reported decisions between the local and fusion stages.
``FaultSpec.arcs`` states each mode's law once: where a faulted sensor
goes along the two off-diagonal arcs leaving its decision's row of the
fault matrix. ``forced-change`` faults exactly ``FaultSpec.faulted(N)``
distinct sensors and moves each one in proportion to its row's arcs
(evenly when both are zero). ``alpha-table`` faults every sensor with
the matrix's own arcs, so each keeps its decision with the diagonal
mass. ``FaultSpec.vote_matrix`` is the resulting per-vote law. One
injector maps one uniform draw per faulted sensor onto its row's arcs
in ascending column order, which fixes the labels a given seed
produces; a run result flags the sensors whose reports changed.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
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
# Neighbour lists hold int32 sensor indices, so no field, stacked or
# not, may have more sensors than this.
_MAX_SENSORS = int(np.iinfo(np.int32).max)


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
    """Geometry and neighborhood layout of one simulated field.

    Defaults reproduce the reference field: 20 x 20 with 200 sensors, a
    10 x 10 first-event region in the lower-left corner, an 8 x 8
    second-event region in the upper-right corner, and 3-of-5 fusion
    that counts a sensor's own report.
    """

    width: float = 20.0
    height: float = 20.0
    sensor_count: int = 200
    event1_region: Rectangle = Rectangle(0.0, 0.0, 10.0, 10.0)
    event2_region: Rectangle = Rectangle(12.0, 12.0, 20.0, 20.0)
    neighborhood_size: int = 5
    quorum: int = 3
    include_self: bool = True

    def __post_init__(self) -> None:
        # Every field annotated int or bool, a subclass's included, must hold
        # one (numpy integers count as int, a bool does not). The annotations
        # are strings: both config modules import annotations from __future__.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "bool" and not isinstance(value, bool):
                raise TypeError(f"{f.name} must be a bool, got {value!r}")
            if f.type == "int" and (
                isinstance(value, bool) or not isinstance(value, numbers.Integral)
            ):
                raise TypeError(f"{f.name} must be an integer, got {value!r}")
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ValueError("field dimensions must be positive and finite")
        # Beyond this a squared distance between two sensors can overflow.
        width, height = float(self.width), float(self.height)
        if not math.isfinite(width * width + height * height):
            raise ValueError(
                f"field dimensions must keep width*width + height*height at most "
                f"{float(np.finfo(float).max)!r}, got {self.width!r} x {self.height!r}"
            )
        if self.sensor_count < 1:
            raise ValueError(f"sensor_count must be positive, got {self.sensor_count}")
        if self.sensor_count > _MAX_SENSORS:
            raise ValueError(
                f"sensor_count must be at most {_MAX_SENSORS}, got {self.sensor_count}")
        for name in ("event1_region", "event2_region"):
            region = getattr(self, name)
            if not isinstance(region, Rectangle):
                raise TypeError(f"{name} must be a Rectangle, got {region!r}")
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
        self.fusion_params()  # checks 1 <= quorum <= n

    def fusion_params(self) -> FusionParams:
        return FusionParams(self.neighborhood_size, self.quorum)


@dataclass(frozen=True)
class SensorField:
    """Realized sensor layout: positions, ground truth, neighbor lists.

    A field may stack R realizations of ``config``: realization r holds
    rows r*N ... r*N+N-1 of each array, N being ``config.sensor_count``,
    and its neighbor lists index only those rows. The lists are int32,
    4 bytes per index, so a stack holds at most 2**31 - 1 sensors.
    """

    config: FieldConfig
    positions: np.ndarray    # (R*N, 2) float64
    truth: np.ndarray        # (R*N,) int8 decision codes
    neighbors: np.ndarray    # (R*N, n) int32, each row a set in no order


# Each FaultModel.matrix row's off-diagonal columns in ascending order.
# Rows and columns follow CODES, so a decision code's row is code % 3.
_ARC_COLUMNS = np.array([[1, 2], [0, 2], [0, 1]])


@dataclass(frozen=True)
class FaultSpec:
    """How faults are injected into one run.

    ``arcs`` states each mode's transition law once: row ``code % 3``
    holds the probabilities that a faulted sensor with that decision
    moves to the row's two off-diagonal columns (``_ARC_COLUMNS`` order);
    it keeps its decision with the rest. Under ``alpha-table`` they are
    the fault matrix's off-diagonal entries; under ``forced-change`` the
    same entries rescaled to add up to 1 (0.5 each when both are zero).
    :meth:`faulted` counts the faulted sensors and :meth:`vote_matrix`
    states the per-vote law. Arcs premultiplied by P_f would make the
    injector divide it out again, and that rounding can move a draw.
    """

    model: FaultModel
    mode: str = "forced-change"
    arcs: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise ValueError(f"fault mode must be one of {FAULT_MODES}, got {self.mode!r}")
        # Forced-change faults floor(total * N) of N sensors; alpha-table
        # needs only the matrix's valid rows, which FaultModel checks.
        total = self.model.total_probability
        if self.mode == "forced-change" and total > 1.0:
            raise ValueError(f"fault probability must not exceed 1, got {total!r}")
        arcs = tuple((row[c0], row[c1])
                     for row, (c0, c1) in zip(self.model.matrix, _ARC_COLUMNS.tolist()))
        if self.mode == "forced-change":
            arcs = tuple((a / (a + b), 1.0 - a / (a + b)) if a + b > 0.0 else (0.5, 0.5)
                         for a, b in arcs)
        object.__setattr__(self, "arcs", arcs)

    def faulted(self, sensor_count: int) -> int:
        """How many of a field's ``sensor_count`` sensors are faulted.

        ``forced-change`` faults floor(P_f * N), the floor of the decimal
        product: the double nearest 0.29 lies below it, so 0.29 * 100
        would floor to 28 in floating point. P_f is the model's
        ``total_probability``, which ``FaultModel.uniform_split`` keeps as
        configured: the sum of its six shares can floor one fault short
        (4 of 100 at 0.05). ``alpha-table`` faults all N.
        """
        if self.mode == "alpha-table":
            return sensor_count
        return math.floor(Fraction(repr(float(self.model.total_probability))) * sensor_count)

    def vote_matrix(self, sensor_count: int) -> tuple[tuple[float, float, float], ...]:
        """The marginal per-vote fault matrix on a field of ``sensor_count``
        sensors, in ``FaultModel.matrix`` layout: ``w * arcs`` off the
        diagonal, with ``w = faulted(N) / N``, so under ``alpha-table`` it
        is the fault matrix itself.
        """
        if self.mode == "alpha-table":
            return self.model.matrix
        w = self.faulted(sensor_count) / sensor_count
        rows = []
        for i, ((c0, c1), (a, b)) in enumerate(zip(_ARC_COLUMNS.tolist(), self.arcs)):
            row = [0.0, 0.0, 0.0]
            row[c0], row[c1] = w * a, w * b
            row[i] = 1.0 - row[c0] - row[c1]
            rows.append(tuple(row))
        return tuple(rows)


@dataclass(frozen=True)
class RunResult:
    """One simulated detection round over each realization of a field.

    The decision arrays follow the field's stacked rows. Without faults
    ``reported`` is ``local`` and ``final`` is ``clean_final``. Fault
    flags, their count over the stack and the error rates are read off
    the decision layers.
    """

    field: SensorField
    local: np.ndarray          # pre-fault decisions, int8 codes
    reported: np.ndarray       # post-fault decisions, int8 codes
    final: np.ndarray          # fusion of reported decisions
    clean_final: np.ndarray    # fusion of pre-fault decisions

    @property
    def layers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The decision layers in the order of ``sweep.csv``'s ld_bf,
        fd_bf, ld_af and fd_af: local and fused, before and after faults."""
        return self.local, self.clean_final, self.reported, self.final

    @property
    def faulty(self) -> np.ndarray:
        """Bool flags of the sensors whose reports faults changed."""
        return self.reported != self.local

    @property
    def fault_count(self) -> int:
        return int(self.faulty.sum())

    @property
    def error_rates(self) -> np.ndarray:
        """(R, 4) float64: row r is realization r's error of each layer
        against the truth, in ``layers`` order."""
        wrong = np.stack(self.layers) != self.field.truth
        return wrong.reshape(4, -1, self.field.config.sensor_count).mean(axis=2).T


# Padded candidates (rows x width) one selection step holds: each of its
# float64 and int64 arrays then takes 256 KiB, which fits a core's L2 cache.
_CHUNK_CANDIDATES = 2**15


def _nearest_neighbors(
    positions: np.ndarray, n: int, include_self: bool, realizations: int = 1
) -> np.ndarray:
    """Each sensor's n nearest sensors, an int32 row of indices in no order.

    ``positions`` stacks ``realizations`` fields of equal size: field r
    holds rows r*N ... r*N+N-1, and its neighbour sets stay within
    those rows. A single field is the case of one realization.
    A row holds the n smallest (squared Euclidean distance
    ``dx*dx + dy*dy`` in float64, index) pairs: a tie at the n-th
    distance goes to the lower index, so coincident sensors with lower
    indices can crowd out the sensor itself. With ``include_self``
    false the sensor itself is never listed. Positions whose squared
    span overflows raise ``ValueError``.

    The search is a cell list (Allen & Tildesley, *Computer Simulation
    of Liquids*). Square cells of side h hold about n/2 sensors of one
    field each on average, and a sensor's candidates are the sensors in
    the (2r+1)x(2r+1) block of cells around its own, starting at r = 1.
    Every field shares one grid over the stack's bounding box, and a
    cell id is ``(field * columns + column) * rows + row``: ids run
    along y within each column of a field's grid, so once the sensors
    are sorted by cell id, the block's cells in one column hold one
    contiguous run of them and a cell's candidates are 2r+1 runs,
    built once and shared by every row in that cell.
    Every sensor outside the block lies at least r*h away, so a row
    whose n-th candidate is nearer than that is exact, whatever h is;
    smaller cells only mean fewer candidates and a few more rows that
    need a second ring. Each row's n-th smallest distance is found by a
    partial selection (``partition``, Musser's introselect), and the
    candidates at or below it, exactly n unless there is a tie, are the
    row, in candidate order. A chunk with more such candidates than n per
    settled row holds a tie (lattices, coincident sensors): only then are
    rows counted, and only rows with more than n are sorted, by
    (distance, index), so that every tie goes to the lower index.

    Rows that are not yet exact are searched again with r one larger,
    until the block covers the whole grid. Within a round the cells are
    taken in order of candidate count and cut into chunks of at most
    ``_CHUNK_CANDIDATES`` padded candidates (rows x widest row), a
    cell's rows split across chunks if need be; only a single row with
    more candidates than that makes a larger chunk, of that one row.
    Distances are held for one chunk at a time, so a dense cluster
    costs more chunks, not more memory: beyond the chunk, a round holds
    O(r) integers per pending row and the result O(N*n).
    """
    count = positions.shape[0]
    if count > _MAX_SENSORS:
        raise ValueError(f"cannot index {count} sensors with int32, at most {_MAX_SENSORS}")
    size, rest = divmod(count, realizations)
    if rest:
        raise ValueError(f"cannot split {count} sensors into {realizations} equal fields")
    # Past the last ring a row short of n candidates would wait forever.
    if not 1 <= n <= size - (not include_self):
        raise ValueError(f"cannot list {n} neighbours among {size} sensors")
    # Per column: a reduction over a strided axis 0 is several times slower.
    lo = np.array([positions[:, 0].min(), positions[:, 1].min()])
    span = np.array([positions[:, 0].max(), positions[:, 1].max()]) - lo
    # An overflowing squared distance never falls below a ring's bound,
    # so its row would wait for ever larger rings.
    width, height = span.tolist()
    if not math.isfinite(width * width + height * height):
        raise ValueError(f"squared span of {width!r} x {height!r} overflows")
    # The second term caps the cells along a thin strip, so there are at
    # most 4.1 * size / n + 1 cells per field; sensors all at one point
    # share one.
    h = max(0.7 * math.sqrt(width * height * n / size),
            max(width, height) * n / size) or 1.0
    shape = (span // h).astype(np.int64) + 1
    cell_xy = np.minimum(np.floor((positions - lo) / h).astype(np.int64), shape - 1)
    field_column = np.repeat(np.arange(realizations) * shape[0], size) + cell_xy[:, 0]
    cell = field_column * shape[1] + cell_xy[:, 1]
    cell_count = realizations * shape[0] * shape[1]
    # The narrowest unsigned key sorts in the same order, and numpy sorts
    # keys of up to 16 bits by radix.
    by_cell = np.argsort(cell.astype(np.min_scalar_type(cell_count)), kind="stable")
    slot_cell = cell[by_cell]
    bounds = np.concatenate(([0], np.bincount(slot_cell, minlength=cell_count).cumsum()))
    # The subtraction and the division each round, so a quotient just
    # below a whole number can round up to it: the sensor then sits in
    # the next cell, past that cell's edge by a few ulps of the span, and
    # the span is at most size / n cells.
    slack = 1.0 - 1e-14 * (size + 1)
    # Rows and candidates are slots in by_cell order; slot `count` pads
    # candidate lists and its distance is always inf.
    xs = np.append(positions[by_cell, 0], np.inf)
    ys = np.append(positions[by_cell, 1], np.inf)
    ids = np.append(by_cell, count)
    del cell_xy, field_column, cell, by_cell  # not read again; freed for the rounds

    neighbors = np.empty((count, n), dtype=np.int32)
    rows = np.arange(count)
    r = 1
    while rows.size:
        # The occupied cells of the pending rows (ascending, so each
        # cell's rows are adjacent), reordered by candidate count.
        cells = slot_cell[rows]
        edges = np.flatnonzero(np.concatenate(([True], cells[1:] != cells[:-1], [True])))
        head, sizes = edges[:-1], edges[1:] - edges[:-1]
        field_column, cy = np.divmod(cells[head], shape[1])
        del cells, edges
        ring = np.arange(-r, r + 1)
        in_field = (field_column % shape[0])[:, None] + ring
        inside = (in_field >= 0) & (in_field < shape[0])
        columns = field_column[:, None] + ring
        first = columns * shape[1] + np.maximum(cy - r, 0)[:, None]
        stop = columns * shape[1] + np.minimum(cy + r + 1, shape[1])[:, None]
        starts = bounds[np.where(inside, first, 0)]
        lengths = bounds[np.where(inside, stop, 0)] - starts
        widths = lengths.sum(axis=1)
        del field_column, cy, in_field, inside, columns, first, stop
        order = np.argsort(widths)
        starts, lengths, widths = starts[order], lengths[order], widths[order]
        head, sizes = head[order], sizes[order]
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        rows = rows[np.repeat(head - offsets[:-1], sizes) + np.arange(rows.size)]
        group = np.repeat(np.arange(sizes.size), sizes)
        # At least n wide: a row short of n candidates pads to inf and waits
        # for a larger ring.
        padded = np.maximum(widths, n).tolist()
        # Once the block covers the whole grid, every row is exact.
        bound = np.inf if r >= shape.max() - 1 else (r * h) ** 2 * slack

        waiting = []
        a = 0
        while a < rows.size:
            b = min(rows.size, a + max(1, _CHUNK_CANDIDATES // padded[group[a]]))
            while b - a > 1 and (b - a) * padded[group[b - 1]] > _CHUNK_CANDIDATES:
                b = a + max(1, _CHUNK_CANDIDATES // padded[group[b - 1]])
            g0, g1 = group[a], group[b - 1] + 1
            width = padded[g1 - 1]
            chunk = rows[a:b]
            # Each cell's candidates, its 2r+1 runs concatenated, then
            # one copy per row of that cell in the chunk.
            runs, run_lengths = starts[g0:g1].ravel(), lengths[g0:g1].ravel()
            ends = np.cumsum(run_lengths)
            cand = np.full((g1 - g0, width), count)
            cand[np.arange(width) < widths[g0:g1, None]] = (
                np.arange(ends[-1]) + np.repeat(runs - (ends - run_lengths), run_lengths))
            copies = np.minimum(offsets[g0 + 1:g1 + 1], b) - np.maximum(offsets[g0:g1], a)
            cand = np.repeat(cand, copies, axis=0)

            waiting.append(
                _settle_chunk(chunk, cand, xs, ys, ids, n, include_self, bound, neighbors))
            a = b
        rows = np.sort(np.concatenate(waiting))
        r += 1
    return neighbors


def _settle_chunk(
    chunk: np.ndarray, cand: np.ndarray, xs: np.ndarray, ys: np.ndarray, ids: np.ndarray,
    n: int, include_self: bool, bound: float, neighbors: np.ndarray,
) -> np.ndarray:
    """Write the neighbours of the rows whose n-th squared distance is
    below ``bound``; return the other rows.

    ``chunk`` holds row slots and ``cand`` their candidate slots, one
    row each, in the slot order of ``_nearest_neighbors``. The picks of
    every settled row, its candidates at or below its n-th distance, are
    taken in one pass; only when they number more than n per settled row
    are the rows counted, and those with a tie sorted.
    """
    # Each coordinate is gathered once, then differenced and squared in place.
    d2 = xs.take(cand)
    np.square(np.subtract(xs[chunk, None], d2, out=d2), out=d2)
    dy = ys.take(cand)
    d2 += np.square(np.subtract(ys[chunk, None], dy, out=dy), out=dy)
    if not include_self:
        d2[cand == chunk[:, None]] = np.inf
    # dy is free once summed: partition a copy of d2 in it.
    np.copyto(dy, d2)
    dy.partition(n - 1, axis=1)
    nth = dy[:, n - 1]
    done = nth < bound
    # No squared distance is below -1, so unsettled rows pick nothing.
    nth[~done] = -1.0
    within = d2 <= nth[:, None]
    picked = np.flatnonzero(within)
    # A settled row holds at least n picks, exactly n unless it ties at
    # its n-th distance, so only a chunk with surplus picks has tied rows.
    settled = done
    if picked.size > n * np.count_nonzero(done):
        tied = within.sum(axis=1) > n
        settled = done & ~tied
        within[tied] = False
        picked = np.flatnonzero(within)
        tied_ids = ids[cand[tied]]
        best = np.lexsort((tied_ids, d2[tied]), axis=1)[:, :n]
        neighbors[ids[chunk[tied]]] = np.take_along_axis(tied_ids, best, axis=1)
    neighbors[ids[chunk[settled]]] = ids[cand.ravel()[picked]].reshape(-1, n)
    return chunk[~done]


def generate_field(config: FieldConfig, rngs: Sequence[np.random.Generator]) -> SensorField:
    """Scatter sensors uniformly and fix truths and neighbor lists.

    Each generator draws one realization's positions, stacked in
    generator order into one field.
    """
    # Bit-identical to uniform(low=(0, 0), high=(width, height)), which
    # computes 0 + (high - 0) * u from the same doubles, at about a third
    # of its cost for a 200-sensor field.
    extent = np.array([config.width, config.height])
    positions = np.concatenate([g.random((config.sensor_count, 2)) * extent for g in rngs])
    x, y = positions[:, 0], positions[:, 1]
    truth = np.zeros(positions.shape[0], dtype=np.int8)
    truth[config.event1_region.contains(x, y)] = Hypothesis.EVENT1.code
    truth[config.event2_region.contains(x, y)] = Hypothesis.EVENT2.code
    neighbors = _nearest_neighbors(
        positions, config.neighborhood_size, config.include_self, len(rngs)
    )
    return SensorField(config=config, positions=positions, truth=truth,
                       neighbors=neighbors)


def _inject_faults(
    local: np.ndarray, spec: FaultSpec, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Reported decisions: the mode picks the faulted sensors and their
    draws, then a draw below the first arc takes it, one below both arcs
    takes the second, and any other keeps the label.
    """
    size = local.shape[0] // len(rngs)
    if spec.mode == "forced-change":
        n_faulty = spec.faulted(size)
        # Each realization's generator picks its faulty sensors, then draws
        # their transitions.
        draws = [(g.choice(size, size=n_faulty, replace=False), g.random(n_faulty)) for g in rngs]
        chosen = np.concatenate([picked + i * size for i, (picked, _) in enumerate(draws)])
        u = np.concatenate([u for _, u in draws])
    else:
        chosen = slice(None)
        u = np.concatenate([g.random(size) for g in rngs])
    rows = local[chosen] % 3
    arcs, columns = np.array(spec.arcs)[rows], _ARC_COLUMNS[rows]
    moved = np.where(u < arcs[:, 0], columns[:, 0],
                     np.where(u < arcs[:, 0] + arcs[:, 1], columns[:, 1], rows))
    reported = local.copy()
    reported[chosen] = CODES[moved]
    return reported


def run_detection(
    field: SensorField,
    model: SignalModel,
    gammas: ObservationThresholds,
    faults: FaultSpec | None,
    rngs: Sequence[np.random.Generator],
) -> RunResult:
    """Simulate one observation round over each realization of a field.

    ``rngs`` is the generators the field was generated with, one per
    realization. Each generator is consumed in a fixed order
    (observations, then fault selection, then fault transitions), so a
    given seed reproduces its realization bit for bit, whatever batch it
    runs in. Classification and both fusions run once over the
    stack. Fusion takes n from the field's neighbor lists and k from its
    config's quorum.
    """
    size = field.config.sensor_count
    if len(rngs) * size != field.truth.shape[0]:
        raise ValueError(
            f"{len(rngs)} generators for a field of {field.truth.shape[0]} sensors")
    k = field.config.quorum
    means = model.means_for_codes(field.truth)
    observations = means + np.concatenate([g.standard_normal(size) for g in rngs])
    local = classify_observations(observations, gammas)

    reported = local if faults is None else _inject_faults(local, faults, rngs)
    final = fuse_decisions(reported, field.neighbors, k)
    clean_final = final if faults is None else fuse_decisions(local, field.neighbors, k)
    return RunResult(field=field, local=local, reported=reported, final=final,
                     clean_final=clean_final)
