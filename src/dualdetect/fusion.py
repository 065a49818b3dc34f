"""Decision fusion analytics: quorum probabilities, faults, Bayes error.

A fusing node collects n ternary votes (its neighborhood's reported
decisions, all assumed to share one ground truth) and declares the
event with strictly more votes if it has at least k; else it reports
quiet. :func:`quorum_label` is that rule for the simulator, the oracle
and the closed form, a trinomial sum over i votes for the event of
interest, j for the opposite event and n - i - j abstentions.

Sensor faults are modeled as a per-label transition matrix applied
independently to each sensor's decision before fusion; the closed-form
adjustment below propagates that matrix through the per-sensor metrics.

Like the local metrics, every closed form here works elementwise on
scalars or on arrays of one broadcast shape.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .decision_rules import (
    LikelihoodThresholds,
    LocalMetrics,
    _UNIT_TOL,
    gammas_from_lambdas,
    local_metrics,
)
from .signal_model import CODES, Priors, SignalModel

__all__ = [
    "FusionParams",
    "FaultModel",
    "FAULT_MODES",
    "FusionQuality",
    "quorum_label",
    "fuse_decisions",
    "fusion_quality",
    "enumerate_fusion_oracle",
    "prob_error",
    "fault_adjust",
    "prob_error_faulty",
]

MAX_ORACLE_SENSORS = 12


@dataclass(frozen=True)
class FusionParams:
    """Quorum rule: k matching votes out of n neighborhood reports."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if not (1 <= self.k <= self.n):
            raise ValueError(f"k must satisfy 1 <= k <= n, got k={self.k}, n={self.n}")


FAULT_MODES = ("forced-change", "alpha-table")
# Each matrix row's off-diagonal columns in ascending order. Rows and
# columns follow CODES, so a decision code's row is code % 3.
_ARC_COLUMNS = np.array([[1, 2], [0, 2], [0, 1]])


@dataclass(frozen=True)
class FaultModel:
    """Per-label decision corruption probabilities and how they are injected.

    alpha1: +1 reported as 0      alpha2: -1 reported as 0
    alpha3: +1 reported as -1     alpha4: -1 reported as +1
    alpha5:  0 reported as +1     alpha6:  0 reported as -1

    The total fault probability is the sum of all six; :meth:`uniform_split`
    keeps the exact total, which its six shares may miss by an ulp, so a
    mode variant is built with it, not ``dataclasses.replace``. Per
    source label the outgoing corruption must not exceed one.

    ``matrix`` is the row-stochastic transition matrix built from the
    six alphas: ``matrix[i][j]`` is the probability that a decision with
    label i is reported as label j, rows and columns ordered (0, +1, -1),
    so a decision code's index is ``code % 3``. The closed form reads
    only the matrix.

    ``mode`` is how the simulator injects faults, one of ``FAULT_MODES``.
    The default, ``alpha-table``, is the law the closed form assumes and
    needs only the matrix's valid rows; ``forced-change`` faults
    floor(total * N) of N sensors, so it bounds the total by 1.
    ``arcs`` states each mode's transition law once: row ``code % 3``
    holds the probabilities that a faulted sensor with that decision
    moves to the row's two off-diagonal columns (``_ARC_COLUMNS`` order);
    it keeps its decision with the rest. Under ``alpha-table`` they are
    the matrix's off-diagonal entries; under ``forced-change`` the same
    entries rescaled to add up to 1 (0.5 each when both are zero).
    :meth:`faulted` counts the faulted sensors and :meth:`vote_matrix`
    states the per-vote law. Arcs premultiplied by P_f would make the
    injector divide it out again, and that rounding can move a draw.
    """

    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    alpha5: float
    alpha6: float
    mode: str = "alpha-table"
    matrix: tuple[tuple[float, float, float], ...] = field(
        init=False, repr=False, compare=False
    )
    total_probability: float = field(init=False, repr=False, compare=False)
    arcs: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "alpha6"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        matrix = (
            (1.0 - self.alpha5 - self.alpha6, self.alpha5, self.alpha6),
            (self.alpha1, 1.0 - self.alpha1 - self.alpha3, self.alpha3),
            (self.alpha2, self.alpha4, 1.0 - self.alpha2 - self.alpha4),
        )
        for code, row in zip(CODES, matrix):
            if row[code % 3] < -_UNIT_TOL:
                raise ValueError(
                    f"fault probabilities out of label {code} must not exceed 1, "
                    f"got {1.0 - row[code % 3]!r}"
                )
        if self.mode not in FAULT_MODES:
            raise ValueError(f"fault mode must be one of {FAULT_MODES}, got {self.mode!r}")
        total = (self.alpha1 + self.alpha2 + self.alpha3
                 + self.alpha4 + self.alpha5 + self.alpha6)
        if self.mode == "forced-change" and total > 1.0:
            raise ValueError(f"fault probability must not exceed 1, got {total!r}")
        arcs = tuple((row[c0], row[c1]) for row, (c0, c1) in zip(matrix, _ARC_COLUMNS.tolist()))
        if self.mode == "forced-change":
            arcs = tuple((a / (a + b), 1.0 - a / (a + b)) if a + b > 0.0 else (0.5, 0.5)
                         for a, b in arcs)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "total_probability", total)
        object.__setattr__(self, "arcs", arcs)

    @classmethod
    def uniform_split(cls, total: float, mode: str = "alpha-table") -> "FaultModel":
        """Split a total fault probability evenly over the six transitions."""
        if not (0.0 <= total <= 1.0):
            raise ValueError(f"total fault probability must lie in [0, 1], got {total!r}")
        share = total / 6.0
        model = cls(share, share, share, share, share, share, mode)
        object.__setattr__(model, "total_probability", total)
        return model

    def faulted(self, sensor_count: int) -> int:
        """How many of a field's ``sensor_count`` sensors are faulted.

        ``forced-change`` faults floor(P_f * N), the floor of the decimal
        product: the double nearest 0.29 lies below it, so 0.29 * 100
        would floor to 28 in floating point. P_f is
        ``total_probability``, which :meth:`uniform_split` keeps as
        configured: the sum of its six shares can floor one fault short
        (4 of 100 at 0.05). ``alpha-table`` faults all N.
        """
        if self.mode == "alpha-table":
            return sensor_count
        return math.floor(Fraction(repr(float(self.total_probability))) * sensor_count)

    def vote_matrix(self, sensor_count: int) -> tuple[tuple[float, float, float], ...]:
        """The marginal per-vote fault matrix on a field of ``sensor_count``
        sensors, in ``matrix`` layout: ``w * arcs`` off the diagonal, with
        ``w = faulted(N) / N``, so under ``alpha-table`` it is the fault
        matrix itself.
        """
        w = self.faulted(sensor_count) / sensor_count
        rows = []
        for i, ((c0, c1), (a, b)) in enumerate(zip(_ARC_COLUMNS.tolist(), self.arcs)):
            row = [0.0, 0.0, 0.0]
            row[c0], row[c1] = w * a, w * b
            row[i] = 1.0 - row[c0] - row[c1]
            rows.append(tuple(row))
        return tuple(rows)


@dataclass(frozen=True)
class FusionQuality:
    """Neighborhood-level decision probabilities for a shared truth.

    q_d1 / q_d2: probability the fused decision detects event 1 / 2
    when that event is the truth. q_f1 / q_f2: probability of fusing to
    event 1 / 2 when the truth is quiet; :attr:`q_f` is their sum.
    """

    q_d1: float | np.ndarray
    q_d2: float | np.ndarray
    q_f1: float | np.ndarray
    q_f2: float | np.ndarray

    @property
    def q_f(self) -> float | np.ndarray:
        """Probability of fusing to either event when the truth is quiet."""
        return self.q_f1 + self.q_f2


def quorum_label(
    count1: int | np.ndarray, count2: int | np.ndarray, k: int
) -> np.ndarray:
    """The fused decision code for count1 event-1 and count2 event-2 votes.

    The one statement of the modified k-out-of-n rule: the event with
    strictly more votes is declared if it has at least k votes, else,
    a tie included, the node reports quiet (0). Works elementwise on
    ints or integer arrays and returns int8 codes.
    """
    quorum = np.maximum(count1, count2) >= k
    return np.where(quorum, np.sign(count1 - count2), 0).astype(np.int8)


def _powers(x: float | np.ndarray, top: int) -> list[float | np.ndarray]:
    """``[x**0, ..., x**top]``, each power the one before times x.

    IEEE 754 rounds every product correctly, so an array's powers equal
    those of its entries as Python floats, bit for bit.
    """
    chain = [1.0]
    for _ in range(top):
        chain.append(chain[-1] * x)
    return chain


@lru_cache(maxsize=None)
def _primary_cells(n: int, k: int) -> tuple[tuple[int, int, int], ...]:
    """(i, j, multinomial coefficient) for the vote counts fused to +1."""
    return tuple(
        (i, j, math.comb(n, i) * math.comb(n - i, j))
        for i in range(n + 1) for j in range(n - i + 1)
        if quorum_label(i, j, k) == 1
    )


def _quorum_tail(
    primary: float | np.ndarray, secondary: float | np.ndarray, n: int, k: int
) -> float | np.ndarray:
    """P(the fused label is the primary event) for i.i.d. ternary votes.

    Summed as a trinomial over i primary votes (outer), j secondary
    votes (inner) and n - i - j abstentions, on the cells where
    :func:`quorum_label` declares the primary event. Each power is
    computed once per call and the terms are added in cell order.
    """
    cells = _primary_cells(n, k)
    p = _powers(primary, n)
    s = _powers(secondary, max(j for _, j, _ in cells))
    r = _powers(1.0 - primary - secondary, max(n - i - j for i, j, _ in cells))
    total = 0.0
    for i, j, coefficient in cells:
        total += coefficient * p[i] * s[j] * r[n - i - j]
    return total


def fusion_quality(metrics: LocalMetrics, params: FusionParams) -> FusionQuality:
    """Closed-form quorum probabilities, each the quorum tail of one truth's row."""
    d = metrics.matrix
    q_d1, q_d2, q_f1, q_f2 = (
        _quorum_tail(d[t, e], d[t, 3 - e], params.n, params.k)
        for t, e in ((1, 1), (2, 2), (0, 1), (0, 2))
    )
    return FusionQuality(q_d1=q_d1, q_d2=q_d2, q_f1=q_f1, q_f2=q_f2)


def fuse_decisions(reported: np.ndarray, neighbors: np.ndarray, k: int) -> np.ndarray:
    """Modified k-out-of-n fusion of each node's neighborhood votes."""
    # One neighbour column at a time: short passes over long arrays, with
    # no (N, n) gather of the votes. take converts an int32 column to
    # intp about twice as fast as indexing does.
    count1 = np.zeros(len(neighbors), dtype=np.intp)
    count2 = np.zeros(len(neighbors), dtype=np.intp)
    for column in neighbors.T:
        votes = reported.take(column)
        count1 += votes == 1
        count2 += votes == -1
    return quorum_label(count1, count2, k)


@lru_cache(maxsize=None)
def _vote_patterns(n: int) -> np.ndarray:
    """All 3^n vote vectors; in each, 0 is a +1 vote, 1 a -1 vote, 2 quiet."""
    return np.array(list(itertools.product(range(3), repeat=n)), dtype=np.int8)


def enumerate_fusion_oracle(metrics: LocalMetrics, params: FusionParams) -> FusionQuality:
    """Fusion quality of scalar metrics by brute-force enumeration.

    For each truth, walks all 3^n vote vectors, scoring each by the
    product of its per-sensor probabilities, and applies the same
    quorum rule the simulator uses. Independent of the closed-form tail
    sums on purpose: it shares no cell table or row pairing with
    :func:`fusion_quality`. Takes one (3, 3) matrix; n is capped.
    """
    if metrics.matrix.shape != (3, 3):
        raise ValueError(f"enumeration oracle takes a (3, 3) matrix, got {metrics.matrix.shape}")
    if params.n > MAX_ORACLE_SENSORS:
        raise ValueError(
            f"enumeration oracle supports n <= {MAX_ORACLE_SENSORS}, got {params.n}"
        )
    patterns = _vote_patterns(params.n)
    labels = quorum_label((patterns == 0).sum(axis=1), (patterns == 1).sum(axis=1), params.k)

    def fused(row: np.ndarray) -> tuple[float, float]:
        """P(fused +1) and P(fused -1) when each vote follows one truth's row."""
        mass = row[[1, 2, 0]][patterns].prod(axis=1)
        return float(mass[labels == 1].sum()), float(mass[labels == -1].sum())

    q_f1, q_f2 = fused(metrics.matrix[0])
    q_d1, _ = fused(metrics.matrix[1])
    _, q_d2 = fused(metrics.matrix[2])
    return FusionQuality(q_d1=q_d1, q_d2=q_d2, q_f1=q_f1, q_f2=q_f2)


def prob_error(priors: Priors, quality: FusionQuality) -> float | np.ndarray:
    """Bayesian probability that the fused decision is wrong."""
    return (
        priors.q0 * quality.q_f
        + priors.q1 * (1.0 - quality.q_d1)
        + priors.q2 * (1.0 - quality.q_d2)
    )


def fault_adjust(metrics: LocalMetrics, matrix: tuple[tuple[float, ...], ...]) -> LocalMetrics:
    """Reported-label law: each truth's row times a fault transition matrix.

    ``matrix`` is laid out as ``FaultModel.matrix``; the product sums
    over source labels in ``CODES`` order. An output outside [0, 1]
    means inconsistent inputs, and LocalMetrics raises rather than
    clamping it.
    """
    d = metrics.matrix
    plus, minus = (
        d[:, 0] * matrix[0][c] + d[:, 1] * matrix[1][c] + d[:, 2] * matrix[2][c]
        for c in (1, 2)
    )
    return LocalMetrics.from_events(plus, minus)


def prob_error_faulty(
    model: SignalModel,
    priors: Priors,
    lambdas: LikelihoodThresholds,
    params: FusionParams,
    faults: FaultModel | None,
) -> float | np.ndarray:
    """Bayes error of the fused decision, with faulty sensors if given.

    Composes the full pipeline: thresholds -> per-sensor metrics ->
    fault adjustment -> quorum probabilities -> Bayes error. With
    ``faults=None`` the fault adjustment is skipped; an all-zero fault
    model gives the same error, only slower. Array thresholds give an
    array of errors, one per entry.
    """
    metrics = local_metrics(model, gammas_from_lambdas(model, lambdas))
    if faults is not None:
        metrics = fault_adjust(metrics, faults.matrix)
    return prob_error(priors, fusion_quality(metrics, params))
