"""Decision fusion analytics: quorum probabilities, faults, Bayes error.

A fusing node collects n ternary votes (its neighborhood's reported
decisions, all assumed to share one ground truth) and declares an event
when at least k votes agree on it. The probability that a quorum forms
is a trinomial tail: i votes for the event of interest, j votes for the
opposite event, and the remaining n - i - j abstentions.

Sensor faults are modeled as a per-label transition matrix applied
independently to each sensor's decision before fusion; the closed-form
adjustment below propagates that matrix through the per-sensor metrics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .decision_rules import (
    LikelihoodThresholds,
    LocalMetrics,
    gammas_from_lambdas,
    local_metrics,
)
from .signal_model import Hypothesis, Priors, SignalModel

__all__ = [
    "FusionParams",
    "FaultModel",
    "FusionQuality",
    "FusionOutcome",
    "fuse_decisions",
    "fusion_quality",
    "enumerate_fusion_oracle",
    "prob_error",
    "fault_adjust",
    "prob_error_faulty",
]

MAX_ORACLE_SENSORS = 12

_UNIT_TOL = 1e-9


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


@dataclass(frozen=True)
class FaultModel:
    """Per-label decision corruption probabilities.

    alpha1: +1 reported as 0      alpha2: -1 reported as 0
    alpha3: +1 reported as -1     alpha4: -1 reported as +1
    alpha5:  0 reported as +1     alpha6:  0 reported as -1

    The total fault probability is the sum of all six. Per source label
    the outgoing corruption must not exceed one.

    ``matrix`` is the row-stochastic transition matrix built from the
    six alphas: ``matrix[i][j]`` is the probability that a decision with
    label i is reported as label j, rows and columns ordered (0, +1, -1),
    so a decision code's index is ``code % 3``.
    """

    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    alpha5: float
    alpha6: float
    matrix: tuple[tuple[float, float, float], ...] = field(
        init=False, repr=False, compare=False
    )

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
        for code, row in zip((0, 1, -1), matrix):
            if row[code % 3] < -_UNIT_TOL:
                raise ValueError(
                    f"fault probabilities out of label {code} must not exceed 1, "
                    f"got {1.0 - row[code % 3]!r}"
                )
        object.__setattr__(self, "matrix", matrix)

    @property
    def total_probability(self) -> float:
        return (
            self.alpha1 + self.alpha2 + self.alpha3
            + self.alpha4 + self.alpha5 + self.alpha6
        )

    @classmethod
    def uniform_split(cls, total: float) -> "FaultModel":
        """Split a total fault probability evenly over the six transitions."""
        if not (0.0 <= total <= 1.0):
            raise ValueError(f"total fault probability must lie in [0, 1], got {total!r}")
        share = total / 6.0
        return cls(share, share, share, share, share, share)

    @classmethod
    def none(cls) -> "FaultModel":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class FusionQuality:
    """Neighborhood-level decision probabilities for a shared truth.

    q_d1 / q_d2: probability the fused decision detects event 1 / 2
    when that event is the truth. q_f1 / q_f2: probability of fusing to
    event 1 / 2 when the truth is quiet; q_f is their sum.
    """

    q_d1: float
    q_d2: float
    q_f1: float
    q_f2: float
    q_f: float


class FusionOutcome(NamedTuple):
    """Exact fused-decision distribution from the enumeration oracle."""

    event1: float
    event2: float
    normal: float


def _quorum_tail(primary: float, secondary: float, n: int, k: int) -> float:
    """P(the fused label is the primary event) for i.i.d. ternary votes.

    Summed as a trinomial: i primary votes (outer), j secondary votes
    (inner), the rest abstaining. A pattern counts when the primary
    event reaches quorum and the secondary event either misses quorum
    or has fewer votes, which is the tie rule of :func:`fuse_decisions`.
    When 2k > n the secondary event can never reach quorum alongside
    the primary one, so every pattern with i >= k counts.
    """
    rest = 1.0 - primary - secondary
    total = 0.0
    for i in range(k, n + 1):
        for j in range(0, n - i + 1):
            if j >= k and j >= i:
                continue
            total += (
                math.comb(n, i) * math.comb(n - i, j)
                * primary**i
                * secondary**j
                * rest ** (n - i - j)
            )
    return total


def fusion_quality(metrics: LocalMetrics, params: FusionParams) -> FusionQuality:
    """Closed-form quorum probabilities from per-sensor metrics."""
    q_d1 = _quorum_tail(metrics.p_d1, metrics.p_m1, params.n, params.k)
    q_d2 = _quorum_tail(metrics.p_d2, metrics.p_m2, params.n, params.k)
    q_f1 = _quorum_tail(metrics.p_f1, metrics.p_f2, params.n, params.k)
    q_f2 = _quorum_tail(metrics.p_f2, metrics.p_f1, params.n, params.k)
    return FusionQuality(q_d1=q_d1, q_d2=q_d2, q_f1=q_f1, q_f2=q_f2, q_f=q_f1 + q_f2)


def fuse_decisions(reported: np.ndarray, neighbors: np.ndarray, k: int) -> np.ndarray:
    """Modified k-out-of-n fusion of reported decisions.

    A node declares an event when at least k of its neighborhood's
    votes name that event; if both events reach quorum the larger count
    wins and an exact tie yields the quiet label.
    """
    votes = reported[neighbors]
    count1 = (votes == 1).sum(axis=1)
    count2 = (votes == -1).sum(axis=1)
    fused = np.zeros(neighbors.shape[0], dtype=np.int8)
    up = count1 >= k
    down = count2 >= k
    fused[up & (~down | (count1 > count2))] = 1
    fused[down & (~up | (count2 > count1))] = -1
    return fused


# The three vote labels, indexed by the vote patterns below.
_VOTE_LABELS = np.array([1, -1, 0], dtype=np.int8)


@lru_cache(maxsize=None)
def _vote_patterns(n: int) -> np.ndarray:
    """All 3^n vote vectors as rows of indices into ``_VOTE_LABELS``."""
    return np.array(list(itertools.product(range(3), repeat=n)), dtype=np.int8)


def enumerate_fusion_oracle(
    metrics: LocalMetrics, params: FusionParams, conditioning: Hypothesis
) -> FusionOutcome:
    """Exact fused-decision distribution by brute-force enumeration.

    Walks all 3^n vote vectors, scoring each by the product of its
    per-sensor probabilities under the conditioning hypothesis, and
    applies the same quorum rule the simulator uses. Independent of the
    closed-form tail sums on purpose; n is capped to keep the walk
    tractable.
    """
    if params.n > MAX_ORACLE_SENSORS:
        raise ValueError(
            f"enumeration oracle supports n <= {MAX_ORACLE_SENSORS}, got {params.n}"
        )
    if conditioning is Hypothesis.EVENT1:
        p_plus, p_minus = metrics.p_d1, metrics.p_m1
    elif conditioning is Hypothesis.EVENT2:
        p_plus, p_minus = metrics.p_m2, metrics.p_d2
    else:
        p_plus, p_minus = metrics.p_f1, metrics.p_f2
    probs = np.array([p_plus, p_minus, 1.0 - p_plus - p_minus])

    patterns = _vote_patterns(params.n)
    mass = probs[patterns].prod(axis=1)
    labels = fuse_decisions(_VOTE_LABELS, patterns, params.k)
    return FusionOutcome(
        event1=float(mass[labels == 1].sum()),
        event2=float(mass[labels == -1].sum()),
        normal=float(mass[labels == 0].sum()),
    )


def prob_error(priors: Priors, quality: FusionQuality) -> float:
    """Bayesian probability that the fused decision is wrong."""
    return (
        priors.q0 * quality.q_f
        + priors.q1 * (1.0 - quality.q_d1)
        + priors.q2 * (1.0 - quality.q_d2)
    )


def fault_adjust(metrics: LocalMetrics, faults: FaultModel) -> LocalMetrics:
    """Propagate the fault transition matrix through per-sensor metrics.

    Under each hypothesis the reported-label distribution is the local
    one, as a row over (0, +1, -1), times the transition matrix. With a
    valid matrix the outputs are again probabilities; anything outside
    [0, 1] indicates inconsistent inputs, and LocalMetrics raises rather
    than clamping it.
    """
    # x_to_y: matrix entry from label x to label y; n = 0, p = +1, m = -1.
    (_, n_to_p, n_to_m), (_, p_to_p, p_to_m), (_, m_to_p, m_to_m) = faults.matrix

    def reported(plus: float, minus: float) -> tuple[float, float]:
        rest = 1.0 - plus - minus
        return (
            rest * n_to_p + plus * p_to_p + minus * m_to_p,
            rest * n_to_m + plus * p_to_m + minus * m_to_m,
        )

    m = metrics
    p_d1, p_m1 = reported(m.p_d1, m.p_m1)
    p_m2, p_d2 = reported(m.p_m2, m.p_d2)
    p_f1, p_f2 = reported(m.p_f1, m.p_f2)
    return LocalMetrics(p_d1=p_d1, p_d2=p_d2, p_f1=p_f1, p_f2=p_f2, p_m1=p_m1, p_m2=p_m2)


def prob_error_faulty(
    model: SignalModel,
    priors: Priors,
    lambdas: LikelihoodThresholds,
    params: FusionParams,
    faults: FaultModel,
) -> float:
    """Bayes error of the fused decision with faulty sensors.

    Composes the full pipeline: thresholds -> per-sensor metrics ->
    fault adjustment -> quorum probabilities -> Bayes error. With an
    all-zero fault model this equals the fault-free error exactly.
    """
    gammas = gammas_from_lambdas(model, lambdas)
    adjusted = fault_adjust(local_metrics(model, gammas), faults)
    return prob_error(priors, fusion_quality(adjusted, params))
