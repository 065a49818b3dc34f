"""Local ternary decision rule and its closed-form quality metrics.

Each sensor compares its scalar observation against three thresholds in
observation space and reports one of three labels: quiet (0), first
event (+1) or second event (-1). The thresholds derive from a pair of
likelihood-ratio levels; because the noise is Gaussian with unit
variance, every likelihood-ratio comparison collapses to a comparison
of the observation against a constant.

The decision regions are

    second event : x >= max(gamma2, gamma3)
    first event  : gamma1 <= x < gamma3   (otherwise)
    quiet        : everything else

which covers every ordering of the three thresholds, including the
degenerate ones where the first-event interval is empty.

The closed form works elementwise: the likelihood levels may be scalars
or arrays of one broadcast shape S. Every threshold then has shape S,
and the metrics' decision matrix has shape (3, 3, *S). Validation
holds for every entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signal_model import Hypothesis, SignalModel, _cutoff, elementwise, normal_cdf

__all__ = [
    "LikelihoodThresholds",
    "ObservationThresholds",
    "LocalMetrics",
    "gammas_from_lambdas",
    "classify_observations",
    "local_metrics",
]

_UNIT_TOL = 1e-9

_log = elementwise(math.log)


def _require(ok: np.ndarray, value: np.ndarray, message: str) -> None:
    """Raise ValueError quoting the first entry of ``value`` where ``ok`` fails."""
    if not ok.all():
        bad = np.asarray(value)[~ok][0].item()
        raise ValueError(f"{message}, got {bad!r}")


@dataclass(frozen=True)
class LikelihoodThresholds:
    """Likelihood-ratio test levels for the two events; both positive.

    lambda1 gates "first event vs quiet", lambda2 gates "second event
    vs quiet"; their ratio gates "second vs first". Either may be an
    array; the two then broadcast against each other.
    """

    lambda1: float | np.ndarray
    lambda2: float | np.ndarray

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2"):
            value = np.asarray(getattr(self, name))
            _require(np.isfinite(value) & (value > 0.0), value,
                     f"{name} must be finite and positive")


@dataclass(frozen=True)
class ObservationThresholds:
    """Observation-space cutoffs implied by a likelihood threshold pair.

    gamma1 separates quiet from the first event, gamma2 quiet from the
    second event, gamma3 the first event from the second. No ordering
    is imposed; all six orderings are meaningful and are handled by the
    classification rule.
    """

    gamma1: float | np.ndarray
    gamma2: float | np.ndarray
    gamma3: float | np.ndarray

    def __post_init__(self) -> None:
        for name in ("gamma1", "gamma2", "gamma3"):
            value = np.asarray(getattr(self, name))
            _require(np.isfinite(value), value, f"{name} must be finite")

    @property
    def event2_cutoff(self) -> float | np.ndarray:
        """Lowest observation that is classified as the second event."""
        return np.maximum(self.gamma2, self.gamma3)


def gammas_from_lambdas(
    model: SignalModel, thresholds: LikelihoodThresholds
) -> ObservationThresholds:
    """Convert likelihood-ratio levels to observation-space cutoffs.

    With unit-variance Gaussian likelihoods, ln L1(x)/L0(x) >= ln lambda1
    rearranges to x >= gamma1, and similarly for the other two pairwise
    tests. The mean gaps divide, so strict mean ordering is required.
    """
    log1 = _log(thresholds.lambda1)
    log2 = _log(thresholds.lambda2)
    gamma1 = _cutoff(log1, model.m0, model.m1)
    gamma2 = _cutoff(log2, model.m0, model.m2)
    gamma3 = _cutoff(log2 - log1, model.m1, model.m2)
    return ObservationThresholds(gamma1, gamma2, gamma3)


def classify_observations(x: np.ndarray, gammas: ObservationThresholds) -> np.ndarray:
    """Ternary decision codes (int8: 0, +1, -1) for an array of observations."""
    x = np.asarray(x)
    codes = np.zeros(x.shape, dtype=np.int8)
    second = x >= gammas.event2_cutoff
    first = ~second & (x >= gammas.gamma1) & (x < gammas.gamma3)
    codes[second] = Hypothesis.EVENT2.code
    codes[first] = Hypothesis.EVENT1.code
    return codes


@dataclass(frozen=True, eq=False)
class LocalMetrics:
    """Per-sensor report law under each truth, as one decision matrix.

    ``matrix[t, c]`` is P(report ``CODES[c]`` | truth ``CODES[t]``),
    codes ordered (0, +1, -1) as in ``FaultModel.matrix``; in the
    paper's notation, with · the quiet report:
        row 0, truth quiet   : (·, p_f1, p_f2)
        row 1, truth event 1 : (·, p_d1, p_m1)
        row 2, truth event 2 : (·, p_m2, p_d2)

    Thresholds of broadcast shape S give shape (3, 3, *S). Each event
    entry lies in [0, 1] and a row's two cannot exceed one combined,
    since they are masses of disjoint decision regions; every entry is
    checked. Compare two metrics with ``np.array_equal`` on ``matrix``.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.shape[:2] != (3, 3):
            raise ValueError(f"matrix must have shape (3, 3, ...), got {matrix.shape}")
        events = matrix[:, 1:]
        _require((events >= -_UNIT_TOL) & (events <= 1.0 + _UNIT_TOL), events,
                 "event report probabilities must lie in [0, 1]")
        total = events[:, 0] + events[:, 1]
        _require(total <= 1.0 + _UNIT_TOL, total,
                 "a row's two event report probabilities must not exceed 1 combined")
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def from_events(cls, plus: np.ndarray | list, minus: np.ndarray | list) -> LocalMetrics:
        """The matrix from its +1 and -1 columns, rows in ``CODES`` order; the
        one place that computes the quiet column, as ``1.0 - plus - minus``."""
        plus = np.asarray(plus, dtype=float)
        minus = np.asarray(minus, dtype=float)
        return cls(np.stack(np.broadcast_arrays(1.0 - plus - minus, plus, minus), axis=1))


def local_metrics(model: SignalModel, gammas: ObservationThresholds) -> LocalMetrics:
    """Closed-form decision-region masses under each truth.

    The first-event region is the interval [gamma1, gamma3) (empty when
    gamma3 <= gamma1), the second-event region is [max(gamma2, gamma3),
    inf); both are evaluated with the standard normal CDF shifted by
    each truth's mean. ``np.maximum`` returns one of its operands, so
    the second region's CDF is the one already taken at that operand.
    """
    nonempty = gammas.gamma3 > gammas.gamma1
    gamma2_cuts = gammas.gamma2 >= gammas.gamma3
    plus, minus = [], []
    for mean in (model.m0, model.m1, model.m2):
        cdf1 = normal_cdf(gammas.gamma1 - mean)
        cdf2 = normal_cdf(gammas.gamma2 - mean)
        cdf3 = normal_cdf(gammas.gamma3 - mean)
        plus.append(np.where(nonempty, cdf3 - cdf1, 0.0))
        minus.append(1.0 - np.where(gamma2_cuts, cdf2, cdf3))
    return LocalMetrics.from_events(plus, minus)
