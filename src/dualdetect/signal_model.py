"""Three-state Gaussian observation model.

Every sensor location is in exactly one of three states: nothing is
happening, the first event is present, or the second event is present.
A sensor sees that state through additive unit-variance Gaussian noise,
so the state only shifts the mean of the measurement. The second event
is assumed to produce a stronger reading than the first, which in turn
is stronger than the quiet background.
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Hypothesis",
    "SignalModel",
    "Priors",
    "normal_cdf",
]

_PRIOR_SUM_TOL = 1e-9
# ln of the smallest and of the largest positive double, so ln lambda of
# every threshold lies in this range, and ln(lambda2 / lambda1) within
# plus or minus its width.
_LOG_RANGE = (math.log(5e-324), math.log(sys.float_info.max))


def _cutoff(log_ratio: float | np.ndarray, a: float, b: float) -> float | np.ndarray:
    """The observation at which a unit-variance Gaussian likelihood ratio
    of mean b to mean a equals exp(log_ratio); elementwise on arrays."""
    return log_ratio / (b - a) + (b + a) / 2.0


class Hypothesis(enum.Enum):
    """Ground-truth state or decision label for one sensor location.

    The enum value doubles as the integer wire encoding used in arrays
    and CSV files: 0 for the quiet state, +1 for the first event, -1
    for the second event.
    """

    NORMAL = 0
    EVENT1 = 1
    EVENT2 = -1

    @property
    def code(self) -> int:
        return self.value


# The decision codes (0, +1, -1) in the order every per-label table uses,
# the fault matrix included: a code's index is ``code % 3``.
CODES = np.array([h.code for h in Hypothesis], dtype=np.int8)


@dataclass(frozen=True)
class SignalModel:
    """Mean observation level under each hypothesis (unit variance).

    Parameters
    ----------
    m0, m1, m2:
        Means under NORMAL, EVENT1 and EVENT2. Strict ordering
        m2 > m1 > m0 is required; the decision thresholds are not
        well defined otherwise. The means must also keep every
        observation cutoff finite for every positive threshold pair:
        gaps below about 1e-305, or means near the largest double, are
        refused.
    """

    m0: float
    m1: float
    m2: float

    def __post_init__(self) -> None:
        for name in ("m0", "m1", "m2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (self.m2 > self.m1 > self.m0):
            raise ValueError(
                f"means must satisfy m2 > m1 > m0, got "
                f"({self.m0}, {self.m1}, {self.m2})"
            )
        # A cutoff is linear in ln(ratio) for a likelihood ratio of
        # positive doubles (decision_rules.gammas_from_lambdas), so it is
        # finite for every threshold pair if it is at the ends of the
        # range ln(ratio) can take.
        lo, hi = _LOG_RANGE
        for a, b, ends in ((self.m0, self.m1, (lo, hi)), (self.m0, self.m2, (lo, hi)),
                           (self.m1, self.m2, (lo - hi, hi - lo))):
            for end in ends:
                if not math.isfinite(_cutoff(end, a, b)):
                    raise ValueError(
                        f"means ({self.m0}, {self.m1}, {self.m2}) put an observation "
                        f"cutoff, ln(ratio) / ({b} - {a}) + ({b} + {a}) / 2, out of "
                        f"float range at ln(ratio) = {end:.6g}"
                    )

    def means_for_codes(self, codes: np.ndarray) -> np.ndarray:
        """Vectorized mean lookup: the means in CODES order, at ``code % 3``."""
        return np.array([self.m0, self.m1, self.m2])[np.asarray(codes) % 3]


@dataclass(frozen=True)
class Priors:
    """Prior probabilities of the three hypotheses; must sum to one."""

    q0: float
    q1: float
    q2: float

    def __post_init__(self) -> None:
        for name in ("q0", "q1", "q2"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        total = self.q0 + self.q1 + self.q2
        if abs(total - 1.0) > _PRIOR_SUM_TOL:
            raise ValueError(f"priors must sum to 1 within {_PRIOR_SUM_TOL}, got {total!r}")


def elementwise(func: Callable[[float], float]) -> Callable[[object], np.ndarray]:
    """Map a scalar ``math`` function over an array, returning float64.

    numpy's own float64 log and exp kernels may round the last bit
    differently from the C library, and differently from one CPU to the
    next. Calling the library function on each element keeps every
    array entry equal to the scalar computation.
    """

    def apply(x: object) -> np.ndarray:
        x = np.asarray(x)
        values = map(func, x.ravel().tolist())
        return np.fromiter(values, np.float64, x.size).reshape(x.shape)

    return apply


_erf = elementwise(math.erf)


def normal_cdf(z: float | np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise, accurate to machine precision via erf."""
    return 0.5 * (1.0 + _erf(z / math.sqrt(2.0)))
