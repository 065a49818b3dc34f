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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Hypothesis",
    "SignalModel",
    "Priors",
    "normal_cdf",
]

_PRIOR_SUM_TOL = 1e-9


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

    @classmethod
    def from_code(cls, code: int) -> "Hypothesis":
        try:
            return cls(int(code))
        except ValueError:
            raise ValueError(
                f"invalid decision code {code!r}; expected 0, +1 or -1"
            ) from None


@dataclass(frozen=True)
class SignalModel:
    """Mean observation level under each hypothesis (unit variance).

    Parameters
    ----------
    m0, m1, m2:
        Means under NORMAL, EVENT1 and EVENT2. Strict ordering
        m2 > m1 > m0 is required; the decision thresholds are not
        well defined otherwise.
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

    def means_for_codes(self, codes: np.ndarray) -> np.ndarray:
        """Vectorized mean lookup for an array of 0/+1/-1 codes."""
        codes = np.asarray(codes)
        return np.select([codes == 1, codes == -1], [self.m1, self.m2], self.m0)


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


def normal_cdf(z: float) -> float:
    """Standard normal CDF, accurate to machine precision via erf."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
