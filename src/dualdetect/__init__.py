"""Fault-tolerant distributed detection of two concurrent events.

The package models wireless sensor nodes that each take a ternary
local decision (normal / first event / second event) from a Gaussian
observation, exchange decisions with their nearest neighbors, and fuse
them with a quorum rule that tolerates faulty reports. It provides:

* the three-hypothesis signal model and likelihood-ratio decision rule,
* closed-form local and fused error probabilities, with and without a
  six-way fault transition model,
* deterministic threshold optimization for the fused error probability,
* a spatial Monte Carlo simulator and a reproducible experiment harness.
"""

# Each module's __all__ states its public names; the package republishes
# their union.
from . import signal_model, decision_rules, fusion, optimize, simulator, harness
from .signal_model import *  # noqa: F401,F403
from .decision_rules import *  # noqa: F401,F403
from .fusion import *  # noqa: F401,F403
from .optimize import *  # noqa: F401,F403
from .simulator import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *signal_model.__all__, *decision_rules.__all__, *fusion.__all__,
    *optimize.__all__, *simulator.__all__, *harness.__all__, "__version__",
]
