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

from .signal_model import Hypothesis, Priors, SignalModel, normal_cdf
from .decision_rules import (
    LikelihoodThresholds,
    LocalMetrics,
    ObservationThresholds,
    classify_observations,
    gammas_from_lambdas,
    local_metrics,
)
from .fusion import (
    FaultModel,
    FusionParams,
    FusionQuality,
    enumerate_fusion_oracle,
    fault_adjust,
    fuse_decisions,
    fusion_quality,
    prob_error,
    prob_error_faulty,
    quorum_label,
)
from .optimize import OptimizationResult, minimize_error
from .simulator import (
    FAULT_MODES,
    FaultSpec,
    FieldConfig,
    Rectangle,
    RunResult,
    SensorField,
    generate_field,
    run_detection,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    SingleRunArtifacts,
    SweepRow,
    SweepSummary,
    load_config,
    parse_config_text,
    run_single,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Hypothesis",
    "Priors",
    "SignalModel",
    "normal_cdf",
    "LikelihoodThresholds",
    "LocalMetrics",
    "ObservationThresholds",
    "classify_observations",
    "gammas_from_lambdas",
    "local_metrics",
    "FaultModel",
    "FusionParams",
    "FusionQuality",
    "enumerate_fusion_oracle",
    "fault_adjust",
    "fuse_decisions",
    "fusion_quality",
    "prob_error",
    "prob_error_faulty",
    "quorum_label",
    "OptimizationResult",
    "minimize_error",
    "FAULT_MODES",
    "FaultSpec",
    "FieldConfig",
    "Rectangle",
    "RunResult",
    "SensorField",
    "generate_field",
    "run_detection",
    "ConfigError",
    "ExperimentConfig",
    "SingleRunArtifacts",
    "SweepRow",
    "SweepSummary",
    "load_config",
    "parse_config_text",
    "run_single",
    "run_sweep",
    "__version__",
]
