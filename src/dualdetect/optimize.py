"""Numerical search for the likelihood thresholds minimizing Bayes error.

The objective Pe(lambda1, lambda2) has no useful closed-form minimizer,
so the search runs in log-threshold space in two stages: a coarse
uniform grid to locate the basin, then a derivative-free pattern search
that shrinks its step until the requested resolution. Both stages are
fully deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .decision_rules import LikelihoodThresholds
from .fusion import FaultModel, FusionParams, prob_error_faulty
from .signal_model import Priors, SignalModel

__all__ = ["OptimizationResult", "minimize_error"]

# Search settings: a GRID_POINTS x GRID_POINTS lattice over LOG_BOUNDS in
# (ln lambda1, ln lambda2), then compass steps from INITIAL_STEP down to
# MIN_STEP within MAX_REFINE_EVALUATIONS objective calls.
LOG_BOUNDS = (-5.0, 5.0)
GRID_POINTS = 101
INITIAL_STEP = 0.1
MIN_STEP = 1e-6
MAX_REFINE_EVALUATIONS = 10_000


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a threshold search.

    converged is False when the pattern search exhausted its evaluation
    budget before reaching the minimum step; the best point found so
    far is still reported.
    """

    lambda1: float
    lambda2: float
    objective_value: float
    evaluations: int
    converged: bool

    @property
    def thresholds(self) -> LikelihoodThresholds:
        return LikelihoodThresholds(self.lambda1, self.lambda2)


def minimize_error(
    model: SignalModel,
    priors: Priors,
    params: FusionParams,
    faults: FaultModel | None = None,
) -> OptimizationResult:
    """Minimize the (optionally fault-adjusted) fused Bayes error.

    Stage 1 evaluates the lattice; ties prefer the smallest
    (ln lambda1, ln lambda2) pair. Stage 2 runs a compass pattern
    search from the best lattice point, halving the step whenever no
    axis move improves, until the step drops below MIN_STEP or the
    refinement evaluation budget is spent.
    """
    lo, hi = LOG_BOUNDS
    evaluations = 0

    def objective(log1: float, log2: float) -> float:
        nonlocal evaluations
        evaluations += 1
        lambdas = LikelihoodThresholds(math.exp(log1), math.exp(log2))
        return prob_error_faulty(model, priors, lambdas, params, faults)

    # Stage 1: coarse lattice. Row-major ascending scan plus strict
    # comparison implements the smallest-(u, v) tie break.
    span = hi - lo
    axis = [lo + span * i / (GRID_POINTS - 1) for i in range(GRID_POINTS)]
    best_u = best_v = axis[0]
    best_f = math.inf
    for u in axis:
        for v in axis:
            f = objective(u, v)
            if f < best_f:
                best_f, best_u, best_v = f, u, v

    # Stage 2: compass search, clamped to the lattice bounds.
    refine_used = 0
    step = INITIAL_STEP
    while step >= MIN_STEP and refine_used + 4 <= MAX_REFINE_EVALUATIONS:
        candidates = (
            (best_u + step, best_v),
            (best_u - step, best_v),
            (best_u, best_v + step),
            (best_u, best_v - step),
        )
        move = None
        for u, v in candidates:
            u = min(max(u, lo), hi)
            v = min(max(v, lo), hi)
            f = objective(u, v)
            refine_used += 1
            if f < best_f:
                best_f, move = f, (u, v)
        if move is None:
            step /= 2.0
        else:
            best_u, best_v = move

    return OptimizationResult(
        lambda1=math.exp(best_u),
        lambda2=math.exp(best_v),
        objective_value=best_f,
        evaluations=evaluations,
        converged=step < MIN_STEP,
    )
