"""Numerical search for the likelihood thresholds minimizing Bayes error.

The objective Pe(lambda1, lambda2) has no useful closed-form minimizer,
so the search runs in log-threshold space in two stages: a coarse
uniform grid to locate the basin, then a derivative-free pattern search
that shrinks its step until the requested resolution. Both stages are
fully deterministic, and both are scored in array calls of the closed
form: the lattice in blocks of at most LATTICE_BLOCK_ROWS rows, and
each compass round's four candidates in one call with those of every
halving that would follow it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decision_rules import LikelihoodThresholds
from .fusion import FaultModel, FusionParams, prob_error_faulty
from .signal_model import Priors, SignalModel, elementwise

__all__ = ["OptimizationResult", "minimize_error"]

# Search settings: a GRID_POINTS x GRID_POINTS lattice over LOG_BOUNDS in
# (ln lambda1, ln lambda2), then compass steps from INITIAL_STEP down to
# MIN_STEP within MAX_REFINE_EVALUATIONS objective calls.
LOG_BOUNDS = (-5.0, 5.0)
GRID_POINTS = 101
INITIAL_STEP = 0.1
MIN_STEP = 1e-6
MAX_REFINE_EVALUATIONS = 10_000
# Lattice rows scored per objective call. A call's largest temporary is
# its (3, 3, rows, GRID_POINTS) float64 decision matrix, 7,272 bytes a
# row at 101 points: 18 rows keep it under glibc's default 128 KiB mmap
# threshold, so malloc recycles each block's memory for the next block
# instead of mapping and faulting in fresh pages. The closed form is
# elementwise, so the lattice's values do not depend on the block size.
LATTICE_BLOCK_ROWS = 18

_exp = elementwise(math.exp)


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a threshold search.

    converged is False when the pattern search exhausted its evaluation
    budget before reaching the minimum step; the best point found so
    far is still reported. evaluations counts each lattice point once
    plus four per compass round the search takes; candidates that an
    objective call scored for later halvings and the search then
    discarded are not counted.
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
    (ln lambda1, ln lambda2) pair. Stage 2 runs a compass pattern search
    from the best lattice point, halving the step whenever no axis move
    improves, until the step drops below MIN_STEP or the refinement
    evaluation budget is spent. A round that does not move keeps the
    centre, so one objective call scores a round and all the halvings
    after it; the rounds are replayed in order up to the first move,
    with the result of one call per round.
    """
    lo, hi = LOG_BOUNDS

    def objective(log1: np.ndarray, log2: np.ndarray) -> np.ndarray:
        """Pe at every broadcast (ln lambda1, ln lambda2) pair."""
        lambdas = LikelihoodThresholds(_exp(log1), _exp(log2))
        return prob_error_faulty(model, priors, lambdas, params, faults)

    # Stage 1: coarse lattice, rows over ln lambda1 and columns over
    # ln lambda2, scored in consecutive row blocks. The first row-major
    # argmin is the smallest-(u, v) tie break.
    span = hi - lo
    axis = [lo + span * i / (GRID_POINTS - 1) for i in range(GRID_POINTS)]
    column = np.array(axis)
    lattice = np.concatenate([
        objective(column[a:a + LATTICE_BLOCK_ROWS, None], column[None, :])
        for a in range(0, GRID_POINTS, LATTICE_BLOCK_ROWS)
    ])
    row, col = divmod(int(np.argmin(lattice)), GRID_POINTS)
    best_u, best_v = axis[row], axis[col]
    best_f = float(lattice[row, col])

    # Stage 2: compass search, clamped to the lattice bounds. The lowest
    # of the four candidates moves the centre if it beats it; ties go to
    # the earlier candidate. Each call scores a round and the halvings
    # after it, down to MIN_STEP and within the budget; rounds past the
    # first move are discarded.
    refine_used = 0
    step = INITIAL_STEP
    while step >= MIN_STEP and refine_used + 4 <= MAX_REFINE_EVALUATIONS:
        steps = [step]
        while (steps[-1] / 2.0 >= MIN_STEP
               and refine_used + 4 * (len(steps) + 1) <= MAX_REFINE_EVALUATIONS):
            steps.append(steps[-1] / 2.0)
        candidates = [
            (min(max(u, lo), hi), min(max(v, lo), hi))
            for s in steps
            for u, v in (
                (best_u + s, best_v),
                (best_u - s, best_v),
                (best_u, best_v + s),
                (best_u, best_v - s),
            )
        ]
        us, vs = np.array(candidates).T
        values = objective(us, vs).tolist()
        for a in range(0, len(candidates), 4):
            refine_used += 4
            move = None
            for candidate, f in zip(candidates[a:a + 4], values[a:a + 4]):
                if f < best_f:
                    best_f, move = f, candidate
            if move is not None:
                best_u, best_v = move
                break
            step /= 2.0

    return OptimizationResult(
        lambda1=math.exp(best_u),
        lambda2=math.exp(best_v),
        objective_value=best_f,
        evaluations=lattice.size + refine_used,
        converged=step < MIN_STEP,
    )
