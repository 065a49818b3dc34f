#!/usr/bin/env python3
"""Find the likelihood thresholds that minimize the fused error.

A coarse grid over the log-threshold plane feeds a compass pattern
search. The optimizer is deterministic, so rerunning this script
reproduces the same pair. The second half repeats the search with a
reporting-fault model in the objective and prints how far the optimum
moves, and how flat the surface is around it.
"""

from dualdetect import (
    FaultModel,
    FusionParams,
    LikelihoodThresholds,
    Priors,
    SignalModel,
    minimize_error,
    prob_error_faulty,
)


def main():
    model = SignalModel(m0=0.0, m1=3.0, m2=6.0)
    priors = Priors(q0=0.59, q1=0.25, q2=0.16)
    params = FusionParams(n=5, k=3)

    result = minimize_error(model, priors, params)
    print("fault-free search:")
    print("  lambda1=%.6f lambda2=%.6f" % (result.lambda1, result.lambda2))
    print("  error probability=%.6e" % result.objective_value)
    print("  evaluations=%d converged=%s" % (result.evaluations, result.converged))
    print()

    # probe the surface along each axis; the valley is wide and shallow
    print("surface near the optimum (relative error increase):")
    base = result.objective_value
    for scale in (0.9, 0.95, 1.05, 1.1):
        pe1 = prob_error_faulty(model, priors, LikelihoodThresholds(
            result.lambda1 * scale, result.lambda2), params, None)
        pe2 = prob_error_faulty(model, priors, LikelihoodThresholds(
            result.lambda1, result.lambda2 * scale), params, None)
        print("  lambda1 x%.2f: +%.3e   lambda2 x%.2f: +%.3e"
              % (scale, pe1 - base, scale, pe2 - base))
    print()

    faults = FaultModel.uniform_split(0.12)
    faulty = minimize_error(model, priors, params, faults)
    print("search with a 0.12 fault probability in the objective:")
    print("  lambda1=%.6f lambda2=%.6f" % (faulty.lambda1, faulty.lambda2))
    print("  error probability=%.6e" % faulty.objective_value)
    print("  shift from fault-free pair: (%.4f, %.4f)"
          % (faulty.lambda1 - result.lambda1, faulty.lambda2 - result.lambda2))


if __name__ == "__main__":
    main()
