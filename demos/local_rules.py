#!/usr/bin/env python3
"""Walk through the ternary local decision rule.

Each sensor compares a scalar reading against three thresholds derived
from a pair of likelihood ratios and reports normal (0), first event
(+1), or second event (-1). This script derives the observation
thresholds for a small model, prints the decision regions, and checks
the closed-form detection and false-alarm terms against Monte Carlo
frequencies.
"""

import numpy as np

from dualdetect import (
    Hypothesis,
    LikelihoodThresholds,
    SignalModel,
    classify_observations,
    gammas_from_lambdas,
    local_metrics,
)


def main():
    model = SignalModel(m0=0.0, m1=3.0, m2=6.0)
    lambdas = LikelihoodThresholds(lambda1=1.0, lambda2=1.0)
    gammas = gammas_from_lambdas(model, lambdas)

    print("signal means:", (model.m0, model.m1, model.m2))
    print("likelihood thresholds:", (lambdas.lambda1, lambdas.lambda2))
    print("observation thresholds: gamma1=%.4f gamma2=%.4f gamma3=%.4f"
          % (gammas.gamma1, gammas.gamma2, gammas.gamma3))
    print()

    # unit ratios place each cut midway between the neighboring means
    grid = np.linspace(-2.0, 8.0, 21)
    decisions = classify_observations(grid, gammas)
    print("reading -> decision")
    for x, u in zip(grid, decisions):
        label = {0: "normal", 1: "event 1", -1: "event 2"}[int(u)]
        print("  %6.2f -> %s" % (x, label))
    print()

    # d[t, c]: P(report CODES[c] | truth CODES[t]), codes ordered (0, +1, -1)
    d = local_metrics(model, gammas).matrix
    print("closed-form per-sensor terms:")
    print("  p_d1=%.6f p_d2=%.6f" % (d[1, 1], d[2, 2]))
    print("  p_f1=%.6f p_f2=%.6f" % (d[0, 1], d[0, 2]))
    print("  p_m1=%.6f p_m2=%.6f" % (d[1, 2], d[2, 1]))
    print()

    rng = np.random.default_rng(7)
    draws = 200_000
    print("Monte Carlo check with %d draws per hypothesis:" % draws)
    for truth, mean, name, want in (
        (Hypothesis.EVENT1, model.m1, "P(report +1 | event 1)", d[1, 1]),
        (Hypothesis.EVENT2, model.m2, "P(report -1 | event 2)", d[2, 2]),
        (Hypothesis.NORMAL, model.m0, "P(report +1 | normal) ", d[0, 1]),
        (Hypothesis.NORMAL, model.m0, "P(report -1 | normal) ", d[0, 2]),
    ):
        x = rng.normal(mean, 1.0, size=draws)
        u = classify_observations(x, gammas)
        code = 1 if "+1" in name else -1
        freq = np.mean(u == code)
        print("  %s closed=%.5f sampled=%.5f" % (name, want, freq))


if __name__ == "__main__":
    main()
