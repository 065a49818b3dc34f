#!/usr/bin/env python3
"""Quorum fusion quality, exactly and by brute force.

The fused decision declares an event when at least k of the n reports
in a neighborhood agree on it. The closed-form quality terms sum a
trinomial tail; the enumeration oracle walks every possible report
vector instead. This script shows both agree to machine precision and
then applies a reporting-fault model to see how the quality degrades.
"""

from dataclasses import astuple

from dualdetect import (
    FaultModel,
    FusionParams,
    LikelihoodThresholds,
    SignalModel,
    enumerate_fusion_oracle,
    fault_adjust,
    fusion_quality,
    gammas_from_lambdas,
    local_metrics,
)


def show(quality):
    print("  q_d1=%.12f q_d2=%.12f" % (quality.q_d1, quality.q_d2))
    print("  q_f1=%.12f q_f2=%.12f q_f=%.12f"
          % (quality.q_f1, quality.q_f2, quality.q_f))


def main():
    model = SignalModel(m0=0.0, m1=3.0, m2=6.0)
    lambdas = LikelihoodThresholds(lambda1=0.9829, lambda2=1.8496)
    metrics = local_metrics(model, gammas_from_lambdas(model, lambdas))
    params = FusionParams(n=5, k=3)

    quality = fusion_quality(metrics, params)
    print("closed-form quality for %d-out-of-%d fusion:" % (params.k, params.n))
    show(quality)
    print()

    oracle = enumerate_fusion_oracle(metrics, params)
    print("enumeration oracle (sums over all 3^n report vectors):")
    show(oracle)
    worst = max(abs(a - b) for a, b in zip(astuple(quality), astuple(oracle)))
    print("  max |closed - enumerated| = %.3e" % worst)
    print()

    # a fault scrambles the report before it leaves the sensor
    faults = FaultModel.uniform_split(0.12)
    adjusted = fault_adjust(metrics, faults.matrix)
    degraded = fusion_quality(adjusted, params)
    print("after a 0.12 reporting-fault probability, split evenly:")
    print("  q_d1 %.6f -> %.6f" % (quality.q_d1, degraded.q_d1))
    print("  q_d2 %.6f -> %.6f" % (quality.q_d2, degraded.q_d2))
    print("  q_f  %.6f -> %.6f" % (quality.q_f, degraded.q_f))


if __name__ == "__main__":
    main()
