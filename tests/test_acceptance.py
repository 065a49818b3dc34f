"""Acceptance gate: one check per release criterion, at stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL line
per criterion. Reference numbers are the published values this package
sets out to reproduce; tolerances are fixed here and not widened to
make checks pass. Checks that the implementation genuinely cannot meet
are left failing on purpose; the README's reproduction notes explain
each gap and the evidence behind it.
"""

import subprocess
import sys
import time
from dataclasses import astuple
from pathlib import Path

import numpy as np

from dualdetect import (
    FaultModel,
    FusionParams,
    LikelihoodThresholds,
    LocalMetrics,
    SignalModel,
    enumerate_fusion_oracle,
    fault_adjust,
    fusion_quality,
    gammas_from_lambdas,
    load_config,
    local_metrics,
    minimize_error,
    prob_error,
    prob_error_faulty,
    run_single,
    run_sweep,
)
from dualdetect.decision_rules import ObservationThresholds, classify_observations

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Reference sweep rows: value -> (ld_bf, fd_bf, ld_af, fd_af) in percent.
FAULT_SWEEP_REFERENCE = {
    "0.12": (8.20, 3.55, 17.36, 8.01),
    "0.24": (8.08, 3.83, 24.11, 13.84),
    "0.36": (8.12, 3.73, 29.57, 18.09),
}
NEIGHBORHOOD_FD_AF_REFERENCE = {"3/2": 9.4, "5/3": 7.8, "7/4": 7.2, "9/5": 7.1}
SENSOR_COUNT_FD_BF_REFERENCE = {"200": 3.7, "400": 2.9, "700": 2.1, "1000": 1.9}


def _report(label, ok, detail):
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_threshold_reproduction_without_faults(model, priors, params):
    start = time.monotonic()
    result = minimize_error(model, priors, params)
    elapsed = time.monotonic() - start
    ok = (
        abs(result.lambda1 - 0.9829) <= 0.02
        and abs(result.lambda2 - 1.8496) <= 0.02
        and elapsed < 10.0
    )
    detail = f"lambda=({result.lambda1:.4f}, {result.lambda2:.4f}) vs (0.9829, 1.8496) +-0.02, {elapsed:.2f}s"
    assert _report("criterion 1, fault-free threshold reproduction", ok, detail)


def test_criterion_02_threshold_reproduction_with_faults(model, priors, params):
    start = time.monotonic()
    result = minimize_error(model, priors, params, FaultModel.uniform_split(0.12))
    elapsed = time.monotonic() - start
    ok = (
        abs(result.lambda1 - 0.9504) <= 0.02
        and abs(result.lambda2 - 1.7231) <= 0.02
        and elapsed < 10.0
    )
    detail = f"lambda=({result.lambda1:.4f}, {result.lambda2:.4f}) vs (0.9504, 1.7231) +-0.02, {elapsed:.2f}s"
    assert _report("criterion 2, faulty threshold reproduction", ok, detail)


def test_criterion_03_fault_probability_sweep():
    base = load_config(CONFIGS / "experiment2.conf")
    start = time.monotonic()
    summary = run_sweep(base, "p_f", list(FAULT_SWEEP_REFERENCE))
    elapsed = time.monotonic() - start
    misses = []
    for row in summary.rows:
        reference = FAULT_SWEEP_REFERENCE[row.label]
        got = (row.ld_bf, row.fd_bf, row.ld_af, row.fd_af)
        for name, value, want in zip(("ld_bf", "fd_bf", "ld_af", "fd_af"), got, reference):
            if abs(value - want) > 2.0:
                misses.append(f"{name}@{row.label}={value:.2f} vs {want}")
    ok = not misses and elapsed < 120.0
    detail = f"{elapsed:.1f}s, " + ("all 12 cells within 2 pp" if not misses else "; ".join(misses))
    assert _report("criterion 3, fault sweep reproduction", ok, detail)


def test_criterion_04_neighborhood_size_trend():
    base = load_config(CONFIGS / "experiment2.conf")
    start = time.monotonic()
    summary = run_sweep(base, "nk", list(NEIGHBORHOOD_FD_AF_REFERENCE))
    elapsed = time.monotonic() - start
    values = [row.fd_af for row in summary.rows]
    monotone = all(a >= b for a, b in zip(values, values[1:]))
    in_band = all(
        abs(row.fd_af - NEIGHBORHOOD_FD_AF_REFERENCE[row.label]) <= 2.0
        for row in summary.rows
    )
    ok = monotone and in_band and elapsed < 180.0
    detail = (
        f"fd_af={[f'{v:.2f}' for v in values]}, monotone={monotone}, "
        f"within 2 pp={in_band}, {elapsed:.1f}s"
    )
    assert _report("criterion 4, neighborhood size trend", ok, detail)


def test_criterion_05_sensor_count_trend():
    base = load_config(CONFIGS / "experiment2.conf")
    summary = run_sweep(base, "sensor_count", list(SENSOR_COUNT_FD_BF_REFERENCE))
    values = [row.fd_bf for row in summary.rows]
    monotone = all(a >= b for a, b in zip(values, values[1:]))
    in_band = all(
        abs(row.fd_bf - SENSOR_COUNT_FD_BF_REFERENCE[row.label]) <= 1.5
        for row in summary.rows
    )
    ok = monotone and in_band
    detail = f"fd_bf={[f'{v:.2f}' for v in values]}, monotone={monotone}, within 1.5 pp={in_band}"
    assert _report("criterion 5, sensor count trend", ok, detail)


def test_criterion_06_skewed_priors_spot_check():
    base = load_config(CONFIGS / "experiment2.conf")
    summary = run_sweep(base, "priors", ["0.875/0.0625/0.0625"])
    row = summary.rows[0]
    fd_bf_ok = abs(row.fd_bf - 1.9) <= 1.5
    lambda_ok = abs(row.lambda1 - 1.7) <= 0.1 and abs(row.lambda2 - 3.5) <= 0.1
    ok = fd_bf_ok and lambda_ok
    detail = (
        f"fd_bf={row.fd_bf:.2f} vs 1.9 +-1.5, "
        f"lambda=({row.lambda1:.4f}, {row.lambda2:.4f}) vs (1.7, 3.5) +-0.1"
    )
    assert _report("criterion 6, skewed priors spot check", ok, detail)


def _metrics_from_draws(draws):
    """Metrics from three draws read as (p_d1, p_m1), (p_d2, p_m2), (p_f1, p_f2)."""
    (d1, m1, _), (d2, m2, _), (f1, f2, _) = draws
    return LocalMetrics.from_events((f1, d1, m2), (f2, m1, d2))


def test_criterion_07_closed_form_matches_enumeration():
    rng = np.random.default_rng(20260818)
    pairs = [(n, k) for n in range(1, 8) for k in range(1, n + 1)]
    worst = 0.0
    for _ in range(1000):
        metrics = _metrics_from_draws([rng.dirichlet((1.0, 1.0, 1.0)) for _ in range(3)])
        for n, k in pairs:
            fusion_params = FusionParams(n, k)
            quality = astuple(fusion_quality(metrics, fusion_params))
            reference = astuple(enumerate_fusion_oracle(metrics, fusion_params))
            worst = max(worst, *(abs(a - b) for a, b in zip(quality, reference)))
    ok = worst <= 1e-12
    detail = f"1000 metrics x {len(pairs)} (n,k) pairs, max |closed - enumerated| = {worst:.2e}"
    assert _report("criterion 7, enumeration oracle equivalence", ok, detail)


def _ordering_case(g1, g2, g3):
    if g3 < g1 and g3 < g2:
        return 5
    if g2 < g3 < g1:
        return 4
    if g2 < g1 < g3:
        return 3
    if g1 < g3 < g2:
        return 2
    if g1 < g2 < g3:
        return 1
    return 0


def test_criterion_08_monte_carlo_matches_metrics():
    rng = np.random.default_rng(5)
    n_samples = 1_000_000
    wanted = 100
    quota_cap = wanted // 4
    cases = {c: 0 for c in range(1, 6)}
    configs = []
    while len(configs) < wanted:
        m0 = rng.uniform(-2.0, 2.0)
        m1 = m0 + rng.uniform(0.5, 3.0)
        m2 = m1 + rng.uniform(0.5, 3.0)
        gammas = tuple(rng.uniform(m0 - 1.0, m2 + 1.0, size=3))
        case = _ordering_case(*gammas)
        if case == 0:
            continue
        if cases[case] >= quota_cap and any(v < 5 for v in cases.values()):
            continue
        cases[case] += 1
        configs.append((SignalModel(m0, m1, m2), ObservationThresholds(*gammas)))
    worst = 0.0
    for model, gammas in configs:
        d = local_metrics(model, gammas).matrix
        for mean, row in ((model.m1, d[1]), (model.m2, d[2]), (model.m0, d[0])):
            codes = classify_observations(mean + rng.standard_normal(n_samples), gammas)
            pairs = ((row[1], float(np.mean(codes == 1))), (row[2], float(np.mean(codes == -1))))
            for p, frequency in pairs:
                se = np.sqrt(p * (1.0 - p) / n_samples)
                if se == 0.0:
                    worst = max(worst, 0.0 if frequency == p else np.inf)
                    continue
                worst = max(worst, abs(frequency - p) / se)
    ok = worst <= 3.0 and all(v >= 5 for v in cases.values())
    detail = f"100 configs, case counts={cases}, max |freq - p| = {worst:.2f} binomial SE"
    assert _report("criterion 8, Monte Carlo metric consistency", ok, detail)


def test_criterion_09_fault_identities(model, priors, params):
    rng = np.random.default_rng(17)
    zero = FaultModel.uniform_split(0.0)
    worst = 0.0
    identity_ok = True
    for _ in range(100):
        metrics = _metrics_from_draws([rng.dirichlet((1.0, 1.0, 1.0)) for _ in range(3)])
        adjusted = fault_adjust(metrics, zero.matrix)
        identity_ok = identity_ok and np.array_equal(adjusted.matrix, metrics.matrix)
        lambdas = LikelihoodThresholds(
            float(np.exp(rng.uniform(-4.0, 4.0))), float(np.exp(rng.uniform(-4.0, 4.0)))
        )
        gammas = gammas_from_lambdas(model, lambdas)
        baseline = prob_error(priors, fusion_quality(local_metrics(model, gammas), params))
        with_zero_faults = prob_error_faulty(model, priors, lambdas, params, zero)
        worst = max(worst, abs(with_zero_faults - baseline))
    ok = identity_ok and worst <= 1e-15
    detail = f"identity exact={identity_ok}, max |Pe_zero_faults - Pe| = {worst:.1e}"
    assert _report("criterion 9, zero-fault identities", ok, detail)


def test_criterion_10_simulation_determinism(tmp_path):
    outputs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        completed = subprocess.run(
            [
                sys.executable, "-m", "dualdetect", "simulate",
                "--config", str(CONFIGS / "experiment2.conf"),
                "--output-dir", str(out_dir),
            ],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    same_names = sorted(outputs[0]) == sorted(outputs[1])
    identical = same_names and all(outputs[0][n] == outputs[1][n] for n in outputs[0])
    ok = identical and len(outputs[0]) == 5
    detail = f"{len(outputs[0])} files, byte-identical={identical}"
    assert _report("criterion 10, seeded run determinism", ok, detail)


def test_note_single_run_headline_bands(tmp_path):
    clean = run_single(load_config(CONFIGS / "experiment1.conf"), tmp_path / "exp1")
    faulty = run_single(load_config(CONFIGS / "experiment2.conf"), tmp_path / "exp2")
    checks = [
        ("clean local", clean.summary["local_error_percent"], 6.5),
        ("clean final", clean.summary["final_error_percent"], 1.5),
        ("faulty local", faulty.summary["local_error_faulty_percent"], 17.5),
        ("faulty final", faulty.summary["final_error_faulty_percent"], 11.0),
    ]
    misses = [
        f"{name}={value:.1f} vs {want} +-3"
        for name, value, want in checks
        if abs(value - want) > 3.0
    ]
    ok = not misses
    detail = "all four headline errors within 3 pp" if ok else "; ".join(misses)
    assert _report("headline single-run bands", ok, detail)
