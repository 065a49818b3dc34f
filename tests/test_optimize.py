"""Threshold search: reproduction targets, determinism, edge cases."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualdetect import (
    FaultModel,
    FusionParams,
    LikelihoodThresholds,
    OptimizationResult,
    Priors,
    SignalModel,
    fusion_quality,
    gammas_from_lambdas,
    load_config,
    local_metrics,
    minimize_error,
    optimize,
    prob_error,
    prob_error_faulty,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# The (n, k) pairs CI's oracle-check step runs.
ORACLE_PAIRS = [(4, 2), (5, 3), (6, 3), (7, 3), (8, 5), (5, 1), (5, 5), (12, 6)]
ONE_HOT_PRIORS = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]


def _objective(model, priors, params, lambdas):
    gammas = gammas_from_lambdas(model, lambdas)
    return prob_error(priors, fusion_quality(local_metrics(model, gammas), params))


def _exp(x):
    """math.exp of every entry, as the search takes it."""
    x = np.asarray(x)
    return np.array([math.exp(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _axis():
    lo, hi = optimize.LOG_BOUNDS
    points = optimize.GRID_POINTS
    return [lo + (hi - lo) * i / (points - 1) for i in range(points)]


def reference_search(model, priors, params, faults=None):
    """The search restated: the objective on the whole lattice, its first
    row-major argmin, then the compass search."""
    lo, hi = optimize.LOG_BOUNDS
    evaluations = 0

    def objective(log1, log2):
        nonlocal evaluations
        lambdas = LikelihoodThresholds(_exp(log1), _exp(log2))
        values = prob_error_faulty(model, priors, lambdas, params, faults)
        evaluations += values.size
        return values

    axis = _axis()
    column = np.array(axis)
    grid = objective(column[:, None], column[None, :])
    best_i, best_j = np.unravel_index(np.argmin(grid), grid.shape)
    best_u, best_v = axis[best_i], axis[best_j]
    best_f = float(grid[best_i, best_j])
    refine_used = 0
    step = optimize.INITIAL_STEP
    while step >= optimize.MIN_STEP and refine_used + 4 <= optimize.MAX_REFINE_EVALUATIONS:
        candidates = [
            (min(max(u, lo), hi), min(max(v, lo), hi))
            for u, v in ((best_u + step, best_v), (best_u - step, best_v),
                         (best_u, best_v + step), (best_u, best_v - step))
        ]
        us, vs = np.array(candidates).T
        values = objective(us, vs).tolist()
        refine_used += 4
        move = None
        for candidate, f in zip(candidates, values):
            if f < best_f:
                best_f, move = f, candidate
        if move is None:
            step /= 2.0
        else:
            best_u, best_v = move
    return OptimizationResult(math.exp(best_u), math.exp(best_v), best_f,
                              evaluations, step < optimize.MIN_STEP)


def _bits(result):
    """The five result fields, floats as their exact bit patterns."""
    return (result.lambda1.hex(), result.lambda2.hex(), result.objective_value.hex(),
            result.evaluations, result.converged)


def _objectives():
    """(id, model, priors, params, faults) of every objective the search tests cover."""
    cases = []
    for name in ("experiment1", "experiment2"):
        cases.append((name, *load_config(CONFIGS / f"{name}.conf").objective()))
    model, params = SignalModel(0.0, 3.0, 6.0), FusionParams(5, 3)
    for prior in ONE_HOT_PRIORS:
        cases.append((f"one-hot-{prior}", model, Priors(*prior), params, None))
    priors = Priors(0.59, 0.25, 0.16)
    for n, k in ORACLE_PAIRS:
        for faults in (None, FaultModel.uniform_split(0.12)):
            cases.append((f"n{n}-k{k}-{'faulty' if faults else 'clean'}",
                          model, priors, FusionParams(n, k), faults))
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


class TestReferenceOptima:
    def test_no_fault_scenario(self, model, priors, params):
        result = minimize_error(model, priors, params)
        assert result.converged
        assert result.lambda1 == pytest.approx(0.9829, abs=0.02)
        assert result.lambda2 == pytest.approx(1.8496, abs=0.02)

    def test_faulty_scenario(self, model, priors, params):
        result = minimize_error(model, priors, params, FaultModel.uniform_split(0.12))
        assert result.converged
        assert result.lambda1 == pytest.approx(0.9504, abs=0.02)
        assert result.lambda2 == pytest.approx(1.7231, abs=0.02)

    def test_objective_value_matches_thresholds(self, model, priors, params):
        result = minimize_error(model, priors, params)
        recomputed = _objective(model, priors, params, result.thresholds)
        assert result.objective_value == recomputed


class TestSearchBehavior:
    def test_deterministic(self, model, priors, params):
        a = minimize_error(model, priors, params)
        b = minimize_error(model, priors, params)
        assert a == b

    def test_beats_coarse_grid(self, model, priors, params):
        result = minimize_error(model, priors, params)
        for u in np.linspace(-5.0, 5.0, 21):
            for v in np.linspace(-5.0, 5.0, 21):
                lambdas = LikelihoodThresholds(math.exp(u), math.exp(v))
                assert result.objective_value <= _objective(model, priors, params, lambdas) + 1e-15

    def test_respects_evaluation_budget(self, model, priors, params, monkeypatch):
        monkeypatch.setattr(optimize, "GRID_POINTS", 51)
        monkeypatch.setattr(optimize, "MAX_REFINE_EVALUATIONS", 200)
        result = minimize_error(model, priors, params)
        assert result.evaluations <= 51 * 51 + 200

    def test_stays_in_bounds(self, model, priors, params, monkeypatch):
        monkeypatch.setattr(optimize, "LOG_BOUNDS", (-1.0, 1.0))
        result = minimize_error(model, priors, params)
        assert -1.0 - 1e-12 <= math.log(result.lambda1) <= 1.0 + 1e-12
        assert -1.0 - 1e-12 <= math.log(result.lambda2) <= 1.0 + 1e-12

    def test_zero_fault_model_equals_no_faults(self, model, priors, params):
        bare = minimize_error(model, priors, params)
        with_zero = minimize_error(model, priors, params, FaultModel.uniform_split(0.0))
        assert bare.lambda1 == with_zero.lambda1
        assert bare.lambda2 == with_zero.lambda2
        assert bare.objective_value == with_zero.objective_value

    def test_degenerate_priors_push_to_boundary(self, model, params):
        # with no event mass the optimum stops alarming altogether
        result = minimize_error(model, Priors(1.0, 0.0, 0.0), params)
        assert result.objective_value < 1e-6
        assert max(result.lambda1, result.lambda2) >= math.exp(4.9)

    # One-hot priors leave flat stretches, and clamped compass candidates
    # that equal the centre, so these recorded optima pin both tie breaks
    # and the evaluation count.
    @pytest.mark.parametrize("prior, lambda1, lambda2, evaluations", [
        ((1.0, 0.0, 0.0), 148.4131591025766, 4.898944508039069, 10289),
        ((0.0, 1.0, 0.0), 0.006737946999085467, 148.4131591025766, 10269),
        ((0.0, 0.0, 1.0), 7.38905609893065, 0.006737946999085467, 10269),
    ])
    def test_ties_on_flat_objectives(self, model, params, prior, lambda1, lambda2, evaluations):
        result = minimize_error(model, Priors(*prior), params)
        assert (result.lambda1, result.lambda2, result.evaluations, result.converged) == (
            lambda1, lambda2, evaluations, True)

    def test_compass_tie_goes_to_first_candidate(self, model, priors, params, monkeypatch):
        # Two equal wells beside the lattice optimum (0, 0): the first
        # compass round that improves finds the +u and +v moves tied, and
        # the first listed (+u) must win.
        def two_wells(model, priors, lambdas, params, faults):
            u, v = np.log(lambdas.lambda1), np.log(lambdas.lambda2)
            return np.minimum((u - 0.04) ** 2 + v**2, u**2 + (v - 0.04) ** 2)

        monkeypatch.setattr(optimize, "prob_error_faulty", two_wells)
        result = minimize_error(model, priors, params)
        assert math.log(result.lambda1) == pytest.approx(0.04, abs=1e-5)
        assert math.log(result.lambda2) == pytest.approx(0.0, abs=1e-5)

    def test_fault_objective_used_when_faults_given(self, model, priors, params):
        faults = FaultModel.uniform_split(0.24)
        result = minimize_error(model, priors, params, faults)
        recomputed = prob_error_faulty(
            model, priors, result.thresholds, params, faults
        )
        assert result.objective_value == recomputed

    def test_different_priors_move_optimum(self, model, params):
        skewed = minimize_error(model, Priors(0.875, 0.0625, 0.0625), params)
        balanced = minimize_error(model, Priors(0.5, 0.25, 0.25), params)
        assert skewed.lambda1 > balanced.lambda1
        assert skewed.lambda2 > balanced.lambda2


class TestLatticeSearch:
    """The search equals its restatement, :func:`reference_search`, bit for bit."""

    @pytest.mark.parametrize("model, priors, params, faults", _objectives())
    def test_equals_reference_search(self, model, priors, params, faults):
        expected = reference_search(model, priors, params, faults)
        assert _bits(minimize_error(model, priors, params, faults)) == _bits(expected)

    @given(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
        st.floats(0.25, 4.0),
        st.floats(0.25, 4.0),
        st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
        st.one_of(st.none(), st.floats(0.0, 0.5)),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_equals_reference_search(self, cuts, gap1, gap2, quorum, p_f):
        model = SignalModel(0.0, gap1, gap1 + gap2)
        priors = Priors(cuts[0], cuts[1] - cuts[0], 1.0 - cuts[1])
        params = FusionParams(*quorum)
        faults = None if p_f is None else FaultModel.uniform_split(p_f)
        expected = reference_search(model, priors, params, faults)
        assert _bits(minimize_error(model, priors, params, faults)) == _bits(expected)
