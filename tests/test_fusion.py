"""Decision fusion: quorum tail sums, fault transitions, error composition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom

from dualdetect import (
    FaultModel,
    FusionParams,
    Hypothesis,
    LikelihoodThresholds,
    LocalMetrics,
    Priors,
    enumerate_fusion_oracle,
    fault_adjust,
    fusion_quality,
    gammas_from_lambdas,
    local_metrics,
    prob_error,
    prob_error_faulty,
)


def pair(total=1.0):
    """Two nonnegative floats with a bounded sum."""
    return st.tuples(st.floats(0.0, total), st.floats(0.0, 1.0)).map(
        lambda t: (t[0] * t[1], t[0] * (1.0 - t[1]))
    )


def metrics_strategy():
    return st.tuples(pair(), pair(), pair()).map(
        lambda t: LocalMetrics(
            p_d1=t[0][0], p_m1=t[0][1],
            p_d2=t[1][0], p_m2=t[1][1],
            p_f1=t[2][0], p_f2=t[2][1],
        )
    )


def fault_strategy(cap=0.5):
    return st.tuples(*(st.floats(0.0, cap) for _ in range(6))).map(
        lambda a: FaultModel(*a)
    )


class TestFusionParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FusionParams(0, 1)
        with pytest.raises(ValueError):
            FusionParams(3, 4)
        with pytest.raises(ValueError):
            FusionParams(3, 0)


class TestFusionQuality:
    def test_frozen_example(self):
        m = LocalMetrics(p_d1=0.8, p_m1=0.1, p_d2=0.0, p_m2=0.0, p_f1=0.0, p_f2=0.0)
        q = fusion_quality(m, FusionParams(3, 2))
        assert q.q_d1 == pytest.approx(0.896, abs=1e-15)

    @given(metrics_strategy(), st.integers(1, 9))
    def test_tail_matches_binomial(self, m, n):
        # The double sum over the third category telescopes away, so each
        # quality equals a plain binomial tail in its primary probability.
        k = n // 2 + 1
        q = fusion_quality(m, FusionParams(n, k))
        assert q.q_d1 == pytest.approx(binom.sf(k - 1, n, m.p_d1), abs=1e-12)
        assert q.q_d2 == pytest.approx(binom.sf(k - 1, n, m.p_d2), abs=1e-12)
        assert q.q_f1 == pytest.approx(binom.sf(k - 1, n, m.p_f1), abs=1e-12)
        assert q.q_f2 == pytest.approx(binom.sf(k - 1, n, m.p_f2), abs=1e-12)
        assert q.q_f == pytest.approx(q.q_f1 + q.q_f2, abs=1e-15)

    def test_oracle_equivalence_smoke(self, rng):
        for _ in range(25):
            d = [rng.dirichlet((1.0, 1.0, 1.0)) for _ in range(3)]
            m = LocalMetrics(
                p_d1=d[0][0], p_m1=d[0][1],
                p_d2=d[1][0], p_m2=d[1][1],
                p_f1=d[2][0], p_f2=d[2][1],
            )
            for n, k in ((1, 1), (3, 2), (5, 3)):
                params = FusionParams(n, k)
                q = fusion_quality(m, params)
                under_h1 = enumerate_fusion_oracle(m, params, Hypothesis.EVENT1)
                under_h2 = enumerate_fusion_oracle(m, params, Hypothesis.EVENT2)
                under_h0 = enumerate_fusion_oracle(m, params, Hypothesis.NORMAL)
                assert q.q_d1 == pytest.approx(under_h1.event1, abs=1e-12)
                assert q.q_d2 == pytest.approx(under_h2.event2, abs=1e-12)
                assert q.q_f1 == pytest.approx(under_h0.event1, abs=1e-12)
                assert q.q_f2 == pytest.approx(under_h0.event2, abs=1e-12)

    def test_oracle_outcome_is_distribution(self, rng):
        m = LocalMetrics(p_d1=0.6, p_m1=0.2, p_d2=0.7, p_m2=0.1, p_f1=0.05, p_f2=0.02)
        outcome = enumerate_fusion_oracle(m, FusionParams(5, 3), Hypothesis.EVENT1)
        assert outcome.event1 + outcome.event2 + outcome.normal == pytest.approx(1.0, abs=1e-12)

    def test_oracle_size_cap(self):
        m = LocalMetrics(p_d1=0.6, p_m1=0.2, p_d2=0.7, p_m2=0.1, p_f1=0.05, p_f2=0.02)
        with pytest.raises(ValueError):
            enumerate_fusion_oracle(m, FusionParams(13, 7), Hypothesis.EVENT1)


class TestFaultModel:
    def test_uniform_split(self):
        faults = FaultModel.uniform_split(0.12)
        assert faults.alpha1 == pytest.approx(0.02)
        assert faults.total_probability == pytest.approx(0.12)

    def test_none(self):
        faults = FaultModel.none()
        assert faults.total_probability == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultModel(-0.1, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            FaultModel(0.6, 0, 0.6, 0, 0, 0)

    def test_transition_matrix(self):
        faults = FaultModel(0.01, 0.02, 0.03, 0.04, 0.05, 0.06)
        # rows and columns ordered (0, +1, -1)
        assert faults.matrix == (
            (1.0 - 0.05 - 0.06, 0.05, 0.06),
            (0.01, 1.0 - 0.01 - 0.03, 0.03),
            (0.02, 0.04, 1.0 - 0.02 - 0.04),
        )


def _transition_matrix(f):
    # rows and columns ordered (normal, event1, event2)
    return np.array(
        [
            [1.0 - f.alpha5 - f.alpha6, f.alpha5, f.alpha6],
            [f.alpha1, 1.0 - f.alpha1 - f.alpha3, f.alpha3],
            [f.alpha2, f.alpha4, 1.0 - f.alpha2 - f.alpha4],
        ]
    )


class TestFaultAdjust:
    def test_zero_faults_is_identity(self):
        m = LocalMetrics(p_d1=0.6, p_m1=0.2, p_d2=0.7, p_m2=0.1, p_f1=0.05, p_f2=0.02)
        assert fault_adjust(m, FaultModel.none()) == m

    @given(metrics_strategy(), fault_strategy())
    @settings(max_examples=200)
    def test_matches_markov_transition(self, m, f):
        t = _transition_matrix(f)
        under_h1 = np.array([1.0 - m.p_d1 - m.p_m1, m.p_d1, m.p_m1]) @ t
        under_h2 = np.array([1.0 - m.p_d2 - m.p_m2, m.p_m2, m.p_d2]) @ t
        under_h0 = np.array([1.0 - m.p_f1 - m.p_f2, m.p_f1, m.p_f2]) @ t
        adjusted = fault_adjust(m, f)
        assert adjusted.p_d1 == pytest.approx(under_h1[1], abs=1e-12)
        assert adjusted.p_m1 == pytest.approx(under_h1[2], abs=1e-12)
        assert adjusted.p_m2 == pytest.approx(under_h2[1], abs=1e-12)
        assert adjusted.p_d2 == pytest.approx(under_h2[2], abs=1e-12)
        assert adjusted.p_f1 == pytest.approx(under_h0[1], abs=1e-12)
        assert adjusted.p_f2 == pytest.approx(under_h0[2], abs=1e-12)

    @given(metrics_strategy(), fault_strategy())
    @settings(max_examples=200)
    def test_preserves_distributions(self, m, f):
        adjusted = fault_adjust(m, f)
        assert adjusted.p_d1 + adjusted.p_m1 <= 1.0 + 1e-12
        assert adjusted.p_d2 + adjusted.p_m2 <= 1.0 + 1e-12
        assert adjusted.p_f1 + adjusted.p_f2 <= 1.0 + 1e-12


class TestProbError:
    def test_false_alarms_only(self):
        m = LocalMetrics(p_d1=0.0, p_m1=0.0, p_d2=0.0, p_m2=0.0, p_f1=0.3, p_f2=0.1)
        quality = fusion_quality(m, FusionParams(1, 1))
        pe = prob_error(Priors(1.0, 0.0, 0.0), quality)
        assert pe == pytest.approx(0.4, abs=1e-15)

    def test_perfect_detection_zero_error(self):
        m = LocalMetrics(p_d1=1.0, p_m1=0.0, p_d2=1.0, p_m2=0.0, p_f1=0.0, p_f2=0.0)
        quality = fusion_quality(m, FusionParams(5, 3))
        assert prob_error(Priors(0.59, 0.25, 0.16), quality) == pytest.approx(0.0, abs=1e-15)

    def test_zero_fault_model_changes_nothing(self, model, priors, params, rng):
        for _ in range(100):
            lambdas = LikelihoodThresholds(
                float(np.exp(rng.uniform(-4, 4))), float(np.exp(rng.uniform(-4, 4)))
            )
            gammas = gammas_from_lambdas(model, lambdas)
            baseline = prob_error(priors, fusion_quality(local_metrics(model, gammas), params))
            with_faults = prob_error_faulty(model, priors, lambdas, params, FaultModel.none())
            assert with_faults == baseline

    def test_faults_raise_error_at_defaults(self, model, priors, params):
        lambdas = LikelihoodThresholds(0.9829, 1.8496)
        clean = prob_error_faulty(model, priors, lambdas, params, FaultModel.none())
        faulty = prob_error_faulty(model, priors, lambdas, params, FaultModel.uniform_split(0.24))
        assert faulty > clean
