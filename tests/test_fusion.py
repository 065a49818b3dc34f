"""Decision fusion: quorum tail sums, fault transitions, error composition."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom

from dualdetect import (
    FaultModel,
    FusionParams,
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
    quorum_label,
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


class TestQuorumLabel:
    @staticmethod
    def two_clause_rule(count1, count2, k):
        # Reference: the rule in its two-clause form. An event needs k
        # votes; on a double quorum the larger count wins, a tie is quiet.
        up, down = count1 >= k, count2 >= k
        if up and (not down or count1 > count2):
            return 1
        if down and (not up or count2 > count1):
            return -1
        return 0

    def test_exhaustive_against_two_clause_rule(self):
        # Every count pair of every neighborhood size up to the oracle's cap.
        cases = [
            (count1, count2, k)
            for n in range(1, 13)
            for k in range(1, n + 1)
            for count1 in range(n + 1)
            for count2 in range(n - count1 + 1)
        ]
        want = [self.two_clause_rule(*case) for case in cases]
        assert [int(quorum_label(*case)) for case in cases] == want
        count1, count2, k = (np.array(column) for column in zip(*cases))
        for size in range(1, 13):
            rows = k == size
            labels = quorum_label(count1[rows], count2[rows], size)
            assert labels.dtype == np.int8
            assert labels.tolist() == [w for w, row in zip(want, rows) if row]


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
                reference = enumerate_fusion_oracle(m, params)
                assert astuple(q) == pytest.approx(astuple(reference), abs=1e-12)

    def test_oracle_size_cap(self):
        m = LocalMetrics(p_d1=0.6, p_m1=0.2, p_d2=0.7, p_m2=0.1, p_f1=0.05, p_f2=0.02)
        with pytest.raises(ValueError):
            enumerate_fusion_oracle(m, FusionParams(13, 7))


class TestFaultModel:
    def test_uniform_split(self):
        faults = FaultModel.uniform_split(0.12)
        assert faults.alpha1 == pytest.approx(0.02)
        assert faults.total_probability == pytest.approx(0.12)

    @pytest.mark.parametrize("total", [0.0, 0.12, 0.25, 1.0])
    def test_uniform_split_reports_its_total(self, total):
        # Six shares of total / 6 can add up to one ulp less than total.
        assert FaultModel.uniform_split(total).total_probability == total
        # Explicit alphas report their sum, added left to right.
        share = total / 6.0
        explicit = FaultModel(share, share, share, share, share, share)
        assert explicit.total_probability == share + share + share + share + share + share
        assert explicit == FaultModel.uniform_split(total)

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
        assert fault_adjust(m, FaultModel.uniform_split(0.0)) == m

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
            zero = FaultModel.uniform_split(0.0)
            with_faults = prob_error_faulty(model, priors, lambdas, params, zero)
            assert with_faults == baseline

    def test_faults_raise_error_at_defaults(self, model, priors, params):
        lambdas = LikelihoodThresholds(0.9829, 1.8496)
        zero = FaultModel.uniform_split(0.0)
        clean = prob_error_faulty(model, priors, lambdas, params, zero)
        faulty = prob_error_faulty(model, priors, lambdas, params, FaultModel.uniform_split(0.24))
        assert faulty > clean


class TestArrayForm:
    """One call over arrays of thresholds equals one scalar call per entry."""

    FAULTS = {
        "none": None,
        "uniform": FaultModel.uniform_split(0.24),
        # label 0 keeps every report: the matrix row for 0 is (1, 0, 0)
        "table": FaultModel(0.05, 0.02, 0.01, 0.03, 0.0, 0.0),
    }

    @pytest.mark.parametrize("n, k", [(5, 3), (4, 2), (6, 3)])
    @pytest.mark.parametrize("faults", sorted(FAULTS))
    def test_broadcast_equals_scalar_calls(self, model, priors, n, k, faults):
        fault_model = self.FAULTS[faults]
        params = FusionParams(n, k)
        logs = np.random.default_rng(17).uniform(-5.0, 5.0, size=(200, 2))
        lambda1 = np.array([math.exp(u) for u in logs[:, 0]])
        lambda2 = np.array([math.exp(v) for v in logs[:, 1]])
        lambdas = LikelihoodThresholds(lambda1, lambda2)

        metrics = local_metrics(model, gammas_from_lambdas(model, lambdas))
        if fault_model is not None:
            metrics = fault_adjust(metrics, fault_model)
        quality = fusion_quality(metrics, params)
        errors = prob_error_faulty(model, priors, lambdas, params, fault_model)
        assert errors.shape == (200,)

        for index, (l1, l2) in enumerate(zip(lambda1.tolist(), lambda2.tolist())):
            scalar = LikelihoodThresholds(l1, l2)
            m = local_metrics(model, gammas_from_lambdas(model, scalar))
            if fault_model is not None:
                m = fault_adjust(m, fault_model)
            q = fusion_quality(m, params)
            for name in ("p_d1", "p_d2", "p_f1", "p_f2", "p_m1", "p_m2"):
                assert getattr(metrics, name)[index] == getattr(m, name), name
            for name in ("q_d1", "q_d2", "q_f1", "q_f2", "q_f"):
                assert getattr(quality, name)[index] == getattr(q, name), name
            assert errors[index] == prob_error_faulty(model, priors, scalar, params, fault_model)

    @pytest.mark.parametrize("n, k", [(5, 3), (4, 2), (6, 3), (8, 5), (5, 1), (5, 5), (7, 2)])
    def test_tail_equals_python_float_loop(self, n, k):
        # Reference: the trinomial sum in Python floats, term by term,
        # each power a left-to-right chain of products.
        def power(x, e):
            return math.prod([x] * e, start=1.0)

        def reference(primary, secondary):
            rest = 1.0 - primary - secondary
            total = 0.0
            for i in range(k, n + 1):
                for j in range(n - i + 1):
                    if j >= k and j >= i:
                        continue
                    total += (math.comb(n, i) * math.comb(n - i, j)
                              * power(primary, i) * power(secondary, j)
                              * power(rest, n - i - j))
            return total

        a, b, _ = np.random.default_rng(3).dirichlet([1.0, 1.0, 1.0], size=300).T
        m = LocalMetrics(p_d1=a, p_m1=b, p_d2=b, p_m2=a, p_f1=a, p_f2=b)
        q = fusion_quality(m, FusionParams(n, k))
        pairs = list(zip(a.tolist(), b.tolist()))
        assert q.q_d1.tolist() == [reference(x, y) for x, y in pairs]
        assert q.q_d2.tolist() == [reference(y, x) for x, y in pairs]
        assert q.q_f2.tolist() == [reference(y, x) for x, y in pairs]

    def test_grid_broadcast(self, model, priors, params):
        # A column of lambda1 against a row of lambda2 scores the whole grid.
        axis = np.array([math.exp(u) for u in np.linspace(-3.0, 3.0, 7)])
        lambdas = LikelihoodThresholds(axis[:, None], axis[None, :])
        grid = prob_error_faulty(model, priors, lambdas, params, FaultModel.uniform_split(0.12))
        assert grid.shape == (7, 7)
        for i, l1 in enumerate(axis.tolist()):
            for j, l2 in enumerate(axis.tolist()):
                assert grid[i, j] == prob_error_faulty(
                    model, priors, LikelihoodThresholds(l1, l2), params,
                    FaultModel.uniform_split(0.12),
                )
