"""Local decision rule: thresholds, classification, error metrics.

The reference oracle here is the piecewise definition of the six local
metrics, written out separately for each ordering of the three
observation thresholds. The library computes them from one unified
region construction, so agreement across all orderings is the point.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from dualdetect import (
    Hypothesis,
    LikelihoodThresholds,
    LocalMetrics,
    ObservationThresholds,
    SignalModel,
    classify_observations,
    gammas_from_lambdas,
    local_metrics,
    normal_cdf,
)

PHI_1_5 = 0.9331927987311419
PHI_4_5 = 0.9999966023268753


def _ordering_case(g):
    """Classify a threshold triple into the five ordering cases."""
    g1, g2, g3 = g.gamma1, g.gamma2, g.gamma3
    if g3 < g1 and g3 < g2:
        return 5
    if g2 < g3 < g1:
        return 4
    if g2 < g1 < g3:
        return 3
    if g1 < g3 < g2:
        return 2
    return 1


def _piecewise_metrics(model, g):
    """Per-case closed forms, written independently of the library."""
    phi = normal_cdf
    m0, m1, m2 = model.m0, model.m1, model.m2
    case = _ordering_case(g)
    if case in (1, 3):
        return LocalMetrics(
            p_d1=phi(g.gamma3 - m1) - phi(g.gamma1 - m1),
            p_d2=1.0 - phi(g.gamma3 - m2),
            p_f1=phi(g.gamma3 - m0) - phi(g.gamma1 - m0),
            p_f2=1.0 - phi(g.gamma3 - m0),
            p_m1=1.0 - phi(g.gamma3 - m1),
            p_m2=phi(g.gamma3 - m2) - phi(g.gamma1 - m2),
        )
    if case == 2:
        return LocalMetrics(
            p_d1=phi(g.gamma3 - m1) - phi(g.gamma1 - m1),
            p_d2=1.0 - phi(g.gamma2 - m2),
            p_f1=phi(g.gamma3 - m0) - phi(g.gamma1 - m0),
            p_f2=1.0 - phi(g.gamma2 - m0),
            p_m1=1.0 - phi(g.gamma2 - m1),
            p_m2=phi(g.gamma3 - m2) - phi(g.gamma1 - m2),
        )
    if case == 4:
        return LocalMetrics(
            p_d1=0.0,
            p_d2=1.0 - phi(g.gamma3 - m2),
            p_f1=0.0,
            p_f2=1.0 - phi(g.gamma3 - m0),
            p_m1=1.0 - phi(g.gamma3 - m1),
            p_m2=0.0,
        )
    return LocalMetrics(
        p_d1=0.0,
        p_d2=1.0 - phi(g.gamma2 - m2),
        p_f1=0.0,
        p_f2=1.0 - phi(g.gamma2 - m0),
        p_m1=1.0 - phi(g.gamma2 - m1),
        p_m2=0.0,
    )


def _metrics_close(a, b, tol=1e-12):
    for name in ("p_d1", "p_d2", "p_f1", "p_f2", "p_m1", "p_m2"):
        assert getattr(a, name) == pytest.approx(getattr(b, name), abs=tol), name


class TestGammasFromLambdas:
    def test_hand_example(self):
        model = SignalModel(0.0, 4.0, 9.0)
        lambdas = LikelihoodThresholds(math.exp(4.0), math.exp(5.0))
        g = gammas_from_lambdas(model, lambdas)
        assert g.gamma1 == pytest.approx(3.0, abs=1e-12)
        assert g.gamma2 == pytest.approx(5.0 / 9.0 + 4.5, abs=1e-12)
        assert g.gamma3 == pytest.approx(6.7, abs=1e-12)

    def test_unit_thresholds_give_midpoints(self, model):
        g = gammas_from_lambdas(model, LikelihoodThresholds(1.0, 1.0))
        assert g.gamma1 == pytest.approx(1.5)
        assert g.gamma2 == pytest.approx(3.0)
        assert g.gamma3 == pytest.approx(4.5)

    @given(
        st.floats(-3.0, 3.0),
        st.floats(0.3, 4.0),
        st.floats(0.3, 4.0),
        st.floats(-4.0, 4.0),
        st.floats(-4.0, 4.0),
    )
    def test_likelihood_ratios_at_thresholds(self, m0, d1, d2, u, v):
        # At each gamma the matching density ratio equals its lambda.
        model = SignalModel(m0, m0 + d1, m0 + d1 + d2)
        lambdas = LikelihoodThresholds(math.exp(u), math.exp(v))
        g = gammas_from_lambdas(model, lambdas)

        def ratio(x, mean_a, mean_b):
            return math.exp(0.5 * ((x - mean_b) ** 2 - (x - mean_a) ** 2))

        assert ratio(g.gamma1, model.m1, model.m0) == pytest.approx(lambdas.lambda1, rel=1e-9)
        assert ratio(g.gamma2, model.m2, model.m0) == pytest.approx(lambdas.lambda2, rel=1e-9)
        assert ratio(g.gamma3, model.m2, model.m1) == pytest.approx(
            lambdas.lambda2 / lambdas.lambda1, rel=1e-9
        )

    def test_array_equals_python_float_formula(self):
        model = SignalModel(-0.5, 2.0, 4.75)
        lambda1, lambda2 = np.exp(np.random.default_rng(8).uniform(-6.0, 6.0, size=(2, 20_000)))
        g = gammas_from_lambdas(model, LikelihoodThresholds(lambda1, lambda2))
        for index, (l1, l2) in enumerate(zip(lambda1.tolist(), lambda2.tolist())):
            log1, log2 = math.log(l1), math.log(l2)
            assert g.gamma1[index] == log1 / 2.5 + 1.5 / 2.0
            assert g.gamma2[index] == log2 / 5.25 + 4.25 / 2.0
            assert g.gamma3[index] == (log2 - log1) / 2.75 + 6.75 / 2.0

    def test_positive_thresholds_required(self):
        with pytest.raises(ValueError):
            LikelihoodThresholds(0.0, 1.0)
        with pytest.raises(ValueError):
            LikelihoodThresholds(1.0, -2.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("name", ["lambda1", "lambda2"])
    def test_every_array_entry_checked(self, name, bad):
        values = {"lambda1": np.array([0.5, 1.0, 2.0, 4.0]),
                  "lambda2": np.array([4.0, 2.0, 1.0, 0.5])}
        LikelihoodThresholds(**values)
        values[name][2] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            LikelihoodThresholds(**values)


# (observation, thresholds, expected decision code)
CLASSIFICATION_CASES = [
    (0.0, (1.5, 3.0, 4.5), 0),
    (1.5, (1.5, 3.0, 4.5), 1),
    (3.0, (1.5, 3.0, 4.5), 1),
    (4.4999, (1.5, 3.0, 4.5), 1),
    (4.5, (1.5, 3.0, 4.5), -1),
    (9.0, (1.5, 3.0, 4.5), -1),
]

# gamma3 below gamma1 removes the first event region entirely
EMPTY_EVENT1_CASES = [
    (4.5, (4.0, 5.0, 2.0), 0),
    (5.0, (4.0, 5.0, 2.0), -1),
]


def _reference_code(x, g1, g2, g3):
    """The decision regions of the module docstring, one observation."""
    if x >= max(g2, g3):
        return -1
    if g1 <= x < g3:
        return 1
    return 0


def _check_cases(cases):
    for x, gammas, code in cases:
        codes = classify_observations(np.array([x]), ObservationThresholds(*gammas))
        assert codes.tolist() == [code], (x, gammas)


class TestClassification:
    def test_regions(self):
        _check_cases(CLASSIFICATION_CASES)

    def test_empty_event1_region(self):
        _check_cases(EMPTY_EVENT1_CASES)

    @given(
        st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=64),
        st.floats(-4.0, 4.0),
        st.floats(-4.0, 4.0),
        st.floats(-4.0, 4.0),
    )
    def test_vectorized_matches_scalar(self, xs, g1, g2, g3):
        codes = classify_observations(np.array(xs), ObservationThresholds(g1, g2, g3))
        assert codes.dtype == np.int8
        assert codes.tolist() == [_reference_code(x, g1, g2, g3) for x in xs]


def _max_cutoff_metrics(model, g):
    """The six metrics with the second-event mass taken at its cutoff,
    max(gamma2, gamma3), in one more CDF evaluation."""
    cutoff = np.maximum(g.gamma2, g.gamma3)
    nonempty = g.gamma3 > g.gamma1

    def first(mean):
        inside = normal_cdf(g.gamma3 - mean) - normal_cdf(g.gamma1 - mean)
        return np.where(nonempty, inside, 0.0)[()]

    def second(mean):
        return 1.0 - normal_cdf(cutoff - mean)

    return LocalMetrics(p_d1=first(model.m1), p_d2=second(model.m2), p_f1=first(model.m0),
                        p_f2=second(model.m0), p_m1=second(model.m1), p_m2=first(model.m2))


class TestLocalMetrics:
    def test_case1_frozen_example(self, model):
        g = ObservationThresholds(1.5, 3.0, 4.5)
        m = local_metrics(model, g)
        assert m.p_d1 == pytest.approx(2.0 * PHI_1_5 - 1.0, abs=1e-12)
        assert m.p_d2 == pytest.approx(PHI_1_5, abs=1e-12)
        assert m.p_f1 == pytest.approx(PHI_4_5 - PHI_1_5, abs=1e-12)
        assert m.p_f2 == pytest.approx(1.0 - PHI_4_5, abs=1e-12)
        assert m.p_m1 == pytest.approx(1.0 - PHI_1_5, abs=1e-12)
        # same interval seen from m2 mirrors p_f1 in this symmetric setup
        assert m.p_m2 == pytest.approx(PHI_4_5 - PHI_1_5, abs=1e-12)

    @pytest.mark.parametrize(
        "gammas, case",
        [
            (ObservationThresholds(1.0, 3.0, 5.0), 1),
            (ObservationThresholds(1.0, 5.0, 3.0), 2),
            (ObservationThresholds(3.0, 1.0, 5.0), 3),
            (ObservationThresholds(5.0, 1.0, 3.0), 4),
            (ObservationThresholds(3.0, 5.0, 1.0), 5),
            (ObservationThresholds(5.0, 3.0, 1.0), 5),
        ],
    )
    def test_matches_piecewise_forms(self, model, gammas, case):
        assert _ordering_case(gammas) == case
        _metrics_close(local_metrics(model, gammas), _piecewise_metrics(model, gammas))

    @given(
        st.floats(-2.0, 2.0),
        st.floats(0.3, 3.0),
        st.floats(0.3, 3.0),
        st.tuples(st.floats(-6.0, 12.0), st.floats(-6.0, 12.0), st.floats(-6.0, 12.0)),
    )
    def test_piecewise_agreement_random(self, m0, d1, d2, gamma_triple):
        # the per-case forms assume strictly ordered thresholds
        assume(len(set(gamma_triple)) == 3)
        model = SignalModel(m0, m0 + d1, m0 + d1 + d2)
        g = ObservationThresholds(*gamma_triple)
        _metrics_close(local_metrics(model, g), _piecewise_metrics(model, g))

    def test_tied_thresholds_empty_event1_region(self, model):
        g = ObservationThresholds(2.0, 3.0, 2.0)
        m = local_metrics(model, g)
        assert m.p_d1 == 0.0
        assert m.p_f1 == 0.0
        assert m.p_d2 == pytest.approx(1.0 - normal_cdf(3.0 - 6.0), abs=1e-12)

    @given(
        st.floats(-2.0, 2.0),
        st.floats(0.3, 3.0),
        st.floats(0.3, 3.0),
        st.tuples(st.floats(-6.0, 12.0), st.floats(-6.0, 12.0), st.floats(-6.0, 12.0)),
    )
    def test_conditionals_are_distributions(self, m0, d1, d2, gamma_triple):
        model = SignalModel(m0, m0 + d1, m0 + d1 + d2)
        m = local_metrics(model, ObservationThresholds(*gamma_triple))
        for first, second in ((m.p_d1, m.p_m1), (m.p_m2, m.p_d2), (m.p_f1, m.p_f2)):
            assert 0.0 <= first <= 1.0
            assert 0.0 <= second <= 1.0
            assert first + second <= 1.0 + 1e-12

    @pytest.mark.parametrize(
        "gammas",
        [ObservationThresholds(1.5, 3.0, 4.5), ObservationThresholds(4.0, 2.0, 3.0)],
    )
    def test_monte_carlo_consistency(self, model, gammas, rng):
        n = 100_000
        m = local_metrics(model, gammas)
        expectations = {
            Hypothesis.EVENT1: (m.p_d1, m.p_m1),
            Hypothesis.EVENT2: (m.p_m2, m.p_d2),
            Hypothesis.NORMAL: (m.p_f1, m.p_f2),
        }
        for truth, (p_first, p_second) in expectations.items():
            x = model.means_for_codes(truth.code) + rng.standard_normal(n)
            codes = classify_observations(x, gammas)
            for p, frequency in ((p_first, np.mean(codes == 1)), (p_second, np.mean(codes == -1))):
                se = max(math.sqrt(p * (1.0 - p) / n), 1e-6)
                assert abs(frequency - p) <= 5.0 * se

    @pytest.mark.parametrize("case", ["scalar", "lattice", "ties", "signed-zeros"])
    def test_equals_max_cutoff_form_bit_for_bit(self, case):
        rng = np.random.default_rng(41)
        model = SignalModel(0.0, 3.0, 6.0)
        if case == "scalar":
            g = ObservationThresholds(1.25, 2.5, 4.75)
        elif case == "lattice":
            # The optimizer's broadcast: gamma1 varies with lambda1 only,
            # gamma2 with lambda2 only, gamma3 with both.
            lambdas = LikelihoodThresholds(np.exp(rng.uniform(-4.0, 4.0, size=(101, 1))),
                                           np.exp(rng.uniform(-4.0, 4.0, size=(1, 101))))
            g = gammas_from_lambdas(model, lambdas)
        elif case == "ties":
            g2 = rng.uniform(-2.0, 8.0, size=300)
            g3 = np.where(rng.random(300) < 0.5, g2, rng.uniform(-2.0, 8.0, size=300))
            g = ObservationThresholds(rng.uniform(-2.0, 8.0, size=300), g2, g3)
        else:
            # With m0 = 0 the signs of zero reach normal_cdf unchanged.
            zeros = np.array([0.0, -0.0])
            g = ObservationThresholds(zeros[:, None, None], zeros[None, :, None],
                                      zeros[None, None, :])
        expected = _max_cutoff_metrics(model, g)
        metrics = local_metrics(model, g)
        for name in ("p_d1", "p_d2", "p_f1", "p_f2", "p_m1", "p_m2"):
            got, want = getattr(metrics, name), getattr(expected, name)
            assert type(got) is type(want), name
            assert np.shape(got) == np.shape(want), name
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name

    def test_validation_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LocalMetrics(p_d1=1.2, p_d2=0.5, p_f1=0.1, p_f2=0.1, p_m1=0.1, p_m2=0.1)
        with pytest.raises(ValueError):
            LocalMetrics(p_d1=0.7, p_d2=0.5, p_f1=0.1, p_f2=0.1, p_m1=0.5, p_m2=0.1)

    @pytest.mark.parametrize("name, bad", [
        ("p_d1", 1.2), ("p_d2", -0.1), ("p_f1", math.nan), ("p_f2", 1.5),
        ("p_m1", 0.6), ("p_m2", -1e-6),
    ])
    def test_every_array_entry_checked(self, name, bad):
        # Three entries in range; one entry of one field breaks its bound
        # (p_m1 = 0.6 only breaks p_d1 + p_m1 <= 1).
        values = {
            "p_d1": [0.7, 0.3, 0.2], "p_m1": [0.1, 0.2, 0.3],
            "p_d2": [0.6, 0.5, 0.4], "p_m2": [0.2, 0.1, 0.3],
            "p_f1": [0.1, 0.05, 0.2], "p_f2": [0.1, 0.2, 0.05],
        }
        fields = {key: np.array(row) for key, row in values.items()}
        LocalMetrics(**fields)
        fields[name][0] = bad
        with pytest.raises(ValueError, match=name):
            LocalMetrics(**fields)
