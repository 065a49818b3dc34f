"""Local decision rule: thresholds, classification, error metrics.

The reference oracle here is the piecewise definition of the six local
metrics, written out separately for each ordering of the three
observation thresholds. The library computes them from one unified
region construction, so agreement across all orderings is the point.
"""

import math
import re

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
    means = (model.m0, model.m1, model.m2)  # truths in CODES order
    case = _ordering_case(g)
    if case in (1, 2, 3):
        plus = [phi(g.gamma3 - m) - phi(g.gamma1 - m) for m in means]
    else:
        plus = [0.0, 0.0, 0.0]
    cutoff = g.gamma2 if case in (2, 5) else g.gamma3
    minus = [1.0 - phi(cutoff - m) for m in means]
    return LocalMetrics.from_events(plus, minus)


def _metrics_close(a, b, tol=1e-12):
    np.testing.assert_allclose(a.matrix, b.matrix, rtol=0.0, atol=tol)


# The paper's six terms as (truth, report) entries of LocalMetrics.matrix.
PAPER_TERMS = {"p_f1": (0, 1), "p_f2": (0, 2), "p_d1": (1, 1),
               "p_m1": (1, 2), "p_m2": (2, 1), "p_d2": (2, 2)}


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
    """The metrics with the second-event mass taken at its cutoff,
    max(gamma2, gamma3), in one more CDF evaluation."""
    cutoff = np.maximum(g.gamma2, g.gamma3)
    nonempty = g.gamma3 > g.gamma1
    means = (model.m0, model.m1, model.m2)
    plus = [np.where(nonempty, normal_cdf(g.gamma3 - m) - normal_cdf(g.gamma1 - m), 0.0)
            for m in means]
    return LocalMetrics.from_events(plus, [1.0 - normal_cdf(cutoff - m) for m in means])


class TestLocalMetrics:
    def test_case1_frozen_example(self, model):
        g = ObservationThresholds(1.5, 3.0, 4.5)
        events = local_metrics(model, g).matrix[:, 1:]
        # (+1, -1) reports per truth; the first-event interval seen from
        # m2 mirrors the one seen from m0 in this symmetric setup
        expected = [
            [PHI_4_5 - PHI_1_5, 1.0 - PHI_4_5],
            [2.0 * PHI_1_5 - 1.0, 1.0 - PHI_1_5],
            [PHI_4_5 - PHI_1_5, PHI_1_5],
        ]
        np.testing.assert_allclose(events, expected, rtol=0.0, atol=1e-12)

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
        d = local_metrics(model, g).matrix
        assert d[1, 1] == 0.0
        assert d[0, 1] == 0.0
        assert d[2, 2] == pytest.approx(1.0 - normal_cdf(3.0 - 6.0), abs=1e-12)

    @given(
        st.floats(-2.0, 2.0),
        st.floats(0.3, 3.0),
        st.floats(0.3, 3.0),
        st.tuples(st.floats(-6.0, 12.0), st.floats(-6.0, 12.0), st.floats(-6.0, 12.0)),
    )
    def test_conditionals_are_distributions(self, m0, d1, d2, gamma_triple):
        model = SignalModel(m0, m0 + d1, m0 + d1 + d2)
        events = local_metrics(model, ObservationThresholds(*gamma_triple)).matrix[:, 1:]
        assert ((events >= 0.0) & (events <= 1.0)).all()
        assert (events[:, 0] + events[:, 1] <= 1.0 + 1e-12).all()

    @pytest.mark.parametrize(
        "gammas",
        [ObservationThresholds(1.5, 3.0, 4.5), ObservationThresholds(4.0, 2.0, 3.0)],
    )
    def test_monte_carlo_consistency(self, model, gammas, rng):
        n = 100_000
        d = local_metrics(model, gammas).matrix
        for truth in (Hypothesis.EVENT1, Hypothesis.EVENT2, Hypothesis.NORMAL):
            x = model.means_for_codes(truth.code) + rng.standard_normal(n)
            codes = classify_observations(x, gammas)
            row = d[truth.code % 3]
            for p, frequency in ((row[1], np.mean(codes == 1)), (row[2], np.mean(codes == -1))):
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
        expected = _max_cutoff_metrics(model, g).matrix
        got = local_metrics(model, g).matrix
        assert got.dtype == expected.dtype == np.float64
        shape = np.broadcast_shapes(*(np.shape(x) for x in (g.gamma1, g.gamma2, g.gamma3)))
        assert got.shape == expected.shape == (3, 3) + shape
        assert got.tobytes() == expected.tobytes()

    def test_validation_rejects_out_of_range(self):
        # rows (quiet, event 1, event 2); p_d1 = 1.2, then p_d1 + p_m1 = 1.2
        with pytest.raises(ValueError):
            LocalMetrics.from_events((0.1, 1.2, 0.1), (0.1, 0.1, 0.5))
        with pytest.raises(ValueError):
            LocalMetrics.from_events((0.1, 0.7, 0.1), (0.1, 0.5, 0.5))
        with pytest.raises(ValueError, match="shape"):
            LocalMetrics(np.zeros((3, 2)))

    @pytest.mark.parametrize("name, bad", [
        ("p_d1", 1.2), ("p_d2", -0.1), ("p_f1", math.nan), ("p_f2", 1.5),
        ("p_m1", 0.6), ("p_m2", -1e-6),
    ])
    def test_every_array_entry_checked(self, name, bad):
        # Three entries in range; one entry of one term breaks its bound
        # (p_m1 = 0.6 only breaks p_d1 + p_m1 <= 1).
        plus = np.array([[0.1, 0.05, 0.2], [0.7, 0.3, 0.2], [0.2, 0.1, 0.3]])
        minus = np.array([[0.1, 0.2, 0.05], [0.1, 0.2, 0.3], [0.6, 0.5, 0.4]])
        LocalMetrics.from_events(plus, minus)
        truth, report = PAPER_TERMS[name]
        (plus, minus)[report - 1][truth, 0] = bad
        if name == "p_m1":
            message = "must not exceed 1 combined, got 1.2"
        else:
            message = re.escape(f"must lie in [0, 1], got {bad!r}")
        with pytest.raises(ValueError, match=message):
            LocalMetrics.from_events(plus, minus)
