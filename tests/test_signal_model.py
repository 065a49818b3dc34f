"""Signal model: hypotheses, Gaussian means, priors, normal CDF."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from dualdetect import Hypothesis, Priors, SignalModel, normal_cdf

# Verified against direct quadrature of the standard normal density.
PHI_1_5 = 0.9331927987311419


def _phi_quadrature(z):
    value, _ = quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi), -12.0, z)
    return value


class TestHypothesis:
    def test_codes(self):
        assert Hypothesis.NORMAL.code == 0
        assert Hypothesis.EVENT1.code == 1
        assert Hypothesis.EVENT2.code == -1

    def test_round_trip(self):
        for hypothesis in Hypothesis:
            assert Hypothesis.from_code(hypothesis.code) is hypothesis

    def test_bad_code_rejected(self):
        with pytest.raises(ValueError):
            Hypothesis.from_code(2)


class TestSignalModel:
    def test_mean_lookup(self, model):
        assert model.means_for_codes(Hypothesis.NORMAL.code) == 0.0
        assert model.means_for_codes(Hypothesis.EVENT1.code) == 3.0
        assert model.means_for_codes(Hypothesis.EVENT2.code) == 6.0

    def test_means_for_codes(self, model):
        codes = np.array([0, 1, -1, 1, 0], dtype=np.int8)
        np.testing.assert_array_equal(
            model.means_for_codes(codes), [0.0, 3.0, 6.0, 3.0, 0.0]
        )

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            SignalModel(0.0, 3.0, 3.0)
        with pytest.raises(ValueError):
            SignalModel(1.0, 0.5, 2.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            SignalModel(0.0, 1.0, math.inf)
        with pytest.raises(ValueError):
            SignalModel(math.nan, 1.0, 2.0)

    def test_negative_means_allowed(self):
        model = SignalModel(-6.0, -3.0, -1.0)
        assert model.means_for_codes(Hypothesis.EVENT2.code) == -1.0


class TestPriors:
    def test_sum_checked(self):
        with pytest.raises(ValueError):
            Priors(0.6, 0.3, 0.2)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            Priors(1.2, -0.1, -0.1)

    def test_valid(self):
        priors = Priors(0.59, 0.25, 0.16)
        assert priors.q0 + priors.q1 + priors.q2 == pytest.approx(1.0)


class TestNormalCdf:
    def test_frozen_value(self):
        assert normal_cdf(1.5) == pytest.approx(PHI_1_5, abs=1e-15)

    @pytest.mark.parametrize("z", [-3.0, -1.5, -0.5, 0.0, 0.5, 1.5, 3.0])
    def test_matches_quadrature(self, z):
        assert normal_cdf(z) == pytest.approx(_phi_quadrature(z), abs=1e-12)

    def test_median(self):
        assert normal_cdf(0.0) == 0.5

    @given(st.floats(-8.0, 8.0))
    def test_symmetry(self, z):
        assert normal_cdf(-z) == pytest.approx(1.0 - normal_cdf(z), abs=1e-12)

    @given(st.floats(-8.0, 8.0), st.floats(0.0, 4.0))
    def test_monotone(self, z, step):
        assert normal_cdf(z + step) >= normal_cdf(z)

