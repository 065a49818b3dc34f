"""Signal model: hypotheses, Gaussian means, priors, normal CDF."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from dualdetect import (
    Hypothesis,
    LikelihoodThresholds,
    Priors,
    SignalModel,
    gammas_from_lambdas,
    normal_cdf,
)
from dualdetect.fusion import _powers
from dualdetect.signal_model import CODES, elementwise

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

    def test_code_table(self):
        # Every per-label table is indexed by code % 3 in CODES order.
        assert CODES.dtype == np.int8
        assert sorted(CODES.tolist()) == sorted(h.code for h in Hypothesis)
        for code in CODES.tolist():
            assert CODES[code % 3] == code


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

    @pytest.mark.parametrize("means", [
        (0.0, 1e-320, 3.0), (-1.0, 0.0, 1e-306), (1e308, 1.5e308, 1.7e308),
    ], ids=["gap01", "gap12", "midpoint"])
    def test_cutoffs_must_stay_finite(self, means):
        # Some positive threshold pair would put a cutoff at +-inf.
        with pytest.raises(ValueError, match="out of float range"):
            SignalModel(*means)
        # A gap of 1e-300 keeps every cutoff finite, at the extreme lambdas too.
        ends = np.array([5e-324, sys.float_info.max])
        gammas = gammas_from_lambdas(SignalModel(0.0, 1e-300, 3.0),
                                     LikelihoodThresholds(ends[:, None], ends[None, :]))
        assert all(np.isfinite(gamma).all() for gamma in dataclasses.astuple(gammas))

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


    def test_array_matches_erf_elementwise(self):
        z = np.random.default_rng(5).normal(0.0, 3.0, size=(7, 11))
        phi = normal_cdf(z)
        assert phi.dtype == np.float64
        assert phi.shape == z.shape
        expected = [[0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in row] for row in z]
        assert phi.tolist() == expected


def _same_bits(result, expected, shape):
    """``result`` is a float64 array of ``shape`` holding exactly ``expected``."""
    assert isinstance(result, np.ndarray)
    assert result.dtype == np.float64
    assert result.shape == shape
    assert result.tobytes() == np.array(expected, dtype=np.float64).tobytes()


class TestElementwise:
    @pytest.mark.parametrize("shape", [(), (4,), (101, 1), (7, 101)])
    @pytest.mark.parametrize("func", [math.erf, math.log, math.exp])
    def test_equals_scalar_calls(self, func, shape):
        x = np.random.default_rng(31).uniform(0.01, 3.0, size=shape)
        _same_bits(elementwise(func)(x), [func(v) for v in x.ravel().tolist()], shape)

    def test_python_scalar(self):
        _same_bits(elementwise(math.erf)(0.3), [math.erf(0.3)], ())

    def test_integer_powers_near_the_unit_interval(self):
        # Votes' probabilities, with the ulps past either end that rounding
        # can leave, signed zeros and tiny negatives, whose odd powers are
        # negative.
        x = np.concatenate([
            np.random.default_rng(32).uniform(-1e-9, 1.0 + 1e-9, size=200),
            [0.0, -0.0, -1e-9, -5e-324, 5e-324, 1.0, 1.0 + 1e-9, np.nextafter(1.0, 0.0)],
        ]).reshape(13, 16)
        powers = _powers(x, 12)
        chains = [_powers(v, 12) for v in x.ravel().tolist()]
        # x**0 is the scalar 1.0 for arrays and floats alike; it broadcasts.
        assert powers[0] == 1.0 and all(chain[0] == 1.0 for chain in chains)
        for e in range(1, 13):
            _same_bits(powers[e], [chain[e] for chain in chains], x.shape)
