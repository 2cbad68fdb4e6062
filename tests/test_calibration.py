import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scorefdr import (
    MAX_EVALUE,
    CalibrationSet,
    LikelihoodRatioSpec,
    ar1_conditional_pvalue,
    ar1_marginal_pvalue,
    conformal_evalue,
    lr_evalue,
    normal_cdf,
    normal_ppf,
    vovk_p_to_e,
)
from scorefdr.calibration import MIN_EVALUE


class TestVovkCalibrator:
    def test_reference_values(self):
        assert vovk_p_to_e(0.05) == pytest.approx(1.7833, abs=1e-3)
        assert vovk_p_to_e(math.exp(-2)) == pytest.approx(1.0973, abs=1e-3)

    def test_limit_at_one(self):
        assert vovk_p_to_e(1.0) == 0.5
        assert vovk_p_to_e(1.0 - 1e-13) == 0.5
        # approaching from below the shortcut window still lands near 1/2
        assert vovk_p_to_e(1.0 - 1e-9) == pytest.approx(0.5, abs=1e-6)

    def test_tiny_p_clamped_finite(self):
        e = vovk_p_to_e(1e-320)
        assert math.isfinite(e)
        assert e == vovk_p_to_e(1e-300)
        assert e > 1e290

    def test_domain_errors(self):
        for bad in (0.0, -0.1, 1.2, math.nan):
            with pytest.raises(ValueError):
                vovk_p_to_e(bad)

    def test_vectorized(self):
        p = np.array([0.05, 0.5, 1.0])
        out = vovk_p_to_e(p)
        assert out.shape == (3,)
        assert out[0] == vovk_p_to_e(0.05)
        assert out[2] == 0.5

    @settings(deadline=None)
    @given(st.floats(min_value=1e-6, max_value=0.9))
    def test_exceeds_vs_larger_p(self, p):
        # strictly decreasing: the cap 1 - 1e-6 stays strictly above any p <= 0.9
        q = min(p * 1.7 + 1e-7, 1.0 - 1e-6)
        assert q > p
        assert vovk_p_to_e(p) > vovk_p_to_e(q)

    def test_uniform_mean_near_one(self):
        rng = np.random.default_rng(77)
        p = np.maximum(rng.random(100_000), 1e-300)
        e = vovk_p_to_e(p)
        se = e.std(ddof=1) / math.sqrt(len(e))
        assert e.mean() <= 1.0 + 3.0 * se


class TestConformal:
    def test_identical_scores_give_unit_evalue(self):
        for c in (0.2, 1.0, 7.5):
            assert conformal_evalue(c, CalibrationSet([c, c, c])) == pytest.approx(1.0, abs=1e-15)

    def test_zero_calibration_scores(self):
        assert conformal_evalue(1.0, CalibrationSet([0.0, 0.0, 0.0])) == pytest.approx(4.0)

    def test_zero_test_score(self):
        assert conformal_evalue(0.0, CalibrationSet([1.0, 1.0])) == 0.0

    def test_degenerate_denominator(self):
        with pytest.raises(ValueError, match="degenerate"):
            conformal_evalue(0.0, CalibrationSet([0.0, 0.0]))

    @pytest.mark.parametrize("cal, shown", [(None, "None"), ([1.0, 2.0], "[1.0, 2.0]")])
    def test_cal_must_be_a_calibration_set(self, cal, shown):
        message = f"cal must be a CalibrationSet, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            conformal_evalue(1.0, cal)

    def test_calibration_set_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            CalibrationSet([])
        with pytest.raises(ValueError):
            CalibrationSet([1.0, -2.0])
        with pytest.raises(ValueError):
            CalibrationSet([np.inf])

    def test_exchangeable_mean_at_most_one(self):
        rng = np.random.default_rng(13)
        values = []
        for _ in range(4000):
            scores = rng.random(21) ** 2
            test = scores[0]
            values.append(conformal_evalue(test, CalibrationSet(scores[1:])))
        values = np.asarray(values)
        se = values.std(ddof=1) / math.sqrt(len(values))
        assert values.mean() <= 1.0 + 3.0 * se


class TestLikelihoodRatios:
    def test_gaussian_pair_at_zero(self):
        spec = LikelihoodRatioSpec("gaussian_pair")
        assert lr_evalue(spec, 0.0) == pytest.approx(0.19284, abs=1e-4)

    def test_exponential_scale_at_zero(self):
        spec = LikelihoodRatioSpec("exponential_scale", scale=3.0)
        assert lr_evalue(spec, 0.0, context=1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_ar1_values(self):
        spec = LikelihoodRatioSpec("ar1_gaussian", phi0=0.5, phi1=3.0)
        assert lr_evalue(spec, 2.0, context=1.0) == pytest.approx(1.8682, abs=1e-3)
        # zero previous value makes both densities identical
        for x in (-3.0, 0.0, 5.0):
            assert lr_evalue(spec, x, context=0.0) == pytest.approx(1.0, abs=1e-15)

    def test_context_required(self):
        with pytest.raises(ValueError, match="context"):
            lr_evalue(LikelihoodRatioSpec("exponential_scale"), 1.0)
        with pytest.raises(ValueError, match="context"):
            lr_evalue(LikelihoodRatioSpec("ar1_gaussian"), 1.0)
        with pytest.raises(ValueError, match="eta"):
            lr_evalue(LikelihoodRatioSpec("exponential_scale"), 1.0, context=-2.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="family"):
            LikelihoodRatioSpec("cauchy_pair")
        with pytest.raises(ValueError, match="variances"):
            LikelihoodRatioSpec("gaussian_pair", null_var=0.0)
        with pytest.raises(ValueError, match="scale"):
            LikelihoodRatioSpec("exponential_scale", scale=1.0)

    def test_overflow_clamped(self):
        spec = LikelihoodRatioSpec("ar1_gaussian", phi0=0.5, phi1=3.0)
        huge = lr_evalue(spec, 1e6, context=1e3)
        assert huge == MAX_EVALUE
        tiny = lr_evalue(spec, -1e6, context=1e3)
        assert tiny > 0.0 and math.isfinite(tiny)

    @pytest.mark.parametrize("family, x, context, expected", [
        ("gaussian_pair", 1e200, None, MAX_EVALUE),
        ("gaussian_pair", -1e200, None, MAX_EVALUE),
        ("ar1_gaussian", 1e200, 1.0, MAX_EVALUE),
        ("ar1_gaussian", 1e200, 1e200, MIN_EVALUE),
    ])
    def test_squares_that_overflow_are_clamped(self, family, x, context, expected):
        # past |x| of about 1e154 both squares of the log-ratio are inf; no NaN, no warning
        spec = LikelihoodRatioSpec(family)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lr_evalue(spec, x, context) == expected
            # an entry that was finite before keeps its bits next to an overflowing one
            assert lr_evalue(spec, [2.0, x], context)[0] == lr_evalue(spec, 2.0, context)

    @pytest.mark.parametrize("family", ["gaussian_pair", "exponential_scale", "ar1_gaussian"])
    def test_null_mean_at_most_one(self, family):
        rng = np.random.default_rng(29)
        n = 200_000
        if family == "gaussian_pair":
            spec = LikelihoodRatioSpec(family)
            e = lr_evalue(spec, rng.standard_normal(n))
        elif family == "exponential_scale":
            spec = LikelihoodRatioSpec(family, scale=3.0)
            eta = 1.3
            x = rng.exponential(1.0 / eta, size=n)
            e = lr_evalue(spec, x, context=np.full(n, eta))
        else:
            spec = LikelihoodRatioSpec(family, phi0=0.5, phi1=3.0)
            x_prev = 0.7
            x = 0.5 * x_prev + rng.standard_normal(n)
            e = lr_evalue(spec, x, context=np.full(n, x_prev))
        se = e.std(ddof=1) / math.sqrt(n)
        assert e.mean() <= 1.0 + 3.0 * se


class TestAr1Pvalues:
    def test_conditional_examples(self):
        assert ar1_conditional_pvalue(0.0, 0.0, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert ar1_conditional_pvalue(1.6449, 0.0, 0.5) == pytest.approx(0.05, abs=1e-4)
        assert ar1_conditional_pvalue(0.5, 1.0, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_marginal_examples(self):
        assert ar1_marginal_pvalue(0.0) == pytest.approx(0.5, abs=1e-15)
        assert ar1_marginal_pvalue(math.sqrt(4.0 / 3.0) * 1.6449) == pytest.approx(0.05, abs=1e-4)
        assert ar1_marginal_pvalue(-10.0) == pytest.approx(1.0, abs=1e-12)

    def test_conditional_uniform_under_null(self):
        rng = np.random.default_rng(41)
        x_prev = rng.standard_normal(50_000) * 2.0
        x = 0.5 * x_prev + rng.standard_normal(50_000)
        p = ar1_conditional_pvalue(x, x_prev, 0.5)
        sorted_p = np.sort(p)
        grid = np.arange(1, len(p) + 1) / len(p)
        ks = np.max(np.maximum(np.abs(grid - sorted_p), np.abs(sorted_p - (grid - 1.0 / len(p)))))
        assert ks < 1.6276 / math.sqrt(len(p))  # 1% critical value


def test_normal_cdf_accuracy():
    # against the complementary error function identity
    for x in (-8.0, -3.2, -1.0, 0.0, 0.5, 2.4, 7.0):
        expected = 0.5 * math.erfc(-x / math.sqrt(2.0))
        assert normal_cdf(x) == pytest.approx(expected, abs=1e-12)


def test_normal_ppf_round_trip():
    for u in (1e-12, 0.025, 0.5, 0.975, 1.0 - 1e-12):
        assert normal_cdf(normal_ppf(u)) == pytest.approx(u, rel=1e-9, abs=1e-13)
