import math
import re
import warnings
from fractions import Fraction

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

    @pytest.mark.parametrize("family, params, x, context, expected", [
        ("gaussian_pair", {}, 1e200, None, MAX_EVALUE),
        ("gaussian_pair", {}, -1e200, None, MAX_EVALUE),
        ("ar1_gaussian", {}, 1e200, 1.0, MAX_EVALUE),
        ("ar1_gaussian", {}, 1e200, 1e200, MIN_EVALUE),
        # the exact log-ratio (phi1 - phi0) c (x - (phi0 + phi1) c / 2) = 1.8 c x is about
        # -1.8e354; x - phi0 c and x - phi1 c round to opposites, so their sum loses x
        ("ar1_gaussian", {"phi0": -0.9, "phi1": 0.9}, 1e154, -1e200, MIN_EVALUE),
        # equal variances: the exact log-ratio is (m1 - m0) x = -1 and +1, from means
        # that a scale set by x would round to 0
        ("gaussian_pair", {"alt_mean": -1e-200, "alt_var": 1.0}, 1e200, None,
         pytest.approx(math.exp(-1.0))),
        ("gaussian_pair", {"alt_mean": 1e-200, "alt_var": 1.0}, 1e200, None,
         pytest.approx(math.exp(1.0))),
    ])
    def test_squares_that_overflow_are_clamped(self, family, params, x, context, expected):
        # past |x| of about 1e154 both squares of the log-ratio are inf; no NaN, no warning
        spec = LikelihoodRatioSpec(family, **params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lr_evalue(spec, x, context) == expected
            # an entry that was finite before keeps its bits next to an overflowing one
            assert lr_evalue(spec, [2.0, x], context)[0] == lr_evalue(spec, 2.0, context)

    @pytest.mark.parametrize("name", ["null_mean", "alt_mean"])
    @pytest.mark.parametrize("mean", [1e200, -1e200, 1e308, -1e308])
    @pytest.mark.parametrize("x", [1e300, -1e300])
    def test_extreme_means_clamp_to_the_side_of_the_quadratic(self, name, mean, x):
        # the squares overflow here; the clamp side is the sign of
        # (x - m0)^2 / (2 v0) - (x - m1)^2 / (2 v1), computed exactly
        spec = LikelihoodRatioSpec("gaussian_pair", **{name: mean})
        quadratic = ((Fraction(x) - Fraction(spec.null_mean)) ** 2 / (2 * Fraction(spec.null_var))
                     - (Fraction(x) - Fraction(spec.alt_mean)) ** 2 / (2 * Fraction(spec.alt_var)))
        assert quadratic != 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = lr_evalue(spec, x)
            assert e == (MAX_EVALUE if quadratic > 0 else MIN_EVALUE)
            assert lr_evalue(spec, [2.0, x])[1] == e

    def test_extreme_means_with_equal_variances(self):
        # equal variances cancel the x^2 terms: the quadratic is
        # (m1 - m0) * (2x - m0 - m1) / (2v), here -m0 * x, and 0 at x = 0
        spec = LikelihoodRatioSpec("gaussian_pair", null_mean=1e308, null_var=2.0,
                                   alt_mean=-1e308, alt_var=2.0)
        e = lr_evalue(spec, [1e300, -1e300, 0.0, 1e308, -1e308])
        assert e.tolist() == [MIN_EVALUE, MAX_EVALUE, 1.0, MIN_EVALUE, MAX_EVALUE]

    @pytest.mark.parametrize("phi0, phi1", [(-0.9, 0.9), (0.5, 0.5), (0.5, 3.0), (3.0, 0.5)])
    def test_ar1_extremes_clamp_to_the_side_of_the_exact_ratio(self, phi0, phi1):
        # 0.5 (u^2 - w^2) with u = x - phi0 c and w = x - phi1 c, computed exactly: no
        # entry is NaN, and an entry is clamped only to the side of the exact log-ratio,
        # and surely so past the log of either clamp
        spec = LikelihoodRatioSpec("ar1_gaussian", phi0=phi0, phi1=phi1)
        grid = [0.0, 1.0, -1.0, 1.7e308, -1.7e308]
        for x in grid:
            for c in grid:
                u = Fraction(x) - Fraction(phi0) * Fraction(c)
                w = Fraction(x) - Fraction(phi1) * Fraction(c)
                exact = (u * u - w * w) / 2
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    e = lr_evalue(spec, x, c)
                assert not math.isnan(e), (x, c)
                if e == MAX_EVALUE or exact > math.log(MAX_EVALUE):
                    assert e == MAX_EVALUE and exact > 0, (x, c, e)
                if e == MIN_EVALUE or exact < math.log(MIN_EVALUE):
                    assert e == MIN_EVALUE and exact < 0, (x, c, e)
                if exact == 0:
                    assert e == 1.0, (x, c, e)

    def test_ar1_third_form_fills_only_what_is_nan(self):
        # the entry the squares and the rearranged form both leave NaN is filled, and
        # the finite entries next to it keep their bits
        spec = LikelihoodRatioSpec("ar1_gaussian", phi0=-0.9, phi1=0.9)
        x, c = np.array([2.0, 1.0, -0.3]), np.array([0.7, 1.7e308, 1.1])
        e = lr_evalue(spec, x, c)
        assert e.tolist() == [lr_evalue(spec, 2.0, 0.7), MAX_EVALUE, lr_evalue(spec, -0.3, 1.1)]

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

    @pytest.mark.parametrize("call, message", [
        (lambda: ar1_marginal_pvalue("x"), "x_t must be an array of reals, got 'x'"),
        (lambda: ar1_marginal_pvalue(1.0, null_var=-1), "null_var must be in (0, inf), got -1"),
        (lambda: ar1_marginal_pvalue(1.0, null_var=0), "null_var must be in (0, inf), got 0"),
        (lambda: ar1_conditional_pvalue(1.0, 2.0, "a"), "phi0 must be in (-inf, inf), got 'a'"),
        (lambda: ar1_conditional_pvalue(math.nan, 1.0, 0.5),
         "x_t must be a finite real in (-inf, inf), got nan"),
        (lambda: ar1_conditional_pvalue(1.0, [0.0, math.inf], 0.5),
         "x_prev must be a finite real in (-inf, inf), got inf at index 1"),
        (lambda: ar1_conditional_pvalue([1.0, 2.0], [1.0, 2.0, 3.0], 0.5),
         "x_t and x_prev must broadcast together, got shapes (2,) and (3,)"),
    ], ids=["marginal-str", "null_var-negative", "null_var-zero", "phi0-str", "x_t-nan",
            "x_prev-inf", "shapes"])
    def test_inputs_are_judged(self, call, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    def test_conditional_uniform_under_null(self):
        rng = np.random.default_rng(41)
        x_prev = rng.standard_normal(50_000) * 2.0
        x = 0.5 * x_prev + rng.standard_normal(50_000)
        p = ar1_conditional_pvalue(x, x_prev, 0.5)
        sorted_p = np.sort(p)
        grid = np.arange(1, len(p) + 1) / len(p)
        ks = np.max(np.maximum(np.abs(grid - sorted_p), np.abs(sorted_p - (grid - 1.0 / len(p)))))
        assert ks < 1.6276 / math.sqrt(len(p))  # 1% critical value

