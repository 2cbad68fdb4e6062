"""Builders that turn raw statistics into valid e-values or p-values.

Numerical notes
---------------
The standard normal CDF and its inverse are ``scipy.special.ndtr`` /
``ndtri`` (Cephes erfc-based implementations, absolute error well below
1e-12), so results are bit-stable across builds.  Exponential families are
parameterized by *rate* throughout: a null Exp(rate eta) against an
alternative Exp(rate eta / mu) gives the likelihood ratio
``(1/mu) * exp(eta * x * (1 - 1/mu))``.  Likelihood ratios and the p-to-e
calibrator clamp to the largest finite float instead of overflowing, and to
the smallest positive normal float instead of underflowing to zero.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from ._validation import check_array, check_real
from .core import MAX_EVALUE

#: Smallest e-value returned by the likelihood-ratio builders; density
#: ratios are strictly positive, so underflow is clamped here.
MIN_EVALUE = sys.float_info.min

#: p-values below this are clamped before calibration so the resulting
#: e-value stays finite (at roughly 2.8e294).
P_FLOOR = 1e-300

#: p-values within this distance of 1 map to the calibrator's analytic
#: limit 1/2 instead of evaluating a 0/0 expression.
P_ONE_TOL = 1e-12

LR_FAMILIES = ("gaussian_pair", "exponential_scale", "ar1_gaussian")


def normal_cdf(x):
    """Standard normal CDF, elementwise."""
    return ndtr(x)


def normal_ppf(u):
    """Standard normal quantile function (inverse CDF), elementwise."""
    return ndtri(u)


def _clamped_exp(log_value):
    with np.errstate(over="ignore"):
        out = np.exp(log_value)
    out = np.where(np.isinf(out), MAX_EVALUE, out)
    return np.where(out < MIN_EVALUE, MIN_EVALUE, out)


def _unless_nan(log_ratio, rearranged):
    """``log_ratio``, with ``rearranged()`` in its NaN entries.  Past |x| of about 1e154
    both squares of a Gaussian log-ratio overflow, and inf - inf is NaN; the same
    difference rearranged subtracts no two squares, and is computed only once a NaN is
    there."""
    nan = np.isnan(log_ratio)
    return np.where(nan, rearranged(), log_ratio) if nan.any() else log_ratio


def _as_result(values):
    # a float when the inputs were all scalars, so that nothing broadcast to an array
    values = np.asarray(values, dtype=float)
    return float(values) if values.ndim == 0 else values


def vovk_p_to_e(p):
    """Calibrate p-values into e-values via ``(1 - p + p log p) / (p (log p)^2)``.

    Strictly decreasing on (0, 1), tending to 1/2 as p -> 1 and to infinity
    as p -> 0; integrates to one over uniform p, so the output is a valid
    e-value whenever the input is a valid p-value.  Inputs below 1e-300 are
    clamped there; p = 1 (and anything within 1e-12 of it) returns the
    analytic limit 1/2.  Accepts scalars or arrays.
    """
    arr = np.maximum(check_array(p, "p", 0.0, 1.0, "(]"), P_FLOOR)
    near_one = arr >= 1.0 - P_ONE_TOL
    safe = np.where(near_one, 0.5, arr)
    log_p = np.log(safe)
    values = (1.0 - safe + safe * log_p) / (safe * log_p * log_p)
    values = np.where(near_one, 0.5, values)
    values = np.where(values > MAX_EVALUE, MAX_EVALUE, values)
    return _as_result(values)


@dataclass(frozen=True)
class CalibrationSet:
    """Nonconformity scores of known-null calibration samples."""

    scores: np.ndarray

    def __post_init__(self):
        arr = check_array(self.scores, "scores", 0.0, math.inf, "[)").reshape(-1)
        if arr.size == 0:
            raise ValueError("calibration set must be non-empty")
        object.__setattr__(self, "scores", arr)

    def __len__(self) -> int:
        return len(self.scores)


def conformal_evalue(test_score, cal: CalibrationSet):
    """Conformal e-value: test score over the pooled average score.

    ``e = s / ((sum(cal) + s) / (n + 1))`` where n is the calibration size.
    Valid (mean at most one) whenever the test score is exchangeable with
    the calibration scores.  Accepts scalar or array test scores.
    """
    if not isinstance(cal, CalibrationSet):
        raise ValueError(f"cal must be a CalibrationSet, got {reprlib.repr(cal)}")
    s = check_array(test_score, "test_score", 0.0, math.inf, "[)")
    total = float(np.sum(cal.scores))
    denom = (total + s) / (len(cal) + 1.0)
    if np.any(denom <= 0.0):
        raise ValueError(
            "degenerate conformal denominator: all calibration and test scores are zero"
        )
    return _as_result(s / denom)


@dataclass(frozen=True)
class LikelihoodRatioSpec:
    """Parameters of one of the supported likelihood-ratio e-value families.

    gaussian_pair
        Alternative density N(alt_mean, alt_var) over null N(null_mean,
        null_var), evaluated at the observation.
    exponential_scale
        Null Exp(rate eta) against alternative Exp(rate eta / scale); the
        per-step rate eta is passed as ``context`` when evaluating.
    ar1_gaussian
        N(phi1 * x_prev, 1) over N(phi0 * x_prev, 1) at the current value;
        ``context`` carries x_prev.
    """

    family: str
    null_mean: float = 0.0
    null_var: float = 1.0
    alt_mean: float = 3.0
    alt_var: float = 6.0
    scale: float = 3.0
    phi0: float = 0.5
    phi1: float = 3.0

    def __post_init__(self):
        if self.family not in LR_FAMILIES:
            raise ValueError(f"family must be one of {LR_FAMILIES}, got {self.family!r}")
        check_real(self.null_var, "null_var (one of the variances)", 0.0)
        check_real(self.alt_var, "alt_var (one of the variances)", 0.0)
        check_real(self.scale, "scale", 1.0)
        for name in ("null_mean", "alt_mean", "phi0", "phi1"):
            check_real(getattr(self, name), name)


def lr_evalue(spec: LikelihoodRatioSpec, x, context=None):
    """Likelihood-ratio e-value for one observation (vectorized over ``x``).

    ``context`` is required for the conditional families: the rate eta for
    ``exponential_scale`` and the previous observation for ``ar1_gaussian``.
    Results are clamped to the finite range (see module notes).
    """
    x = check_array(x, "x")
    if spec.family == "gaussian_pair":
        m0, v0, m1, v1 = spec.null_mean, spec.null_var, spec.alt_mean, spec.alt_var
        with np.errstate(over="ignore", invalid="ignore"):
            log_ratio = _unless_nan(
                0.5 * math.log(v0 / v1) + (x - m0) ** 2 / (2.0 * v0) - (x - m1) ** 2 / (2.0 * v1),
                lambda: 0.5 * math.log(v0 / v1) + (0.5 * m0 * m0 / v0 - 0.5 * m1 * m1 / v1)
                + x * ((0.5 / v0 - 0.5 / v1) * x + (m1 / v1 - m0 / v0)))
        return _as_result(_clamped_exp(log_ratio))
    rate = spec.family == "exponential_scale"
    name, what = ("eta", "the rate eta") if rate else ("context", "the previous observation")
    if context is None:
        raise ValueError(f"{spec.family} requires {what} as context")
    context = check_array(context, name, 0.0 if rate else -math.inf)
    try:
        np.broadcast_shapes(x.shape, context.shape)
    except ValueError:
        raise ValueError(f"x and {name} must broadcast together, got shapes {x.shape} and "
                         f"{context.shape}") from None
    if rate:
        log_ratio = -math.log(spec.scale) + context * x * (1.0 - 1.0 / spec.scale)
    else:
        u, w = x - spec.phi0 * context, x - spec.phi1 * context
        with np.errstate(over="ignore", invalid="ignore"):
            log_ratio = _unless_nan(0.5 * (u ** 2 - w ** 2), lambda:
                                    (spec.phi1 - spec.phi0) * context * (0.5 * u + 0.5 * w))
    return _as_result(_clamped_exp(log_ratio))


def ar1_conditional_pvalue(x_t, x_prev, phi0: float):
    """One-sided p-value for the AR(1) null, conditional on the past.

    ``p = 1 - Phi(x_t - phi0 * x_prev)``: the innovation is standard normal
    under the null given the previous observation, so this p-value is
    uniform conditionally on the history.
    """
    resid = np.asarray(x_t, dtype=float) - phi0 * np.asarray(x_prev, dtype=float)
    return _as_result(ndtr(-resid))


def ar1_marginal_pvalue(x_t, null_var: float = 4.0 / 3.0):
    """One-sided p-value using only the stationary marginal law.

    ``p = 1 - Phi(x_t / sqrt(null_var))``.  Valid marginally under the
    stationary null but NOT conditionally on the past, so feeding these
    p-values to an online procedure can break FDR control under dependence;
    they exist here to demonstrate exactly that failure.
    """
    z = np.asarray(x_t, dtype=float) / math.sqrt(null_var)
    return _as_result(ndtr(-z))
