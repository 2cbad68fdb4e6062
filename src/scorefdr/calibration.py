"""Builders that turn raw statistics into valid e-values or p-values.

Numerical notes
---------------
The AR(1) p-values call the standard normal CDF ``scipy.special.ndtr``
directly, as the generators of :mod:`scorefdr.simulation` call its inverse
``ndtri`` (Cephes erfc-based implementations, absolute error well below
1e-12), so results are bit-stable across builds.  Exponential families are
parameterized by *rate* throughout: a null Exp(rate eta) against an
alternative Exp(rate eta / mu) gives the likelihood ratio
``(1/mu) * exp(eta * x * (1 - 1/mu))``.  A Gaussian log-ratio is the
direct difference of squares, except on the entries where both squares
overflow and that form is NaN.  There the AR(1) ratio takes a scaled
product of factors.  The Gaussian pair first takes the quadratic expanded
in x, exact for equal variances and means small next to x, and the scaled
product only on the entries that form still leaves NaN.
Likelihood ratios and the p-to-e calibrator clamp to the largest finite
float instead of overflowing, and to the smallest positive normal float
instead of underflowing to zero.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from ._validation import EVIDENCE, check_array, check_real
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

#: The p-values the p-to-e calibrator takes (p = 0 has no finite e-value), as an interval.
P_DOMAIN = (0.0, 1.0, "(]")

LR_FAMILIES = ("gaussian_pair", "exponential_scale", "ar1_gaussian")


def _clamped_exp(log_value):
    with np.errstate(over="ignore"):
        out = np.exp(log_value)
    out = np.where(np.isinf(out), MAX_EVALUE, out)
    return np.where(out < MIN_EVALUE, MIN_EVALUE, out)


def _unless_nan(log_ratio, *fallbacks):
    """``log_ratio`` with its NaN entries filled from ``fallbacks`` in order, each
    called only while a NaN is left.  Past |x| of about 1e154 both squares of a
    Gaussian log-ratio overflow, and inf - inf is NaN; :func:`_scaled_gaussian_quadratic`
    and :func:`_scaled_ar1_difference` subtract no two squares and give NaN nowhere."""
    for fallback in fallbacks:
        nan = np.isnan(log_ratio)
        if not nan.any():
            break
        log_ratio = np.where(nan, fallback(), log_ratio)
    return log_ratio


def _scaled_gaussian_quadratic(x, m0, v0, m1, v1):
    """``(x - m0)**2 / (2 v0) - (x - m1)**2 / (2 v1)`` as ``(A - B) (A + B)``, with
    ``A = (x - m0) / sqrt(2 v0)`` and ``B = (x - m1) / sqrt(2 v1)`` computed on x, m0
    and m1 scaled below 1 by one power of two, and the square of that power put back
    last: a finite or infinite result, never NaN."""
    _, exp = np.frexp(np.maximum(np.abs(x), max(abs(m0), abs(m1))))
    x, m0, m1 = np.ldexp(x, -exp), np.ldexp(m0, -exp), np.ldexp(m1, -exp)
    r0, r1 = math.sqrt(0.5) / math.sqrt(v0), math.sqrt(0.5) / math.sqrt(v1)
    # A - B and A + B as linear forms in x: equal variances cancel x exactly
    product = ((r0 - r1) * x - (r0 * m0 - r1 * m1)) * ((r0 + r1) * x - (r0 * m0 + r1 * m1))
    return np.ldexp(product, 2 * exp)


def _scaled_ar1_difference(x, c, phi0, phi1):
    """``0.5 * ((x - phi0 c)**2 - (x - phi1 c)**2)`` as ``(phi1 - phi0) c (x - (phi0 + phi1)
    c / 2)``, each factor split by ``frexp`` and the powers of two put back last: a finite
    or infinite result, never NaN, and exactly 0 where a factor is."""
    d = phi1 - phi0  # a float: inf where it overflows
    b = x - (0.5 * phi0 + 0.5 * phi1) * c
    (md, ed), (mc, ec), (mb, eb) = np.frexp(d), np.frexp(c), np.frexp(b)
    return np.where((c == 0.0) | (b == 0.0) | (d == 0.0), 0.0,
                    np.ldexp(md * mc * mb, ed + ec + eb))


def _check_broadcast(x, x_name: str, y, y_name: str) -> None:
    """Refuse arrays ``x`` and ``y`` whose shapes do not broadcast together."""
    try:
        np.broadcast_shapes(x.shape, y.shape)
    except ValueError:
        raise ValueError(f"{x_name} and {y_name} must broadcast together, got shapes "
                         f"{x.shape} and {y.shape}") from None


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
    arr = np.maximum(check_array(p, "p", *P_DOMAIN), P_FLOOR)
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
        arr = check_array(self.scores, "scores", *EVIDENCE["e"]).reshape(-1)
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
    s = check_array(test_score, "test_score", *EVIDENCE["e"])
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
                # exact where the scaled form rounds small means to 0 next to a huge x
                lambda: 0.5 * math.log(v0 / v1) + (0.5 * m0 * m0 / v0 - 0.5 * m1 * m1 / v1)
                + x * ((0.5 / v0 - 0.5 / v1) * x + (m1 / v1 - m0 / v0)),
                lambda: 0.5 * math.log(v0 / v1) + _scaled_gaussian_quadratic(x, m0, v0, m1, v1))
        return _as_result(_clamped_exp(log_ratio))
    rate = spec.family == "exponential_scale"
    name, what = ("eta", "the rate eta") if rate else ("context", "the previous observation")
    if context is None:
        raise ValueError(f"{spec.family} requires {what} as context")
    context = check_array(context, name, 0.0 if rate else -math.inf)
    _check_broadcast(x, "x", context, name)
    if rate:
        log_ratio = -math.log(spec.scale) + context * x * (1.0 - 1.0 / spec.scale)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            log_ratio = _unless_nan(
                0.5 * ((x - spec.phi0 * context) ** 2 - (x - spec.phi1 * context) ** 2),
                lambda: _scaled_ar1_difference(x, context, spec.phi0, spec.phi1))
    return _as_result(_clamped_exp(log_ratio))


def ar1_conditional_pvalue(x_t, x_prev, phi0: float):
    """One-sided p-value for the AR(1) null, conditional on the past.

    ``p = 1 - Phi(x_t - phi0 * x_prev)``: the innovation is standard normal
    under the null given the previous observation, so this p-value is
    uniform conditionally on the history.
    """
    x_t, x_prev = check_array(x_t, "x_t"), check_array(x_prev, "x_prev")
    _check_broadcast(x_t, "x_t", x_prev, "x_prev")
    resid = x_t - check_real(phi0, "phi0") * x_prev
    return _as_result(ndtr(-resid))


def ar1_marginal_pvalue(x_t, null_var: float = 4.0 / 3.0):
    """One-sided p-value using only the stationary marginal law.

    ``p = 1 - Phi(x_t / sqrt(null_var))``.  Valid marginally under the
    stationary null but NOT conditionally on the past, so feeding these
    p-values to an online procedure can break FDR control under dependence;
    they exist here to demonstrate exactly that failure.
    """
    z = check_array(x_t, "x_t") / math.sqrt(check_real(null_var, "null_var", 0.0))
    return _as_result(ndtr(-z))
