"""Synthetic data-generating processes, trajectory metrics, and the
Monte-Carlo replication runner.

The runner evaluates each replicate from the fitted procedure's decisions
and the generated stream's truth labels, through the same curves that
:func:`evaluate` computes from a :class:`~scorefdr.procedures.Trajectory`;
no trajectory is built per replicate.

Blocks
------
:func:`replicate` works in blocks of replicates, each of at most
``_BLOCK_STEPS`` hypotheses and at least one replicate.  A block's streams
are drawn together as ``(count, T)`` arrays, and only the evidence the study
runs on is computed; :func:`generate` is the one-replicate block that
computes all of it.  Each replicate is fitted on its own by the scalar
kernel, and one call of the curves along the last axis then evaluates the
block's stacked decisions.  :func:`aggregate` and :func:`replicate` add each
run's curves to the same running sums, in run order.

Reproducibility
---------------
Streams are driven by numpy's PCG64 generator.  Replicate r of a study of
``dgp`` uses its own ``PCG64(dgp.seed + r)``, and every random quantity is
derived from uniform draws pushed through inverse CDFs (``ndtri`` for
normals, ``-log1p(-u) / rate`` for exponentials) in the fixed order
documented on :func:`generate`.  A block draws each replicate's uniforms
from that replicate's own PCG64, in that order, and every transform is
elementwise, so a replicate's stream has the same bits in a block of any
size as on its own.  The AR recursions run row by row on Python floats,
with ``math.log1p``.  Replicates are aggregated in replicate order, so
reports are bit-identical across runs and across block sizes.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.special import ndtri

from .calibration import (
    LikelihoodRatioSpec,
    ar1_conditional_pvalue,
    ar1_marginal_pvalue,
    lr_evalue,
)
from ._validation import (check_array, check_checkpoints, check_count, check_kind, check_real,
                          check_truth)
from .procedures import OnlineProcedure, Trajectory

DGP_NAMES = ("gaussian_mixture", "ar_exponential", "ar1_gaussian")
#: Evidence name -> the kind of evidence it carries.
STREAM_EVIDENCE = {"e": "e", "p_conditional": "p", "p_marginal": "p"}
#: :func:`default_checkpoints` reports every step up to this many steps.
_MAX_CHECKPOINTS = 1000
#: :func:`replicate` draws and evaluates its replicates in blocks of at most this
#: many hypotheses, and of at least one replicate.
_BLOCK_STEPS = 65_536


@dataclass(frozen=True)
class DgpConfig:
    """Configuration of one synthetic stream.

    Only the fields relevant to the chosen ``dgp`` are used: ``rho`` and
    ``mu_set`` drive the autoregressive exponential model, ``phi0`` / ``phi1``
    the autoregressive Gaussian model.  Every field is checked whatever the ``dgp``.
    """

    dgp: str
    horizon: int = 1000
    pi1: float = 0.3
    rho: float = 0.5
    mu_set: tuple[float, ...] = (3.0, 20.0)
    phi0: float = 0.5
    phi1: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.dgp not in DGP_NAMES:
            raise ValueError(f"dgp must be one of {', '.join(DGP_NAMES)}; got {self.dgp!r}")
        object.__setattr__(self, "horizon", check_count(self.horizon, "horizon"))
        check_real(self.pi1, "pi1", 0.0, 1.0, "[]")
        object.__setattr__(self, "seed", check_count(self.seed, "seed", 0))
        check_real(self.rho, "rho", 0.0, math.inf, "[)")  # so the rate 1 + rho * x is >= 1
        mu_set = check_array(self.mu_set, "mu_set", 1.0, math.inf)
        if mu_set.ndim != 1 or not mu_set.size:
            raise ValueError(f"mu_set must be a non-empty 1-d list, got {self.mu_set!r}")
        check_real(self.phi0, "phi0", -1.0, 1.0)  # for a stationary null
        check_real(self.phi1, "phi1")


@dataclass(frozen=True)
class GeneratedStream:
    """One simulated stream with ground truth and attached evidence.

    ``evalue`` is always present; the conditional and marginal p-value
    streams exist only for the autoregressive Gaussian model.
    """

    x: np.ndarray
    truth: np.ndarray
    evalue: np.ndarray
    p_conditional: np.ndarray | None = None
    p_marginal: np.ndarray | None = None
    x0: float = 0.0

    def evidence(self, which: str) -> np.ndarray:
        """Evidence array by :data:`STREAM_EVIDENCE` name; ``e`` is :attr:`evalue`."""
        chosen = None
        if which in STREAM_EVIDENCE:
            chosen = getattr(self, "evalue" if which == "e" else which)
        if chosen is None:
            raise ValueError(f"this stream carries no {which!r} evidence")
        return chosen


@dataclass(frozen=True)
class MetricsReport:
    """FDR and average-power curves aggregated across replicates."""

    checkpoints: np.ndarray
    fdr: np.ndarray
    fdr_se: np.ndarray
    power: np.ndarray
    power_se: np.ndarray
    n_reps: int
    dgp: DgpConfig | None
    procedure_id: str
    evidence: str = "e"


def _generate_block(config: DgpConfig, count: int = 1,
                    evidence=tuple(STREAM_EVIDENCE)) -> GeneratedStream:
    """Replicates ``config.seed`` to ``config.seed + count - 1`` of ``config`` at once.

    The result holds ``(count, T)`` arrays and a ``(count,)`` array ``x0``;
    row r is bit for bit what :func:`generate` gives at seed
    ``config.seed + r``.  Each replicate draws all its uniforms from its own
    PCG64 in the order :func:`generate` documents, and every elementwise
    transform then runs once on the whole block.  The AR recursions run row
    by row on Python floats, one row's lists alive at a time.  Only the
    evidence named in ``evidence`` is computed; the rest, like evidence the
    model does not carry, is None.
    """
    T = config.horizon
    draws = np.empty((count, 2 * T + 1 if config.dgp == "ar1_gaussian" else 3 * T))
    for r in range(count):
        np.random.Generator(np.random.PCG64(config.seed + r)).random(out=draws[r])
    # rng.random() can return exactly 0.0; nudge those onto (0, 1) so the
    # inverse normal CDF stays finite.  ar_exponential's signal-size uniforms
    # pick the same mu_set index either way.
    np.maximum(draws, 5e-324, out=draws)

    if config.dgp == "gaussian_mixture":
        theta = draws[:, :T] < config.pi1
        mu = np.where(theta, 3.0 + math.sqrt(5.0) * ndtri(draws[:, T:2 * T]), 0.0)
        x = mu + ndtri(draws[:, 2 * T:])
        spec = LikelihoodRatioSpec("gaussian_pair", null_mean=0.0, null_var=1.0,
                                   alt_mean=3.0, alt_var=6.0)
        evalue = lr_evalue(spec, x) if "e" in evidence else None
        return GeneratedStream(x=x, truth=theta, evalue=evalue, x0=np.full(count, math.nan))

    if config.dgp == "ar_exponential":
        theta = draws[:, :T] < config.pi1
        mu_choices = np.asarray(config.mu_set, dtype=float)
        mu_idx = np.minimum((draws[:, T:2 * T] * len(mu_choices)).astype(int),
                            len(mu_choices) - 1)
        # an alternative divides its rate by mu_t, a null by 1.0, which is exact
        divisor = np.where(theta, mu_choices[mu_idx], 1.0)
        # The recursion runs on Python floats; math.log1p, not np.log1p,
        # whose results differ from it in the last bit.
        rho = config.rho
        x = np.empty((count, T))
        for r, (divisors, minus_u) in enumerate(zip(divisor, -draws[:, 2 * T:])):
            row = []
            x_prev = 0.0
            for div, log in zip(divisors.tolist(), map(math.log1p, minus_u.tolist())):
                x_prev = -log / ((1.0 + rho * x_prev) / div)
                row.append(x_prev)
            x[r] = row
        etas = 1.0 + rho * np.concatenate((np.zeros((count, 1)), x[:, :-1]), axis=1)
        spec = LikelihoodRatioSpec("exponential_scale", scale=3.0)
        evalue = lr_evalue(spec, x, context=etas) if "e" in evidence else None
        return GeneratedStream(x=x, truth=theta, evalue=evalue, x0=np.zeros(count))

    # ar1_gaussian
    init_sd = math.sqrt(1.0 / (1.0 - config.phi0**2))
    x0 = init_sd * ndtri(draws[:, 0])
    theta = draws[:, 1:T + 1] < config.pi1
    eps = ndtri(draws[:, T + 1:])
    phi = np.where(theta, config.phi1, config.phi0)
    x = np.empty((count, T))
    for r, (x_prev, phis, innovations) in enumerate(zip(x0.tolist(), phi, eps)):
        row = []
        for phi_t, eps_t in zip(phis.tolist(), innovations.tolist()):
            x_prev = phi_t * x_prev + eps_t
            row.append(x_prev)
        x[r] = row
    lagged = np.concatenate((x0[:, None], x[:, :-1]), axis=1)
    spec = LikelihoodRatioSpec("ar1_gaussian", phi0=config.phi0, phi1=config.phi1)
    return GeneratedStream(
        x=x,
        truth=theta,
        evalue=lr_evalue(spec, x, context=lagged) if "e" in evidence else None,
        p_conditional=(ar1_conditional_pvalue(x, lagged, config.phi0)
                       if "p_conditional" in evidence else None),
        p_marginal=(ar1_marginal_pvalue(x, null_var=1.0 / (1.0 - config.phi0**2))
                    if "p_marginal" in evidence else None),
        x0=x0,
    )


def generate(config: DgpConfig) -> GeneratedStream:
    """Simulate one stream; deterministic given ``config.seed``.

    Draw order (all from PCG64(seed), inverse-CDF transformed):

    * gaussian_mixture: truth uniforms, signal-mean normals, observation
      normals.  Observation is signal mean plus unit noise; the e-value is
      the marginal likelihood ratio of N(3, 6) against N(0, 1).
    * ar_exponential: truth uniforms, signal-size uniforms, observation
      uniforms.  Rate ``eta_t = 1 + rho * x_{t-1}`` (x_0 = 0); nulls draw
      Exp(eta_t), alternatives Exp(eta_t / mu_t) with mu_t uniform over
      ``mu_set``.  The attached e-value always uses the scale-3 working
      alternative, deliberately ignoring the drawn signal size.
    * ar1_gaussian: initial-point uniform, truth uniforms, innovation
      normals.  ``x_t = phi_t x_{t-1} + eps_t`` from the stationary null
      start N(0, 1/(1-phi0^2)); carries the conditional-likelihood e-value
      plus conditional and marginal p-values.
    """
    block = _generate_block(config)
    row = {}
    for f in fields(block):
        value = getattr(block, f.name)
        row[f.name] = None if value is None else value[0]
    row["x0"] = float(row["x0"])
    return GeneratedStream(**row)


def evaluate(trajectory: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Per-step FDP and average-power curves of a labelled trajectory.

    ``fdp(t)`` divides false rejections by ``max(R_t, 1)``.  ``power(t)``
    divides true rejections by the number of non-nulls seen so far, and is
    zero by convention while no non-null has appeared.
    """
    if trajectory.truth is None:
        raise ValueError("trajectory carries no ground-truth labels")
    return _curves(trajectory.decision, trajectory.truth)


def _curves(decision: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # along the last axis, so one call gives the curves of a block of runs
    rejections = np.cumsum(decision, axis=-1)
    false_rej = np.cumsum(decision & ~truth, axis=-1)
    true_rej = np.cumsum(decision & truth, axis=-1)
    alternatives = np.cumsum(truth, axis=-1)
    fdp = false_rej / np.maximum(rejections, 1)
    power = true_rej / np.maximum(alternatives, 1)
    return fdp, power


def _labels(values, name: str) -> np.ndarray:
    """``values`` judged by the label rule, as a boolean array."""
    return np.array(check_truth(values, name, len(values)), dtype=bool)


def default_checkpoints(horizon: int) -> np.ndarray:
    """Every step up to 1000 steps; a uniform stride beyond that."""
    horizon = check_count(horizon, "horizon")
    if horizon <= _MAX_CHECKPOINTS:
        return np.arange(1, horizon + 1)
    stride = math.ceil(horizon / _MAX_CHECKPOINTS)
    points = np.arange(stride, horizon + 1, stride)
    if points[-1] != horizon:
        points = np.append(points, horizon)
    return points


def resolve_evidence(procedure: OnlineProcedure, evidence: str = "auto") -> str:
    """The stream evidence ``procedure`` runs on; ``auto`` picks its own kind.

    An unknown name, or evidence of the other kind (p-values for an e-value
    procedure, or the reverse), is a ``ValueError``.
    """
    if evidence == "auto":
        return "e" if procedure.evidence_kind == "e" else "p_conditional"
    if not isinstance(evidence, str) or evidence not in STREAM_EVIDENCE:
        raise ValueError(f"evidence must be auto or one of {', '.join(STREAM_EVIDENCE)}; "
                         f"got {evidence!r}")
    check_kind(procedure, STREAM_EVIDENCE[evidence], f"evidence={evidence}")
    return evidence


class _Moments:
    """Running sums of runs' ``(2, k)`` curves, FDP in row 0 and average power in
    row 1, and of their squares, added in run order; :meth:`report` turns them
    into a :class:`MetricsReport`."""

    def __init__(self):
        self.total = self.squares = 0.0
        self.n_runs = 0

    def add(self, curves: np.ndarray) -> None:
        self.total += curves  # the first run makes a new array: curves may be a view
        self.squares += curves * curves
        self.n_runs += 1

    def report(self, points, procedure, dgp, evidence) -> MetricsReport:
        if self.n_runs == 0:
            raise ValueError("no runs to aggregate")
        n = float(self.n_runs)
        mean = self.total / n
        se = np.zeros_like(mean)
        if self.n_runs > 1:
            var = np.maximum(self.squares - n * mean * mean, 0.0) / (n - 1.0)
            se = np.sqrt(var / n)
        return MetricsReport(
            checkpoints=points,
            fdr=mean[0],
            fdr_se=se[0],
            power=mean[1],
            power_se=se[1],
            n_reps=self.n_runs,
            dgp=dgp,
            procedure_id=procedure.procedure_id,
            evidence=evidence,
        )


def aggregate(runs, checkpoints, procedure: OnlineProcedure, dgp: DgpConfig | None = None,
              evidence: str = "e") -> MetricsReport:
    """FDR and average power at ``checkpoints`` over labelled runs of ``procedure``.

    ``runs`` yields one ``(decision, truth)`` pair of 1-d arrays per stream,
    each entry a bool, 0 or 1; a boolean array is taken as it is.  Means and
    standard errors (sample sd over sqrt(n), zero for a single run) of the
    :func:`evaluate` curves are taken in run order, so a report is
    bit-identical across calls.  ``dgp`` and ``evidence`` label it.  Each
    run's checkpoints must lie within its length.
    """
    try:
        runs = iter(runs)
    except TypeError:
        raise ValueError(f"runs must be an iterable of (decision, truth) pairs, "
                         f"got {reprlib.repr(runs)}") from None
    moments = _Moments()
    length = points = None
    for run in runs:
        n_runs = moments.n_runs
        try:
            decision, truth = run
            pair = np.ndim(decision) == np.ndim(truth) == 1
        except (TypeError, ValueError):  # ValueError: a ragged sequence, or not two items
            pair = False
        if not pair:
            raise ValueError(f"runs[{n_runs}] must be a (decision, truth) pair of 1-d "
                             f"sequences, got {reprlib.repr(run)}")
        if len(decision) != len(truth):
            raise ValueError(f"runs[{n_runs}]: {len(decision)} decisions but {len(truth)} labels")
        if getattr(decision, "dtype", None) != bool:
            decision = _labels(decision, f"runs[{n_runs}] decision")
        if getattr(truth, "dtype", None) != bool:
            truth = _labels(truth, f"runs[{n_runs}] truth")
        if len(decision) != length:  # checked once per run length
            length = len(decision)
            points = check_checkpoints(checkpoints, length)
        curves = np.array(_curves(decision, truth))
        moments.add(curves if len(points) == length else curves[:, points - 1])
    return moments.report(points, procedure, dgp, evidence)


def replicate(
    dgp: DgpConfig,
    procedure: OnlineProcedure,
    n_reps: int,
    checkpoints=None,
    evidence: str = "auto",
) -> MetricsReport:
    """Monte-Carlo study: run ``n_reps`` independent streams and aggregate them as
    :func:`aggregate` does.

    Replicate r uses seed ``dgp.seed + r``, so ``report.dgp`` is the
    configuration of replicate 0.  Replicate 0 runs on ``procedure``, which is
    left fitted on that stream's evidence with its full history.  The rest run
    on one clone under the "decisions" history policy (see
    :mod:`scorefdr.procedures`): the clone records only the decisions, which
    is all the curves read.  Streams are drawn and evaluated in blocks of
    replicates (see the module notes), with the same bits as one replicate at
    a time.  Every argument is checked before the first stream is generated.
    """
    n_reps = check_count(n_reps, "n_reps")
    evidence = resolve_evidence(procedure, evidence)
    if checkpoints is None:
        checkpoints = default_checkpoints(dgp.horizon)
    horizon = dgp.horizon
    points = check_checkpoints(checkpoints, horizon)
    per_block = max(1, _BLOCK_STEPS // horizon)
    moments = _Moments()
    proc, fit = procedure, procedure.fit
    for first in range(0, n_reps, per_block):
        count = min(per_block, n_reps - first)
        block = _generate_block(replace(dgp, seed=dgp.seed + first), count, (evidence,))
        values = block.evidence(evidence)
        decisions = np.empty((count, horizon), dtype=bool)
        for i in range(count):
            if first + i == 1:
                proc = procedure.clone()
                fit = proc._fit_decisions
            fit(values[i])
            decisions[i] = proc.decision_
        # (count, 2, T): each run's FDP and power curves side by side
        curves = np.stack(_curves(decisions, block.truth), axis=1)
        if len(points) != horizon:
            curves = curves[:, :, points - 1]
        for run in curves:
            moments.add(run)
    return moments.report(points, procedure, dgp, evidence)
