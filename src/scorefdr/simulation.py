"""Synthetic data-generating processes, trajectory metrics, and the
Monte-Carlo replication runner.

The runner evaluates each replicate from the fitted procedure's decisions
and the generated stream's truth labels, through the same curves that
:func:`evaluate` computes from a :class:`~scorefdr.procedures.Trajectory`;
no trajectory is built per replicate.

Reproducibility
---------------
Streams are driven by numpy's PCG64 generator.  Replicate r of a study of
``dgp`` uses its own ``PCG64(dgp.seed + r)``, and every random quantity is
derived from uniform draws pushed through inverse CDFs (``ndtri`` for
normals, ``-log1p(-u) / rate`` for exponentials) in the fixed order
documented on each generator.  Replicates are aggregated in replicate
order, so reports are bit-identical across runs.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, replace

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


def _uniforms(rng: np.random.Generator, size: int) -> np.ndarray:
    # rng.random() can return exactly 0.0; nudge those onto (0, 1) so the
    # inverse normal CDF stays finite.
    u = rng.random(size)
    return np.maximum(u, 5e-324)


def _std_normals(rng: np.random.Generator, size: int) -> np.ndarray:
    return ndtri(_uniforms(rng, size))


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
    rng = np.random.Generator(np.random.PCG64(config.seed))
    T = int(config.horizon)

    if config.dgp == "gaussian_mixture":
        theta = _uniforms(rng, T) < config.pi1
        mu = np.where(theta, 3.0 + math.sqrt(5.0) * _std_normals(rng, T), 0.0)
        x = mu + _std_normals(rng, T)
        spec = LikelihoodRatioSpec("gaussian_pair", null_mean=0.0, null_var=1.0,
                                   alt_mean=3.0, alt_var=6.0)
        return GeneratedStream(x=x, truth=theta, evalue=lr_evalue(spec, x), x0=math.nan)

    if config.dgp == "ar_exponential":
        theta = _uniforms(rng, T) < config.pi1
        mu_choices = np.asarray(config.mu_set, dtype=float)
        mu_idx = np.minimum((rng.random(T) * len(mu_choices)).astype(int), len(mu_choices) - 1)
        mu = mu_choices[mu_idx]
        u_x = _uniforms(rng, T)
        # The recursion runs on Python floats; math.log1p, not np.log1p,
        # whose results differ from it in the last bit.
        rho = config.rho
        xs = []
        etas = []
        x_prev = 0.0
        for alt, mu_t, u in zip(theta.tolist(), mu.tolist(), u_x.tolist()):
            rate = 1.0 + rho * x_prev
            etas.append(rate)
            if alt:
                rate = rate / mu_t
            x_prev = -math.log1p(-u) / rate
            xs.append(x_prev)
        x = np.array(xs)
        spec = LikelihoodRatioSpec("exponential_scale", scale=3.0)
        return GeneratedStream(x=x, truth=theta,
                               evalue=lr_evalue(spec, x, context=np.array(etas)))

    # ar1_gaussian
    init_sd = math.sqrt(1.0 / (1.0 - config.phi0**2))
    x0 = init_sd * float(ndtri(_uniforms(rng, 1)[0]))
    theta = _uniforms(rng, T) < config.pi1
    eps = _std_normals(rng, T)
    phi = np.where(theta, config.phi1, config.phi0)
    xs = []
    x_prev = x0
    for phi_t, eps_t in zip(phi.tolist(), eps.tolist()):
        x_prev = phi_t * x_prev + eps_t
        xs.append(x_prev)
    x = np.array(xs)
    lagged = np.concatenate(([x0], x[:-1]))
    spec = LikelihoodRatioSpec("ar1_gaussian", phi0=config.phi0, phi1=config.phi1)
    return GeneratedStream(
        x=x,
        truth=theta,
        evalue=lr_evalue(spec, x, context=lagged),
        p_conditional=ar1_conditional_pvalue(x, lagged, config.phi0),
        p_marginal=ar1_marginal_pvalue(x, null_var=1.0 / (1.0 - config.phi0**2)),
        x0=x0,
    )


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
    rejections = np.cumsum(decision)
    false_rej = np.cumsum(decision & ~truth)
    true_rej = np.cumsum(decision & truth)
    alternatives = np.cumsum(truth)
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
    # row 0 is FDP, row 1 average power
    total = squares = 0.0
    n_runs, length = 0, None
    for run in runs:
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
        curves = np.array(_curves(decision, truth))[:, points - 1]
        total += curves
        squares += curves * curves
        n_runs += 1
    if n_runs == 0:
        raise ValueError("no runs to aggregate")

    n = float(n_runs)
    mean = total / n
    se = np.zeros_like(mean)
    if n_runs > 1:
        var = np.maximum(squares - n * mean * mean, 0.0) / (n - 1.0)
        se = np.sqrt(var / n)
    return MetricsReport(
        checkpoints=points,
        fdr=mean[0],
        fdr_se=se[0],
        power=mean[1],
        power_se=se[1],
        n_reps=n_runs,
        dgp=dgp,
        procedure_id=procedure.procedure_id,
        evidence=evidence,
    )


def replicate(
    dgp: DgpConfig,
    procedure: OnlineProcedure,
    n_reps: int,
    checkpoints=None,
    evidence: str = "auto",
) -> MetricsReport:
    """Monte-Carlo study: run ``n_reps`` independent streams and :func:`aggregate` them.

    Replicate r uses seed ``dgp.seed + r``, so ``report.dgp`` is the
    configuration of replicate 0.  Replicate 0 runs on ``procedure``, which is
    left fitted on that stream's evidence with its full history.  The rest run
    on one clone under the "decisions" history policy (see
    :mod:`scorefdr.procedures`): the clone records only the decisions, which
    is all the curves read.  Every argument is checked before the first
    stream is generated.
    """
    n_reps = check_count(n_reps, "n_reps")
    evidence = resolve_evidence(procedure, evidence)
    if checkpoints is None:
        checkpoints = default_checkpoints(dgp.horizon)
    points = check_checkpoints(checkpoints, dgp.horizon)

    def runs():
        proc, fit = procedure, procedure.fit
        for r in range(n_reps):
            if r == 1:
                proc = procedure.clone()
                fit = proc._fit_decisions
            stream = generate(replace(dgp, seed=dgp.seed + r))
            fit(stream.evidence(evidence))
            yield proc.decision_, stream.truth

    return aggregate(runs(), points, procedure, dgp, evidence)
