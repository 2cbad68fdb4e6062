"""Sequential testing procedures with a shared estimator-style interface.

Every procedure is a single-stream state machine: given evidence for
hypothesis t it picks a budget ``alpha_t`` from its history, decides, charges
a cost against the error budget, and (for the refunding variants) earns back
the overshoot ``O_t = (alpha_t * e_t - 1)_+``.  One engine,
:class:`OnlineProcedure`, runs all eleven procedures, each a rule of the four
choices documented on the engine's class attributes:

====================  ==========  ======  ===========  ========
procedure             allocation  cost    denominator  evidence
====================  ==========  ======  ===========  ========
e-lond                lond        raw     local        e
score-lond            lond        refund  local        e
e-lord                lord        raw     local        e
score-lord            lord        refund  local        e
score-plus-lord       lord        refund  global       e
e-saffron             saffron     raw     local        e
score-saffron         saffron     refund  local        e
score-plus-saffron    saffron     refund  global       e
p-lond                lond        raw     local        p
p-lord                lord        raw     global       p
p-saffron             saffron     raw     global       p
====================  ==========  ======  ===========  ========

The classes follow the familiar estimator protocol: construct with
parameters, ``fit(X)`` on a full evidence array (or ``partial_fit`` to
stream), then read per-step results from trailing-underscore attributes.
``get_params`` / ``set_params`` make them compose with standard tooling.
"""

from __future__ import annotations

import inspect
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._validation import (check_evidence_array, check_evidence_value, check_open_unit,
                          check_truth_array)
from .core import Observation
from .schedules import DEFAULT_GAMMA, DEFAULT_LAMBDA, DEFAULT_OMEGA, Schedule, check_gamma

#: Tolerance below which a wealth value is treated as an implementation bug
#: rather than rounding noise; the update rules guarantee non-negativity.
WEALTH_UNDERFLOW_TOL = -1e-12


class StepResult(NamedTuple):
    """One step's row, as :meth:`OnlineProcedure.step` returns it.

    ``overshoot`` is ``(alpha * e - 1)_+``, the excess by which scaled evidence
    clears the rejection threshold 1; the ``score-*`` procedures refund it to the
    budget instead of discarding it.  ``cost`` is the charge actually made
    (refund-adjusted where the procedure refunds), and ``rejections_before`` the
    rejection count R_{t-1} entering the step.
    """

    alpha: float
    decision: bool
    overshoot: float
    cost: float
    rejections_before: int
    fdp_hat: float


@dataclass
class Trajectory:
    """Per-step outputs of one full run, as aligned arrays.

    ``rejections`` is the cumulative count R_t.  ``wealth`` holds the budget
    remaining after each step for wealth-tracking procedures and NaN for the
    LOND family.  ``truth`` is present only when ground-truth labels were
    supplied.
    """

    alpha: np.ndarray
    decision: np.ndarray
    overshoot: np.ndarray
    cost: np.ndarray
    rejections: np.ndarray
    fdp_hat: np.ndarray
    wealth: np.ndarray
    truth: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.alpha)

    @property
    def n_rejections(self) -> int:
        return int(self.rejections[-1]) if len(self.alpha) else 0


def _view(name: str, dtype) -> property:
    """A fitted view: the per-step list attribute ``name`` as an array."""
    return property(lambda self: np.asarray(getattr(self, name), dtype=dtype))


class OnlineProcedure:
    """The engine: bookkeeping, the estimator protocol, and the step loop.

    ``next_alpha`` and ``_advance`` apply the rule that a subclass states in
    ``allocation``, ``refund``, ``global_denominator`` and ``evidence_kind``,
    with the schedules its constructor takes.
    """

    #: "e" for e-value procedures, "p" for p-value procedures.
    evidence_kind = "e"
    #: Stable identifier used by the registry and the command line.
    procedure_id = ""
    #: Budget allocation: "lond", "lord" or "saffron".
    allocation = ""
    #: Charge the refund-adjusted cost instead of the raw cost.
    refund = False
    #: Rescale all past charges by ``R_t v 1`` instead of fixing each at ``R_{j-1} + 1``.
    global_denominator = False

    # -- parameter protocol -------------------------------------------------

    @classmethod
    def _param_names(cls):
        return [p for p in inspect.signature(cls.__init__).parameters if p != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = self._param_names()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        self.reset()
        return self

    def clone(self):
        """A fresh, unfitted copy with identical parameters."""
        return type(self)(**self.get_params())

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    # -- state lifecycle -----------------------------------------------------

    def reset(self):
        """Discard all stream state; parameters are revalidated."""
        check_open_unit(self.alpha, "alpha")
        # The rule is copied onto the instance: the step loop reads it several
        # times per step, and instance attributes are the cheapest to read.
        self._lond = self.allocation == "lond"
        self._saffron = self.allocation == "saffron"
        self._refund = self.refund
        self._global = self.global_denominator
        self._e_kind = self.evidence_kind == "e"
        self._weight_at = self._formula("gamma" if self._lond else "omega")
        if self._saffron:
            self._lam_at = self._formula("lam")
        # LOND's pot: alpha plus the banked refunds sum_j min(O_j, alpha_j) / (R_{j-1} + 1).
        self._pot = self.alpha
        # Sum of raw charges under the global denominator.
        self._charged = 0.0
        # The latest FDP estimate; the LORD / SAFFRON wealth is alpha minus it.
        self._fdp_hat = 0.0
        self.t_ = 0
        self.n_rejections_ = 0
        self._alphas: list[float] = []
        self._decisions: list[bool] = []
        self._overshoots: list[float] = []
        self._costs: list[float] = []
        self._fdp: list[float] = []
        self._truths: list = []
        self._warned_large_alpha = False
        return self

    def _formula(self, name: str):
        """Schedule ``name`` bound for the step loop; a gamma must be summable."""
        schedule = getattr(self, name)
        if not isinstance(schedule, Schedule):
            raise TypeError(f"expected a Schedule for {name}, got {type(schedule).__name__}")
        return (check_gamma(schedule) if name == "gamma" else schedule).formula()

    # -- the budget recurrence ------------------------------------------------

    def next_alpha(self) -> float:
        """Budget that will be spent on the upcoming observation."""
        t_next = self.t_ + 1
        rej = self.n_rejections_
        weight = self._weight_at(t_next, rej)
        if self._lond:
            return weight * (rej + 1.0) * self._pot
        if self._saffron:
            self._lam_t = self._lam_at(t_next, rej)
            weight *= 1.0 - self._lam_t
        wealth = self._checked_wealth(self.alpha - self._fdp_hat)
        scale = float(max(rej, 1)) if self._global else rej + 1.0
        return weight * scale * wealth

    def _checked_wealth(self, wealth: float) -> float:
        if wealth < WEALTH_UNDERFLOW_TOL:
            raise RuntimeError(
                f"{self.procedure_id}: wealth underflow ({wealth!r}); the update rule "
                "guarantees non-negativity, so this indicates a bug"
            )
        return wealth if wealth > 0.0 else 0.0

    # -- stepping -------------------------------------------------------------

    def _advance(self, evidence: float):
        alpha_t = self.next_alpha()
        rb = self.n_rejections_
        if self._e_kind:
            decision = alpha_t > 0.0 and evidence >= 1.0 / alpha_t
            over = alpha_t * evidence - 1.0
            over = over if over > 0.0 else 0.0
        else:
            decision = alpha_t > 0.0 and evidence <= alpha_t
            over = 0.0
        if self._saffron:
            lam = self._lam_t
            candidate = evidence >= 1.0 / lam if self._e_kind else evidence <= lam
            if candidate:
                # Free under both costs, even where 1 - lam * e rounds above 0
                # at e = fl(1 / lam): the continuous penalty is <= 0 here.
                cost = 0.0
            elif self._refund:
                # Continuous candidate penalty in place of the indicator.
                cost = alpha_t * (1.0 - lam * evidence) / (1.0 - lam) - over
            else:
                cost = alpha_t / (1.0 - lam)
        else:
            cost = alpha_t - over if self._refund else alpha_t
        if self._refund:
            cost = cost if cost > 0.0 else 0.0
        if self._global:
            self._charged += cost
            if decision:
                self.n_rejections_ += 1
            fdp = self._charged / max(self.n_rejections_, 1)
        else:
            denom = rb + 1.0
            fdp = self._fdp_hat + cost / denom
            if self._lond and self._refund:
                self._pot += (over if over < alpha_t else alpha_t) / denom
            if decision:
                self.n_rejections_ += 1
        self._fdp_hat = fdp
        self.t_ += 1
        self._alphas.append(alpha_t)
        self._decisions.append(decision)
        self._overshoots.append(over)
        self._costs.append(cost)
        self._fdp.append(fdp)
        if alpha_t >= 1.0 and not self._warned_large_alpha:
            self._warned_large_alpha = True
            warnings.warn(
                f"{self.procedure_id}: per-step budget alpha_t={alpha_t:.3g} reached 1; "
                "the decision rule remains well defined but the budget is no longer "
                "a probability",
                RuntimeWarning,
                stacklevel=3,
            )
        return alpha_t, decision, over, cost, rb, fdp

    def step(self, observation) -> StepResult:
        """Consume a single observation (an :class:`Observation` or a bare value)."""
        truth = None
        if isinstance(observation, Observation):
            if observation.kind != self.evidence_kind:
                raise ValueError(
                    f"{self.procedure_id} consumes {self.evidence_kind!r}-kind evidence, "
                    f"got {observation.kind!r}"
                )
            if observation.index != self.t_ + 1:
                raise ValueError(
                    f"out-of-order observation: expected index {self.t_ + 1}, "
                    f"got {observation.index}"
                )
            value = observation.evidence
            truth = observation.truth
        else:
            value = float(check_evidence_value(observation, self.evidence_kind))
        result = StepResult._make(self._advance(value))
        self._truths.append(truth)
        return result

    def partial_fit(self, X, y=None):
        """Consume more of the evidence stream without resetting state."""
        X = check_evidence_array(X, self.evidence_kind)
        if y is not None:
            y = check_truth_array(y, len(X))
            self._truths.extend(y.tolist())
        else:
            self._truths.extend([None] * len(X))
        advance = self._advance
        for value in X.tolist():
            advance(value)
        return self

    def fit(self, X, y=None):
        """Run the procedure on a full evidence stream.

        Parameters
        ----------
        X : array-like of shape (n_steps,)
            Evidence values, e-values or p-values according to the
            procedure's ``evidence_kind``.
        y : array-like of shape (n_steps,), optional
            Ground-truth non-null indicators, kept for metric evaluation.
        """
        self.reset()
        return self.partial_fit(X, y)

    def predict(self, X) -> np.ndarray:
        """Decisions for a fresh run over ``X`` (does not touch fitted state)."""
        return self.clone().fit(X).decision_

    # -- fitted views ----------------------------------------------------------

    alpha_ = _view("_alphas", float)
    decision_ = _view("_decisions", bool)
    overshoot_ = _view("_overshoots", float)
    cost_ = _view("_costs", float)
    fdp_hat_ = _view("_fdp", float)

    @property
    def rejections_(self) -> np.ndarray:
        return np.cumsum(self._decisions).astype(int)

    @property
    def rejections_before_(self) -> np.ndarray:
        return self.rejections_ - self.decision_

    @property
    def wealth_(self) -> np.ndarray:
        """``alpha - fdp_hat_`` after each step, the step loop's wealth; NaN for LOND."""
        if self._lond:
            return np.full(self.t_, math.nan)
        return self.alpha - self.fdp_hat_

    def trajectory(self) -> Trajectory:
        truth = None
        if self._truths and all(v is not None for v in self._truths):
            truth = np.asarray(self._truths, dtype=bool)
        return Trajectory(
            alpha=self.alpha_,
            decision=self.decision_,
            overshoot=self.overshoot_,
            cost=self.cost_,
            rejections=self.rejections_,
            fdp_hat=self.fdp_hat_,
            wealth=self.wealth_,
            truth=truth,
        )


# -- The eleven procedures: one base per allocation, one rule per class. ------


class _LondProcedure(OnlineProcedure):
    """LOND allocation: ``alpha_t = gamma_t * (R_{t-1} + 1) * pot``, refunds growing the pot."""

    allocation = "lond"

    def __init__(self, alpha: float = 0.05, gamma: Schedule = DEFAULT_GAMMA):
        self.alpha = alpha
        self.gamma = gamma
        self.reset()


class _LordProcedure(OnlineProcedure):
    """LORD allocation: ``alpha_t = omega_t * scale * W_t``, ``W_t = alpha - fdp_hat_{t-1}``."""

    allocation = "lord"

    def __init__(self, alpha: float = 0.05, omega: Schedule = DEFAULT_OMEGA):
        self.alpha = alpha
        self.omega = omega
        self.reset()


class _SaffronProcedure(OnlineProcedure):
    """SAFFRON allocation: LORD's budget times ``1 - lambda_t``.

    Evidence missing the candidate threshold (``e < 1 / lambda_t``,
    ``p > lambda_t``) is charged ``alpha_t / (1 - lambda_t)``; the refund cost
    ``(alpha_t * (1 - lambda_t * e_t) / (1 - lambda_t) - O_t)_+`` never exceeds it,
    and candidates are free under both.
    """

    allocation = "saffron"

    def __init__(self, alpha: float = 0.05, omega: Schedule = DEFAULT_OMEGA,
                 lam: Schedule = DEFAULT_LAMBDA):
        self.alpha = alpha
        self.omega = omega
        self.lam = lam
        self.reset()


class ELond(_LondProcedure):
    """Baseline e-value LOND; its FDP estimate equals ``alpha * sum(gamma_j)``."""

    procedure_id = "e-lond"


class ScoreLond(ELond):
    """Refunding LOND: overshoots are banked and re-spent, so thresholds dominate e-LOND."""

    procedure_id = "score-lond"
    refund = True


class ELord(_LordProcedure):
    """Baseline e-value LORD: charges the full budget ``alpha_t`` at every step."""

    procedure_id = "e-lord"


class ScoreLord(ELord):
    """Refunding LORD: charges ``(alpha_t - O_t)_+`` instead of ``alpha_t``."""

    procedure_id = "score-lord"
    refund = True


class ScorePlusLord(_LordProcedure):
    """Refunding LORD with retroactive wealth updates.

    Each new rejection releases budget locked by earlier charges.  Valid under
    positive dependence between current evidence and future discovery counts,
    e.g. independent e-values, since the rule is monotone in past rejections.
    """

    procedure_id = "score-plus-lord"
    refund = True
    global_denominator = True


class ESaffron(_SaffronProcedure):
    """Baseline e-value SAFFRON: evidence past ``1 / lambda_t`` is free."""

    procedure_id = "e-saffron"


class ScoreSaffron(ESaffron):
    """Refunding SAFFRON: continuous candidate penalty plus overshoot refund."""

    procedure_id = "score-saffron"
    refund = True


class ScorePlusSaffron(_SaffronProcedure):
    """Refunding SAFFRON with retroactive wealth updates (global denominator)."""

    procedure_id = "score-plus-saffron"
    refund = True
    global_denominator = True


class PLond(_LondProcedure):
    """p-value LOND: same fixed-sequence budget, rejection when ``p <= alpha_t``."""

    evidence_kind = "p"
    procedure_id = "p-lond"


class PLord(_LordProcedure):
    """p-value LORD with the global denominator.

    The rule is coordinate-wise non-decreasing in the rejection history, which
    permits the retroactive denominator for conditionally super-uniform p-values.
    """

    evidence_kind = "p"
    procedure_id = "p-lord"
    global_denominator = True


class PSaffron(_SaffronProcedure):
    """p-value SAFFRON with the global denominator."""

    evidence_kind = "p"
    procedure_id = "p-saffron"
    global_denominator = True


# -- Registry. ----------------------------------------------------------------

PROCEDURES: dict[str, type[OnlineProcedure]] = {
    cls.procedure_id: cls
    for cls in (
        ELond,
        ScoreLond,
        ELord,
        ScoreLord,
        ScorePlusLord,
        ESaffron,
        ScoreSaffron,
        ScorePlusSaffron,
        PLond,
        PLord,
        PSaffron,
    )
}

PROCEDURE_IDS = tuple(PROCEDURES)


def make_procedure(
    procedure_id: str,
    alpha: float = 0.05,
    gamma: Schedule | None = None,
    omega: Schedule | None = None,
    lam: Schedule | None = None,
) -> OnlineProcedure:
    """Instantiate a procedure by id, supplying only the schedules it uses."""
    try:
        cls = PROCEDURES[procedure_id]
    except KeyError:
        raise ValueError(
            f"unknown procedure {procedure_id!r}; choose from {', '.join(PROCEDURE_IDS)}"
        ) from None
    kwargs = {"alpha": alpha}
    accepted = cls._param_names()
    for name, value in (("gamma", gamma), ("omega", omega), ("lam", lam)):
        if name in accepted and value is not None:
            kwargs[name] = value
    return cls(**kwargs)
