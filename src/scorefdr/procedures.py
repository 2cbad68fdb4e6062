"""Sequential testing procedures with a shared estimator-style interface.

Every procedure is a single-stream recurrence.  Step t spends a budget
``alpha_t`` fixed by the history before it, decides, charges a cost against
the error budget, and (for the refunding variants) earns back the overshoot
``O_t = (alpha_t * e_t - 1)_+``.  One engine, :class:`OnlineProcedure`, runs
all eleven procedures, each a rule of the four choices documented on the
engine's class attributes:

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

The recurrence is written once, in the engine's kernel ``_run``.  ``fit``
and ``partial_fit`` hand it a whole evidence array and ``step`` a single
value.  Each step ends by computing the budget of the step after it, which
stays behind as held state until that step spends it, so ``next_alpha()``
reads a value and computes nothing.

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

from ._validation import (check_evidence_array, check_evidence_value, check_real,
                          check_truth_array)
from .core import Observation
from .schedules import DEFAULT_GAMMA, DEFAULT_LAMBDA, DEFAULT_OMEGA, Schedule, check_gamma

#: Tolerance below which a wealth value is treated as an implementation bug
#: rather than rounding noise; the update rules guarantee non-negativity.
WEALTH_UNDERFLOW_TOL = -1e-12

#: Kernel input holding no evidence: ``reset`` runs it to compute the first budget.
_NO_EVIDENCE = (None,)
#: Builds a StepResult from a plain tuple in C, skipping the NamedTuple's
#: Python-level constructor on the per-step path.
_new_row = tuple.__new__


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


def _view(column: int, dtype) -> property:
    """A fitted view: one per-step list of the history as an array."""
    return property(lambda self: np.asarray(self._history[column], dtype=dtype))


class OnlineProcedure:
    """The engine: the estimator protocol around one recurrence kernel.

    A subclass states its rule in ``allocation``, ``refund``,
    ``global_denominator`` and ``evidence_kind``, and its constructor takes
    the schedules that rule reads.  ``reset()`` holds three things:

    * the rule, one tuple: the four choices, the bound schedule formulas
      and the validated float ``alpha``;
    * the stream state, one tuple: the step count ``t_``, the rejection
      count ``n_rejections_``, LOND's pot, the global charge sum,
      ``fdp_hat``, SAFFRON's ``lambda`` for the upcoming step and whether
      the ``alpha_t >= 1`` warning has fired;
    * the upcoming step's budget, which ``next_alpha()`` returns.

    The kernel ``_run`` reads the rule and the state into locals once per
    call and writes the state back once, also when a step raises, so the
    state always matches the recorded history.  Each step spends the held
    budget, then computes the next one; ``reset()`` computes the first by
    running the kernel over no evidence.
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
        previous = self.get_params()
        for name in params:
            if name not in previous:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
        self.__dict__.update(params)
        try:
            return self.reset()
        except ValueError:  # a refused value leaves the parameters as they were
            self.__dict__.update(previous)
            raise

    def clone(self):
        """A fresh, unfitted copy with identical parameters."""
        return type(self)(**self.get_params())

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    # -- state lifecycle -----------------------------------------------------

    def reset(self):
        """Discard all stream state; parameters are revalidated."""
        alpha = check_real(self.alpha, "alpha", 0.0, 1.0)
        lond = self.allocation == "lond"
        saffron = self.allocation == "saffron"
        self._rule = (lond, saffron, self.refund, self.global_denominator, self.evidence_kind,
                      self._formula("gamma" if lond else "omega"),
                      self._formula("lam") if saffron else None, alpha)
        # t, R_t, LOND's pot (alpha plus the banked refunds
        # sum_j min(O_j, alpha_j) / (R_{j-1} + 1)), the sum of charges under the
        # global denominator, fdp_hat, the upcoming lambda, warned
        self._state = (0, 0, alpha, 0.0, 0.0, 0.0, False)
        # alpha, decision, overshoot, cost, fdp_hat and truth of every step
        self._history = ([], [], [], [], [], [])
        self._budget = 0.0
        self._run(_NO_EVIDENCE, ())
        return self

    def _formula(self, name: str):
        """Schedule ``name`` bound for the kernel; a gamma must be summable."""
        schedule = getattr(self, name)
        if not isinstance(schedule, Schedule):
            raise ValueError(f"{name} must be a Schedule, got {schedule!r}")
        return (check_gamma(schedule) if name == "gamma" else schedule).formula()

    @property
    def t_(self) -> int:
        """Steps taken so far."""
        return self._state[0]

    @property
    def n_rejections_(self) -> int:
        """Rejections made so far, R_t."""
        return self._state[1]

    def next_alpha(self) -> float:
        """Budget that the upcoming observation will spend (held, not computed)."""
        return self._budget

    # -- the recurrence ---------------------------------------------------------

    def _run(self, values, labels):
        """Run the recurrence over ``values``, recording every step.

        ``values`` are validated evidence values; a ``None`` among them is a
        place with no evidence, where only the upcoming budget is computed.
        ``labels`` are the truth labels (or None) of the values, one each.
        Returns the last step's :class:`StepResult`, or None when no step
        was taken.
        """
        alpha_t = self.next_alpha()
        lond, saffron, refund, glob, kind, weight_at, lam_at, alpha = self._rule
        e_kind = kind == "e"
        t, rej, pot, charged, fdp, lam, warned = self._state
        alphas, decisions, overshoots, costs, fdps, truths = self._history
        start = t
        spent = 0.0
        truths.extend(labels)
        try:
            for evidence in values:
                if evidence is not None:
                    rb = rej
                    if e_kind:
                        decision = alpha_t > 0.0 and evidence >= 1.0 / alpha_t
                        over = alpha_t * evidence - 1.0
                        over = over if over > 0.0 else 0.0
                    else:
                        decision = alpha_t > 0.0 and evidence <= alpha_t
                        over = 0.0
                    if saffron:
                        if evidence >= 1.0 / lam if e_kind else evidence <= lam:
                            # A candidate is free under both costs, even where
                            # 1 - lam * e rounds above 0 at e = fl(1 / lam): the
                            # continuous penalty is <= 0 here.
                            cost = 0.0
                        elif refund:
                            # Continuous candidate penalty in place of the indicator.
                            cost = alpha_t * (1.0 - lam * evidence) / (1.0 - lam) - over
                        else:
                            cost = alpha_t / (1.0 - lam)
                    else:
                        cost = alpha_t - over if refund else alpha_t
                    if refund:
                        cost = cost if cost > 0.0 else 0.0
                    if glob:
                        charged += cost
                        if decision:
                            rej += 1
                        fdp = charged / (rej if rej > 1 else 1)
                    else:
                        denom = rb + 1.0
                        fdp = fdp + cost / denom
                        if lond and refund:
                            pot += (over if over < alpha_t else alpha_t) / denom
                        if decision:
                            rej += 1
                    t += 1
                    alphas.append(alpha_t)
                    decisions.append(decision)
                    overshoots.append(over)
                    costs.append(cost)
                    fdps.append(fdp)
                    spent = alpha_t
                # The budget of step t + 1, held until that step spends it.
                weight = weight_at(t + 1, rej)
                if lond:
                    alpha_t = weight * (rej + 1.0) * pot
                else:
                    if saffron:
                        lam = lam_at(t + 1, rej)
                        weight *= 1.0 - lam
                    wealth = alpha - fdp
                    if wealth < WEALTH_UNDERFLOW_TOL:
                        alpha_t = math.nan  # no valid budget follows; held as NaN
                        raise RuntimeError(
                            f"{self.procedure_id}: wealth underflow ({wealth!r}); the update "
                            "rule guarantees non-negativity, so this indicates a bug"
                        )
                    scale = (rej if rej > 1 else 1.0) if glob else rej + 1.0
                    alpha_t = weight * scale * (wealth if wealth > 0.0 else 0.0)
                if spent >= 1.0 and not warned:
                    warned = True
                    warnings.warn(
                        f"{self.procedure_id}: per-step budget alpha_t={spent:.3g} reached 1; "
                        "the decision rule remains well defined but the budget is no longer "
                        "a probability",
                        RuntimeWarning,
                        stacklevel=3,
                    )
        except BaseException:
            del truths[t:]  # the labels of steps not taken
            raise
        finally:
            self._state = (t, rej, pot, charged, fdp, lam, warned)
            self._budget = alpha_t
        if t != start:
            return _new_row(StepResult, (spent, decision, over, cost, rb, fdp))
        return None

    # -- the estimator protocol ------------------------------------------------

    def step(self, observation) -> StepResult:
        """Consume a single observation (an :class:`Observation` or a bare value)."""
        kind = self._rule[4]
        truth = None
        if isinstance(observation, Observation):
            if observation.kind != kind:
                raise ValueError(
                    f"{self.procedure_id} consumes {kind!r}-kind evidence, "
                    f"got {observation.kind!r}"
                )
            expected = self._state[0] + 1
            if observation.index != expected:
                raise ValueError(
                    f"out-of-order observation: expected index {expected}, "
                    f"got {observation.index}"
                )
            value = observation.evidence
            truth = observation.truth
        else:
            value = float(check_evidence_value(observation, kind))
        return self._run((value,), (truth,))

    def _stream(self, X, y):
        """``X`` and ``y`` validated, as the kernel's value and label lists."""
        X = check_evidence_array(X, self.evidence_kind)
        labels = [None] * len(X) if y is None else check_truth_array(y, len(X)).tolist()
        return X.tolist(), labels

    def partial_fit(self, X, y=None):
        """Consume more of the evidence stream without resetting state."""
        self._run(*self._stream(X, y))
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
        self._run(*self._stream(X, y))
        return self

    def predict(self, X) -> np.ndarray:
        """Decisions for a fresh run over ``X`` (does not touch fitted state)."""
        return self.clone().fit(X).decision_

    # -- fitted views ----------------------------------------------------------

    alpha_ = _view(0, float)
    decision_ = _view(1, bool)
    overshoot_ = _view(2, float)
    cost_ = _view(3, float)
    fdp_hat_ = _view(4, float)

    @property
    def rejections_(self) -> np.ndarray:
        return np.cumsum(self._history[1]).astype(int)

    @property
    def rejections_before_(self) -> np.ndarray:
        return self.rejections_ - self.decision_

    @property
    def wealth_(self) -> np.ndarray:
        """``alpha - fdp_hat_`` after each step, the kernel's wealth; NaN for LOND."""
        lond, alpha = self._rule[0], self._rule[7]
        if lond:
            return np.full(self.t_, math.nan)
        return alpha - self.fdp_hat_

    def trajectory(self) -> Trajectory:
        truths = self._history[5]
        truth = None
        if truths and all(v is not None for v in truths):
            truth = np.asarray(truths, dtype=bool)
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
    except (KeyError, TypeError):  # TypeError: an unhashable id
        raise ValueError(
            f"unknown procedure {procedure_id!r}; choose from {', '.join(PROCEDURE_IDS)}"
        ) from None
    kwargs = {"alpha": alpha}
    accepted = cls._param_names()
    for name, value in (("gamma", gamma), ("omega", omega), ("lam", lam)):
        if name in accepted and value is not None:
            kwargs[name] = value
    return cls(**kwargs)
