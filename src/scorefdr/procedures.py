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
and ``partial_fit`` hand it ``_CHUNK`` evidence values per call, so that
only that much of their input is ever a Python list, and ``step`` a single
value.  Each step ends by computing the budget of the step after it, which
stays behind as held state until that step spends it, so ``next_alpha()``
reads a value and computes nothing.

A varying schedule (geometric, rai) is read from its table, the kind's
scalar terms filled by its own formula (see :mod:`scorefdr.schedules`),
not by calling the formula each step.  The kernel grows a table before a
call that could read past its end, never past where its terms stop
changing.  Each procedure keeps its own tables in its rule, across
``reset()`` while the schedule is the same object; a pickle leaves them
out, and loading rebuilds them from the parameters.

The kernel records each step's row under one history policy, held with the
history and read once per kernel call.  Under "all", which ``reset()`` (and
so ``fit``) sets, every column is kept: ``alpha``, ``decision``,
``overshoot``, ``cost``, ``fdp_hat`` and the truth label.  Under
"decisions", only the decisions are kept, for callers that read nothing
else: :func:`~scorefdr.simulation.replicate` runs all its replicates but
the first this way.  There ``decision_``, ``rejections_`` and
``rejections_before_`` read as under "all", while the other fitted views
and ``trajectory()`` raise a ``ValueError`` naming themselves.  Decisions,
warnings and errors are the same under both policies.

Each kept column is a list that the kernel appends to once per step.  For
the four float columns that list is only a write buffer: once it holds
``_CHUNK`` steps, the kernel packs it onto the end of the column's
``bytearray`` of C doubles and empties it, so a long stream keeps 8 bytes
per float rather than a Python float object.  A view reads a float column
as its packed bytes followed by its list.  The decisions and labels stay
lists, of pointers to the shared ``True``, ``False`` and ``None``.

The classes follow the familiar estimator protocol: construct with
parameters, ``fit(X)`` on a full evidence array (or ``partial_fit`` to
stream), then read per-step results from trailing-underscore attributes.
``get_params`` / ``set_params`` make them compose with standard tooling.
"""

from __future__ import annotations

import inspect
import math
import struct
import warnings
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from ._validation import check_evidence, check_kind, check_real, check_truth
from .core import Observation
from .schedules import (_RAI_WEIGHT_MAX, DEFAULT_GAMMA, DEFAULT_LAMBDA, DEFAULT_OMEGA,
                        RAI_WEIGHT_MIN, Schedule, _Table, check_gamma)

#: Tolerance below which a wealth value is treated as an implementation bug
#: rather than rounding noise; the update rules guarantee non-negativity.
WEALTH_UNDERFLOW_TOL = -1e-12

#: Kernel input holding no evidence: ``reset`` runs it to compute the first budget.
_NO_EVIDENCE = (None,)
#: Steps the float columns of the history hold as Python floats before the
#: kernel packs them into their bytes; also the most values that ``fit`` and
#: ``partial_fit`` hand the kernel in one call.
_CHUNK = 4096
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


def _not_kept(view: str):
    raise ValueError(f"{view} is not available: this run recorded only the decisions; "
                     "fit, partial_fit and step record every column")


def _floats(packed: bytearray, values: list) -> np.ndarray:
    """A float column as a float array: its packed doubles, then its floats not
    yet packed, copied so that the array owns its memory."""
    return np.frombuffer(packed + struct.pack(f"{len(values)}d", *values)).copy()


def _nothing_packed() -> tuple:
    """The packed doubles of each history column, none yet: a ``bytearray`` for
    each float column and ``None`` for the decisions and the labels."""
    return (bytearray(), None, bytearray(), bytearray(), bytearray(), None)


def _bools(values: list) -> np.ndarray:
    """A list of bools as a bool array, converted in C through one byte buffer
    and copied so that the array owns its memory.  A None among the values
    raises ``TypeError``."""
    return np.frombuffer(bytes(values), bool).copy()


def _view(column: int, name: str) -> property:
    """A fitted view: one column of the history as an array, refused by
    ``name`` when the history policy did not keep it."""
    def view(self):
        values = self._history[column]
        if values is None:
            _not_kept(name)
        packed = self._packed[column]
        return _bools(values) if packed is None else _floats(packed, values)
    return property(view)


class OnlineProcedure:
    """The engine: the estimator protocol around one recurrence kernel.

    A subclass states its rule in ``allocation``, ``refund``,
    ``global_denominator`` and ``evidence_kind``, and its constructor takes
    the schedules that rule reads.  ``reset()`` holds four things:

    * the rule, one tuple: the four choices, each schedule as its value
      when it is constant or else its table (see
      :mod:`scorefdr.schedules`), and the validated float ``alpha``.  The
      tables outlive ``reset()`` while the schedule is the same object, and
      are left out of a pickle and rebuilt from the parameters;
    * the stream state, one tuple: the step count ``t_``, the rejection
      count ``n_rejections_``, LOND's pot, the global charge sum,
      ``fdp_hat``, SAFFRON's ``lambda`` for the upcoming step and whether
      the ``alpha_t >= 1`` warning has fired;
    * the upcoming step's budget, which ``next_alpha()`` returns;
    * the history, one list per recorded column, ``None`` for a column the
      history policy does not keep, and the packed doubles of its float
      columns, one ``bytearray`` each (``None`` for the others): the steps
      of a float column are its bytes followed by its list.

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
    @cache
    def _param_names(cls) -> tuple[str, ...]:
        return tuple(p for p in inspect.signature(cls.__init__).parameters if p != "self")

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        previous = self.get_params()
        for name in params:
            if name not in previous:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
        # setattr, not self.__dict__: reading the instance dict slows every
        # later attribute access in the kernel
        for name, value in params.items():
            setattr(self, name, value)
        try:
            return self.reset()
        except ValueError:  # a refused value leaves the parameters as they were
            for name, value in previous.items():
                setattr(self, name, value)
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
        self._rule = self._make_rule()
        alpha = self._rule[-1]
        # t, R_t, LOND's pot (alpha plus the banked refunds
        # sum_j min(O_j, alpha_j) / (R_{j-1} + 1)), the sum of charges under the
        # global denominator, fdp_hat, the upcoming lambda, warned
        self._state = (0, 0, alpha, 0.0, 0.0, 0.0, False)
        # alpha, decision, overshoot, cost, fdp_hat and truth of every step
        self._history = ([], [], [], [], [], [])
        self._packed = _nothing_packed()
        self._budget = 0.0
        self._run(_NO_EVIDENCE, ())
        return self

    def __getstate__(self):
        # named, not copied from self.__dict__ (see set_params); the rule is left
        # out, and its tables are rebuilt on loading
        names = (*self._param_names(), "_state", "_history", "_packed", "_budget")
        return {name: getattr(self, name) for name in names}

    def __setstate__(self, state):
        state.pop("_rule", None)  # a pickle from before the tables holds a rule: rebuilt
        for name, value in state.items():
            setattr(self, name, value)
        self._rule = self._make_rule()
        if "_packed" not in state:  # pickled before the history was packed: all in its lists
            self._packed = _nothing_packed()

    def __copy__(self):
        # the state's history lists and packed bytes are copied, not shared, so
        # that stepping the copy leaves this procedure's history as it is
        state = self.__getstate__()
        state["_history"] = tuple(None if values is None else list(values)
                                  for values in self._history)
        state["_packed"] = tuple(None if packed is None else bytearray(packed)
                                 for packed in self._packed)
        copied = type(self).__new__(type(self))
        copied.__setstate__(state)
        return copied

    def _make_rule(self) -> tuple:
        """The rule tuple, from the parameters, each revalidated."""
        alpha = check_real(self.alpha, "alpha", 0.0, 1.0)
        lond = self.allocation == "lond"
        saffron = self.allocation == "saffron"
        return (lond, saffron, self.refund, self.global_denominator, self.evidence_kind,
                *self._schedule("gamma" if lond else "omega", 6),
                *(self._schedule("lam", 8) if saffron else (None, None)), alpha)

    def _schedule(self, name: str, slot: int):
        """Schedule ``name`` for the kernel: ``(value, None)`` when it is constant,
        else ``(None, table)``, the table at ``slot`` of the current rule while it
        tabulates this schedule object; a gamma must be summable."""
        schedule = getattr(self, name)
        if not isinstance(schedule, Schedule):
            raise ValueError(f"{name} must be a Schedule, got {schedule!r}")
        value = (check_gamma(schedule) if name == "gamma" else schedule).fixed()
        if value is not None:
            return value, None
        rule = getattr(self, "_rule", None)
        table = rule[slot] if rule else None
        if table is None or table.schedule is not schedule:
            table = _Table(schedule)
        return None, table

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
        lond, saffron, refund, glob, kind, weight_c, weights, lam_c, lams, alpha = self._rule
        e_kind = kind == "e"
        t, rej, pot, charged, fdp, lam, warned = self._state
        # A varying schedule's tables, grown first if this call could read past
        # their ends, as (head, ups, n_ups, last_up, downs, n_downs, last_down).
        if weights is not None:
            if t + len(values) >= weights.limit:
                weights.grow(t + len(values))
            w_head, w_ups, w_n_ups, w_last_up, w_downs, w_n_downs, w_last_down = weights.view
        if lams is not None:
            if t + len(values) >= lams.limit:
                lams.grow(t + len(values))
            l_head, l_ups, l_n_ups, l_last_up, l_downs, l_n_downs, l_last_down = lams.view
        alphas, decisions, overshoots, costs, fdps, truths = self._history
        keep_all = alphas is not None  # the history policy: "all", else "decisions"
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
                        # lam = 0.0, where a geometric lambda underflows, makes
                        # no e-value a candidate
                        if (lam > 0.0 and evidence >= 1.0 / lam) if e_kind else evidence <= lam:
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
                    decisions.append(decision)
                    if keep_all:
                        alphas.append(alpha_t)
                        overshoots.append(over)
                        costs.append(cost)
                        fdps.append(fdp)
                    spent = alpha_t
                # The budget of step t + 1, held until that step spends it.  A
                # table read by step alone holds the value at t + 1 at index t; a
                # rai table is read as schedules._rai, past the same sums.
                if weights is None:
                    weight = weight_c
                elif w_downs is None:
                    weight = w_ups[t] if t < w_n_ups else w_last_up
                else:
                    q = t - rej
                    up = w_ups[q] if q < w_n_ups else w_last_up
                    down = w_downs[rej] if rej < w_n_downs else w_last_down
                    weight = w_head + w_head * (up - down)
                    if t:  # clamped from step 2 on
                        weight = RAI_WEIGHT_MIN if weight < RAI_WEIGHT_MIN else (
                            _RAI_WEIGHT_MAX if weight > _RAI_WEIGHT_MAX else weight)
                if lond:
                    alpha_t = weight * (rej + 1.0) * pot
                else:
                    if saffron:
                        if lams is None:
                            lam = lam_c
                        elif l_downs is None:
                            lam = l_ups[t] if t < l_n_ups else l_last_up
                        else:
                            q = t - rej
                            up = l_ups[q] if q < l_n_ups else l_last_up
                            down = l_downs[rej] if rej < l_n_downs else l_last_down
                            lam = l_head + l_head * (up - down)
                            if t:
                                lam = RAI_WEIGHT_MIN if lam < RAI_WEIGHT_MIN else (
                                    _RAI_WEIGHT_MAX if lam > _RAI_WEIGHT_MAX else lam)
                        weight *= 1.0 - lam
                    wealth = alpha - fdp
                    if wealth < WEALTH_UNDERFLOW_TOL:
                        alpha_t = math.nan  # no valid budget follows; held as NaN
                        raise RuntimeError(
                            f"{self.procedure_id}: wealth underflow ({wealth!r}) after step {t}; "
                            "the update rule guarantees non-negativity, so this indicates a bug"
                        )
                    scale = (rej if rej > 1 else 1.0) if glob else rej + 1.0
                    alpha_t = weight * scale * (wealth if wealth > 0.0 else 0.0)
                if spent >= 1.0 and not warned:
                    warned = True
                    warnings.warn(
                        f"{self.procedure_id}: per-step budget alpha_t={spent:.3g} reached 1 "
                        f"at step {t}; the decision rule remains well defined but the budget "
                        "is no longer a probability",
                        RuntimeWarning,
                        stacklevel=3,
                    )
        except BaseException:
            del truths[t:]  # the labels of steps not taken
            raise
        finally:
            self._state = (t, rej, pot, charged, fdp, lam, warned)
            self._budget = alpha_t
        if keep_all and len(alphas) >= _CHUNK:
            self._pack()
        if t != start:
            return _new_row(StepResult, (spent, decision, over, cost, rb, fdp))
        return None

    def _pack(self):
        """Append each float column's list to its packed doubles and empty it."""
        for packed, values in zip(self._packed, self._history):
            if packed is not None:
                packed += struct.pack(f"{len(values)}d", *values)
                values.clear()

    # -- the estimator protocol ------------------------------------------------

    def step(self, observation) -> StepResult:
        """Consume a single observation (an :class:`Observation` or a bare value)."""
        kind = self._rule[4]
        truth = None
        if isinstance(observation, Observation):
            if observation.kind != kind:  # compared here, so a matching kind costs no call
                check_kind(self, observation.kind, "the observation")
            expected = self._state[0] + 1
            if observation.index != expected:
                raise ValueError(
                    f"out-of-order observation: expected index {expected}, "
                    f"got {observation.index}"
                )
            value = observation.evidence
            truth = observation.truth
        else:
            value = check_evidence(observation, kind, "evidence")
        return self._run((value,), (truth,))

    def _chunks(self, X, y):
        """``X`` and ``y``, validated before the first chunk, as the kernel's value
        and label lists of at most ``_CHUNK`` steps each.  The caller runs the
        kernel itself, so that a warning names the caller's caller."""
        X = check_evidence(X, self.evidence_kind, "X", ndim=1)
        y = None if y is None else check_truth(y, "y", len(X))
        chunk = _CHUNK
        for lo in range(0, len(X), chunk):
            values = X[lo:lo + chunk].tolist()
            yield values, [None] * len(values) if y is None else y[lo:lo + chunk]

    def partial_fit(self, X, y=None):
        """Consume more of the evidence stream without resetting state."""
        for values, labels in self._chunks(X, y):
            self._run(values, labels)
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
        for values, labels in self._chunks(X, y):
            self._run(values, labels)
        return self

    def _fit_decisions(self, X):
        """``fit(X)`` under the "decisions" history policy: ``decision_``,
        ``rejections_`` and ``rejections_before_`` read as after ``fit``, and the
        other views refuse until the next ``fit`` or ``reset``."""
        self.reset()
        self._history = (None, [], None, None, None, [])  # no labels: the truth list stays empty
        for values, _ in self._chunks(X, None):
            self._run(values, ())
        return self

    def predict(self, X) -> np.ndarray:
        """Decisions for a fresh run over ``X`` (does not touch fitted state)."""
        return self.clone()._fit_decisions(X).decision_

    # -- fitted views ----------------------------------------------------------

    alpha_ = _view(0, "alpha_")
    decision_ = _view(1, "decision_")
    overshoot_ = _view(2, "overshoot_")
    cost_ = _view(3, "cost_")
    fdp_hat_ = _view(4, "fdp_hat_")

    @property
    def rejections_(self) -> np.ndarray:
        return np.cumsum(self.decision_)

    @property
    def rejections_before_(self) -> np.ndarray:
        decision = self.decision_
        return np.cumsum(decision) - decision

    @property
    def wealth_(self) -> np.ndarray:
        """``alpha - fdp_hat_`` after each step, the kernel's wealth; NaN for LOND."""
        fdps = self._history[4]
        if fdps is None:
            _not_kept("wealth_")
        return self._wealth(_floats(self._packed[4], fdps))

    def _wealth(self, fdp_hat: np.ndarray) -> np.ndarray:
        lond, alpha = self._rule[0], self._rule[-1]
        return np.full(len(fdp_hat), math.nan) if lond else alpha - fdp_hat

    def trajectory(self) -> Trajectory:
        if self._history[0] is None:
            _not_kept("trajectory()")
        decision = self.decision_
        fdp_hat = self.fdp_hat_
        truths = self._history[5]
        truth = None
        if truths:
            try:
                truth = _bools(truths)
            except TypeError:  # a step without a label
                pass
        return Trajectory(
            alpha=self.alpha_,
            decision=decision,
            overshoot=self.overshoot_,
            cost=self.cost_,
            rejections=np.cumsum(decision),
            fdp_hat=fdp_hat,
            wealth=self._wealth(fdp_hat),
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
