"""Brute-force reference implementations used to cross-check the procedures.

The naive trajectory recomputes every step of a procedure directly from the
displayed budget formulas, re-summing the entire ledger at each step with no
incremental accumulators.  It deliberately shares nothing with
:mod:`scorefdr.procedures` beyond a procedure's id and parameters, the
:class:`~scorefdr.procedures.Trajectory` result type and the schedule
accessor :func:`~scorefdr.schedules.weight_at`, so agreement between the two
is meaningful evidence that the incremental bookkeeping is right.  It is
intentionally quadratic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .procedures import OnlineProcedure, Trajectory
from .schedules import weight_at


@dataclass(frozen=True)
class BoundScanReport:
    """Result of scanning the decision-indicator bound over a grid."""

    grid_step: float
    y_max: float
    n_points: int
    n_violations: int
    min_slack: float
    equality_max_gap: float

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


def bound_slack(y: float) -> float:
    """Slack of the indicator bound at one point: ``(y - (y-1)_+) - I(y >= 1)``.

    Non-negative for every y >= 0, and exactly zero for y >= 1, which is the
    fact that makes the overshoot refundable.
    """
    if y < 0.0:
        raise ValueError("y must be non-negative")
    return (y - max(y - 1.0, 0.0)) - (1.0 if y >= 1.0 else 0.0)


def bound_scan(grid_step: float = 1e-3, y_max: float = 10.0) -> BoundScanReport:
    """Verify ``I(y >= 1) <= y - (y - 1)_+`` on a uniform grid of y values."""
    if grid_step <= 0.0 or y_max <= 0.0:
        raise ValueError("grid_step and y_max must be positive")
    n_points = int(round(y_max / grid_step)) + 1
    y = np.arange(n_points) * grid_step
    indicator = (y >= 1.0).astype(float)
    slack = (y - np.maximum(y - 1.0, 0.0)) - indicator
    at_or_above_one = slack[y >= 1.0]
    return BoundScanReport(
        grid_step=grid_step,
        y_max=y_max,
        n_points=n_points,
        n_violations=int(np.sum(slack < 0.0)),
        min_slack=float(slack.min()),
        equality_max_gap=float(np.abs(at_or_above_one).max()) if at_or_above_one.size else 0.0,
    )


def naive_trajectory(procedure: OnlineProcedure, evidence) -> Trajectory:
    """Replay a configured procedure over ``evidence`` by brute force.

    The procedure's id and parameters select the displayed budget formula;
    the procedure itself is never stepped.  At every step the budget is
    rebuilt by summing the full history of per-step records; nothing is
    carried forward.  The returned trajectory has no truth labels.
    """
    if not isinstance(procedure, OnlineProcedure):
        raise TypeError(f"expected an OnlineProcedure, got {type(procedure).__name__}")
    pid = procedure.procedure_id
    params = procedure.get_params()
    alpha = params["alpha"]
    gamma, omega, lam = params.get("gamma"), params.get("omega"), params.get("lam")
    evidence = np.asarray(evidence, dtype=float)
    T = len(evidence)
    is_p = pid.startswith("p-")

    alphas = np.zeros(T)
    overs = np.zeros(T)
    costs = np.zeros(T)
    lams = np.zeros(T)
    decisions = np.zeros(T, dtype=bool)
    rej_before = np.zeros(T, dtype=int)
    rejections = np.zeros(T, dtype=int)
    fdp = np.zeros(T)
    wealth = np.full(T, math.nan)

    r_prev = 0
    for t in range(1, T + 1):
        k = t - 1
        # -- budget from the full ledger ------------------------------------
        if pid in ("e-lond", "p-lond"):
            alpha_t = weight_at(gamma, t, 0) * (r_prev + 1.0) * alpha
        elif pid == "score-lond":
            refunds = np.minimum(overs[:k], alphas[:k]) / (rej_before[:k] + 1.0)
            alpha_t = weight_at(gamma, t, 0) * (r_prev + 1.0) * (alpha + refunds.sum())
        elif pid == "e-lord":
            spent = (alphas[:k] / (rej_before[:k] + 1.0)).sum()
            alpha_t = weight_at(omega, t, r_prev) * (r_prev + 1.0) * (alpha - spent)
        elif pid == "score-lord":
            charges = np.maximum(alphas[:k] - overs[:k], 0.0)
            spent = (charges / (rej_before[:k] + 1.0)).sum()
            alpha_t = weight_at(omega, t, r_prev) * (r_prev + 1.0) * (alpha - spent)
        elif pid == "e-saffron":
            lam_t = weight_at(lam, t, r_prev)
            charges = alphas[:k] * (evidence[:k] < 1.0 / lams[:k]) / (1.0 - lams[:k])
            spent = (charges / (rej_before[:k] + 1.0)).sum()
            alpha_t = (
                weight_at(omega, t, r_prev) * (1.0 - lam_t) * (r_prev + 1.0) * (alpha - spent)
            )
        elif pid == "score-saffron":
            lam_t = weight_at(lam, t, r_prev)
            charges = np.maximum(
                alphas[:k] * (1.0 - lams[:k] * evidence[:k]) / (1.0 - lams[:k]) - overs[:k],
                0.0,
            )
            spent = (charges / (rej_before[:k] + 1.0)).sum()
            alpha_t = (
                weight_at(omega, t, r_prev) * (1.0 - lam_t) * (r_prev + 1.0) * (alpha - spent)
            )
        elif pid == "score-plus-lord":
            rmax = max(r_prev, 1)
            w_t = alpha - np.maximum(alphas[:k] - overs[:k], 0.0).sum() / rmax
            alpha_t = weight_at(omega, t, r_prev) * rmax * w_t
        elif pid == "score-plus-saffron":
            lam_t = weight_at(lam, t, r_prev)
            rmax = max(r_prev, 1)
            charges = np.maximum(
                alphas[:k] * (1.0 - lams[:k] * evidence[:k]) / (1.0 - lams[:k]) - overs[:k],
                0.0,
            )
            w_t = alpha - charges.sum() / rmax
            alpha_t = weight_at(omega, t, r_prev) * (1.0 - lam_t) * rmax * w_t
        elif pid == "p-lord":
            rmax = max(r_prev, 1)
            w_t = alpha - alphas[:k].sum() / rmax
            alpha_t = weight_at(omega, t, r_prev) * rmax * w_t
        elif pid == "p-saffron":
            lam_t = weight_at(lam, t, r_prev)
            rmax = max(r_prev, 1)
            charges = alphas[:k] * (evidence[:k] > lams[:k]) / (1.0 - lams[:k])
            w_t = alpha - charges.sum() / rmax
            alpha_t = weight_at(omega, t, r_prev) * (1.0 - lam_t) * rmax * w_t
        else:  # pragma: no cover - registry and branches are kept in sync
            raise ValueError(f"unknown procedure {pid!r}")

        # -- decide, charge, record -----------------------------------------
        value = evidence[k]
        if is_p:
            decision = alpha_t > 0.0 and value <= alpha_t
            over = 0.0
        else:
            decision = alpha_t > 0.0 and value >= 1.0 / alpha_t
            over = max(alpha_t * value - 1.0, 0.0)

        if pid in ("e-lond", "p-lond", "e-lord", "p-lord"):
            cost = alpha_t
        elif pid == "score-lond":
            cost = max(alpha_t - over, 0.0)
        elif pid in ("score-lord", "score-plus-lord"):
            cost = max(alpha_t - over, 0.0)
        elif pid == "e-saffron":
            cost = alpha_t / (1.0 - lam_t) if value < 1.0 / lam_t else 0.0
        elif pid in ("score-saffron", "score-plus-saffron"):
            cost = max(alpha_t * (1.0 - lam_t * value) / (1.0 - lam_t) - over, 0.0)
        else:  # p-saffron
            cost = alpha_t / (1.0 - lam_t) if value > lam_t else 0.0

        alphas[k] = alpha_t
        overs[k] = over
        costs[k] = cost
        decisions[k] = decision
        rej_before[k] = r_prev
        if pid in ("e-saffron", "score-saffron", "score-plus-saffron", "p-saffron"):
            lams[k] = lam_t
        r_now = r_prev + (1 if decision else 0)
        rejections[k] = r_now

        # -- the procedure's own estimate, re-summed ------------------------
        if pid in ("score-plus-lord", "score-plus-saffron", "p-lord", "p-saffron"):
            fdp[k] = costs[: k + 1].sum() / max(r_now, 1)
            wealth[k] = alpha - fdp[k]
        else:
            fdp[k] = (costs[: k + 1] / (rej_before[: k + 1] + 1.0)).sum()
            if pid not in ("e-lond", "p-lond", "score-lond"):
                wealth[k] = alpha - fdp[k]

        r_prev = r_now

    return Trajectory(
        alpha=alphas,
        decision=decisions,
        overshoot=overs,
        cost=costs,
        rejections=rejections,
        fdp_hat=fdp,
        wealth=wealth,
    )


def _scaled_gap(a: np.ndarray, b: np.ndarray) -> float:
    # Absolute gap for O(1) quantities, relative for large ones: overshoots
    # scale with the raw e-values, so a fixed absolute tolerance would be
    # meaningless when the evidence reaches 1e10 and beyond.  Equal values
    # (equal infinities included) are no gap; any other NaN gap, from an
    # infinity or a NaN on either side, is an infinite one.
    if a.size == 0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        gap = np.abs(a - b) / scale
    gap[a == b] = 0.0
    gap[np.isnan(gap)] = np.inf
    return float(gap.max())


def trace_divergence(trace: Trajectory, trajectory: Trajectory) -> dict[str, float]:
    """Worst per-field divergence between the oracle's and the engine's trajectory.

    Float fields report ``|a - b| / max(1, |a|, |b|)``, i.e. absolute
    difference for ordinarily-sized values and relative difference for huge
    ones.  Wealth is compared only where the procedure defines it (NaN rows
    are skipped); decisions and rejection counts are exact and reported as
    mismatch counts.  No value is NaN.
    """
    if len(trace) != len(trajectory):
        raise ValueError("trace and trajectory must have equal length")
    out = {
        "alpha": _scaled_gap(trace.alpha, trajectory.alpha),
        "overshoot": _scaled_gap(trace.overshoot, trajectory.overshoot),
        "cost": _scaled_gap(trace.cost, trajectory.cost),
        "fdp_hat": _scaled_gap(trace.fdp_hat, trajectory.fdp_hat),
        "decision": float(np.sum(trace.decision != trajectory.decision)),
        "rejections": float(np.sum(trace.rejections != trajectory.rejections)),
    }
    defined = ~(np.isnan(trace.wealth) & np.isnan(trajectory.wealth))
    if np.any(defined):
        out["wealth"] = _scaled_gap(trace.wealth[defined], trajectory.wealth[defined])
    else:
        out["wealth"] = 0.0
    return out
