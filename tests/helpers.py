"""Stream generators, the procedure `build` helper and checks shared by the test suite."""

import csv
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

import scorefdr as sf
from scorefdr.cli import DECISIONS_HEADER

GAMMA = sf.Schedule.geometric(0.5)
OMEGA = sf.Schedule.constant(0.05)
LAMBDA = sf.Schedule.constant(0.5)

E_PROCEDURE_IDS = tuple(pid for pid in sf.PROCEDURE_IDS if not pid.startswith("p-"))
P_PROCEDURE_IDS = tuple(pid for pid in sf.PROCEDURE_IDS if pid.startswith("p-"))


#: Sizes of ``scorefdr.procedures._CHUNK`` that the history tests also run
#: under, small enough that their short streams pack; None keeps the default.
CHUNKS = (None, 1, 2, 7)


@contextmanager
def chunk_size(chunk):
    """Inside the block, the kernel packs its float columns every ``chunk``
    steps (None: every ``_CHUNK`` steps, the default)."""
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(sf.procedures, "_CHUNK", chunk)
        yield


def build(pid, alpha=0.05, omega=OMEGA, lam=LAMBDA, gamma=GAMMA):
    return sf.make_procedure(pid, alpha=alpha, gamma=gamma, omega=omega, lam=lam)


def random_e_stream(rng, n, spike_prob=0.10):
    """Mostly null-like e-values with occasional strong spikes.

    Spikes max out near exp(14) ~ 1.2e6, large enough to trigger rejections
    and overshoots at typical budgets yet small enough that absolute
    comparisons between engines stay meaningful.
    """
    e = np.exp(rng.standard_normal(n) - 0.5)
    spikes = rng.random(n) < spike_prob
    e[spikes] = np.exp(4.0 + 2.0 * np.abs(rng.standard_normal(int(spikes.sum()))))
    return e


def random_p_stream(rng, n, alt_prob=0.3):
    """Uniform nulls mixed with heavily right-skewed alternative p-values."""
    p = rng.random(n)
    alt = rng.random(n) < alt_prob
    p[alt] = p[alt] ** 12
    return np.maximum(p, 1e-300)


def evidence_for(pid, rng, n):
    return random_p_stream(rng, n) if pid.startswith("p-") else random_e_stream(rng, n)


def read_decisions(path: str) -> dict[str, np.ndarray]:
    """Read back a decisions CSV into arrays (used for round-trip checks)."""
    columns = {name: [] for name in DECISIONS_HEADER}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if tuple(reader.fieldnames or ()) != DECISIONS_HEADER:
            raise ValueError(f"{path}: unexpected header {reader.fieldnames}")
        for row in reader:
            for name in DECISIONS_HEADER:
                columns[name].append(float(row[name]))
    out = {name: np.asarray(vals) for name, vals in columns.items()}
    out["index"] = out["index"].astype(int)
    out["decision"] = out["decision"].astype(bool)
    out["rejections"] = out["rejections"].astype(int)
    return out


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
