"""Predictable parameter sequences (gamma, omega, lambda) used by the procedures.

Each kind has one entry in :data:`KINDS`: its parameter names and its single
formula, the value at step ``t`` given the ``rejections`` made before it, and
whether that value is the same at every step.  The entry drives
:class:`Schedule` validation and parsing, :func:`weight_at` (the one checked
accessor of a value) and the engine's :meth:`Schedule.fixed` and
:meth:`Schedule.formula`.

``constant``
    The same value at every step.
``geometric``
    ``gamma_t = (1 - q) * q**(t-1)``, which sums to one over all t and is
    the natural discovery-spreading sequence for LOND-type rules.
``rai``
    Rejection-adjusted investment: the weight drifts up by ``phi``-powers
    during quiet stretches and down by ``psi``-powers after rejections,
    ``omega_{t+1} = omega1 + omega1 * (sum_{j<=t-R} phi**j - sum_{j<=R} psi**j)``
    where R is the rejection count after step t; so
    ``weight_at(Schedule.rai(omega1, phi, psi), t + 1, R)`` is that weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

from ._validation import check_count, check_number, check_real

#: RAI weights are clamped to this open sub-interval of (0, 1); the raw
#: recurrence can leave (0, 1) for extreme phi/psi, but procedures require
#: a weight strictly inside the unit interval.
RAI_WEIGHT_MIN = 1e-6
_RAI_WEIGHT_MAX = 1.0 - RAI_WEIGHT_MIN


def _constant(value, t, rejections):
    return value


def _geometric(scale, ratio, t, rejections):
    # scale = 1 - ratio is bound once, not recomputed per step; same bits as (1 - q) * q**(t-1)
    return scale * ratio ** (t - 1)


def _rai(omega1, phi, psi, t, rejections):
    if t == 1:
        return omega1
    # sum_{j=1..k} r**j in closed form, exact enough for r in (0, 1), for
    # k = quiet steps (phi) and k = rejections (psi)
    quiet = t - 1 - rejections
    up = phi * (1.0 - phi**quiet) / (1.0 - phi) if quiet > 0 else 0.0
    down = psi * (1.0 - psi**rejections) / (1.0 - psi) if rejections > 0 else 0.0
    raw = omega1 + omega1 * (up - down)
    return RAI_WEIGHT_MIN if raw < RAI_WEIGHT_MIN else (
        _RAI_WEIGHT_MAX if raw > _RAI_WEIGHT_MAX else raw)


class _Kind(NamedTuple):
    params: tuple[str, ...]  # parameter names, in order; each value lies in (0, 1)
    formula: Callable[..., float]  # formula(*bind(*params), t, rejections)
    bind: Callable[..., tuple] = lambda *params: params
    constant: bool = False  # the formula gives one value at every step


KINDS = {
    "constant": _Kind(("value",), _constant, constant=True),
    "geometric": _Kind(("ratio",), _geometric, lambda ratio: (1.0 - ratio, ratio)),
    "rai": _Kind(("omega1", "phi", "psi"), _rai),
}
SCHEDULE_KINDS = tuple(KINDS)


@dataclass(frozen=True)
class Schedule:
    """A named parameter sequence: ``kind`` plus its kind-specific params."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"kind must be one of {SCHEDULE_KINDS}, got {self.kind!r}")
        names = KINDS[self.kind].params
        if len(self.params) != len(names):
            raise ValueError(f"schedule kind {self.kind!r} takes {len(names)} "
                             f"parameter(s), got {len(self.params)}")
        object.__setattr__(self, "params", tuple(check_real(value, f"{self.kind} {name}", 0.0, 1.0)
                                                 for name, value in zip(names, self.params)))

    @classmethod
    def constant(cls, value: float) -> "Schedule":
        return cls("constant", (value,))

    @classmethod
    def geometric(cls, ratio: float) -> "Schedule":
        return cls("geometric", (ratio,))

    @classmethod
    def rai(cls, omega1: float, phi: float, psi: float) -> "Schedule":
        return cls("rai", (omega1, phi, psi))

    @classmethod
    def parse(cls, text: str) -> "Schedule":
        """Parse ``"kind,param,..."``, e.g. ``"geometric,0.5"`` or ``"rai,0.05,0.5,0.5"``."""
        kind, *params = (part.strip() for part in str(text).split(","))
        names = KINDS[kind].params if kind in KINDS else ()
        if len(params) == len(names):  # else the constructor refuses the kind or the count
            params = [check_number(value, f"{kind} {name}") for name, value in zip(names, params)]
        return cls(kind, tuple(params))

    def spec(self) -> str:
        """Inverse of :meth:`parse`."""
        return ",".join([self.kind] + [repr(p) for p in self.params])

    def fixed(self) -> float | None:
        """The value at every step, for a constant kind; None for a kind that varies."""
        kind = KINDS[self.kind]
        return kind.formula(*kind.bind(*self.params), 1, 0) if kind.constant else None

    def formula(self) -> partial:
        """``(t, rejections) -> value``: the kind's formula with these parameters bound.

        A :class:`functools.partial` of a module-level function, so it pickles
        and does no kind dispatch per call.
        """
        kind = KINDS[self.kind]
        return partial(kind.formula, *kind.bind(*self.params))


def check_gamma(schedule: Schedule) -> Schedule:
    """``schedule``, if it can serve as a discovery-spreading gamma sequence.

    Only ``constant`` and ``geometric`` kinds qualify: LOND-type rules need a
    sequence fixed in advance (geometric additionally sums to one).
    """
    if schedule.kind == "rai":
        raise ValueError("rai schedules adapt to the rejection history and cannot serve "
                         "as a summable gamma sequence")
    return schedule


def weight_at(schedule: Schedule, t: int, rejections: int) -> float:
    """The value of ``schedule`` at step ``t`` (counted from 1) given the ``rejections``
    made strictly before it, with both counts checked."""
    t = check_count(t, "t")
    rejections = check_count(rejections, "rejections", 0)
    if rejections >= t:
        raise ValueError(f"rejections must lie in [0, t), got {rejections} with t={t}")
    return schedule.formula()(t, rejections)


#: Defaults mirroring the benchmark settings used throughout the test suite.
DEFAULT_GAMMA = Schedule.geometric(0.5)
DEFAULT_OMEGA = Schedule.constant(0.05)
DEFAULT_LAMBDA = Schedule.constant(0.5)
DEFAULT_RAI = Schedule.rai(0.05, 0.5, 0.5)
