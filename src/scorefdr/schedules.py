"""Predictable parameter sequences (gamma, omega, lambda) used by the procedures.

Each kind has one entry in :data:`KINDS`: its parameter names; its single
formula, ``formula(*params, t, rejections)``, the value at step ``t`` given
the ``rejections`` made before it; and ``terms(*params)``, its table's head
and the iterators of its lists of terms, or None for a kind that gives one
value at every step.  The entry drives :class:`Schedule` validation and
parsing, :func:`weight_at` (the one checked accessor of a value, and the
only caller of a formula outside a table's fill), the engine's
:meth:`Schedule.fixed` and the tables the engine's kernel reads a varying
schedule from.

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

A :class:`_Table` holds the scalar terms of one varying schedule, so that
the kernel looks a value up instead of calling the formula at every step.
Each list is filled from the kind's ``terms``, only as far as a run reads
it, and never past the index where its terms stop changing:

* a geometric table is one list, ``(1 - q) * q**k`` at index k, which stops
  at its first 0.0: k = 1074 at q = 0.5, 162 at q = 0.01;
* a rai table is omega1 and two lists, ``_sums(phi, k)`` over quiet steps
  and ``_sums(psi, k)`` over rejections, each of which stops at its first
  ``1.0 - r**k == 1.0``: k = 54 at r = 0.5, 356 at 0.9, 37 412 at 0.999.

A read past the end of a list uses its last entry.  Short of that end, a
list reaches the upcoming step of the longest stream it served: one entry
more than that stream's steps (two after a bare ``reset()``).  So a slowly
decaying geometric schedule, q = 0.999 say, can hold up to 737 859 entries
of 32 bytes.  Each procedure keeps its own tables with its rule, and they
are not pickled.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import count, islice
from typing import Callable, NamedTuple

from ._validation import check_count, check_number, check_real

#: RAI weights are clamped to this open sub-interval of (0, 1); the raw
#: recurrence can leave (0, 1) for extreme phi/psi, but procedures require
#: a weight strictly inside the unit interval.
RAI_WEIGHT_MIN = 1e-6
_RAI_WEIGHT_MAX = 1.0 - RAI_WEIGHT_MIN


# The formulas keep these module-level names: a pickle from before the tables
# holds partials of them, which loading must resolve (and then drops).
def _constant(value, t, rejections):
    return value


def _geometric(ratio, t, rejections):
    return (1.0 - ratio) * ratio ** (t - 1)


def _sums(r, k):
    """``sum_{j=1..k} r**j`` in closed form, exact enough for r in (0, 1)."""
    return r * (1.0 - r**k) / (1.0 - r) if k > 0 else 0.0


def _rai(omega1, phi, psi, t, rejections):
    if t == 1:
        return omega1
    # k = quiet steps for phi, k = rejections for psi
    raw = omega1 + omega1 * (_sums(phi, t - 1 - rejections) - _sums(psi, rejections))
    return RAI_WEIGHT_MIN if raw < RAI_WEIGHT_MIN else (
        _RAI_WEIGHT_MAX if raw > _RAI_WEIGHT_MAX else raw)


class _Kind(NamedTuple):
    params: tuple[str, ...]  # parameter names, in order; each value lies in (0, 1)
    formula: Callable[..., float]  # formula(*params, t, rejections)
    terms: Callable[..., tuple] | None  # terms(*params): (head, *list iterators); None: fixed


KINDS = {
    "constant": _Kind(("value",), _constant, None),
    "geometric": _Kind(("ratio",), _geometric, lambda ratio: (None, _by_step(_geometric, ratio))),
    "rai": _Kind(("omega1", "phi", "psi"), _rai, lambda omega1, phi, psi: (
        omega1, _sums_by_count(phi), _sums_by_count(psi))),
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
        return kind.formula(*self.params, 1, 0) if kind.terms is None else None


def _by_step(formula, *params):
    """A kind's value at step k + 1 for k = 0, 1, ...: the terms of a table
    read by step alone, which stop at the first 0.0."""
    for k in count():
        term = formula(*params, k + 1, 0)
        yield term
        if term == 0.0:
            return


def _sums_by_count(r):
    """``_sums(r, k)`` for k = 0, 1, ...: a rai list, which stops at the first
    ``1.0 - r**k == 1.0``, past which every sum is the same."""
    for k in count():
        yield _sums(r, k)
        if 1.0 - r**k == 1.0:
            return


class _Table:
    """The terms of one varying schedule, for the engine's kernel to look up.

    ``view`` is what the kernel unpacks once per call, ``(head, ups, n_ups,
    last_up, downs, n_downs, last_down)``: for rai, omega1 and its lists over
    quiet steps and over rejections; for a kind read by step alone, None,
    its one list and ``(None, None, None)``.  The kernel reads index k of a list
    as ``ups[k] if k < n_ups else last_up``.  It calls :meth:`grow` before a
    call that reads up to index ``reach``, and only when ``reach >= limit``:
    ``limit`` is the length of the lists still growing, and ``sys.maxsize``
    once every list has stopped.
    """

    __slots__ = ("schedule", "limit", "view", "_head", "_lists")

    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        self._head, *terms = KINDS[schedule.kind].terms(*schedule.params)
        # each list with the rest of its terms, or None once they have all been read
        self._lists = [([], rest) for rest in terms]
        self.limit = 0
        self.view = None

    def grow(self, reach: int):
        """Fill every list up to index ``reach``, or up to where it stops."""
        self.limit = sys.maxsize
        for i, (values, rest) in enumerate(self._lists):
            if rest is not None:
                values.extend(islice(rest, reach + 1 - len(values)))
                if len(values) > reach:
                    self.limit = min(self.limit, len(values))
                else:  # the terms have stopped
                    self._lists[i] = (values, None)
        view = [self._head]
        for values, _ in self._lists:
            view += (values, len(values), values[-1])
        self.view = tuple(view + [None] * (7 - len(view)))


def check_gamma(schedule: Schedule) -> Schedule:
    """``schedule``, if it can serve as LOND's discovery-spreading gamma sequence.

    Only the ``geometric`` kind qualifies.  LOND's bound needs a sequence fixed
    in advance that sums to at most one over the whole stream: a ``rai``
    schedule adapts to the rejections, and a ``constant`` one sums past one on
    a long enough stream.
    """
    if schedule.kind != "geometric":
        raise ValueError(f"{schedule.kind} schedules cannot serve as a summable gamma sequence; "
                         "only geometric sums to at most 1 over an unbounded stream")
    return schedule


def weight_at(schedule: Schedule, t: int, rejections: int) -> float:
    """The value of ``schedule`` at step ``t`` (counted from 1) given the ``rejections``
    made strictly before it, with both counts checked."""
    t = check_count(t, "t")
    rejections = check_count(rejections, "rejections", 0)
    if rejections >= t:
        raise ValueError(f"rejections must lie in [0, t), got {rejections} with t={t}")
    return KINDS[schedule.kind].formula(*schedule.params, t, rejections)


#: Defaults mirroring the benchmark settings used throughout the test suite.
DEFAULT_GAMMA = Schedule.geometric(0.5)
DEFAULT_OMEGA = Schedule.constant(0.05)
DEFAULT_LAMBDA = Schedule.constant(0.5)
