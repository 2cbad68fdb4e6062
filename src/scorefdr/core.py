"""Domain types shared by every testing procedure.

A :class:`StepRecord` carries the step's *overshoot*: when scaled evidence
``alpha * e`` clears the rejection threshold 1 with room to spare, the excess
``(alpha * e - 1)_+`` is refunded to the error budget by the ``score-*``
procedures instead of being discarded.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

#: Largest representable e-value.  Calibrators and likelihood ratios clamp
#: to this instead of returning inf so that ``alpha * e`` stays NaN-free.
MAX_EVALUE = sys.float_info.max

EVIDENCE_KINDS = ("e", "p")


@dataclass(frozen=True)
class Observation:
    """One stream element: evidence plus an optional ground-truth label.

    Parameters
    ----------
    index : int
        1-based position in the stream; must increase by one per step.
    evidence : float
        An e-value (any non-negative real) or a p-value in [0, 1],
        according to ``kind``.
    kind : str
        ``"e"`` or ``"p"``.
    truth : bool or None
        True when the hypothesis is a genuine non-null, when known.
    """

    index: int
    evidence: float
    kind: str = "e"
    truth: bool | None = None

    def __post_init__(self):
        if self.index < 1 or self.index != int(self.index):
            raise ValueError(f"index must be a positive integer, got {self.index!r}")
        if self.kind not in EVIDENCE_KINDS:
            raise ValueError(f"kind must be one of {EVIDENCE_KINDS}, got {self.kind!r}")
        if not math.isfinite(self.evidence):
            raise ValueError("evidence must be finite")
        if self.evidence < 0.0:
            raise ValueError("evidence must be non-negative")
        if self.kind == "p" and self.evidence > 1.0:
            raise ValueError(f"p-value evidence must lie in [0, 1], got {self.evidence}")


@dataclass(frozen=True)
class StepRecord:
    """Audit record of a single testing step.

    ``cost`` is the amount actually charged against the budget by the
    procedure that produced the record (refund-adjusted where the procedure
    refunds).  ``rejections_before`` is the rejection count entering the
    step, i.e. the denominator driver R_{t-1}.
    """

    alpha: float
    decision: bool
    overshoot: float
    cost: float
    rejections_before: int

    def __post_init__(self):
        if not (self.alpha >= 0.0):
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if self.overshoot < 0.0 or self.cost < 0.0:
            raise ValueError("overshoot and cost must be non-negative")
        if self.rejections_before < 0:
            raise ValueError("rejections_before must be non-negative")
