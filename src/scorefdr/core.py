"""Domain types shared by every testing procedure."""

from __future__ import annotations

import sys
from dataclasses import dataclass

from ._validation import check_count, check_evidence_value

#: Largest representable e-value.  Calibrators and likelihood ratios clamp
#: to this instead of returning inf so that ``alpha * e`` stays NaN-free.
MAX_EVALUE = sys.float_info.max

EVIDENCE_KINDS = ("e", "p")


@dataclass(frozen=True, init=False)
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
        True when the hypothesis is a genuine non-null, when known; 0 and 1
        are accepted as False and True.
    """

    index: int
    evidence: float
    kind: str = "e"
    truth: bool | None = None

    def __init__(self, index: int, evidence: float, kind: str = "e", truth: bool | None = None):
        # Written out rather than generated, so that the fields go straight into the instance
        # dict instead of through the frozen __setattr__ guard; a plain int index skips a call.
        if type(index) is not int or index < 1:
            index = check_count(index, "index")
        if kind not in EVIDENCE_KINDS:
            raise ValueError(f"kind must be one of {EVIDENCE_KINDS}, got {kind!r}")
        check_evidence_value(evidence, kind)
        if truth is not None and truth not in (0, 1):
            raise ValueError(f"truth must be None, a bool, 0 or 1, got {truth!r}")
        fields = self.__dict__
        fields["index"] = index
        fields["evidence"] = evidence
        fields["kind"] = kind
        fields["truth"] = truth
