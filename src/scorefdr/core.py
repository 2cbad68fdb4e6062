"""Domain types shared by every testing procedure."""

from __future__ import annotations

import sys
from dataclasses import dataclass

from ._validation import EVIDENCE, check_count, check_evidence, check_truth

#: Largest representable e-value.  Calibrators and likelihood ratios clamp
#: to this instead of returning inf so that ``alpha * e`` stays NaN-free.
MAX_EVALUE = sys.float_info.max

EVIDENCE_KINDS = tuple(EVIDENCE)


@dataclass(frozen=True, init=False)
class Observation:
    """One stream element: evidence plus an optional ground-truth label.

    Parameters
    ----------
    index : int
        1-based position in the stream; must increase by one per step.
    evidence : float
        An e-value or a p-value, according to ``kind``, inside that kind's
        ``EVIDENCE`` interval; kept as a float.
    kind : str
        ``"e"`` or ``"p"``.
    truth : bool or None
        True when the hypothesis is a genuine non-null, when known; 0 and 1
        are kept as False and True.
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
        evidence = check_evidence(evidence, kind, "evidence")  # refuses a bad kind first
        if truth is not None and type(truth) is not bool:  # a bool needs no call
            truth = check_truth(truth, "truth")
        fields = self.__dict__
        fields["index"] = index
        fields["evidence"] = evidence
        fields["kind"] = kind
        fields["truth"] = truth
