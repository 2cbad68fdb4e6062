"""Input validation helpers shared across the package."""

from __future__ import annotations

import math

import numpy as np


def check_open_unit(value: float, name: str) -> float:
    """Validate that ``value`` lies strictly inside (0, 1)."""
    value = float(value)
    if not (0.0 < value < 1.0) or not math.isfinite(value):
        raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    return value


def check_positive_int(value, name: str) -> int:
    if value != int(value) or int(value) < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def check_evidence_value(value: float, kind: str) -> float:
    """Validate one evidence value: finite, non-negative, and at most 1 for ``kind="p"``.

    A value that is not a real number, such as the string ``"2.0"``, fails
    with the same ``ValueError`` as a negative one.
    """
    try:
        valid = math.isfinite(value) and value >= 0.0
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"evidence must be a finite non-negative real, got {value!r}")
    if kind == "p" and value > 1.0:
        raise ValueError(f"p-value evidence must lie in [0, 1], got {value}")
    return value


def check_evidence_array(x, kind: str) -> np.ndarray:
    """Coerce a 1-d stream of evidence values to a validated float array.

    ``kind`` is ``"e"`` (non-negative reals) or ``"p"`` (values in [0, 1]).
    Non-finite entries are rejected for both kinds.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"evidence must be 1-d, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("evidence must be finite; found nan or inf")
    if kind == "e":
        if arr.size and arr.min() < 0.0:
            raise ValueError("e-values must be non-negative")
    elif kind == "p":
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise ValueError("p-values must lie in [0, 1]")
    else:
        raise ValueError(f"unknown evidence kind {kind!r}")
    return arr


def check_truth_array(y, n: int) -> np.ndarray:
    """Coerce ground-truth labels to a boolean array of length ``n``."""
    arr = np.asarray(y)
    if arr.shape != (n,):
        raise ValueError(f"truth labels must have shape ({n},), got {arr.shape}")
    if arr.dtype != bool:
        vals = np.unique(arr)
        if not np.all(np.isin(vals, [0, 1])):
            raise ValueError("truth labels must be binary (0/1 or bool)")
        arr = arr.astype(bool)
    return arr
