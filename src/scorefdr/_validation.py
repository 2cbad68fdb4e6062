"""Input validation helpers shared across the package."""

from __future__ import annotations

import math
import numbers

import numpy as np


def check_open_unit(value: float, name: str) -> float:
    """``value`` as a float, if it is a real number strictly inside (0, 1).

    A string such as ``"0.05"``, ``None`` or any other non-real is refused
    with the same ``ValueError`` as an out-of-range number.
    """
    if not isinstance(value, numbers.Real) or not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    return float(value)


def check_positive_int(value, name: str) -> int:
    """``value`` as an int, if it is a whole real number of at least 1.

    Integers of any integral type and whole floats such as ``2.0`` pass;
    ``None``, strings, bools and non-whole or non-finite numbers are refused.
    """
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not whole or value < 1:
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
