"""The package's input rules, each stated once.  A rule returns the value it
accepts, converted, and refuses anything else with a ``ValueError`` naming the
parameter."""

from __future__ import annotations

import math
import reprlib
from fractions import Fraction

import numpy as np

#: The types a real number may have; ``bool`` and ``np.bool_`` are not among them.
_REALS = (int, float, Fraction, np.integer, np.floating)


class EntryError(ValueError):
    """A :func:`check_array` refusal: ``index`` is the flat index of the first bad entry
    and ``reason`` the message without its place, for a caller that names the place."""

    def __init__(self, reason: str, index: int, place: str):
        super().__init__(reason + place)
        self.reason, self.index = reason, index


def _inside(value, lo: float, hi: float, ends: str):  # elementwise on an array
    return ((lo <= value) if ends[0] == "[" else (lo < value)) & (
        (value <= hi) if ends[1] == "]" else (value < hi))


def _interval(lo: float, hi: float, ends: str) -> str:  # e.g. "[0, inf)"
    return f"{ends[0]}{lo:g}, {hi:g}{ends[1]}"


def check_real(value, name: str, lo: float = -math.inf, hi: float = math.inf,
               ends: str = "()") -> float:
    """``value`` as a float, if it is a real (not a bool) inside the interval whose brackets
    are ``ends``.  An infinite end must be open, so NaN and infinities never pass."""
    if isinstance(value, _REALS) and type(value) is not bool:
        real = float(value)
        if _inside(real, lo, hi, ends):
            return real
    raise ValueError(f"{name} must be in {_interval(lo, hi, ends)}, got {value!r}")


def check_count(value, name: str, least: int = 1) -> int:
    """``value`` as an int, if it is a whole real (``2.0`` passes, a bool does
    not) of at least ``least``, which is 1 or 0."""
    if (isinstance(value, _REALS) and type(value) is not bool and least <= value < math.inf
            and value == int(value)):
        return int(value)
    raise ValueError(f"{name} must be a {'positive' if least else 'non-negative'} integer, "
                     f"got {value!r}")


def check_checkpoints(checkpoints, n: int) -> np.ndarray:
    """``checkpoints`` as an int array, if it is a non-empty, strictly increasing
    1-d list of integers in [1, n]."""
    points = np.asarray(checkpoints)
    if points.ndim != 1 or points.size and points.dtype.kind not in "iu":
        rule = "integers"
    elif (points[1:] <= points[:-1]).any():
        rule = "strictly increasing"
    elif points.size == 0 or points[0] < 1 or points[-1] > n:
        rule = f"indices in [1, {n}]"
    else:
        return points.astype(int)
    raise ValueError(f"checkpoints must be {rule}, got {reprlib.repr(checkpoints)}")


def check_array(x, name: str, lo: float = -math.inf, hi: float = math.inf,
                ends: str = "()") -> np.ndarray:
    """``x`` as a float array, if it holds no text and every entry lies in the interval of
    :func:`check_real`.  Valid input costs one ``min`` and one ``max``; the error, an
    :class:`EntryError`, names the first bad index."""
    try:
        if (arr := np.asarray(x)).dtype.kind in "SU":  # numeric text is not a real either
            raise TypeError
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an array of reals, got {reprlib.repr(x)}") from None
    if arr.size and not (_inside(arr.min(), lo, hi, ends) and _inside(arr.max(), lo, hi, ends)):
        first = int(np.flatnonzero(~_inside(arr, lo, hi, ends))[0])
        where = tuple(map(int, np.unravel_index(first, arr.shape)))
        raise EntryError(f"{name} must be a finite real in {_interval(lo, hi, ends)}, "
                         f"got {float(arr.flat[first])!r}", first,
                         f" at index {where[0] if len(where) == 1 else where}" if where else "")
    return arr


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
    """A 1-d stream ``X`` of ``kind`` ``"e"`` (values >= 0) or ``"p"`` (in [0, 1]) as floats."""
    arr = check_array(x, "X", 0.0, *((1.0, "[]") if kind == "p" else (math.inf, "[)")))
    if arr.ndim != 1:
        raise ValueError(f"X must be 1-d, got shape {arr.shape}")
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
