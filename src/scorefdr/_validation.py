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
    """A refusal of one entry, by :func:`check_array` or by a CSV file's row rules: ``index``
    is the flat index of the first bad entry and ``reason`` the message without its place,
    for a caller that names the place."""

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
    """``x`` as a float array, if it holds no text or complex number and every entry lies in
    the interval of :func:`check_real`.  Valid input costs one ``min`` and one ``max``; the
    error, an :class:`EntryError`, names the first bad index."""
    try:
        # numeric text is not a real, nor is a complex number, whose cast drops its imaginary part
        if (arr := np.asarray(x)).dtype.kind in "SUc":
            raise TypeError
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past the floats
        raise ValueError(f"{name} must be an array of reals, got {reprlib.repr(x)}") from None
    if arr.size and not (_inside(arr.min(), lo, hi, ends) and _inside(arr.max(), lo, hi, ends)):
        first = int(np.flatnonzero(~_inside(arr, lo, hi, ends))[0])
        where = tuple(map(int, np.unravel_index(first, arr.shape)))
        raise EntryError(f"{name} must be a finite real in {_interval(lo, hi, ends)}, "
                         f"got {float(arr.flat[first])!r}", first,
                         f" at index {where[0] if len(where) == 1 else where}" if where else "")
    return arr


def check_number(text: str, name: str, kind=float):
    """``kind(text)``, ``kind`` being ``float`` or ``int``, for text that Python reads as
    that number but the digit-group ``_`` (``1_000``), which is refused."""
    try:
        if "_" not in text:
            return kind(text)
    except ValueError:
        pass
    raise ValueError(f"{name} must be {'a number' if kind is float else 'an integer'}, "
                     f"got {text!r}")


#: Each evidence kind's interval, as :func:`check_array` takes it; the FDR bound
#: ``I(y >= 1) <= y - (y - 1)_+`` holds only for evidence inside it.
EVIDENCE = {"e": (0.0, math.inf, "[)"), "p": (0.0, 1.0, "[]")}
#: The same intervals as their least and greatest floats, for one chained compare.
_CLOSED = {kind: (lo if ends[0] == "[" else math.nextafter(lo, hi),
                  hi if ends[1] == "]" else math.nextafter(hi, lo))
           for kind, (lo, hi, ends) in EVIDENCE.items()}


def check_evidence(x, kind: str, name: str, ndim: int = 0):
    """``x`` as ``kind`` evidence: given ``ndim=0``, one real in the kind's interval (anything
    ``float`` converts but text: a bool, a ``Fraction``, a ``Decimal``, a numpy scalar) as a
    float; given ``ndim=1``, a 1-d array of them, judged by :func:`check_array`."""
    try:
        low, high = _CLOSED[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise ValueError(f"kind must be one of {tuple(EVIDENCE)}, got {kind!r}") from None
    if type(x) is float and low <= x <= high and not ndim:  # the per-step case
        return x
    if ndim:
        arr = check_array(x, name, *EVIDENCE[kind])
        if arr.ndim == ndim:
            return arr
        raise ValueError(f"{name} must be {ndim}-d, got shape {arr.shape}")
    try:
        value = math.nan if isinstance(x, (str, bytes, bytearray)) else float(x)
    except (TypeError, ValueError, ArithmeticError):
        value = math.nan
    if low <= value <= high:
        return value
    raise ValueError(f"{name} must be a finite real in {_interval(*EVIDENCE[kind])}, "
                     f"got {x!r}")


def check_truth(y, name: str, n: int | None = None):
    """``y`` as truth labels, each a bool or a number equal to 0 or 1: given no ``n``, one
    label as a bool; given ``n``, a 1-d array of ``n`` labels as a list of bools."""
    if n is None:
        labels = [y]
    else:
        arr = np.asarray(y, dtype=object)  # so a ragged entry is refused as a label
        if arr.shape != (n,):
            raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
        labels = arr.tolist()
    for i, label in enumerate(labels):
        try:
            if label == 0 or label == 1:
                continue
        except (TypeError, ValueError, ArithmeticError):  # ValueError: an array's truth
            pass
        raise ValueError(f"{name} must be a bool, 0 or 1, got {label!r}"
                         + ("" if n is None else f" at index {i}"))
    return bool(y) if n is None else [bool(label) for label in labels]


def check_kind(procedure, kind: str, source: str) -> None:
    """Refuse ``kind`` evidence, which ``source`` gives, for a ``procedure`` that consumes
    the other kind."""
    if kind != procedure.evidence_kind:
        raise ValueError(f"{procedure.procedure_id} consumes {procedure.evidence_kind!r} "
                         f"evidence, but {source} gives {kind!r} evidence")
