"""The history as arrays: ``trajectory()`` and the fitted views.

Each field and view must be exactly what ``np.asarray`` makes of the
per-step :class:`~scorefdr.StepResult` values: the same dtype, shape and
bytes, a C-contiguous, writeable array that owns its memory, and one that a
caller may change without changing what a later call returns.  That holds
also when the kernel packs the float columns every few steps, so that a
view joins packed doubles and floats still in their list.
"""

import math

import numpy as np
import pytest

import scorefdr as sf
from helpers import CHUNKS, build, chunk_size, evidence_for

LABELS = ("labelled", "unlabelled", "partly labelled")


def _labels(kind, rng, n):
    """Truth labels of ``n`` steps: all bools, all None, or a mix of both."""
    truth = (rng.random(n) < 0.3).tolist()
    if kind == "unlabelled":
        return [None] * n
    if kind == "partly labelled":
        return [None if i % 3 == 1 else label for i, label in enumerate(truth)]
    return truth


def _expected(proc, rows, labels):
    """The trajectory's fields built with ``np.asarray`` from the step rows."""
    column = {name: [getattr(row, name) for row in rows] for name in sf.StepResult._fields}
    rejections = [row.rejections_before + row.decision for row in rows]
    lond = proc.allocation == "lond"
    wealth = [math.nan if lond else proc.alpha - row.fdp_hat for row in rows]
    labelled = bool(labels) and None not in labels
    return {
        "alpha": np.asarray(column["alpha"], dtype=float),
        "decision": np.asarray(column["decision"], dtype=bool),
        "overshoot": np.asarray(column["overshoot"], dtype=float),
        "cost": np.asarray(column["cost"], dtype=float),
        "rejections": np.asarray(rejections, dtype=int),
        "fdp_hat": np.asarray(column["fdp_hat"], dtype=float),
        "wealth": np.asarray(wealth, dtype=float),
        "truth": np.asarray(labels, dtype=bool) if labelled else None,
        "rejections_before": np.asarray(column["rejections_before"], dtype=int),
    }


def _assert_same_array(got, want, where):
    assert isinstance(got, np.ndarray), where
    assert (got.dtype, got.shape) == (want.dtype, want.shape), where
    assert got.tobytes() == want.tobytes(), where
    for flag in ("C_CONTIGUOUS", "WRITEABLE", "OWNDATA"):
        assert got.flags[flag] == want.flags[flag], (where, flag)


def _views(proc, names):
    return {name: getattr(proc, name + "_") for name in names}


def _check_views(proc, expected, names):
    """Each view of ``names`` matches ``expected``, also after the caller
    overwrites every array an earlier call returned."""
    for name, got in _views(proc, names).items():
        _assert_same_array(got, expected[name], name + "_")
        got[...] = 1
    for name, got in _views(proc, names).items():
        _assert_same_array(got, expected[name], name + "_ after a write")


TRAJECTORY_FIELDS = ("alpha", "decision", "overshoot", "cost", "rejections", "fdp_hat", "wealth")
ALL_VIEWS = TRAJECTORY_FIELDS + ("rejections_before",)
DECISION_VIEWS = ("decision", "rejections", "rejections_before")


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("labels", LABELS)
@pytest.mark.parametrize("n", [0, 1, 300])
@pytest.mark.parametrize("pid", sf.PROCEDURE_IDS)
def test_arrays_match_the_step_rows(pid, n, labels, chunk):
    rng = np.random.default_rng(n)
    X = evidence_for(pid, rng, n)
    truth = _labels(labels, rng, n)
    with chunk_size(chunk):
        stepped = build(pid)
        kind = stepped.evidence_kind
        rows = [stepped.step(sf.Observation(t, x, kind, label))
                for t, (x, label) in enumerate(zip(X.tolist(), truth), start=1)]
        procs = {"step": stepped}
        if labels != "partly labelled":  # fit takes all labels or none
            procs["fit"] = build(pid).fit(X, None if labels == "unlabelled" else truth)
        only = build(pid)._fit_decisions(X)
    expected = _expected(stepped, rows, truth)

    for path, proc in procs.items():
        trajectory = proc.trajectory()
        for name in TRAJECTORY_FIELDS + ("truth",):
            got = getattr(trajectory, name)
            if expected[name] is None:
                assert got is None, (path, name)
                continue
            _assert_same_array(got, expected[name], (path, name))
            got[...] = 1
        again = proc.trajectory()
        for name in TRAJECTORY_FIELDS:
            _assert_same_array(getattr(again, name), expected[name], (path, name, "again"))
        _check_views(proc, expected, ALL_VIEWS)

    _check_views(only, expected, DECISION_VIEWS)
