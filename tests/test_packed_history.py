"""The packed history: float columns kept as C doubles every ``_CHUNK`` steps.

The kernel packs the ``alpha``, ``overshoot``, ``cost`` and ``fdp_hat``
lists into bytes once they hold ``_CHUNK`` steps.  A stream that crosses
packs must read back, through every path, exactly as the rows that
``step()`` returned, and a long stream must keep about 8 bytes per float
instead of a Python float object.
"""

import gc
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

import scorefdr as sf
from helpers import build, evidence_for
from test_materialisation import (
    ALL_VIEWS,
    DECISION_VIEWS,
    TRAJECTORY_FIELDS,
    _assert_same_array,
    _expected,
)

CHUNK = sf.procedures._CHUNK


@pytest.mark.parametrize("pid", sf.PROCEDURE_IDS)
def test_every_path_reads_back_the_step_rows_across_packs(pid):
    n = 2 * CHUNK + 5
    rng = np.random.default_rng(17)
    X = evidence_for(pid, rng, n)
    truth = (rng.random(n) < 0.3).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a spike may push alpha_t past 1
        stepped, rows = build(pid), []
        kind = stepped.evidence_kind
        for t, (x, label) in enumerate(zip(X.tolist(), truth), start=1):
            rows.append(stepped.step(sf.Observation(t, x, kind, label)))
            if t == CHUNK:  # this step packed the history: save and restore it here
                assert stepped._history[0] == [] and len(stepped._packed[0]) == 8 * CHUNK
                stepped = pickle.loads(pickle.dumps(stepped))
        procs = {"step": stepped, "fit": build(pid).fit(X, truth)}
        for k in (CHUNK - 1, CHUNK, CHUNK + 1):
            head = pickle.loads(pickle.dumps(build(pid).partial_fit(X[:k], truth[:k])))
            procs[f"partial_fit at {k}"] = head.partial_fit(X[k:], truth[k:])
        only = build(pid)._fit_decisions(X)
    expected = _expected(stepped, rows, truth)
    upcoming = np.float64(procs["fit"].next_alpha()).tobytes()

    for path, proc in procs.items():
        trajectory = proc.trajectory()
        for name in TRAJECTORY_FIELDS + ("truth",):
            _assert_same_array(getattr(trajectory, name), expected[name], (path, name))
        for name in ALL_VIEWS:
            _assert_same_array(getattr(proc, name + "_"), expected[name], (path, name + "_"))
        assert (proc.t_, proc.n_rejections_) == (n, int(expected["rejections"][-1])), path
        assert np.float64(proc.next_alpha()).tobytes() == upcoming, path
    for name in DECISION_VIEWS:
        _assert_same_array(getattr(only, name + "_"), expected[name], ("decisions", name + "_"))


def _traced(run, steps: int) -> tuple[float, float]:
    """Bytes per step that ``run()`` leaves allocated, and the most it held at
    once, as tracemalloc counts them from the call on."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = run()  # alive until measured: a procedure built inside the run
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    return (after - before) / steps, (peak - before) / steps


LONG = 200_000


@pytest.mark.skipif(tracemalloc.is_tracing(), reason="tracemalloc already traces this run")
@pytest.mark.parametrize("pid", ["p-saffron", "score-lord"])
def test_memory_per_step_is_bounded(pid):
    # Per step the history keeps one pointer each for the decision and the
    # label and 8 bytes for each of the four floats: 48 bytes, and about 51
    # with list over-allocation.  Four Python float objects kept instead
    # would take 121 bytes a step, and the whole input as a Python list
    # would raise the peak to 161.
    X = evidence_for(pid, np.random.default_rng(3), LONG)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        proc = build(pid)
        retained, peak = _traced(lambda: proc.fit(X), LONG)
        assert retained <= 64 and peak <= 72, (retained, peak)

        # only the decisions: a pointer a step, and the input never whole as a list
        retained, peak = _traced(lambda: build(pid)._fit_decisions(X), LONG)
        assert retained <= 10 and peak <= 12, (retained, peak)

        values = X[:LONG // 4].tolist()
        stepper = build(pid)

        def steps():
            for value in values:
                stepper.step(value)

        retained, _ = _traced(steps, len(values))
        assert retained <= 64, retained
