"""Checkpoint and resume: a saved procedure continues its stream bit for bit.

For every procedure, every schedule kind each of its schedules accepts and
every split point ``0 <= k <= T``, a run saved after ``X[:k]`` (by pickle or
``copy.deepcopy``) and continued on ``X[k:]`` must reproduce ``fit(X)``
exactly, through ``partial_fit`` and through per-event ``step()``.
"""

import copy
import dataclasses
import itertools
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scorefdr as sf

UNIT = st.floats(0.01, 0.99)
SCHEDULES = {
    "constant": UNIT.map(sf.Schedule.constant),
    "geometric": UNIT.map(sf.Schedule.geometric),
    "rai": st.tuples(UNIT, UNIT, UNIT).map(lambda p: sf.Schedule.rai(*p)),
}
# Mostly small evidence with strong spikes, so that runs reject, overshoot
# and now and then push alpha_t past 1.
E_VALUES = st.one_of(st.floats(0.0, 5.0), st.floats(5.0, 1e9))
P_VALUES = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-6))


def _cases():
    for pid, cls in sf.PROCEDURES.items():
        names = [name for name in cls._param_names() if name != "alpha"]
        accepted = [[k for k in SCHEDULES if not (name == "gamma" and k == "rai")]
                    for name in names]
        for kinds in itertools.product(*accepted):
            yield pytest.param(pid, dict(zip(names, kinds)),
                               id="-".join([pid, *(f"{n}={k}" for n, k in zip(names, kinds))]))


def _state(proc):
    """Every output and counter of a run, as comparable bytes."""
    traj = proc.trajectory()
    arrays = {f.name: getattr(traj, f.name) for f in dataclasses.fields(traj)}
    arrays["rejections_before"] = proc.rejections_before_
    out = {name: None if a is None else (a.dtype.str, a.tobytes()) for name, a in arrays.items()}
    out["counters"] = (proc.t_, proc.n_rejections_)
    return out


def _steps(proc, X, y, start):
    for i, (value, label) in enumerate(zip(X, y), start=start + 1):
        proc.step(sf.Observation(i, value, proc.evidence_kind, label))
    return proc


@pytest.mark.parametrize("pid, kinds", list(_cases()))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_resume_bit_for_bit(pid, kinds, data):
    cls = sf.PROCEDURES[pid]
    params = {name: data.draw(SCHEDULES[kind], label=name) for name, kind in kinds.items()}
    params["alpha"] = data.draw(st.floats(0.01, 0.5), label="alpha")
    values = P_VALUES if cls.evidence_kind == "p" else E_VALUES
    X = np.asarray(data.draw(st.lists(values, max_size=20), label="X"), dtype=float)
    y = np.asarray(data.draw(st.lists(st.booleans(), min_size=len(X), max_size=len(X))),
                   dtype=bool)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        whole = _state(cls(**params).fit(X, y))
        n_warnings = len(caught)
        for k in range(len(X) + 1):
            del caught[:]
            head = cls(**params).fit(X[:k], y[:k])
            resumed = pickle.loads(pickle.dumps(head)).partial_fit(X[k:], y[k:])
            assert _state(resumed) == whole, k
            assert len(caught) == n_warnings, k
            assert _state(copy.deepcopy(head).partial_fit(X[k:], y[k:])) == whole, k
            stepped = pickle.loads(pickle.dumps(_steps(cls(**params), X[:k], y[:k], 0)))
            assert _state(_steps(stepped, X[k:], y[k:], k)) == whole, k


@pytest.mark.parametrize("pid", sf.PROCEDURE_IDS)
def test_unfitted_pickles(pid):
    proc = sf.PROCEDURES[pid]()
    restored = pickle.loads(pickle.dumps(proc))
    assert repr(restored) == repr(proc)
    X = np.linspace(0.01, 1.0, 50) if proc.evidence_kind == "p" else np.geomspace(0.1, 1e4, 50)
    assert _state(restored.fit(X)) == _state(proc.fit(X))
