"""The kernel's held state: any split of a stream reproduces one ``fit``.

Every procedure holds the budget of its upcoming step between calls.  A
stream cut at random into ``partial_fit`` chunks (empty ones included) and
single ``step()`` calls, pickled and restored between pieces, must give the
same bytes as one ``fit`` in every ``Trajectory`` field, and ``next_alpha()``
must return, bit for bit, the ``alpha`` that the next step then spends,
also when the kernel packs its history every few steps.
"""

import dataclasses
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scorefdr as sf
from helpers import CHUNKS, chunk_size
# The same procedures, schedule kinds and evidence as the resume tests.
from test_resume import E_VALUES, P_VALUES, SCHEDULES, _cases


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _fields(proc) -> dict:
    traj = proc.trajectory()
    arrays = {f.name: getattr(traj, f.name) for f in dataclasses.fields(traj)}
    return {name: None if a is None else (a.dtype.str, a.tobytes()) for name, a in arrays.items()}


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("pid, kinds", list(_cases()))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_split_stream_equals_one_fit(pid, kinds, chunk, data):
    cls = sf.PROCEDURES[pid]
    params = {name: data.draw(SCHEDULES[kind], label=name) for name, kind in kinds.items()}
    params["alpha"] = data.draw(st.floats(0.01, 0.5), label="alpha")
    values = P_VALUES if cls.evidence_kind == "p" else E_VALUES
    X = np.asarray(data.draw(st.lists(values, max_size=30), label="X"), dtype=float)
    y = np.asarray(data.draw(st.lists(st.booleans(), min_size=len(X), max_size=len(X))),
                   dtype=bool)
    # Each piece is ("step", 1) or ("chunk", n >= 0), until X is used up.
    pieces, taken = [], 0
    while taken < len(X):
        if data.draw(st.booleans(), label="step"):
            pieces.append(("step", 1))
        else:
            pieces.append(("chunk", data.draw(st.integers(0, len(X) - taken), label="n")))
        taken += pieces[-1][1]
    pieces.append(("chunk", 0))

    with chunk_size(chunk), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        whole = cls(**params).fit(X, y)
        n_warnings = len(caught)
        del caught[:]

        proc, start = cls(**params), 0
        for how, n in pieces:
            if n:
                assert _bits(proc.next_alpha()) == _bits(whole.alpha_[start]), start
            if how == "step":
                row = proc.step(sf.Observation(start + 1, X[start], cls.evidence_kind, y[start]))
                assert _bits(row.alpha) == _bits(whole.alpha_[start]), start
            else:
                proc.partial_fit(X[start:start + n], y[start:start + n])
            start += n
            proc = pickle.loads(pickle.dumps(proc))
        assert len(caught) == n_warnings

        stepper = cls(**params)
        for value in X:
            upcoming = stepper.next_alpha()
            assert _bits(stepper.step(value).alpha) == _bits(upcoming)

    assert _fields(proc) == _fields(whole)
    assert (proc.t_, proc.n_rejections_) == (whole.t_, whole.n_rejections_) == (
        len(X), int(whole.decision_.sum()))
    assert _bits(proc.next_alpha()) == _bits(whole.next_alpha()) == _bits(stepper.next_alpha())
