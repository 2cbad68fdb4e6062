"""Checkpoint and resume: a saved procedure continues its stream bit for bit.

For every procedure, every schedule kind each of its schedules accepts and
every split point ``0 <= k <= T``, a run saved after ``X[:k]`` (by pickle or
``copy.deepcopy``) and continued on ``X[k:]`` must reproduce ``fit(X)``
exactly, through ``partial_fit`` and through per-event ``step()``, also
when the kernel packs its history every few steps.
"""

import copy
import dataclasses
import itertools
import pickle
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scorefdr as sf
from helpers import CHUNKS, chunk_size

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
        accepted = [[k for k in SCHEDULES if name != "gamma" or k == "geometric"]
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


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("pid, kinds", list(_cases()))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_resume_bit_for_bit(pid, kinds, chunk, data):
    cls = sf.PROCEDURES[pid]
    params = {name: data.draw(SCHEDULES[kind], label=name) for name, kind in kinds.items()}
    params["alpha"] = data.draw(st.floats(0.01, 0.5), label="alpha")
    values = P_VALUES if cls.evidence_kind == "p" else E_VALUES
    X = np.asarray(data.draw(st.lists(values, max_size=20), label="X"), dtype=float)
    y = np.asarray(data.draw(st.lists(st.booleans(), min_size=len(X), max_size=len(X))),
                   dtype=bool)

    with chunk_size(chunk), warnings.catch_warnings(record=True) as caught:
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


LOND_IDS = [pid for pid, cls in sf.PROCEDURES.items() if cls.allocation == "lond"]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("pid", LOND_IDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_refused_gamma_leaves_the_run_to_resume_bit_for_bit(pid, chunk, data):
    """``set_params`` refuses a constant gamma at any split point (no constant
    sums to at most 1 over an unbounded stream), and the refusal keeps the
    parameters and the stream state: the run still resumes bit for bit."""
    cls = sf.PROCEDURES[pid]
    params = {"alpha": data.draw(st.floats(0.01, 0.5), label="alpha"),
              "gamma": data.draw(SCHEDULES["geometric"], label="gamma")}
    values = P_VALUES if cls.evidence_kind == "p" else E_VALUES
    X = np.asarray(data.draw(st.lists(values, max_size=20), label="X"), dtype=float)
    y = np.asarray(data.draw(st.lists(st.booleans(), min_size=len(X), max_size=len(X))),
                   dtype=bool)

    with chunk_size(chunk), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        whole = _state(cls(**params).fit(X, y))
        n_warnings = len(caught)
        for k in range(len(X) + 1):
            del caught[:]
            head = cls(**params).fit(X[:k], y[:k])
            refused = data.draw(SCHEDULES["constant"], label="refused gamma")
            with pytest.raises(ValueError, match="summable gamma"):
                head.set_params(gamma=refused)
            assert head.get_params() == params, k
            assert _state(copy.deepcopy(head).partial_fit(X[k:], y[k:])) == whole, k
            resumed = pickle.loads(pickle.dumps(head)).partial_fit(X[k:], y[k:])
            assert _state(resumed) == whole, k
            assert len(caught) == 2 * n_warnings, k


@pytest.mark.parametrize("pid", LOND_IDS)
def test_a_pickle_with_a_constant_gamma_is_refused_on_loading(pid, monkeypatch):
    # A checkpoint saved while a constant gamma was still accepted: loading
    # refuses it, rather than resume a run whose fdp_hat may pass alpha.
    cls = sf.PROCEDURES[pid]
    X = np.linspace(0.01, 1.0, 50) if cls.evidence_kind == "p" else np.geomspace(0.1, 1e4, 50)
    with monkeypatch.context() as patch:
        patch.setattr(sf.procedures, "check_gamma", lambda schedule: schedule)
        saved = pickle.dumps(cls(gamma=sf.Schedule.constant(0.1)).fit(X))
    with pytest.raises(ValueError, match="constant schedules cannot serve as a summable gamma"):
        pickle.loads(saved)


@pytest.mark.parametrize("pid", sf.PROCEDURE_IDS)
def test_unfitted_pickles(pid):
    proc = sf.PROCEDURES[pid]()
    restored = pickle.loads(pickle.dumps(proc))
    assert repr(restored) == repr(proc)
    X = np.linspace(0.01, 1.0, 50) if proc.evidence_kind == "p" else np.geomspace(0.1, 1e4, 50)
    assert _state(restored.fit(X)) == _state(proc.fit(X))


@pytest.mark.parametrize("pid", sf.PROCEDURE_IDS)
def test_a_pickle_holds_every_attribute_but_the_rule(pid):
    cls = sf.PROCEDURES[pid]
    assert set(cls().__getstate__()) == set(vars(cls())) - {"_rule"}


class _DictlessScoreLord(sf.ScoreLord):
    """A procedure whose instance dict cannot be read.  Reading it turns the
    instance's inline attribute values into a dict on CPython 3.11, and the
    kernel's every attribute access slows from then on."""

    @property
    def __dict__(self):
        raise AssertionError("the instance dict was read")


def test_no_lifecycle_call_reads_the_instance_dict():
    X = np.geomspace(0.1, 1e4, 60)
    proc = _DictlessScoreLord()
    proc.step(2.0)
    proc.set_params(alpha=0.1)
    with pytest.raises(ValueError, match="alpha must"):
        proc.set_params(alpha=2.0)
    assert proc.alpha == 0.1
    proc.partial_fit(X)
    for restored in (pickle.loads(pickle.dumps(proc)), copy.deepcopy(proc)):
        assert type(restored) is _DictlessScoreLord and _state(restored) == _state(proc)
        restored.step(2.0)
    proc.step(2.0)
    assert _state(proc) == _state(restored)


def test_a_pickle_from_before_the_packed_history_resumes(monkeypatch):
    # Such a pickle has no packed bytes: its history holds every float in lists.
    X = np.geomspace(0.1, 1e4, 2 * sf.procedures._CHUNK)
    head = sf.ScoreLord().fit(X[:100])
    state = {**head.__getstate__(), "_rule": head._rule}  # then the rule was pickled too
    del state["_packed"]
    with monkeypatch.context() as patch:
        patch.setattr(sf.OnlineProcedure, "__getstate__", lambda self: state)
        saved = pickle.dumps(head)
    resumed = pickle.loads(saved).partial_fit(X[100:])
    assert _state(resumed) == _state(sf.ScoreLord().fit(X))


def test_a_pickle_from_before_the_schedule_tables_resumes(monkeypatch):
    # Such a pickle holds the rule, each varying schedule in it as a
    # ``(None, formula)`` pair, the formula a partial of the kind's function
    # over its parameters (geometric's as ``(1 - q, q)``); loading rebuilds the
    # rule from the parameters.
    def formula(table):
        params = table.schedule.params
        if table.schedule.kind == "geometric":
            return partial(sf.schedules._geometric, 1.0 - params[0], *params)
        return partial(sf.schedules._rai, *params)

    X = np.geomspace(0.1, 1e4, 400)
    for make in (lambda: sf.ScoreSaffron(omega=sf.Schedule.rai(0.05, 0.5, 0.5),
                                         lam=sf.Schedule.geometric(0.5)),
                 lambda: sf.ELond(gamma=sf.Schedule.geometric(0.9))):
        head = make().fit(X[:150])
        rule = head._rule
        old = (*rule[:5], rule[5], formula(rule[6]), rule[7], rule[8] and formula(rule[8]), rule[9])
        with monkeypatch.context() as patch:
            patch.setattr(sf.OnlineProcedure, "__getstate__",
                          lambda self: {**vars(self), "_rule": old})
            saved = pickle.dumps(head)
        resumed = pickle.loads(saved)
        assert isinstance(resumed._rule[6], sf.schedules._Table)
        assert _state(resumed.partial_fit(X[150:])) == _state(make().fit(X))


@pytest.mark.parametrize("make, counts, stop, splits", [
    # phi's and psi's sums stop at k = 54: the quiet steps pass it first, then the rejections
    (lambda: sf.ScoreLord(omega=sf.Schedule.rai(0.05, 0.5, 0.5)),
     lambda proc: (proc.t_ - proc.n_rejections_, proc.n_rejections_), 54, (30, 60, 150, 260)),
    # (1 - q) * q**(t-1) is 0.0 from t = 1075
    (lambda: sf.ELond(gamma=sf.Schedule.geometric(0.5)),
     lambda proc: (proc.t_,), 1074, (1000, 1074, 1075, 1100)),
], ids=["rai", "geometric"])
def test_resume_on_each_side_of_where_the_terms_stop(make, counts, stop, splits):
    rng = np.random.default_rng(3)
    n = max(splits) + 100
    # a quiet stretch, then a run of strong evidence: both counts pass the stop
    X = np.where(np.arange(n) < n // 2, rng.uniform(0.0, 2.0, n), 1e300)
    whole = make().fit(X)
    assert min(counts(whole)) > stop
    whole = _state(whole)
    for k in splits:
        resumed = pickle.loads(pickle.dumps(make().fit(X[:k]))).partial_fit(X[k:])
        assert _state(resumed) == whole, k
        stepped = pickle.loads(pickle.dumps(_steps(make(), X[:k], [None] * k, 0)))
        assert _state(_steps(stepped, X[k:], [None] * (n - k), k)) == whole, k
