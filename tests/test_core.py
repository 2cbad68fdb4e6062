import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scorefdr as sf
from scorefdr import Observation

finite_nonneg = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
HALF = sf.Schedule.constant(0.5)

# The overshoot, refund and FDP-estimate arithmetic lives in the engine, so
# these tests read it off one- and two-step runs.  With a constant weight of
# 0.5 the first budget is exactly alpha / 2.


def first_step(pid, alpha_t, e):
    return sf.make_procedure(pid, alpha=2.0 * alpha_t, gamma=HALF, omega=HALF).fit([e])


def test_overshoot_examples():
    assert first_step("score-lond", 0.025, 100.0).overshoot_[0] == pytest.approx(1.5, abs=1e-12)
    assert first_step("score-lond", 0.05, 10.0).overshoot_[0] == 0.0
    # boundary: alpha * e = 1 exactly gives zero excess
    assert first_step("score-lond", 0.1, 10.0).overshoot_[0] == 0.0


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5, math.nan])
def test_overshoot_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError):
        sf.ScoreLond(alpha=alpha)


def test_overshoot_rejects_negative_evidence():
    with pytest.raises(ValueError):
        sf.ScoreLond().fit([-1.0])
    with pytest.raises(ValueError):
        sf.ScoreLond().step(-1.0)


@pytest.mark.parametrize("value", ["2.0", None, 1j])
def test_non_numeric_evidence_has_one_error(value):
    message = f"evidence must be a finite real in [0, inf), got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        sf.ScoreLord().step(value)
    with pytest.raises(ValueError, match=re.escape(message)):
        Observation(1, value)


@pytest.mark.parametrize("value", [2, 2.0, True, np.float64(2.0), np.float32(2.0), np.int64(2)])
def test_real_scalar_evidence_steps(value):
    by_value = sf.ScoreLord().step(value)
    by_observation = sf.ScoreLord().step(Observation(1, value))
    assert by_value == by_observation == sf.ScoreLord().step(float(value))


def test_refund_examples():
    assert first_step("score-lord", 0.05, 1.0).cost_[0] == 0.05
    assert first_step("score-lord", 0.05, 22.0).cost_[0] == 0.0
    # step 1 of the strong-rejection worked trace: refund swamps the charge
    assert sf.ScoreLord().fit([1000.0]).cost_[0] == 0.0


@settings(deadline=None)
@given(alpha=st.floats(min_value=1e-6, max_value=0.99), e=finite_nonneg)
def test_refund_never_exceeds_cost(alpha, e):
    score = sf.ScoreLord(alpha=alpha).fit([e])
    base = sf.ELord(alpha=alpha).fit([e])
    assert score.alpha_[0] == base.alpha_[0]
    assert 0.0 <= score.cost_[0] <= base.cost_[0]


def test_fdp_local_examples():
    assert sf.ELond().fit([100.0]).fdp_hat_[0] == pytest.approx(0.025, abs=1e-15)
    # costs 0.025 then 0.025 / (R_1 + 1) with R_1 = 1
    assert sf.ELond().fit([100.0, 1.0]).fdp_hat_[1] == pytest.approx(0.0375, abs=1e-15)
    rng = np.random.default_rng(4)
    e = np.exp(3.0 * rng.standard_normal(300))
    for pid in ("e-lond", "score-lond", "e-lord", "score-lord", "e-saffron", "score-saffron"):
        proc = sf.make_procedure(pid).fit(e)
        expected = np.cumsum(proc.cost_ / (proc.rejections_before_ + 1.0))
        assert np.allclose(proc.fdp_hat_, expected, rtol=1e-12, atol=1e-15), pid


@settings(deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=30))
def test_fdp_local_zero_rejections_is_plain_sum(e):
    proc = sf.ELord().fit(e)
    assert not proc.decision_.any()
    final = proc.fdp_hat_[-1] if e else 0.0
    assert final == pytest.approx(proc.cost_.sum(), rel=1e-12, abs=1e-12)


def test_fdp_global_examples():
    assert sf.PLord().fit([1.0]).fdp_hat_[0] == pytest.approx(0.0025, abs=1e-15)
    rng = np.random.default_rng(5)
    e = np.exp(3.0 * rng.standard_normal(300))
    p = rng.random(300) ** 4
    for pid in ("score-plus-lord", "score-plus-saffron", "p-lord", "p-saffron"):
        proc = sf.make_procedure(pid).fit(p if pid.startswith("p-") else e)
        expected = np.cumsum(proc.cost_) / np.maximum(proc.rejections_, 1)
        assert np.allclose(proc.fdp_hat_, expected, rtol=1e-12, atol=1e-15), pid


def test_indicator_bound_on_grid():
    # I(y >= 1) <= y - (y - 1)_+ over the whole grid, equality past 1
    y = np.arange(10001) / 1000.0
    indicator = (y >= 1.0).astype(float)
    bound = y - np.maximum(y - 1.0, 0.0)
    assert np.all(indicator <= bound)
    assert np.all(bound[y >= 1.0] == 1.0)


class TestObservation:
    def test_valid(self):
        obs = Observation(3, 2.5, kind="e", truth=True)
        assert obs.index == 3 and obs.evidence == 2.5 and obs.truth

    def test_p_kind_range(self):
        Observation(1, 1.0, kind="p")
        Observation(1, 0.0, kind="p")
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Observation(1, 1.2, kind="p")

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -0.5])
    def test_bad_evidence(self, bad):
        with pytest.raises(ValueError):
            Observation(1, bad, kind="e")

    def test_bad_index_and_kind(self):
        with pytest.raises(ValueError):
            Observation(0, 1.0)
        with pytest.raises(ValueError):
            Observation(1, 1.0, kind="q")

    @pytest.mark.parametrize("bad", ["0", "yes", 2, 0.5, -1, math.nan])
    def test_truth_must_be_binary(self, bad):
        with pytest.raises(ValueError, match=f"truth must be .*, got {bad!r}"):
            Observation(1, 2.0, truth=bad)

    @pytest.mark.parametrize("label, expected", [
        (None, None), (True, True), (False, False), (np.bool_(True), True),
        (np.bool_(False), False), (1, True), (0, False), (1.0, True), (np.int64(0), False),
    ])
    def test_truth_accepts_bools_and_binary_numbers(self, label, expected):
        proc = sf.ScoreLord()
        proc.step(Observation(1, 2.0, truth=label))
        truth = proc.trajectory().truth
        assert truth is None if expected is None else truth.tolist() == [expected]

    def test_dataclass_behaviour(self):
        obs = Observation(3, 2.5, kind="e", truth=True)
        same = Observation(3, 2.5, "e", True)
        assert obs == same and hash(obs) == hash(same)
        assert obs != Observation(3, 2.5, kind="e", truth=False)
        assert repr(obs) == "Observation(index=3, evidence=2.5, kind='e', truth=True)"
        assert vars(obs) == {"index": 3, "evidence": 2.5, "kind": "e", "truth": True}
        assert dataclasses.astuple(obs) == (3, 2.5, "e", True)
        assert pickle.loads(pickle.dumps(obs)) == obs
        moved = dataclasses.replace(obs, index=4)
        assert moved == Observation(4, 2.5, kind="e", truth=True)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            dataclasses.replace(obs, kind="p")
        for name in ("index", "evidence", "kind", "truth", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obs, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del obs.index
        assert Observation(1, 2.0) == Observation(index=1, evidence=2.0, kind="e", truth=None)

    def test_checks_run_in_field_order(self):
        with pytest.raises(ValueError, match="index must be a positive integer, got 0"):
            Observation(0, -1.0, kind="q", truth=5)
        with pytest.raises(ValueError, match="kind must be one of"):
            Observation(1, -1.0, kind="q", truth=5)
        with pytest.raises(ValueError, match=r"evidence must be a finite real in \[0, inf\)"):
            Observation(1, -1.0, kind="e", truth=5)
        with pytest.raises(ValueError, match="truth must be a bool, 0 or 1, got 5"):
            Observation(1, 1.0, kind="e", truth=5)
