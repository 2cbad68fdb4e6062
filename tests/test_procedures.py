import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scorefdr as sf
from scorefdr.procedures import _NO_EVIDENCE, WEALTH_UNDERFLOW_TOL
from helpers import (
    E_PROCEDURE_IDS,
    GAMMA,
    LAMBDA,
    OMEGA,
    P_PROCEDURE_IDS,
    build,
    evidence_for,
    random_e_stream,
    random_p_stream,
)


def test_first_step_budgets():
    # gamma_1 * alpha for LOND, omega_1 * alpha for LORD,
    # omega_1 * (1 - lambda_1) * alpha for SAFFRON
    assert build("e-lond").next_alpha() == pytest.approx(0.025, abs=1e-15)
    assert build("score-lond").next_alpha() == pytest.approx(0.025, abs=1e-15)
    assert build("p-lond").next_alpha() == pytest.approx(0.025, abs=1e-15)
    for pid in ("e-lord", "score-lord", "score-plus-lord", "p-lord"):
        assert build(pid).next_alpha() == pytest.approx(0.0025, abs=1e-15)
    for pid in ("e-saffron", "score-saffron", "score-plus-saffron", "p-saffron"):
        assert build(pid).next_alpha() == pytest.approx(0.00125, abs=1e-15)


def test_score_lond_two_step_trace():
    proc = build("score-lond").fit([100.0, 1.0])
    assert proc.alpha_ == pytest.approx([0.025, 0.0375], abs=1e-12)
    assert list(proc.decision_) == [True, False]
    assert proc.overshoot_[0] == pytest.approx(1.5, abs=1e-12)
    # charged cost at step 1 is (alpha_1 - O_1)_+ = 0
    assert proc.cost_[0] == 0.0
    assert proc.rejections_[-1] == 1

    base = build("e-lond").fit([100.0, 1.0])
    assert base.alpha_ == pytest.approx([0.025, 0.025], abs=1e-15)
    assert proc.alpha_[1] > base.alpha_[1]


def test_score_lord_strong_rejection_trace():
    proc = build("score-lord").fit([1000.0])
    assert proc.alpha_[0] == pytest.approx(0.0025, abs=1e-12)
    assert proc.decision_[0]
    assert proc.overshoot_[0] == pytest.approx(1.5, abs=1e-12)
    assert proc.cost_[0] == 0.0
    assert proc.wealth_[0] == pytest.approx(0.05, abs=1e-15)
    assert proc.next_alpha() == pytest.approx(0.005, abs=1e-12)

    base = build("e-lord").fit([1000.0])
    assert base.cost_[0] == pytest.approx(0.0025, abs=1e-12)
    assert base.wealth_[0] == pytest.approx(0.0475, abs=1e-12)
    assert base.next_alpha() == pytest.approx(0.00475, abs=1e-12)


def test_zero_evidence_never_rejects_evalue_procedures():
    for pid in E_PROCEDURE_IDS:
        proc = build(pid).fit(np.zeros(5))
        assert not proc.decision_.any()
        assert not proc.overshoot_.any()


def test_unit_pvalues_never_reject():
    for pid in P_PROCEDURE_IDS:
        proc = build(pid).fit(np.ones(5))
        assert not proc.decision_.any()


class TestSaffronCost:
    # One-step runs: omega = 0.5 and lambda = 0.5 make the first budget alpha / 4.
    @staticmethod
    def first_cost(pid, alpha_t, e):
        proc = sf.make_procedure(pid, alpha=4.0 * alpha_t, omega=sf.Schedule.constant(0.5),
                                 lam=sf.Schedule.constant(0.5))
        return proc.fit([e]).cost_[0]

    def test_examples(self):
        assert self.first_cost("score-saffron", 0.01, 0.4) == pytest.approx(0.016, abs=1e-15)
        assert self.first_cost("score-saffron", 0.01, 2.0) == 0.0
        assert self.first_cost("e-saffron", 0.01, 0.4) == pytest.approx(0.02, abs=1e-15)

    def test_lambda_domain(self):
        for lam in (1.0, 0.0):
            with pytest.raises(ValueError):
                sf.ScoreSaffron(lam=sf.Schedule("constant", (lam,)))

    @settings(deadline=None)
    @given(
        alpha=st.floats(min_value=1e-6, max_value=0.99),
        lam=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        e=st.floats(min_value=0.0, max_value=1e9),
    )
    def test_score_never_exceeds_baseline(self, alpha, lam, e):
        lam_schedule = sf.Schedule.constant(lam)
        score = sf.ScoreSaffron(alpha=alpha, lam=lam_schedule).fit([e])
        base = sf.ESaffron(alpha=alpha, lam=lam_schedule).fit([e])
        alpha_t = base.alpha_[0]
        assert score.alpha_[0] == alpha_t
        assert 0.0 <= score.cost_[0] <= base.cost_[0]

    @pytest.mark.parametrize("lam", [0.41, 0.47, 0.5, 0.72])
    def test_candidate_threshold_is_free(self, lam):
        # For 0.41, 0.47 and 0.72, lam * (1.0 / lam) rounds below 1, so the
        # continuous penalty alone would charge a few ulp at e = 1.0 / lam.
        lam_schedule = sf.Schedule.constant(lam)
        for pid in ("e-saffron", "score-saffron", "score-plus-saffron"):
            proc = sf.make_procedure(pid, alpha=0.05, lam=lam_schedule).fit([1.0 / lam])
            assert proc.cost_[0] == 0.0, pid


def test_estimator_bound_random_streams():
    rng = np.random.default_rng(11)
    for pid in sf.PROCEDURE_IDS:
        proc = build(pid)
        for _ in range(25):
            proc.fit(evidence_for(pid, rng, 200))
            assert proc.fdp_hat_.max(initial=0.0) <= 0.05 + 1e-12, pid


def test_dominance_exact_on_shared_streams():
    rng = np.random.default_rng(23)
    pairs = [("score-lond", "e-lond"), ("score-lord", "e-lord"), ("score-saffron", "e-saffron")]
    strict = {pair: False for pair in pairs}
    for _ in range(40):
        stream = random_e_stream(rng, 250)
        for pair in pairs:
            score = build(pair[0]).fit(stream)
            base = build(pair[1]).fit(stream)
            assert np.all(score.alpha_ >= base.alpha_), pair
            assert np.all(score.rejections_ >= base.rejections_), pair
            if np.any(score.alpha_ > base.alpha_):
                strict[pair] = True
    assert all(strict.values())


def test_wealth_nonnegative_and_score_plus_release():
    rng = np.random.default_rng(31)
    wealth_tracking = ("e-lord", "score-lord", "e-saffron", "score-saffron",
                       "score-plus-lord", "score-plus-saffron", "p-lord", "p-saffron")
    for _ in range(30):
        e = random_e_stream(rng, 250)
        p = random_p_stream(rng, 250)
        for pid in wealth_tracking:
            proc = build(pid).fit(p if pid.startswith("p-") else e)
            assert proc.wealth_.min() >= -1e-12, pid
        # retroactive release: wealth after each step never drops below the
        # (1 - omega) multiple of the wealth before it
        plus = build("score-plus-lord").fit(e)
        w = np.concatenate(([0.05], plus.wealth_))
        assert np.all(w[1:] >= w[:-1] * (1.0 - 0.05) - 1e-12)


def test_monotonicity_in_evidence():
    rng = np.random.default_rng(47)
    for _ in range(20):
        e = random_e_stream(rng, 150)
        inflated = e.copy()
        mask = rng.random(150) < 0.3
        inflated[mask] *= np.exp(3.0 * rng.random(int(mask.sum())))
        for pid in ("score-plus-lord", "score-plus-saffron"):
            low = build(pid).fit(e)
            high = build(pid).fit(inflated)
            assert np.all(high.alpha_ >= low.alpha_), pid
            assert np.all(high.rejections_ >= low.rejections_), pid

        p = random_p_stream(rng, 150)
        deflated = p.copy()
        mask = rng.random(150) < 0.3
        deflated[mask] *= rng.random(int(mask.sum()))
        for pid in ("p-lord", "p-saffron"):
            weak = build(pid).fit(p)
            strong = build(pid).fit(deflated)
            assert np.all(strong.alpha_ >= weak.alpha_), pid
            assert np.all(strong.rejections_ >= weak.rejections_), pid


class TestStreamContract:
    def test_kind_mismatch(self):
        proc = build("e-lord")
        with pytest.raises(ValueError, match="e-lord consumes 'e' evidence, but the "
                                             "observation gives 'p' evidence"):
            proc.step(sf.Observation(1, 0.3, kind="p"))
        proc = build("p-lord")
        with pytest.raises(ValueError, match="consumes 'p' evidence"):
            proc.step(sf.Observation(1, 5.0, kind="e"))

    def test_non_finite_evidence(self):
        with pytest.raises(ValueError, match="finite"):
            build("e-lord").fit([1.0, np.inf])
        with pytest.raises(ValueError, match="finite"):
            build("e-lord").step(math.nan)

    def test_pvalue_range(self):
        with pytest.raises(ValueError):
            build("p-lord").fit([0.5, 1.4])
        with pytest.raises(ValueError):
            build("p-lord").step(1.4)

    def test_out_of_order_index(self):
        proc = build("e-lord")
        proc.step(sf.Observation(1, 1.0))
        with pytest.raises(ValueError, match="expected index 2"):
            proc.step(sf.Observation(3, 1.0))

    @pytest.mark.parametrize("pid", sf.PROCEDURE_IDS)
    def test_step_matches_arrays(self, pid):
        # a strong first value, so that every procedure rejects at least once
        strong = 1e-6 if pid.startswith("p-") else 1e4
        values = [strong] + evidence_for(pid, np.random.default_rng(12), 200).tolist()
        proc = build(pid)
        results = [proc.step(v) for v in values]
        fitted = build(pid).fit(values)
        for field in sf.StepResult._fields:
            column = [getattr(r, field) for r in results]
            assert column == getattr(fitted, field + "_").tolist(), field
            assert column == getattr(proc, field + "_").tolist(), field
        assert fitted.decision_.any()


# Extreme evidence of each kind, weakest to strongest: zero, subnormal and huge
# e-values; p-values at 1, one half, tiny, subnormal and 0.
EXTREME_E = (0.0, 5e-324, 1.0, 1e300, sf.MAX_EVALUE)
EXTREME_P = (1.0, 0.5, 1e-300, 5e-324, 0.0)
BOLD = sf.Schedule.constant(0.99)
TINY_LAMBDA = sf.Schedule.constant(0.01)
STRONGEST = len(EXTREME_E) - 1


@pytest.mark.parametrize("pid", sf.PROCEDURE_IDS)
@settings(max_examples=25, deadline=None)
@given(runs=st.lists(st.tuples(st.integers(0, STRONGEST), st.integers(1, 1000)),
                     min_size=1, max_size=3),
       repeat=st.integers(1, 3), bold=st.booleans())
@example(runs=[(STRONGEST, 3000)], repeat=1, bold=True)
@example(runs=[(0, 1500), (STRONGEST, 1500)], repeat=1, bold=True)
@example(runs=[(STRONGEST, 1), (0, 1)], repeat=1500, bold=True)
@example(runs=[(STRONGEST, 1), (0, 1)], repeat=1500, bold=False)
def test_step_invariants_on_extreme_streams(pid, runs, repeat, bold):
    """alpha, overshoot, cost and fdp_hat stay >= 0 and never NaN, and the
    rejection count rises from 0 by exactly the decisions, on fit and step."""
    atoms = EXTREME_P if pid.startswith("p-") else EXTREME_E
    values = [atoms[i] for i, length in runs for _ in range(length)] * repeat
    schedules = dict(gamma=BOLD, omega=BOLD, lam=TINY_LAMBDA) if bold else {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # alpha_t >= 1 is expected here
        fitted = build(pid, **schedules).fit(values)
        stepper = build(pid, **schedules)
        rows = [stepper.step(v) for v in values]
    paths = {
        "fit": {name: getattr(fitted, name + "_") for name in sf.StepResult._fields},
        "step": dict(zip(sf.StepResult._fields, map(np.asarray, zip(*rows)))),
    }
    for path, columns in paths.items():
        for name in ("alpha", "overshoot", "cost", "fdp_hat"):
            assert np.all(columns[name] >= 0.0), (path, name)  # NaN fails this too
        before = columns["rejections_before"]
        assert before[0] == 0, path
        assert np.array_equal(np.diff(before), columns["decision"][:-1]), path


def _fit_all(pid, values):
    """``pid`` with the default schedules fitted on ``values``, with warnings
    raised as errors; its wealth never falls below ``WEALTH_UNDERFLOW_TOL``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        proc = sf.make_procedure(pid).fit(values)
    assert not np.any(proc.wealth_ < WEALTH_UNDERFLOW_TOL)
    return proc


class TestExtremeInputs:
    """Deliberate behaviour at ``MAX_EVALUE``, at p = 0 and p = 1, and once
    ``alpha_t`` reaches 1 (FORMATS.md, "Extreme inputs")."""

    def test_score_lord_budget_grows_past_one(self):
        # every step rejects at no cost, so alpha_t = omega * (R_{t-1} + 1) * alpha
        proc = sf.make_procedure("score-lord")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for t in range(1, 1001):
                proc.step(sf.MAX_EVALUE)
                assert len(caught) == (t >= 400), t
        assert issubclass(caught[0].category, RuntimeWarning)
        assert "reached 1 at step 400; " in str(caught[0].message)
        t = np.arange(1, 1001)
        assert proc.alpha_.tobytes() == (0.05 * t * 0.05).tobytes()
        assert proc.decision_.all()
        assert not np.any(proc.wealth_ < WEALTH_UNDERFLOW_TOL)

    def test_both_history_policies_name_the_step(self):
        stream = np.full(1000, sf.MAX_EVALUE)
        messages = []
        for method in ("fit", "_fit_decisions"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                getattr(sf.make_procedure("score-lord"), method)(stream)
            messages.append([str(w.message) for w in caught])
        assert messages[0] == messages[1] == [
            "score-lord: per-step budget alpha_t=1 reached 1 at step 400; the decision rule "
            "remains well defined but the budget is no longer a probability"]

    @pytest.mark.parametrize("pid, last", [("e-lond", 1029), ("score-lond", 1030)])
    def test_lond_stops_once_gamma_underflows(self, pid, last):
        # geometric(0.5) gamma drives alpha_t subnormal, then 1 / alpha_t > MAX_EVALUE
        proc = _fit_all(pid, np.full(3000, sf.MAX_EVALUE))
        assert proc.decision_[:last].all() and not proc.decision_[last:].any()
        assert proc.alpha_[-1] == 0.0

    def test_score_lond_fdp_hat_goes_subnormal(self):
        fdp_hat = _fit_all("score-lond", np.full(3000, sf.MAX_EVALUE)).fdp_hat_[-1]
        assert 0.0 < fdp_hat < sys.float_info.min
        assert fdp_hat == pytest.approx(1.04e-311, rel=0.01)

    @pytest.mark.parametrize("pid", P_PROCEDURE_IDS)
    @pytest.mark.parametrize("values", [[0.0, 1.0] * 500, [1.0] * 500 + [0.0] * 500],
                             ids=["alternating", "ones-then-zeros"])
    def test_p_at_zero_and_one(self, pid, values):
        proc = _fit_all(pid, values)
        assert np.array_equal(proc.decision_, np.asarray(values) == 0.0)


def _at_threshold(pid, alpha_t):
    """Evidence exactly at the rejection threshold of the budget ``alpha_t``, and
    one ulp past it on the side that does not reject."""
    if pid.startswith("p-"):
        return alpha_t, float(np.nextafter(alpha_t, 1.0))
    e = 1.0 / alpha_t
    return e, float(np.nextafter(e, 0.0))


class TestDecisionBoundary:
    """A tie rejects, ``e_t == fl(1 / alpha_t)`` or ``p_t == alpha_t``, and one ulp
    past it does not; on every path, at step 1 and after a prefix."""

    @pytest.mark.parametrize("prefix", [0, 50])
    @pytest.mark.parametrize("pid", sf.PROCEDURE_IDS)
    def test_tie_rejects_and_one_ulp_past_does_not(self, pid, prefix):
        X = evidence_for(pid, np.random.default_rng(prefix), prefix)
        engine_alpha = build(pid).fit(X).next_alpha()
        # the oracle re-sums its budget, so its threshold is found from its own alpha_t
        oracle_alpha = sf.naive_trajectory(build(pid), np.append(X, 1.0)).alpha[-1]
        for alpha_t in (engine_alpha, oracle_alpha):
            assert 0.0 < alpha_t < 1.0
        for value, rejects in zip(_at_threshold(pid, engine_alpha), (True, False)):
            assert build(pid).fit(X).step(value).decision is rejects, "step"
            assert build(pid).fit(np.append(X, value)).decision_[-1] == rejects, "fit"
        for value, rejects in zip(_at_threshold(pid, oracle_alpha), (True, False)):
            trace = sf.naive_trajectory(build(pid), np.append(X, value))
            assert trace.decision[-1] == rejects, "naive_trajectory"

    @pytest.mark.parametrize("wealth, raises", [(-1e-9, True), (-1e-13, False)])
    @pytest.mark.parametrize("pid", [pid for pid in sf.PROCEDURE_IDS if "lond" not in pid])
    def test_wealth_underflow_tolerance(self, pid, wealth, raises):
        proc = build(pid).fit(evidence_for(pid, np.random.default_rng(0), 50))
        t, rej, pot, charged, _, lam, warned = proc._state
        fdp = proc.alpha - wealth
        proc._state = (t, rej, pot, charged, fdp, lam, warned)
        if raises:
            message = f"{pid}: wealth underflow ({proc.alpha - fdp!r}) after step 50; "
            with pytest.raises(RuntimeError, match="^" + re.escape(message)):
                proc._run(_NO_EVIDENCE, ())
            assert math.isnan(proc.next_alpha())
        else:
            proc._run(_NO_EVIDENCE, ())
            assert proc.next_alpha() == 0.0


class TestRunStream:
    def test_empty_stream(self):
        traj = build("e-lord").fit([]).trajectory()
        assert len(traj) == 0 and traj.n_rejections == 0

    def test_no_rejections_when_evidence_weak(self):
        traj = build("e-lord").fit(np.full(50, 1.1)).trajectory()
        assert traj.n_rejections == 0
        assert not traj.decision.any()

    def test_multidimensional_evidence_rejected(self):
        proc = build("score-lord")
        with pytest.raises(ValueError, match=r"1-d, got shape \(2, 2\)"):
            proc.fit([[1000.0, 0.3], [2.0, 400.0]])
        with pytest.raises(ValueError, match=r"1-d, got shape \(\)"):
            proc.partial_fit(1000.0)
        assert proc.t_ == 0


class TestEstimatorProtocol:
    def test_partial_fit_equals_fit(self):
        rng = np.random.default_rng(8)
        stream = random_e_stream(rng, 100)
        whole = build("score-plus-saffron").fit(stream)
        split = build("score-plus-saffron").fit(stream[:40]).partial_fit(stream[40:])
        assert np.array_equal(whole.alpha_, split.alpha_)
        assert np.array_equal(whole.fdp_hat_, split.fdp_hat_)

    def test_get_set_params_and_clone(self):
        proc = sf.ScoreSaffron(alpha=0.1, omega=OMEGA, lam=LAMBDA)
        params = proc.get_params()
        assert params["alpha"] == 0.1 and params["lam"] == LAMBDA
        other = proc.clone()
        assert other.get_params() == params and other.t_ == 0
        proc.set_params(alpha=0.2)
        assert proc.alpha == 0.2 and proc.t_ == 0
        with pytest.raises(ValueError, match="invalid parameter"):
            proc.set_params(beta=1.0)

    def test_set_params_resets_state(self):
        proc = build("e-lord").fit([1.0, 2.0])
        proc.set_params(alpha=0.1)
        assert proc.t_ == 0 and len(proc.alpha_) == 0

    def test_predict_is_stateless(self):
        rng = np.random.default_rng(9)
        stream = random_e_stream(rng, 60)
        proc = build("score-lord").fit(stream[:10])
        decisions = proc.predict(stream)
        assert decisions.shape == (60,)
        assert proc.t_ == 10

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            sf.ELord(alpha=1.0)
        with pytest.raises(ValueError):
            sf.ELord(alpha=0.0)

    @pytest.mark.parametrize("alpha", ["0.05", None, b"0.05", 1j, [0.05], True])
    def test_non_real_alpha_rejected(self, alpha):
        message = f"alpha must be in (0, 1), got {alpha!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sf.make_procedure("score-lord", alpha=alpha)
        proc = build("score-lord")
        with pytest.raises(ValueError, match=re.escape(message)):
            proc.set_params(alpha=alpha)

    @pytest.mark.parametrize("alpha", [np.float64(0.25), np.float32(0.25), Fraction(1, 4)])
    def test_real_alpha_runs_as_its_float(self, alpha):
        X = [30.0, 0.5, 400.0, 2.0]
        proc = sf.make_procedure("score-lord", alpha=alpha).fit(X)
        assert proc.alpha is alpha
        reference = sf.make_procedure("score-lord", alpha=float(alpha)).fit(X)
        assert proc.alpha_.tobytes() == reference.alpha_.tobytes()
        assert proc.wealth_.tobytes() == reference.wealth_.tobytes()

    def test_repr_shows_params(self):
        assert "alpha=0.05" in repr(build("e-lord"))


def test_make_procedure_registry():
    assert len(sf.PROCEDURE_IDS) == 11
    for pid in sf.PROCEDURE_IDS:
        proc = sf.make_procedure(pid, alpha=0.07, gamma=GAMMA, omega=OMEGA, lam=LAMBDA)
        assert proc.procedure_id == pid
        assert proc.alpha == 0.07
    with pytest.raises(ValueError, match="unknown procedure"):
        sf.make_procedure("lond-e")


def test_large_alpha_warns_once():
    stream = np.full(450, 1e9)
    with pytest.warns(RuntimeWarning, match="reached 1"):
        proc = build("score-plus-lord").fit(stream)
    assert proc.alpha_.max() >= 1.0
    # decisions remain well defined past the warning
    assert proc.decision_.all()


@pytest.mark.parametrize("entry", ["fit", "partial_fit", "step"])
def test_large_alpha_warning_names_the_caller(entry):
    stream = np.full(450, 1e9)
    proc = sf.ScorePlusLord()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if entry == "fit":
            proc.fit(stream)
        elif entry == "partial_fit":
            proc.partial_fit(stream[:200]).partial_fit(stream[200:])
        else:
            for value in stream:
                proc.step(value)
    assert len(caught) == 1
    assert caught[0].category is RuntimeWarning and "reached 1" in str(caught[0].message)
    assert caught[0].filename == __file__


@pytest.mark.parametrize("chunk", [None, 64, 1])
def test_state_matches_history_when_a_step_raises(chunk, monkeypatch):
    # With warnings as errors the alpha_t >= 1 step (step 401) raises after
    # it is recorded; counters, labels and the held budget still agree with
    # a clean run of the same steps, also when the history was packed
    # before the raise.
    stream = np.full(450, 1e9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        clean = sf.ScorePlusLord().fit(stream, np.ones(450, bool))
    first = int(np.argmax(clean.alpha_ >= 1.0))
    if chunk is not None:
        monkeypatch.setattr(sf.procedures, "_CHUNK", chunk)
    proc = sf.ScorePlusLord()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="reached 1"):
            proc.partial_fit(stream, np.ones(450, bool))
    assert proc.t_ == first + 1 == len(proc.trajectory().truth)
    assert proc.alpha_.tobytes() == clean.alpha_[:first + 1].tobytes()
    assert proc.next_alpha() == clean.alpha_[first + 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # warned once already: no second warning
        proc.partial_fit(stream[first + 1:], np.ones(450 - first - 1, bool))
    assert proc.trajectory().alpha.tobytes() == clean.alpha_.tobytes()


def test_rai_scheduled_procedure_runs():
    rng = np.random.default_rng(5)
    rai = sf.Schedule.rai(0.05, 0.5, 0.5)
    proc = sf.ScoreLord(alpha=0.05, omega=rai).fit(random_e_stream(rng, 300))
    assert proc.fdp_hat_.max() <= 0.05 + 1e-12
    assert proc.wealth_.min() >= -1e-12


@pytest.mark.parametrize("pid", sf.PROCEDURE_IDS)
def test_constant_schedule_read_matches_formula_call(pid, monkeypatch):
    # The kernel reads a constant schedule's value instead of its formula's
    # terms, tabulated; forcing the table must give the same trajectory bytes.
    evidence = evidence_for(pid, np.random.default_rng(8), 600)
    gamma = sf.Schedule.constant(0.02)  # so that the LOND rules read a constant too

    def run():
        proc = build(pid, gamma=gamma).fit(evidence)
        stepper = proc.clone()
        return proc, proc.trajectory(), [stepper.step(value) for value in evidence[:50]]

    # the rule holds (..., weight, weight table, lambda, lambda table, alpha)
    read, read_trajectory, read_steps = run()
    assert read._rule[6] is None and read._rule[8] is None
    monkeypatch.setitem(sf.schedules.KINDS, "constant",
                        sf.schedules.KINDS["constant"]._replace(constant=False))
    called, called_trajectory, called_steps = run()
    assert called._rule[6] is not None
    assert (called._rule[8] is not None) == (called.allocation == "saffron")
    for name in ("alpha", "decision", "overshoot", "cost", "rejections", "fdp_hat", "wealth"):
        assert (getattr(read_trajectory, name).tobytes()
                == getattr(called_trajectory, name).tobytes()), name
    assert read_steps == called_steps
    assert read.next_alpha() == called.next_alpha()


@pytest.mark.parametrize("pid", ["e-saffron", "score-saffron", "score-plus-saffron"])
@pytest.mark.parametrize("q, first_zero", [(0.5, 1075), (0.01, 163)])
def test_a_lambda_of_zero_makes_no_candidate(pid, q, first_zero):
    # A geometric lambda is exactly 0.0 from step ``first_zero`` on; the kernel
    # and the oracle each read it as "no e-value is a candidate", with no
    # division by zero, and agree as in criterion 4 (e-values capped at 1e4).
    lam = sf.Schedule.geometric(q)
    assert sf.weight_at(lam, first_zero, 0) == 0.0 < sf.weight_at(lam, first_zero - 1, 0)
    stream = np.minimum(random_e_stream(np.random.default_rng(16), first_zero + 120), 1e4)
    proc = build(pid, lam=lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trajectory = proc.fit(stream).trajectory()
        trace = sf.naive_trajectory(proc, stream)
    gaps = sf.trace_divergence(trace, trajectory)
    assert gaps["decision"] == 0 and gaps["rejections"] == 0, gaps
    assert max(v for k, v in gaps.items() if k not in ("decision", "rejections")) <= 1e-10, gaps
    assert proc.t_ == len(stream)
