"""The library's input contract: every entry point either runs or raises a
``ValueError`` that names the offending parameter, and an array error names
the first bad index.  Nothing escapes as a ``TypeError`` or a numpy error."""

import math
import re
import sys
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scorefdr as sf
from scorefdr import simulation
from scorefdr._validation import EVIDENCE
from scorefdr.calibration import (CalibrationSet, LikelihoodRatioSpec, ar1_conditional_pvalue,
                                  ar1_marginal_pvalue, conformal_evalue, lr_evalue, vovk_p_to_e)
from scorefdr.schedules import weight_at
from scorefdr.simulation import aggregate
from helpers import build


class TestObservationIndex:
    @pytest.mark.parametrize("index", ["x", None, True, np.bool_(True), 2.5, 0, -1, math.inf])
    def test_refused(self, index):
        message = f"index must be a positive integer, got {index!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sf.Observation(index, 1.0)

    @pytest.mark.parametrize("index", [3, np.int64(3), 3.0])
    def test_whole_numbers_pass_as_int(self, index):
        obs = sf.Observation(index, 1.0)
        assert obs.index == 3 and type(obs.index) is int


class TestWeightAtRejections:
    @pytest.mark.parametrize("rejections", [None, "1", True, 1.5, -1, math.nan])
    def test_refused(self, rejections):
        message = f"rejections must be a non-negative integer, got {rejections!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            weight_at(sf.Schedule.constant(0.5), 3, rejections)

    def test_whole_numbers_pass(self):
        rai = sf.Schedule.rai(0.05, 0.5, 0.5)
        assert weight_at(rai, 4.0, 1.0) == weight_at(rai, 4, np.int64(1)) == weight_at(rai, 4, 1)


@pytest.mark.parametrize("build_it, message", [
    (lambda: sf.DgpConfig("gaussian_mixture", horizon="x"),
     "horizon must be a positive integer, got 'x'"),
    (lambda: sf.DgpConfig("gaussian_mixture", horizon=None),
     "horizon must be a positive integer, got None"),
    (lambda: sf.DgpConfig("gaussian_mixture", pi1="0.3"), "pi1 must be in [0, 1], got '0.3'"),
    (lambda: sf.DgpConfig("ar_exponential", rho="a"), "rho must be in [0, inf), got 'a'"),
    (lambda: sf.DgpConfig("ar1_gaussian", phi0="a"), "phi0 must be in (-1, 1), got 'a'"),
    (lambda: sf.DgpConfig("ar1_gaussian", phi0=1.5), "phi0 must be in (-1, 1), got 1.5"),
    (lambda: sf.DgpConfig("ar_exponential", mu_set=(3.0, 0.5)),
     "mu_set must be a finite real in (1, inf), got 0.5 at index 1"),
    (lambda: sf.DgpConfig("ar_exponential", mu_set=()),
     "mu_set must be a non-empty 1-d list, got ()"),
    (lambda: LikelihoodRatioSpec("gaussian_pair", null_var="a"),
     "null_var (one of the variances) must be in (0, inf), got 'a'"),
    (lambda: LikelihoodRatioSpec("exponential_scale", scale=math.nan),
     "scale must be in (1, inf), got nan"),
    (lambda: LikelihoodRatioSpec("gaussian_pair", null_mean=math.nan),
     "null_mean must be in (-inf, inf), got nan"),
    (lambda: LikelihoodRatioSpec("gaussian_pair", alt_mean=math.inf),
     "alt_mean must be in (-inf, inf), got inf"),
    (lambda: LikelihoodRatioSpec("ar1_gaussian", phi0=-math.inf),
     "phi0 must be in (-inf, inf), got -inf"),
    (lambda: LikelihoodRatioSpec("ar1_gaussian", phi1=math.nan),
     "phi1 must be in (-inf, inf), got nan"),
], ids=["horizon-str", "horizon-none", "pi1", "rho", "phi0-str", "phi0-range", "mu_set",
        "mu_set-empty", "null_var", "scale", "null_mean", "alt_mean", "lr-phi0", "lr-phi1"])
def test_config_parameter_named(build_it, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_it()


def test_whole_float_horizon_is_stored_as_int():
    dgp = sf.DgpConfig("gaussian_mixture", horizon=20.0)
    assert dgp.horizon == 20 and type(dgp.horizon) is int
    report = sf.replicate(dgp, build("e-lord"), n_reps=1)
    assert report.checkpoints.tolist() == list(range(1, 21))


@pytest.mark.parametrize("name, value", [
    ("omega", "constant,0.05"), ("omega", 0.05), ("lam", "0.5"), ("gamma", [0.5]),
])
def test_schedule_parameter_must_be_a_schedule(name, value):
    pid = "score-lond" if name == "gamma" else "score-saffron"
    message = f"{name} must be a Schedule, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sf.make_procedure(pid, **{name: value})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(pid).set_params(**{name: value})


class TestAggregate:
    DECISION = np.array([True, False, True])
    TRUTH = np.array([True, False, False])

    @pytest.mark.parametrize("checkpoints, message", [
        ([0], "checkpoints must be indices in [1, 3], got [0]"),
        ([3, 1], "checkpoints must be strictly increasing, got [3, 1]"),
        ([4], "checkpoints must be indices in [1, 3], got [4]"),
        ([], "checkpoints must be indices in [1, 3], got []"),
        ([1.0, 2.0], "checkpoints must be integers, got [1.0, 2.0]"),
        ([[1, 2]], "checkpoints must be integers, got [[1, 2]]"),
    ])
    def test_checkpoints_refused(self, checkpoints, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            aggregate([(self.DECISION, self.TRUTH)], checkpoints, build("e-lord"))

    def test_checkpoints_checked_against_every_run(self):
        runs = [(self.DECISION, self.TRUTH), (self.DECISION[:2], self.TRUTH[:2])]
        with pytest.raises(ValueError, match=re.escape("indices in [1, 2], got [3]")):
            aggregate(runs, [3], build("e-lord"))

    def test_run_lengths_must_agree(self):
        runs = [(self.DECISION, self.TRUTH), (self.DECISION, self.TRUTH[:2])]
        with pytest.raises(ValueError, match=re.escape("runs[1]: 3 decisions but 2 labels")):
            aggregate(runs, [1], build("e-lord"))

    @pytest.mark.parametrize("decision, truth, message", [
        ([True, True, False], [2, 0, 0], "runs[1] truth must be a bool, 0 or 1, got 2 at index 0"),
        ([True, True, False], [0.5, 0, 0],
         "runs[1] truth must be a bool, 0 or 1, got 0.5 at index 0"),
        ([1, 0, 3], [1, 0, 0], "runs[1] decision must be a bool, 0 or 1, got 3 at index 2"),
        ([1.0, 0.0, np.nan], [1, 0, 0],
         "runs[1] decision must be a bool, 0 or 1, got nan at index 2"),
    ], ids=["truth-two", "truth-half", "decision-three", "decision-nan"])
    def test_labels_judged_by_the_label_rule(self, decision, truth, message):
        runs = [(self.DECISION, self.TRUTH), (np.array(decision), np.array(truth))]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            aggregate(runs, [3], build("e-lord"))

    @pytest.mark.parametrize("run", [
        (None, None), 1, (DECISION, TRUTH, TRUTH), (DECISION.reshape(1, 3), TRUTH.reshape(1, 3)),
        (DECISION, TRUTH[0]), ("101", "100"),
    ], ids=["nones", "int", "triple", "two-d", "scalar-truth", "strings"])
    def test_run_must_be_a_pair_of_1d_sequences(self, run):
        message = "runs[1] must be a (decision, truth) pair of 1-d sequences, got "
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            aggregate([(self.DECISION, self.TRUTH), run], [3], build("e-lord"))

    @pytest.mark.parametrize("runs", [None, 3])
    def test_runs_must_be_iterable(self, runs):
        message = f"runs must be an iterable of (decision, truth) pairs, got {runs!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            aggregate(runs, [3], build("e-lord"))

    def test_zero_one_labels_aggregate_as_bools(self):
        as_bools = aggregate([(self.DECISION, self.TRUTH)], [1, 2, 3], build("e-lord"))
        as_ints = aggregate([(self.DECISION.astype(int), self.TRUTH.astype(float).tolist())],
                            [1, 2, 3], build("e-lord"))
        for name in ("fdr", "fdr_se", "power", "power_se"):
            assert getattr(as_ints, name).tobytes() == getattr(as_bools, name).tobytes()

    def test_boolean_arrays_are_not_rejudged(self, monkeypatch):
        monkeypatch.setattr(simulation, "check_truth", None)  # a call would raise
        aggregate([(self.DECISION, self.TRUTH)], [3], build("e-lord"))


@pytest.mark.parametrize("call, message", [
    (lambda: vovk_p_to_e([0.5, -1.0]), "p must be a finite real in (0, 1], got -1.0 at index 1"),
    (lambda: vovk_p_to_e(0.0), "p must be a finite real in (0, 1], got 0.0"),
    (lambda: conformal_evalue([1.0, 2.0, math.nan], CalibrationSet([1.0])),
     "test_score must be a finite real in [0, inf), got nan at index 2"),
    (lambda: CalibrationSet([0.5, 1.0, -2.0]),
     "scores must be a finite real in [0, inf), got -2.0 at index 2"),
    (lambda: CalibrationSet([[0.5, 1.0], [math.inf, 0.0]]),
     "scores must be a finite real in [0, inf), got inf at index (1, 0)"),
    (lambda: build("score-lord").fit([1.0, 2.0, -0.5]),
     "X must be a finite real in [0, inf), got -0.5 at index 2"),
    (lambda: build("p-lord").partial_fit([0.5, 1.5]),
     "X must be a finite real in [0, 1], got 1.5 at index 1"),
    (lambda: build("score-lord").fit("abc"), "X must be an array of reals, got 'abc'"),
    (lambda: lr_evalue(LikelihoodRatioSpec("exponential_scale"), [1.0, 1.0], context=[1.0, 0.0]),
     "eta must be a finite real in (0, inf), got 0.0 at index 1"),
    (lambda: lr_evalue(LikelihoodRatioSpec("gaussian_pair"), [0.0, math.inf]),
     "x must be a finite real in (-inf, inf), got inf at index 1"),
    (lambda: vovk_p_to_e("0.5"), "p must be an array of reals, got '0.5'"),
    (lambda: vovk_p_to_e([b"0.5"]), "p must be an array of reals, got [b'0.5']"),
    (lambda: build("score-lord").fit(["1.0", "2.0"]),
     "X must be an array of reals, got ['1.0', '2.0']"),
    # a complex number is not a real either, even with a zero imaginary part
    (lambda: build("score-lord").fit([1j]), "X must be an array of reals, got [1j]"),
    (lambda: build("p-lord").fit(np.array([0.5, 0.25], dtype=complex)),
     "X must be an array of reals, got array([0.5 +0.j, 0.25+0.j])"),
    (lambda: vovk_p_to_e(0.5 + 0j), "p must be an array of reals, got (0.5+0j)"),
    (lambda: conformal_evalue([1.0, 2j], CalibrationSet([1.0])),
     "test_score must be an array of reals, got [1.0, 2j]"),
    (lambda: lr_evalue(LikelihoodRatioSpec("gaussian_pair"), [1.0, 1 + 0j]),
     "x must be an array of reals, got [1.0, (1+0j)]"),
    (lambda: lr_evalue(LikelihoodRatioSpec("ar1_gaussian"), 1.0, context=1j),
     "context must be an array of reals, got 1j"),
], ids=["vovk", "vovk-scalar", "conformal", "calibration-set", "calibration-set-2d", "fit",
        "partial_fit", "fit-str", "lr-eta", "lr-x", "vovk-numeric-str", "vovk-bytes",
        "fit-numeric-str", "fit-complex", "fit-complex-real-valued", "vovk-complex",
        "conformal-complex", "lr-x-complex", "lr-context-complex"])
def test_array_error_names_first_bad_index(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_integer_arrays_and_fractions_pass_as_reals():
    assert vovk_p_to_e(np.array([1], dtype=np.int32)).tolist() == vovk_p_to_e([1.0]).tolist()
    assert build("score-lord").fit([Fraction(1, 2), 3]).t_ == 2


@pytest.mark.parametrize("family, name", [("exponential_scale", "eta"),
                                          ("ar1_gaussian", "context")])
def test_lr_evalue_shape_mismatch_names_both(family, name):
    message = f"x and {name} must broadcast together, got shapes (2,) and (3,)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        lr_evalue(LikelihoodRatioSpec(family), [1.0, 2.0], context=[1.0, 2.0, 3.0])


def test_refused_set_params_leaves_the_parameters():
    proc = build("score-saffron").fit([30.0, 0.5])
    params = proc.get_params()
    for bad in ({"alpha": "x"}, {"lam": 0.5}, {"alpha": 0.1, "omega": None},
                {"alpha": 0.1, "bogus": 1}):
        with pytest.raises(ValueError):
            proc.set_params(**bad)
        assert proc.get_params() == params
    assert proc.t_ == 2
    assert proc.clone().fit([30.0, 0.5]).decision_.tolist() == proc.decision_.tolist()
    assert proc.fit([30.0]).t_ == 1


# -- One property over the library's entry points. -----------------------------

#: Values of every shape an argument might arrive in, valid ones included.
ANY = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.integers(-3, 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 0.0, -1, -0.5, 0.5, 2.5, 1.5, 3.0, 0.05, math.nan, math.inf, -math.inf,
                     "e", "p", "0.5", "constant,0.5", sf.Schedule.constant(0.5),
                     sf.Schedule.geometric(0.5), sf.Schedule.rai(0.05, 0.5, 0.5)]),
    st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-2, 5)),
             max_size=3),
)
CAL = CalibrationSet([1.0, 2.0])
GM = sf.DgpConfig("gaussian_mixture", horizon=5, seed=1)
RUN = (np.array([True, False, True, False, True]), np.array([True, False, False, True, True]))

#: entry point -> (a call taking the drawn value, the phrases one of which its error carries)
ENTRY_POINTS = {
    "Observation.index": (lambda v: sf.Observation(v, 1.0), ("index must",)),
    "Observation.evidence": (lambda v: sf.Observation(1, v, kind="p"), ("evidence must",)),
    "Observation.kind": (lambda v: sf.Observation(1, 0.5, kind=v), ("kind must",)),
    "Observation.truth": (lambda v: sf.Observation(1, 0.5, truth=v), ("truth must",)),
    "weight_at.t": (lambda v: weight_at(sf.Schedule.rai(0.05, 0.5, 0.5), v, 1),
                    ("t must", "rejections must")),
    "weight_at.rejections": (lambda v: weight_at(sf.Schedule.constant(0.5), 5, v),
                             ("rejections must",)),
    "Schedule.kind": (lambda v: sf.Schedule(v, (0.5,)), ("kind must",)),
    "Schedule.constant": (lambda v: sf.Schedule("constant", (v,)), ("constant value must",)),
    "Schedule.rai": (lambda v: sf.Schedule("rai", (0.05, v, 0.5)), ("rai phi must",)),
    "make_procedure.id": (lambda v: sf.make_procedure(v), ("unknown procedure",)),
    "make_procedure.alpha": (lambda v: sf.make_procedure("score-lord", alpha=v),
                             ("alpha must",)),
    "make_procedure.omega": (lambda v: sf.make_procedure("score-lord", omega=v),
                             ("omega must",)),
    "set_params.alpha": (lambda v: build("e-saffron").set_params(alpha=v), ("alpha must",)),
    "set_params.lam": (lambda v: build("e-saffron").set_params(lam=v), ("lam must",)),
    "set_params.gamma": (lambda v: build("e-lond").set_params(gamma=v),
                         ("gamma must", "summable gamma")),
    "fit": (lambda v: build("score-lord").fit(v), ("X must",)),
    "fit.y": (lambda v: build("score-lord").fit([1.0, 2.0], v), ("y must",)),
    "partial_fit": (lambda v: build("p-saffron").partial_fit(v), ("X must",)),
    "step": (lambda v: build("score-plus-lord").step(v), ("evidence must",)),
    "vovk_p_to_e": (vovk_p_to_e, ("p must",)),
    "conformal_evalue": (lambda v: conformal_evalue(v, CAL), ("test_score must",)),
    "lr_evalue.x": (lambda v: lr_evalue(LikelihoodRatioSpec("ar1_gaussian"), v, context=1.0),
                    ("x must",)),
    "lr_evalue.eta": (lambda v: lr_evalue(LikelihoodRatioSpec("exponential_scale"), 1.0,
                                          context=v), ("eta must", "eta as context")),
    "CalibrationSet": (CalibrationSet, ("scores must", "calibration set must")),
    "ar1_conditional_pvalue.x_t": (lambda v: ar1_conditional_pvalue(v, 1.0, 0.5), ("x_t must",)),
    "ar1_conditional_pvalue.x_prev": (lambda v: ar1_conditional_pvalue(1.0, v, 0.5),
                                      ("x_prev must",)),
    "ar1_conditional_pvalue.phi0": (lambda v: ar1_conditional_pvalue(1.0, 2.0, v),
                                    ("phi0 must",)),
    "ar1_marginal_pvalue.x_t": (ar1_marginal_pvalue, ("x_t must",)),
    "ar1_marginal_pvalue.null_var": (lambda v: ar1_marginal_pvalue(1.0, v), ("null_var must",)),
    "default_checkpoints": (sf.default_checkpoints, ("horizon must",)),
    "LikelihoodRatioSpec.null_var": (
        lambda v: LikelihoodRatioSpec("gaussian_pair", null_var=v), ("null_var (",)),
    "LikelihoodRatioSpec.scale": (
        lambda v: LikelihoodRatioSpec("exponential_scale", scale=v), ("scale must",)),
    **{f"LikelihoodRatioSpec.{name}": (
        lambda v, name=name, family=family: LikelihoodRatioSpec(family, **{name: v}),
        (f"{name} must",))
       for name, family in [("null_mean", "gaussian_pair"), ("alt_mean", "gaussian_pair"),
                            ("phi0", "ar1_gaussian"), ("phi1", "ar1_gaussian")]},
    "aggregate.checkpoints": (lambda v: aggregate([RUN], v, build("e-lord")),
                              ("checkpoints must",)),
    "DgpConfig.dgp": (lambda v: sf.DgpConfig(v), ("dgp must",)),
    **{f"DgpConfig.{name}": (lambda v, name=name, dgp=dgp: sf.DgpConfig(dgp, **{name: v}),
                             (f"{name} must",))
       for name, dgp in [("horizon", "gaussian_mixture"), ("pi1", "gaussian_mixture"),
                         ("seed", "gaussian_mixture"), ("rho", "ar_exponential"),
                         ("mu_set", "ar_exponential"), ("phi0", "ar1_gaussian"),
                         ("phi1", "ar1_gaussian")]},
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@settings(max_examples=60, deadline=None)
@given(value=ANY)
def test_entry_point_runs_or_names_its_parameter(entry, value):
    call, phrases = ENTRY_POINTS[entry]
    try:
        with np.errstate(all="ignore"):
            call(value)
    except ValueError as exc:
        assert any(phrase in str(exc) for phrase in phrases), str(exc)


class _Generated(Exception):
    """Raised by the stand-in generator: the arguments were accepted."""


@pytest.mark.parametrize("name", ["n_reps", "checkpoints", "evidence"])
@settings(max_examples=60, deadline=None)
@given(value=ANY)
def test_replicate_refuses_before_generating(name, value):
    kwargs = {"n_reps": 2, "checkpoints": [5], "evidence": "auto", name: value}
    calls = []

    def generate(config):
        calls.append(config)
        raise _Generated

    with mock.patch.object(simulation, "generate", generate):
        try:
            sf.replicate(GM, build("e-lord"), **kwargs)
        except _Generated:
            return
        except ValueError as exc:
            assert name in str(exc), str(exc)
    assert calls == []


@pytest.mark.parametrize("y, message", [
    ([True, False], "y must have shape (3,), got (2,)"),
    ([[1, 0, 1]], "y must have shape (3,), got (1, 3)"),
    ([0, 2, 1], "y must be a bool, 0 or 1, got 2 at index 1"),
    ([0.0, 0.5, 1.0], "y must be a bool, 0 or 1, got 0.5 at index 1"),
    ([None, 1, 0], "y must be a bool, 0 or 1, got None at index 0"),
    (["1", "0", "1"], "y must be a bool, 0 or 1, got '1' at index 0"),
    ([[1], [0, 1], 1], "y must be a bool, 0 or 1, got [1] at index 0"),
], ids=["short", "2-d", "two", "half", "none", "text", "ragged"])
def test_fit_truth_labels_checked(y, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build("score-lord").fit([1.0, 2.0, 3.0], y)


# -- One evidence rule and one label rule on every path. -------------------------

#: A scalar of every type evidence or a label may arrive as.
SCALARS = st.one_of(
    st.floats(), st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, 1.0, 1.0000000000000002, 0.9999999999999999, 5e-324,
                     2.2250738585072014e-308, sys.float_info.max, math.nan, math.inf,
                     -math.inf, 0, 1, 2, -1, np.bool_(True), np.int64(0), np.int64(-3)]),
    st.booleans(), st.integers(-10**400, 10**400), st.fractions(),
    st.decimals(allow_nan=True, allow_infinity=True), st.text(max_size=4),
)
PID = {"e": "score-plus-lord", "p": "p-lord"}


def _refusal(call):
    """The message of the ``ValueError`` that ``call`` raises, or None when it runs."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sf.core.EVIDENCE_KINDS), value=SCALARS)
def test_one_evidence_rule_on_every_path(kind, value):
    observation = _refusal(lambda: sf.Observation(1, value, kind))
    step = _refusal(lambda: build(PID[kind]).step(value))
    fit = _refusal(lambda: build(PID[kind]).fit([value]))
    assert (observation is None) == (step is None) == (fit is None), (observation, step, fit)
    lo, hi, ends = EVIDENCE[kind]
    interval = f"{ends[0]}{lo:g}, {hi:g}{ends[1]}"
    if observation is None:
        by_value = build(PID[kind]).step(value)
        assert build(PID[kind]).step(sf.Observation(1, value, kind)) == by_value
        fitted = build(PID[kind]).fit([value])
        assert (fitted.alpha_[0], fitted.decision_[0], fitted.overshoot_[0],
                fitted.cost_[0]) == by_value[:4]
        return
    assert observation == step == f"evidence must be a finite real in {interval}, got {value!r}"
    try:
        float(value)
        real = not isinstance(value, str)
    except (ValueError, OverflowError):  # text, a signaling NaN, an int past the floats
        real = False
    assert (f"X must be a finite real in {interval}" if real
            else "X must be an array of reals") in fit, fit


@settings(max_examples=200, deadline=None)
@given(label=SCALARS)
def test_one_label_rule_on_every_path(label):
    observation = _refusal(lambda: sf.Observation(1, 0.5, truth=label))
    fit = _refusal(lambda: build("score-lord").fit([0.5], [label]))
    assert (observation is None) == (fit is None), (observation, fit)
    if observation is None:
        stepped = build("score-lord")
        stepped.step(sf.Observation(1, 0.5, truth=label))
        assert (stepped.trajectory().truth.tolist()
                == build("score-lord").fit([0.5], [label]).trajectory().truth.tolist())
    else:
        assert observation == f"truth must be a bool, 0 or 1, got {label!r}"
        assert fit.startswith("y must be a bool, 0 or 1, got "), fit
