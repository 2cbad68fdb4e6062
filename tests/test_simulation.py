import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

import scorefdr as sf
from scorefdr import simulation
from scorefdr.simulation import STREAM_EVIDENCE, aggregate, default_checkpoints
from helpers import build

GM = sf.DgpConfig("gaussian_mixture", horizon=400, pi1=0.3, seed=7)


class TestDgpConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="dgp"):
            sf.DgpConfig("brownian")
        with pytest.raises(ValueError, match="horizon"):
            sf.DgpConfig("gaussian_mixture", horizon=0)
        with pytest.raises(ValueError, match="horizon"):
            sf.DgpConfig("gaussian_mixture", horizon=True)
        with pytest.raises(ValueError, match="pi1"):
            sf.DgpConfig("gaussian_mixture", pi1=1.2)
        with pytest.raises(ValueError, match="rho"):
            sf.DgpConfig("ar_exponential", rho=-0.1)
        with pytest.raises(ValueError, match="mu_set"):
            sf.DgpConfig("ar_exponential", mu_set=(0.5,))
        with pytest.raises(ValueError, match="phi0"):
            sf.DgpConfig("ar1_gaussian", phi0=1.0)
        with pytest.raises(ValueError, match="seed"):
            sf.DgpConfig("gaussian_mixture", seed=-1)


    @pytest.mark.parametrize("dgp, name, value", [
        ("ar_exponential", "rho", math.nan),
        ("ar_exponential", "rho", math.inf),
        ("ar_exponential", "mu_set", (math.nan,)),
        ("ar_exponential", "mu_set", (3.0, math.inf)),
        ("ar1_gaussian", "phi1", math.nan),
        ("ar1_gaussian", "phi1", -math.inf),
        ("gaussian_mixture", "horizon", math.inf),
        ("gaussian_mixture", "horizon", math.nan),
        ("gaussian_mixture", "seed", math.inf),
        ("gaussian_mixture", "seed", math.nan),
    ])
    def test_non_finite_parameter_named(self, dgp, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            sf.DgpConfig(dgp, **{name: value})

    @pytest.mark.parametrize("seed", [2.5, -1, True, "3"])
    def test_seed_must_be_an_integer(self, seed):
        message = f"seed must be a non-negative integer, got {seed!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sf.DgpConfig("gaussian_mixture", seed=seed)

    def test_numpy_integer_seed_accepted(self):
        cfg = sf.DgpConfig("gaussian_mixture", horizon=50, seed=np.int64(3))
        assert np.array_equal(sf.generate(cfg).x, sf.generate(replace(cfg, seed=3)).x)

    @pytest.mark.parametrize("seed", [2.0, np.float64(2.0), np.int64(2)])
    def test_whole_seed_stored_as_int(self, seed):
        # the count rule horizon follows: a whole real passes, and the int is kept
        cfg = sf.DgpConfig("gaussian_mixture", seed=seed)
        assert type(cfg.seed) is int and cfg.seed == 2

    def test_every_parameter_is_checked_whatever_the_dgp(self):
        # a parameter the chosen dgp does not read is still refused
        for name, value in [("rho", -1.0), ("rho", math.nan), ("mu_set", (0.5,)),
                            ("mu_set", (math.inf,)), ("phi0", 1.5), ("phi1", math.nan)]:
            for dgp in simulation.DGP_NAMES:
                with pytest.raises(ValueError, match=f"^{name} must"):
                    sf.DgpConfig(dgp, **{name: value})


class TestGenerate:
    def test_deterministic(self):
        for name in ("gaussian_mixture", "ar_exponential", "ar1_gaussian"):
            cfg = sf.DgpConfig(name, horizon=200, pi1=0.4, seed=11)
            a, b = sf.generate(cfg), sf.generate(cfg)
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.truth, b.truth)
            assert np.array_equal(a.evalue, b.evalue)

    def test_different_seeds_differ(self):
        a = sf.generate(sf.DgpConfig("gaussian_mixture", horizon=100, seed=1))
        b = sf.generate(sf.DgpConfig("gaussian_mixture", horizon=100, seed=2))
        assert not np.array_equal(a.x, b.x)

    def test_degenerate_mixture_all_null(self):
        stream = sf.generate(sf.DgpConfig("gaussian_mixture", horizon=500, pi1=0.0, seed=3))
        assert not stream.truth.any()
        # all signal means zero: observations are standard normal
        assert abs(stream.x.mean()) < 0.2
        assert abs(stream.x.std() - 1.0) < 0.1

    def test_gaussian_mixture_evalue_formula(self):
        stream = sf.generate(GM)
        x = stream.x
        expected = np.exp(0.5 * math.log(1.0 / 6.0) + x**2 / 2.0 - (x - 3.0) ** 2 / 12.0)
        assert np.allclose(stream.evalue, expected, rtol=1e-12)

    def test_ar_exponential_evalue_formula(self):
        cfg = sf.DgpConfig("ar_exponential", horizon=300, pi1=0.3, rho=0.5, seed=5)
        stream = sf.generate(cfg)
        assert (stream.x >= 0.0).all()
        eta = 1.0 + 0.5 * np.concatenate(([0.0], stream.x[:-1]))
        expected = np.exp(-math.log(3.0) + eta * stream.x * (2.0 / 3.0))
        assert np.allclose(stream.evalue, np.minimum(expected, sf.MAX_EVALUE), rtol=1e-12)

    def test_ar1_gaussian_attaches_both_pvalue_kinds(self):
        stream = sf.generate(sf.DgpConfig("ar1_gaussian", horizon=300, pi1=0.3, seed=5))
        assert stream.p_conditional is not None and stream.p_marginal is not None
        # alternative steps can saturate to 0/1 in float once the process
        # explodes; null steps have standard-normal residuals and stay interior
        assert ((stream.p_conditional >= 0) & (stream.p_conditional <= 1)).all()
        null_p = stream.p_conditional[~stream.truth]
        assert ((null_p > 0) & (null_p < 1)).all()
        lagged = np.concatenate(([stream.x0], stream.x[:-1]))
        expected = sf.ar1_conditional_pvalue(stream.x, lagged, 0.5)
        assert np.allclose(stream.p_conditional, expected, rtol=1e-12)

    def test_ar1_null_stationary_variance(self):
        stream = sf.generate(sf.DgpConfig("ar1_gaussian", horizon=100_000, pi1=0.0, seed=9))
        batches = stream.x.reshape(100, 1000)
        batch_vars = batches.var(axis=1, ddof=1)
        se = batch_vars.std(ddof=1) / math.sqrt(len(batch_vars))
        assert abs(batch_vars.mean() - 4.0 / 3.0) <= 3.0 * se

    def test_missing_evidence_kind_errors(self):
        stream = sf.generate(GM)
        with pytest.raises(ValueError, match="p_conditional"):
            stream.evidence("p_conditional")


class TestEvaluate:
    def test_worked_example(self):
        traj = sf.Trajectory(
            alpha=np.full(3, 0.01),
            decision=np.array([True, False, True]),
            overshoot=np.zeros(3),
            cost=np.zeros(3),
            rejections=np.array([1, 1, 2]),
            fdp_hat=np.zeros(3),
            wealth=np.zeros(3),
            truth=np.array([False, False, True]),
        )
        fdp, power = sf.evaluate(traj)
        assert fdp[-1] == pytest.approx(0.5)
        assert power[-1] == pytest.approx(1.0)

    def test_no_rejections_gives_zero_fdp(self):
        traj = sf.Trajectory(
            alpha=np.full(4, 0.01), decision=np.zeros(4, dtype=bool),
            overshoot=np.zeros(4), cost=np.zeros(4),
            rejections=np.zeros(4, dtype=int), fdp_hat=np.zeros(4),
            wealth=np.zeros(4), truth=np.array([True, False, True, False]),
        )
        fdp, power = sf.evaluate(traj)
        assert not fdp.any() and not power.any()

    def test_power_zero_before_first_alternative(self):
        traj = sf.Trajectory(
            alpha=np.full(3, 0.01), decision=np.array([True, True, True]),
            overshoot=np.zeros(3), cost=np.zeros(3),
            rejections=np.array([1, 2, 3]), fdp_hat=np.zeros(3),
            wealth=np.zeros(3), truth=np.array([False, False, True]),
        )
        fdp, power = sf.evaluate(traj)
        assert power[0] == 0.0 and power[1] == 0.0 and power[2] == 1.0
        assert fdp[-1] == pytest.approx(2.0 / 3.0)

    def test_requires_truth(self):
        traj = build("e-lord").fit([1.0, 2.0]).trajectory()
        with pytest.raises(ValueError, match="truth"):
            sf.evaluate(traj)


@pytest.fixture
def generate_calls(monkeypatch):
    """The configs ``replicate`` asks ``generate`` for; no stream is made."""
    calls = []
    monkeypatch.setattr(simulation, "generate", calls.append)
    return calls


class TestReplicate:
    def test_single_replicate_matches_direct_run(self):
        proc = build("score-lord")
        report = sf.replicate(GM, proc, n_reps=1, checkpoints=[100, 400])
        stream = sf.generate(GM)
        fitted = proc.clone().fit(stream.evalue, stream.truth)
        fdp, power = sf.evaluate(fitted.trajectory())
        assert report.fdr[0] == fdp[99] and report.fdr[1] == fdp[399]
        assert report.power[1] == power[399]
        assert (report.fdr_se == 0).all() and report.n_reps == 1

    def test_bit_identical_across_calls(self):
        proc = build("score-plus-saffron")
        kw = dict(n_reps=12, checkpoints=[200, 400])
        one = sf.replicate(replace(GM, seed=5), proc, **kw)
        again = sf.replicate(replace(GM, seed=5), proc, **kw)
        assert np.array_equal(one.fdr, again.fdr) and np.array_equal(one.fdr_se, again.fdr_se)
        assert np.array_equal(one.power, again.power)
        assert np.array_equal(one.power_se, again.power_se)

    def test_checkpoint_validation(self, generate_calls):
        with pytest.raises(ValueError, match="checkpoints"):
            sf.replicate(GM, build("e-lord"), n_reps=1, checkpoints=[0, 10])
        with pytest.raises(ValueError, match="checkpoints"):
            sf.replicate(GM, build("e-lord"), n_reps=1, checkpoints=[10, 10])
        with pytest.raises(ValueError, match="n_reps"):
            sf.replicate(GM, build("e-lord"), n_reps=0)
        with pytest.raises(ValueError, match=r"checkpoints must be integers, got \[1.5, 3\]"):
            sf.replicate(GM, build("e-lord"), n_reps=1, checkpoints=[1.5, 3])
        with pytest.raises(ValueError, match="n_reps must be a positive integer, got 2.5"):
            sf.replicate(GM, build("e-lord"), n_reps=2.5)
        assert generate_calls == []

    @pytest.mark.parametrize("n_reps", [None, "x", "2", True, False, math.nan, math.inf, [2]])
    def test_non_integer_n_reps_refused_before_generating(self, generate_calls, n_reps):
        message = f"n_reps must be a positive integer, got {n_reps!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sf.replicate(GM, build("e-lord"), n_reps=n_reps)
        assert generate_calls == []

    def test_numpy_integer_n_reps_accepted(self):
        dgp = replace(GM, horizon=50)
        numpy_reps = sf.replicate(dgp, build("e-lord"), n_reps=np.int64(2), checkpoints=[50])
        plain = sf.replicate(dgp, build("e-lord"), n_reps=2, checkpoints=[50])
        assert numpy_reps.n_reps == 2 and type(numpy_reps.n_reps) is int
        assert np.array_equal(numpy_reps.fdr, plain.fdr)

    def test_unknown_evidence_refused_before_generating(self, generate_calls):
        message = f"one of {', '.join(STREAM_EVIDENCE)}; got 'bogus'"
        with pytest.raises(ValueError, match=message):
            sf.replicate(GM, build("e-lord"), n_reps=2, evidence="bogus")
        assert generate_calls == []

    def test_seeds_come_from_the_dgp(self):
        dgp = replace(GM, seed=9)
        proc = build("score-lord")
        report = sf.replicate(dgp, proc, n_reps=3, checkpoints=np.arange(1, dgp.horizon + 1))
        assert report.dgp.seed == 9
        fdr, fdr_se, power, power_se = _public_path_report(dgp, proc, 3, 9, "e")
        assert np.array_equal(report.fdr, fdr) and np.array_equal(report.fdr_se, fdr_se)
        assert np.array_equal(report.power, power)
        assert np.array_equal(report.power_se, power_se)

    def test_aggregate_needs_a_run(self):
        with pytest.raises(ValueError, match="no runs"):
            aggregate([], [1], build("e-lord"))

    @pytest.mark.parametrize("pid", sf.PROCEDURE_IDS)
    def test_procedure_left_fitted_on_replicate_zero(self, pid):
        dgp = sf.DgpConfig("ar1_gaussian", horizon=150, pi1=0.3, seed=4)
        evidence = "p_conditional" if pid.startswith("p-") else "e"
        proc = build(pid)
        sf.replicate(dgp, proc, n_reps=3, evidence=evidence)
        stream = sf.generate(replace(dgp, seed=4))
        direct = build(pid).fit(stream.evidence(evidence)).trajectory()
        fitted = proc.trajectory()
        assert fitted.truth is None and direct.truth is None
        for f in fields(sf.Trajectory):
            if f.name != "truth":
                got, want = getattr(fitted, f.name), getattr(direct, f.name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f.name

    def test_pvalue_procedure_needs_pvalue_stream(self):
        with pytest.raises(ValueError, match="p_conditional"):
            sf.replicate(GM, build("p-lord"), n_reps=1)

    @pytest.mark.parametrize("pid, evidence, kind", [
        ("e-lord", "p_marginal", "p"), ("e-lord", "p_conditional", "p"), ("p-lord", "e", "e"),
    ])
    def test_evidence_of_the_other_kind_rejected(self, pid, evidence, kind):
        dgp = sf.DgpConfig("ar1_gaussian", horizon=50)
        message = (f"{pid} consumes '{pid[0]}' evidence, "
                   f"but evidence={evidence} gives '{kind}' evidence")
        with pytest.raises(ValueError, match=message):
            sf.replicate(dgp, build(pid), n_reps=3, evidence=evidence)

    def test_report_ranges(self):
        report = sf.replicate(replace(GM, seed=9), build("score-plus-lord"), n_reps=20,
                              checkpoints=[100, 250, 400])
        for arr in (report.fdr, report.power):
            assert ((arr >= 0.0) & (arr <= 1.0)).all()
        assert (report.fdr_se >= 0.0).all() and (report.power_se >= 0.0).all()
        assert report.procedure_id == "score-plus-lord"
        assert report.dgp == replace(GM, seed=9)


def _public_path_report(dgp, proc, n_reps, first_seed, evidence):
    """``replicate``'s curves, rebuilt through ``trajectory()`` and ``evaluate``
    and aggregated in the same order and by the same formulas."""
    curves = []
    for r in range(n_reps):
        stream = sf.generate(replace(dgp, seed=first_seed + r))
        fitted = proc.clone().fit(stream.evidence(evidence), stream.truth)
        curves.append(sf.evaluate(fitted.trajectory()))
    n = float(n_reps)
    out = []
    for which in (0, 1):
        total = np.zeros(dgp.horizon)
        squares = np.zeros(dgp.horizon)
        for curve in curves:
            total += curve[which]
            squares += curve[which] * curve[which]
        mean = total / n
        var = np.maximum(squares - n * mean * mean, 0.0) / (n - 1.0)
        out += [mean, np.sqrt(var / n)]
    return out


def _procedure_dgp_cases():
    for pid in sf.PROCEDURE_IDS:
        for name in ("gaussian_mixture", "ar_exponential", "ar1_gaussian"):
            if pid.startswith("p-") and name != "ar1_gaussian":
                continue
            yield pid, name


@pytest.mark.parametrize("pid, name", list(_procedure_dgp_cases()))
def test_replicate_matches_trajectory_path(pid, name):
    # replicate() evaluates from decisions and truth without a Trajectory;
    # every curve at every step must equal the public path's bit for bit.
    dgp = sf.DgpConfig(name, horizon=150, pi1=0.3, seed=4)
    proc = build(pid)
    evidence = "p_conditional" if pid.startswith("p-") else "e"
    report = sf.replicate(dgp, proc, n_reps=3,
                          checkpoints=np.arange(1, dgp.horizon + 1), evidence=evidence)
    fdr, fdr_se, power, power_se = _public_path_report(dgp, proc, 3, 4, evidence)
    assert np.array_equal(report.fdr, fdr)
    assert np.array_equal(report.fdr_se, fdr_se)
    assert np.array_equal(report.power, power)
    assert np.array_equal(report.power_se, power_se)


def test_dominance_transfers_to_generated_streams():
    # the refunding variant's rejection set contains the baseline's,
    # replicate by replicate, on every generator
    pairs = [("score-lond", "e-lond"), ("score-lord", "e-lord"), ("score-saffron", "e-saffron")]
    for name in ("gaussian_mixture", "ar_exponential", "ar1_gaussian"):
        for seed in range(5):
            cfg = sf.DgpConfig(name, horizon=300, pi1=0.3, seed=seed)
            stream = sf.generate(cfg)
            for score_id, base_id in pairs:
                score = build(score_id).fit(stream.evalue)
                base = build(base_id).fit(stream.evalue)
                assert np.all(score.decision_ >= base.decision_), (name, score_id, seed)


def test_default_checkpoints():
    assert np.array_equal(default_checkpoints(5), np.arange(1, 6))
    points = default_checkpoints(2500)
    assert points[-1] == 2500 and len(points) <= 1001
    assert np.all(np.diff(points) > 0)
