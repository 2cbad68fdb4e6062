"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The statistical criteria
use fixed seeds, so the whole suite is deterministic.
"""

import math
import time
from pathlib import Path

import numpy as np

import scorefdr as sf
from scorefdr.cli import main, read_decisions
from scorefdr.reference import bound_scan, naive_trajectory
from helpers import LAMBDA, OMEGA, build, random_e_stream, random_p_stream

ALPHA = 0.05


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def _se_diff(a_se: float, b_se: float) -> float:
    return math.sqrt(a_se**2 + b_se**2)


def test_criterion_01_indicator_bound_grid():
    start = time.perf_counter()
    report = bound_scan(grid_step=1e-3, y_max=10.0)
    elapsed = time.perf_counter() - start
    ok = (
        report.n_points == 10001
        and report.n_violations == 0
        and report.min_slack >= 0.0
        and report.equality_max_gap < 1e-15
    )
    _report(
        "criterion 1 (indicator bound on [0, 10])", ok,
        f"violations={report.n_violations} equality_gap={report.equality_max_gap:.1e} "
        f"[{elapsed:.2f}s]",
    )


def test_criterion_02_estimator_bound():
    start = time.perf_counter()
    n_streams, length = 1000, 500
    rng = np.random.default_rng(np.random.PCG64(2025_02))
    e_streams = [random_e_stream(rng, length) for _ in range(n_streams)]
    p_streams = [random_p_stream(rng, length) for _ in range(n_streams)]
    worst = {}
    for pid in sf.PROCEDURE_IDS:
        proc = build(pid, alpha=ALPHA)
        streams = p_streams if proc.evidence_kind == "p" else e_streams
        peak = 0.0
        for stream in streams:
            proc.fit(stream)
            peak = max(peak, float(np.max(proc.fdp_hat_)))
        worst[pid] = peak
    elapsed = time.perf_counter() - start
    ok = all(peak <= ALPHA + 1e-12 for peak in worst.values())
    detail = " ".join(f"{pid}={peak:.6f}" for pid, peak in worst.items())
    _report(
        "criterion 2 (own FDP estimate <= alpha, 11 procedures x 1000 x 500)",
        ok, f"{detail} [{elapsed:.1f}s]",
    )


def test_criterion_03_threshold_dominance():
    start = time.perf_counter()
    n_streams, length = 1000, 500
    rng = np.random.default_rng(np.random.PCG64(2025_03))
    pairs = [("score-lond", "e-lond"), ("score-lord", "e-lord"),
             ("score-saffron", "e-saffron")]
    strict = {pair: 0 for pair in pairs}
    exact_ok = True
    for _ in range(n_streams):
        stream = random_e_stream(rng, length)
        for pair in pairs:
            score = build(pair[0], alpha=ALPHA).fit(stream)
            base = build(pair[1], alpha=ALPHA).fit(stream)
            if not (np.all(score.alpha_ >= base.alpha_)
                    and np.all(score.rejections_ >= base.rejections_)):
                exact_ok = False
            if np.any(score.alpha_ > base.alpha_):
                strict[pair] += 1
    elapsed = time.perf_counter() - start
    ok = exact_ok and all(count >= 1 for count in strict.values())
    detail = " ".join(f"{a}>{b}:{n}/1000" for (a, b), n in strict.items())
    _report("criterion 3 (refund dominance, exact, 1000 shared streams)",
            ok, f"{detail} [{elapsed:.1f}s]")


def test_criterion_04_oracle_equivalence():
    start = time.perf_counter()
    n_streams, length = 1000, 200
    rng = np.random.default_rng(np.random.PCG64(2025_04))
    rai = sf.Schedule.rai(0.05, 0.5, 0.5)
    worst_field = {}
    exact_ok = True
    for i in range(n_streams):
        # moderate spikes keep absolute comparisons meaningful for overshoots
        e_stream = random_e_stream(rng, length)
        e_stream = np.minimum(e_stream, 1e4)
        p_stream = random_p_stream(rng, length)
        omega = rai if i % 5 == 0 else OMEGA
        for pid in sf.PROCEDURE_IDS:
            proc = build(pid, alpha=ALPHA, omega=omega)
            stream = p_stream if proc.evidence_kind == "p" else e_stream
            traj = proc.fit(stream).trajectory()
            trace = naive_trajectory(proc, stream)
            if (np.any(trace.decision != traj.decision)
                    or np.any(trace.rejections != traj.rejections)):
                exact_ok = False
            for name, a, b in (
                ("alpha", trace.alpha, traj.alpha),
                ("overshoot", trace.overshoot, traj.overshoot),
                ("cost", trace.cost, traj.cost),
                ("fdp_hat", trace.fdp_hat, traj.fdp_hat),
            ):
                gap = float(np.max(np.abs(a - b), initial=0.0))
                if gap > worst_field.get(name, 0.0):
                    worst_field[name] = gap
            defined = ~np.isnan(trace.wealth)
            if defined.any():
                gap = float(np.max(np.abs(trace.wealth[defined] - traj.wealth[defined])))
                if gap > worst_field.get("wealth", 0.0):
                    worst_field["wealth"] = gap
    elapsed = time.perf_counter() - start
    ok = exact_ok and all(gap <= 1e-10 for gap in worst_field.values())
    detail = " ".join(f"{name}={gap:.2e}" for name, gap in worst_field.items())
    _report("criterion 4 (oracle equivalence, 1000 x 11, length 200)",
            ok, f"{detail} [{elapsed:.1f}s]")


def test_criterion_05_monotonicity():
    start = time.perf_counter()
    n_pairs, length = 500, 300
    rng = np.random.default_rng(np.random.PCG64(2025_05))
    ok = True
    for _ in range(n_pairs):
        e = random_e_stream(rng, length)
        inflated = e.copy()
        mask = rng.random(length) < 0.3
        inflated[mask] *= np.exp(3.0 * rng.random(int(mask.sum())))
        for pid in ("score-plus-lord", "score-plus-saffron"):
            low = build(pid, alpha=ALPHA).fit(e)
            high = build(pid, alpha=ALPHA).fit(inflated)
            if not (np.all(high.alpha_ >= low.alpha_)
                    and np.all(high.rejections_ >= low.rejections_)):
                ok = False

        p = random_p_stream(rng, length)
        deflated = p.copy()
        mask = rng.random(length) < 0.3
        deflated[mask] *= rng.random(int(mask.sum()))
        for pid in ("p-lord", "p-saffron"):
            weak = build(pid, alpha=ALPHA).fit(p)
            strong = build(pid, alpha=ALPHA).fit(deflated)
            if not (np.all(strong.alpha_ >= weak.alpha_)
                    and np.all(strong.rejections_ >= weak.rejections_)):
                ok = False
    elapsed = time.perf_counter() - start
    _report("criterion 5 (coordinate-wise monotonicity, 500 paired streams)",
            ok, f"[{elapsed:.1f}s]")


FAMILY_SIX = ("e-lord", "score-lord", "score-plus-lord",
              "e-saffron", "score-saffron", "score-plus-saffron")


def _family_reports(dgp, omega, n_reps):
    out = {}
    for pid in FAMILY_SIX:
        proc = sf.make_procedure(pid, alpha=ALPHA, omega=omega, lam=LAMBDA)
        out[pid] = sf.replicate(dgp, proc, n_reps=n_reps, checkpoints=[dgp.horizon])
    return out


def _power_geq(reports, hi, lo):
    a, b = reports[hi], reports[lo]
    return a.power[-1] >= b.power[-1] - 2.0 * _se_diff(a.power_se[-1], b.power_se[-1])


def test_criterion_06_gaussian_mixture_fdr_and_ordering():
    start = time.perf_counter()
    ok = True
    lines = []
    for pi1 in (0.3, 0.8):
        dgp = sf.DgpConfig("gaussian_mixture", horizon=1000, pi1=pi1, seed=2025_06)
        reports = _family_reports(dgp, OMEGA, n_reps=500)
        for pid, rep in reports.items():
            fdr, se = rep.fdr[-1], rep.fdr_se[-1]
            if fdr > ALPHA + 3.0 * se:
                ok = False
            lines.append(f"pi1={pi1} {pid}: fdr={fdr:.4f} power={rep.power[-1]:.4f}")
        for family in ("lord", "saffron"):
            if not _power_geq(reports, f"score-plus-{family}", f"score-{family}"):
                ok = False
            if not _power_geq(reports, f"score-{family}", f"e-{family}"):
                ok = False
    elapsed = time.perf_counter() - start
    _report("criterion 6 (gaussian mixture: FDR control + power ordering, 500 reps)",
            ok, f"[{elapsed:.1f}s]")
    for line in lines:
        print("   ", line)


def test_criterion_07_ar_exponential_rai():
    start = time.perf_counter()
    dgp = sf.DgpConfig("ar_exponential", horizon=1000, pi1=0.3, rho=0.5, seed=2025_07)
    reports = _family_reports(dgp, sf.Schedule.rai(0.05, 0.5, 0.5), n_reps=500)
    ok = True
    for pid, rep in reports.items():
        if rep.fdr[-1] > ALPHA + 3.0 * rep.fdr_se[-1]:
            ok = False
    for family in ("lord", "saffron"):
        for variant in (f"score-{family}", f"score-plus-{family}"):
            if not _power_geq(reports, variant, f"e-{family}"):
                ok = False
    elapsed = time.perf_counter() - start
    detail = " ".join(f"{pid}:fdr={rep.fdr[-1]:.4f},pow={rep.power[-1]:.3f}"
                      for pid, rep in reports.items())
    _report("criterion 7 (AR-exponential with RAI weighting, 500 reps)",
            ok, f"{detail} [{elapsed:.1f}s]")


def test_criterion_08_conditional_vs_marginal_validity():
    start = time.perf_counter()
    dgp = sf.DgpConfig("ar1_gaussian", horizon=1000, pi1=0.3, phi0=0.5, phi1=3.0, seed=2025_08)
    ok = True
    lines = []
    for pid in ("p-lord", "p-saffron"):
        proc = build(pid, alpha=ALPHA)
        cond = sf.replicate(dgp, proc, n_reps=200, checkpoints=[1000],
                            evidence="p_conditional")
        marg = sf.replicate(dgp, proc, n_reps=200, checkpoints=[1000],
                            evidence="p_marginal")
        cond_ok = cond.fdr[-1] <= ALPHA + 3.0 * cond.fdr_se[-1]
        marg_broken = marg.fdr[-1] - 3.0 * marg.fdr_se[-1] > ALPHA
        if not (cond_ok and marg_broken):
            ok = False
        lines.append(
            f"{pid}: conditional fdr={cond.fdr[-1]:.4f}+-{cond.fdr_se[-1]:.4f}, "
            f"marginal fdr={marg.fdr[-1]:.4f}+-{marg.fdr_se[-1]:.4f}"
        )
    elapsed = time.perf_counter() - start
    _report("criterion 8 (conditional p-values control FDR, marginal break it)",
            ok, f"{'; '.join(lines)} [{elapsed:.1f}s]")


def test_criterion_09_calibrators():
    start = time.perf_counter()
    checks = {}

    checks["vovk(0.05)"] = abs(sf.vovk_p_to_e(0.05) - 1.7833) <= 1e-3
    checks["vovk limit at 1"] = abs(sf.vovk_p_to_e(1.0) - 0.5) <= 1e-6

    rng = np.random.default_rng(np.random.PCG64(2025_09))
    p = np.maximum(rng.random(1_000_000), 1e-300)
    e = sf.vovk_p_to_e(p)
    checks["vovk uniform mean"] = e.mean() <= 1.0 + 3.0 * e.std(ddof=1) / 1000.0

    values = np.empty(20_000)
    for i in range(len(values)):
        scores = rng.exponential(1.0, size=21)
        values[i] = sf.conformal_evalue(scores[0], sf.CalibrationSet(scores[1:]))
    se = values.std(ddof=1) / math.sqrt(len(values))
    checks["conformal exchangeable mean"] = values.mean() <= 1.0 + 3.0 * se

    n = 500_000
    spec = sf.LikelihoodRatioSpec("gaussian_pair")
    e = sf.lr_evalue(spec, rng.standard_normal(n))
    checks["lr gaussian null mean"] = e.mean() <= 1.0 + 3.0 * e.std(ddof=1) / math.sqrt(n)

    eta = 1.0 + 0.5 * rng.exponential(1.0, size=n)
    x = rng.exponential(1.0, size=n) / eta
    e = sf.lr_evalue(sf.LikelihoodRatioSpec("exponential_scale", scale=3.0), x, context=eta)
    checks["lr exponential null mean"] = e.mean() <= 1.0 + 3.0 * e.std(ddof=1) / math.sqrt(n)

    x_prev = rng.standard_normal(n) * math.sqrt(4.0 / 3.0)
    x = 0.5 * x_prev + rng.standard_normal(n)
    e = sf.lr_evalue(sf.LikelihoodRatioSpec("ar1_gaussian", phi0=0.5, phi1=3.0),
                     x, context=x_prev)
    checks["lr ar1 null mean"] = e.mean() <= 1.0 + 3.0 * e.std(ddof=1) / math.sqrt(n)

    m = 100_000
    x_prev = rng.standard_normal(m) * math.sqrt(4.0 / 3.0)
    x = 0.5 * x_prev + rng.standard_normal(m)
    pvals = np.sort(sf.ar1_conditional_pvalue(x, x_prev, 0.5))
    grid = np.arange(1, m + 1) / m
    ks = float(np.max(np.maximum(np.abs(grid - pvals),
                                 np.abs(pvals - (grid - 1.0 / m)))))
    checks["conditional p-value KS"] = ks < 1.6276 / math.sqrt(m)

    elapsed = time.perf_counter() - start
    ok = all(checks.values())
    detail = "; ".join(f"{name}={'ok' if good else 'BAD'}" for name, good in checks.items())
    _report("criterion 9 (calibrator values and e-validity)", ok,
            f"{detail} [{elapsed:.1f}s]")


def test_criterion_10_ingest_pipeline(tmp_path):
    start = time.perf_counter()
    stream = str(Path(__file__).parent / "data" / "synthetic_pvalues.csv")
    discoveries = {}
    outputs = {}
    for pid in ("e-lord", "score-lord", "score-plus-lord"):
        out = tmp_path / f"{pid}.csv"
        rc = main([
            "ingest", "--input", stream, "--procedure", pid, "--alpha", "0.1",
            "--calibrator", "vovk", "--decisions-out", str(out),
        ])
        assert rc == 0
        outputs[pid] = out
        table = read_decisions(str(out))
        discoveries[pid] = int(table["rejections"][-1])

    # round trip: emitted ledger reproduces alpha and decisions bit-exactly
    table = read_decisions(str(outputs["score-lord"]))
    refit = build("score-lord", alpha=0.1)
    obs = np.loadtxt(stream, delimiter=",", skiprows=1, usecols=1)
    refit.fit(sf.vovk_p_to_e(np.maximum(obs, 1e-300)))
    round_trip_ok = (np.array_equal(table["alpha"], refit.alpha_)
                     and np.array_equal(table["decision"], refit.decision_))

    ordering_ok = (0 <= discoveries["e-lord"] <= discoveries["score-lord"]
                   <= discoveries["score-plus-lord"])
    elapsed = time.perf_counter() - start
    _report(
        "criterion 10 (CSV ingest pipeline on bundled synthetic stream)",
        ordering_ok and round_trip_ok and discoveries["score-lord"] > 0,
        f"discoveries={discoveries} round_trip={'ok' if round_trip_ok else 'BAD'} "
        f"[{elapsed:.1f}s]",
    )
