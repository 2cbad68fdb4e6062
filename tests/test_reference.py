import dataclasses

import numpy as np
import pytest

import scorefdr as sf
from scorefdr.reference import (
    _scaled_gap,
    bound_scan,
    bound_slack,
    naive_trajectory,
    trace_divergence,
)
from helpers import OMEGA, build, evidence_for


def test_bound_slack_pointwise():
    assert bound_slack(0.5) == pytest.approx(0.5, abs=1e-15)
    assert bound_slack(1.0) == 0.0
    assert bound_slack(2.7) == 0.0
    assert bound_slack(0.0) == 0.0
    with pytest.raises(ValueError):
        bound_slack(-0.1)


def test_bound_scan_default_grid():
    report = bound_scan(1e-3, 10.0)
    assert report.n_points == 10001
    assert report.passed and report.n_violations == 0
    assert report.min_slack >= 0.0
    assert report.equality_max_gap < 1e-15


def test_bound_scan_validation():
    with pytest.raises(ValueError):
        bound_scan(0.0, 10.0)


def test_naive_score_lond_trace():
    trace = naive_trajectory(build("score-lond"), [100.0, 1.0])
    assert isinstance(trace, sf.Trajectory) and trace.truth is None
    assert trace.alpha == pytest.approx([0.025, 0.0375], abs=1e-12)
    assert list(trace.decision) == [True, False]
    assert trace.overshoot[0] == pytest.approx(1.5, abs=1e-12)
    assert list(trace.rejections) == [1, 1]


def test_naive_all_zero_stream():
    for pid in ("e-lond", "score-lord", "score-plus-saffron"):
        trace = naive_trajectory(build(pid), np.zeros(20))
        assert not trace.decision.any()
        assert trace.rejections[-1] == 0


def test_naive_accepts_procedure_instance():
    proc = sf.ScoreLord(alpha=0.07, omega=sf.Schedule.constant(0.04))
    stream = np.array([50.0, 2.0, 700.0])
    trace = naive_trajectory(proc, stream)
    traj = proc.clone().fit(stream).trajectory()
    assert np.allclose(trace.alpha, traj.alpha, atol=1e-15)


def test_naive_requires_procedure_instance():
    with pytest.raises(TypeError, match="expected an OnlineProcedure"):
        naive_trajectory("score-lord", [1.0])


def test_oracle_matches_incremental_on_random_streams():
    rng = np.random.default_rng(17)
    for i in range(12):
        omega = sf.Schedule.rai(0.05, 0.5, 0.5) if i % 3 == 0 else OMEGA
        for pid in sf.PROCEDURE_IDS:
            proc = build(pid, omega=omega)
            stream = evidence_for(pid, rng, 120)
            trajectory = proc.fit(stream).trajectory()
            trace = naive_trajectory(proc, stream)
            gaps = trace_divergence(trace, trajectory)
            assert gaps["decision"] == 0 and gaps["rejections"] == 0, pid
            worst = max(v for k, v in gaps.items() if k not in ("decision", "rejections"))
            assert worst <= 1e-10, (pid, gaps)


def test_trace_divergence_length_mismatch():
    trace = naive_trajectory(build("e-lord"), [1.0, 2.0])
    traj = build("e-lord").fit([1.0]).trajectory()
    with pytest.raises(ValueError, match="equal length"):
        trace_divergence(trace, traj)


def test_trace_divergence_reports_mismatches():
    stream = np.array([30.0, 0.5, 800.0, 2.0])
    trace = naive_trajectory(build("score-lord"), stream)
    traj = build("score-lord").fit(stream).trajectory()
    gaps = trace_divergence(trace, traj)
    assert set(gaps) == {"alpha", "overshoot", "cost", "fdp_hat", "decision",
                         "rejections", "wealth"}
    assert all(v <= 1e-12 for v in gaps.values())


class TestScaledGap:
    def test_equal_values_are_no_gap(self):
        a = np.array([0.5, np.inf, -np.inf, 1e300])
        assert _scaled_gap(a, a.copy()) == 0.0

    def test_infinity_against_finite_is_infinite(self):
        assert _scaled_gap(np.array([0.0, np.inf]), np.array([0.0, 3.0])) == np.inf
        assert _scaled_gap(np.array([-np.inf]), np.array([np.inf])) == np.inf

    def test_nan_on_one_side_is_infinite(self):
        assert _scaled_gap(np.array([1.0, np.nan]), np.array([1.0, 2.0])) == np.inf
        assert _scaled_gap(np.array([1.0, 2.0]), np.array([1.0, np.nan])) == np.inf

    def test_finite_gap_is_scaled(self):
        a, b = np.array([0.1, 1e12]), np.array([0.1 + 1e-12, 1e12 + 1.0])
        assert _scaled_gap(a, b) == pytest.approx(1e-12, rel=1e-3)


def test_trace_divergence_never_reports_nan():
    stream = np.array([30.0, 0.5, 800.0])
    trace = naive_trajectory(build("score-lord"), stream)
    traj = build("score-lord").fit(stream).trajectory()
    broken = dataclasses.replace(trace, alpha=np.array([np.inf, 0.1, np.nan]),
                                 wealth=np.full(3, np.nan))
    gaps = trace_divergence(broken, traj)
    assert gaps["alpha"] == np.inf and gaps["wealth"] == np.inf
    assert not any(np.isnan(v) for v in gaps.values())
