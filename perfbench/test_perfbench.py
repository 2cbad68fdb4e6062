"""Self-tests of the benchmark: tiny runs of every workload and the tracer's
install/remove cycle.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import scorefdr  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _wrapped_attributes():
    """Every (owner, attribute) pair the tracer targets that exists now."""
    import importlib

    pairs = []
    for module_name, attr, _ in tracer.MODULE_TARGETS:
        module = importlib.import_module(module_name)
        if attr in vars(module):
            pairs.append((module, attr))
    for method, _ in tracer.METHOD_TARGETS:
        for cls in scorefdr.PROCEDURES.values():
            pairs += [(klass, method) for klass in cls.__mro__ if method in vars(klass)]
    return sorted(set(pairs), key=lambda p: (repr(p[0]), p[1]))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_clean(name, trace, tmp_path):
    result = workloads.run_workload(name, seed=3, seconds=0.0, workdir=str(tmp_path),
                                    trace=trace, sizes=workloads.TINY)
    assert result["errors"] == []
    assert result["failed"] == 0
    assert result["rounds"] == workloads.MIN_ROUNDS
    per_round = {"mc-study": 14, "ingest-csv": 3, "online-stream": 2}[name]
    assert result["attempted"] == per_round * workloads.MIN_ROUNDS
    assert result["throughput_steps_per_s"] > 0
    assert result["step_latency_p99_us"] >= result["step_latency_p50_us"] > 0
    if trace:
        layers = result["per_layer"]
        assert set(layers) == set(tracer.LAYER_METRICS)
        assert result["missing_targets"] == []
        if name == "online-stream":
            assert layers["procedures.step.calls"]["value"] == 2 * workloads.TINY.stream
            assert layers["core.Observation.calls"]["value"] == 2 * workloads.TINY.stream
            assert layers["procedures.next_alpha.s"]["value"] > 0
        if name == "ingest-csv":
            rows = workloads.TINY.rows
            assert layers["cli.ingest_stream.rows"]["value"] == 3 * rows
            assert layers["calibration.vovk_p_to_e.values"]["value"] == rows
            assert layers["calibration.conformal_evalue.calls"]["value"] == rows
        if name == "mc-study":
            assert layers["simulation.generate.calls"]["value"] == 14 * workloads.TINY.replicates
            assert layers["procedures.next_alpha.s"]["value"] == 0
        assert layers["procedures.state_bytes_per_step"]["value"] > 0
    else:
        assert "per_layer" not in result


def test_digest_mismatch_counts_as_failure(tmp_path, monkeypatch):
    sizes = workloads.TINY
    monkeypatch.setattr(workloads, "load_digests", lambda: {
        "seed": 3, "sizes": workloads.asdict(sizes),
        "digests": {"online-stream": {"score-lord": "0" * 64}}})
    result = workloads.run_workload("online-stream", seed=3, seconds=0.0,
                                    workdir=str(tmp_path), sizes=sizes)
    assert result["digests_checked"]
    assert result["failed"] == workloads.MIN_ROUNDS
    assert "score-lord" in result["errors"][0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_full_size_round_matches_recorded_digests(name, tmp_path):
    """A run at the default seed and full sizes, checked against digests.json."""
    result = workloads.run_workload(name, seed=workloads.DEFAULT_SEED, seconds=0.0,
                                    workdir=str(tmp_path))
    assert result["digests_checked"]
    assert result["errors"] == []
    assert result["failed"] == 0


def test_install_uninstall_restores_every_attribute():
    before = {(owner, attr): vars(owner)[attr] for owner, attr in _wrapped_attributes()}
    t = tracer.Tracer().install()
    try:
        for (owner, attr), original in before.items():
            assert vars(owner)[attr] is not original
            assert vars(owner)[attr].__wrapped__ is original
        proc = scorefdr.make_procedure("score-lord")
        proc.step(scorefdr.Observation(1, 30.0))
        assert isinstance(proc, scorefdr.OnlineProcedure)
    finally:
        t.uninstall()
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original
    assert t.calls["procedures.step"] == 1
    assert t.calls["procedures.next_alpha"] == 1
    assert t.calls["core.Observation"] == 1


def test_removed_target_reports_zero(monkeypatch):
    monkeypatch.delattr(scorefdr.simulation, "ar1_marginal_pvalue")
    monkeypatch.delattr(scorefdr.procedures.OnlineProcedure, "step")
    t = tracer.Tracer().install()
    t.uninstall()
    assert "scorefdr.simulation.ar1_marginal_pvalue" in t.missing
    assert "scorefdr.procedures.*.step" in t.missing
    layers = t.layer_metrics(rounds=1)
    assert layers["calibration.ar1_pvalue.s"]["value"] == 0
    assert layers["procedures.step.calls"]["value"] == 0


def test_runner_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc-study",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_names_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    import run

    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {m["name"] for m in spec["per_layer"]} == (
        set(tracer.LAYER_METRICS) | {"tracer.overhead_pct"} | set(run.UNBOUNDED_UNITS))
    units = {**run.END_TO_END_UNITS, **run.UNBOUNDED_UNITS, "tracer.overhead_pct": "%",
             **{k: v[0] for k, v in tracer.LAYER_METRICS.items()}}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == units[metric["name"]]


def test_segment_chunks_keep_the_lowest_means_in_each_segment():
    chunks = workloads.SegmentChunks()
    size = workloads.CHUNK_STEPS
    per_segment = workloads.SEGMENT_STEPS // size
    best = workloads.BEST_PER_SEGMENT
    for level in range(best + 5):
        chunks.add([(level + 1) * 1e-6] * workloads.SEGMENT_STEPS + [20e-6] * size)
    samples = chunks.samples()
    assert samples.size == (best + min(best, best + 5)) * size
    kept = np.repeat(np.arange(1, best // per_segment + 2, dtype=float), per_segment)[:best]
    assert np.sort(np.unique(samples[samples != 20.0])) == pytest.approx(np.unique(kept))
    assert np.sum(samples == 20.0) == best * size
    assert chunks.stream_seconds() == pytest.approx(
        (workloads.SEGMENT_STEPS * kept.mean() + size * 20.0) * 1e-6, rel=1e-6)


def test_step_cost_growing_along_the_stream_shows_in_full():
    """Later, slower parts of a stream count as much as its early ones."""
    segments = 10
    growing = np.repeat(np.arange(1.0, segments + 1), workloads.SEGMENT_STEPS) * 1e-6
    flat = np.full(segments * workloads.SEGMENT_STEPS, 1e-6)
    summaries = {}
    for label, profile in (("growing", growing), ("flat", flat)):
        chunks = workloads.SegmentChunks()
        for slowdown in (1.0, 1.9, 1.0, 1.4, 1.0, 1.7):
            chunks.add(profile * slowdown)
        calls = {"s": [workloads.Call(profile.sum(), profile.size)]}
        summaries[label] = workloads.timing_summary(calls, {"s": chunks})
    assert summaries["flat"]["step_latency_p50_us"] == pytest.approx(1.0)
    assert summaries["growing"]["step_latency_p50_us"] == pytest.approx(5.5, abs=0.51)
    ratio = summaries["flat"]["throughput_steps_per_s"] / summaries["growing"][
        "throughput_steps_per_s"]
    assert ratio == pytest.approx(5.5, rel=1e-5)


def test_call_timing_is_each_studys_lower_quartile():
    calls = {"a": [workloads.Call(s, 10) for s in (5.0, 1.0, 2.0, 9.0, 3.0)],
             "b": [workloads.Call(4.0, 30)]}
    summary = workloads.timing_summary(calls, {})
    assert summary["round_s"] == pytest.approx(2.0 + 4.0)
    assert summary["throughput_steps_per_s"] == pytest.approx(40 / 6.0)
    assert summary["latency_samples"] == 2
    per_hypothesis = [2.0 / 10 * 1e6, 4.0 / 30 * 1e6]
    assert summary["step_latency_p50_us"] == pytest.approx(np.percentile(per_hypothesis, 50))


def test_stream_round_time_uses_fastest_chunks_and_fastest_reset_and_trajectory():
    size = workloads.CHUNK_STEPS
    chunks = workloads.SegmentChunks()
    chunks.add([3e-6] * size)
    edges = [0.009, 0.002, 0.004, 0.003, 0.008]
    calls = {"s": [workloads.Call(0.010 + e, size, edge_seconds=e) for e in edges]}
    summary = workloads.timing_summary(calls, {"s": chunks})
    assert summary["round_s"] == pytest.approx(size * 3e-6 + 0.003)
    assert summary["step_latency_p50_us"] == pytest.approx(3.0)


def test_timings_scale_by_the_factor_matching_their_statistic():
    size = workloads.CHUNK_STEPS
    chunks = workloads.SegmentChunks()
    chunks.add([4e-6] * size)
    calls = {"stream": [workloads.Call(0.01, size)] * 3, "call": [workloads.Call(2.0, 100)] * 3}
    summary = workloads.timing_summary(calls, {"stream": chunks}, call_factor=2.0,
                                       chunk_factor=4.0)
    assert summary["round_s"] == pytest.approx(size * 1e-6 + 1.0)
    assert summary["step_latency_p50_us"] == pytest.approx(1.0)
    assert summary["latency_samples"] == size + 1


def test_host_speed_statistics_and_budget():
    speed = workloads.HostSpeed()
    speed.sample(0.0)
    assert len(speed.samples) == 1
    speed.sample(speed.spent + 0.01)
    assert speed.spent >= 0.01
    speed.samples = [5.0] * 396 + [4.0, 3.0, 2.0, 1.0]
    assert speed.floor() == pytest.approx(2.5)
    speed.samples = [5.0] * 196 + [4.0, 3.0, 2.0, 1.0]
    assert speed.floor() == pytest.approx(2.0)
    speed.samples = [float(v) for v in range(1, 102)]
    assert speed.quartile() == pytest.approx(26.0)
    assert speed.factors() == pytest.approx(
        (26.0 / workloads.REFERENCE_QUARTILE_S, 2.0 / workloads.REFERENCE_FLOOR_S))
