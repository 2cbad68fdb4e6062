"""Run one scorefdr benchmark workload and print its metrics.

    python3 perfbench/run.py --workload online-stream --seed 3 --seconds 30 --trace 0

Run from the root of a checkout of the repository; the package is
imported from its ``src/`` directory.  With ``--trace 0`` the result holds
the end-to-end metrics: throughput, median step latency, set-up time and
peak memory.  Timings are scaled to the speed of the reference machine,
by a fixed loop that the worker times between its calls (see
``workloads.HostSpeed``); the measured values are printed too.  With
``--trace 1`` it holds the per-layer metrics of a traced worker, the
tracing overhead against an untraced worker, and the untraced worker's
99th-percentile step latency.  The last line of output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Every worker runs in a fresh process with ``SCOREFDR_THREADS`` unset and
the BLAS / OpenMP thread counts pinned to 1.  This process imports no
part of scorefdr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
WORKLOAD_NAMES = ("mc-study", "ingest-csv", "online-stream")

#: Fresh processes timed for setup_s, after one untimed warm-up that
#: fills the bytecode cache; setup_s is their median, scaled to the
#: reference machine by the worker's call factor.
SETUP_REPEATS = 11
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END_UNITS = {
    "throughput_steps_per_s": "steps/s",
    "step_latency_p50_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: The per-step latency tail follows the host's interference more than the
#: program, so it is reported without a regression bound: from the
#: untraced worker of a traced run.
UNBOUNDED_UNITS = {"step_latency_p99_us": "us"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SCOREFDR_THREADS", None)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(argv: list[str], timeout: float) -> str:
    """Run a child process to completion and return its last output line."""
    try:
        done = subprocess.run([sys.executable, *argv], env=pinned_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[0]} did not finish in {timeout} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{argv[0]} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return lines[-1]


def measure_setup(workload: str) -> list[float]:
    probe = os.path.join(HERE, "probe_setup.py")
    _run_child([probe, workload], timeout=60)
    return [float(_run_child([probe, workload], timeout=60)) for _ in range(SETUP_REPEATS)]


def run_worker(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    argv = [os.path.join(HERE, "workloads.py"), "run", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
            "--workdir", workdir]
    result = json.loads(_run_child(argv, timeout=WORKER_TIMEOUT_S))
    if os.path.commonpath([result["scorefdr_path"], SRC]) != SRC:
        raise BenchError(f"scorefdr was imported from {result['scorefdr_path']}, not {SRC}")
    return result


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = ""
    git_dir = os.path.join(ROOT, ".git")
    if os.path.isdir(git_dir):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                    env=dict(os.environ, GIT_DIR=git_dir), cwd=ROOT,
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    package = os.path.join(SRC, "scorefdr")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                source.update(name.encode() + b"\0" + handle.read())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "git_commit": commit or "unknown", "source_sha256": source.hexdigest()}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one scorefdr benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "scorefdr", "__init__.py")):
        print(f"error: no scorefdr package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    setup: list[float] = []
    setup_measured = 0.0
    try:
        untraced = run_worker(args.workload, args.seed, args.seconds, False, workdir)
        runs = [untraced]
        if args.trace:
            traced = run_worker(args.workload, args.seed, args.seconds, True, workdir)
            runs.append(traced)
            overhead = traced["round_s"] / untraced["round_s"] - 1.0
            metrics = dict(traced["per_layer"])
            metrics["tracer.overhead_pct"] = _metric(100.0 * overhead, "%")
            metrics.update({name: _metric(untraced[name], unit)
                            for name, unit in UNBOUNDED_UNITS.items()})
        else:
            setup = measure_setup(args.workload)
            metrics = {name: _metric(untraced[name], unit)
                       for name, unit in END_TO_END_UNITS.items() if name != "setup_s"}
            setup_measured = statistics.median(setup)
            metrics["setup_s"] = _metric(setup_measured / untraced["call_factor"], "s")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": {**environment(), **untraced["versions"]},
              "runs": runs, "setup_samples_s": setup, "setup_measured_s": setup_measured,
              "metrics": metrics}
    with open(os.path.join(WORK, "results.jsonl"), "a") as handle:
        handle.write(json.dumps(record) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(record["environment"]))
    for run in runs:
        kind = "traced" if run["trace"] else "untraced"
        print(f"{kind}: {run['rounds']} rounds, {run['hypotheses']} hypotheses in "
              f"{run['timed_s']:.3f} s timed; "
              f"{run['latency_samples']} latency samples; "
              f"digests {'checked' if run['digests_checked'] else 'not recorded for this seed'}")
        print(f"{kind}: host factors {run['call_factor']:.4f} for calls, "
              f"{run['chunk_factor']:.4f} for step chunks (reference loop quartile "
              f"{run['reference_quartile_s'] * 1e3:.4f} ms, floor "
              f"{run['reference_floor_s'] * 1e3:.4f} ms, {run['reference_runs']} runs); "
              "measured before scaling: " + ", ".join(
                  f"{name} {run['measured'][name]:.6g}" for name in
                  ("throughput_steps_per_s", "step_latency_p50_us", "step_latency_p99_us")))
        discoveries = {k: v for k, v in run["discoveries"].items() if v is not None}
        if discoveries:
            print(f"{kind}: discoveries {json.dumps(discoveries)}")
        if run.get("missing_targets"):
            print(f"{kind}: absent trace targets (0 calls): {', '.join(run['missing_targets'])}")
        for error in run["errors"]:
            print(f"{kind}: FAILED {error}")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"setup_s measured before scaling: {setup_measured:.6g} s")
        for name, unit in UNBOUNDED_UNITS.items():
            print(f"{name}: {untraced[name]:.6g} {unit} (no bound; in the --trace 1 result)")
    print(f"error_rate: {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
