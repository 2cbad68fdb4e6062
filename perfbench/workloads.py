"""The scorefdr benchmark workloads, run one per fresh worker process.

Each workload is a closed loop with one caller thread: it calls a public
entry point of scorefdr (``cli.main``, ``Procedure.step`` with
``scorefdr.Observation``), waits for it to return, checks the output, and
calls again.  Inputs are generated from the seed before timing starts.

    PYTHONPATH=src python3 perfbench/workloads.py run --workload mc-study \
        --seed 1 --seconds 30 --trace 0 --workdir DIR
    PYTHONPATH=src python3 perfbench/workloads.py record-digests --workdir DIR

``run`` prints one JSON object as its last line of output; ``run.py``
starts it and turns that object into the benchmark's result.
``record-digests`` rewrites ``digests.json`` from one round of every
workload at the default seed and full sizes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import heapq
import io
import json
import math
import os
import resource
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
import scipy
from scipy.special import ndtr

import scorefdr
from scorefdr import cli

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

#: Seed whose output digests are recorded in digests.json.
DEFAULT_SEED = 1
#: Length of the prefix replayed through the brute-force oracle.
ORACLE_PREFIX = 300
#: Per-field tolerance of the oracle check, as in ``scorefdr oracle-check``.
ORACLE_TOL = 1e-10
#: E-values are capped here before the oracle replay (see _oracle_check).
ORACLE_E_CAP = 1e4
#: A study's calls are timed by their lower quartile (see timing_summary).
CALL_QUANTILE = 0.25
#: Share of short timings, fastest first, that a floor is the mean of, and
#: the fewest kept (see fastest_mean).
SELECTED_SHARE = 0.05
MIN_SELECTED = 3
#: Per-step latencies are kept in chunks of CHUNK_STEPS steps: in each
#: segment of SEGMENT_STEPS steps of the stream, the BEST_PER_SEGMENT
#: fastest chunks seen there (see SegmentChunks).
CHUNK_STEPS = 250
SEGMENT_STEPS = 5000
BEST_PER_SEGMENT = 25
#: Host speed (see HostSpeed): a fixed loop of REFERENCE_LOOP iterations is
#: timed between calls until it has taken REFERENCE_SHARE of the timed
#: seconds.  Its floor is the mean of its fastest FLOOR_SHARE of runs.
#: REFERENCE_FLOOR_S and REFERENCE_QUARTILE_S are its floor and lower
#: quartile on the machine the benchmark was built on (2-vCPU Intel Xeon
#: VM, CPython 3.11.7) when it was least disturbed; timings are scaled to
#: that machine.
REFERENCE_LOOP = 5000
REFERENCE_SHARE = 0.05
FLOOR_SHARE = 0.01
REFERENCE_FLOOR_S = 0.30e-3
REFERENCE_QUARTILE_S = 0.34e-3
#: Fewest whole rounds a run makes, so that every study's output is
#: compared across calls.
MIN_ROUNDS = 2

RAI_OMEGA = "rai,0.05,0.5,0.5"
GAUSSIAN_E_PROCEDURES = ("e-lond", "score-lond", "e-lord", "score-lord", "score-plus-lord",
                         "e-saffron", "score-saffron", "score-plus-saffron")
AR_EXPONENTIAL_PROCEDURES = ("e-lord", "score-lord", "score-plus-lord")
AR1_P_PROCEDURES = ("p-lond", "p-lord", "p-saffron")
TRAJECTORY_FIELDS = ("alpha", "decision", "overshoot", "cost", "rejections", "fdp_hat",
                     "wealth", "truth")


@dataclass(frozen=True)
class Sizes:
    horizon: int = 1000        # mc-study: stream length T of every replicate
    replicates: int = 8        # mc-study: replicates per CLI call (README: why not 500)
    rows: int = 5000           # ingest-csv: rows per evidence file (README: why not 10 000)
    calibration: int = 2000    # ingest-csv: conformal calibration scores
    stream: int = 50_000       # online-stream: steps per stream


FULL = Sizes()
TINY = Sizes(horizon=60, replicates=2, rows=200, calibration=100, stream=400)


@dataclass
class Op:
    """One timed call: ``run()`` returns the output that ``digest`` and
    ``check_study`` inspect."""

    study: str
    hypotheses: int
    run: Callable[[], object]


class Failure(Exception):
    """An output failed a correctness check."""


def _file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _call_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _argv(command: str, options: dict[str, str]) -> list[str]:
    argv = [command]
    for key, value in options.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


def _config_text(options: dict[str, str]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in options.items())


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _oracle_check(procedure, evidence: np.ndarray) -> None:
    """Replay a prefix through the brute-force oracle.

    E-values are capped at ``ORACLE_E_CAP`` first, as in acceptance
    criterion 4: the overshoot ``alpha_t * e_t - 1`` multiplies the last-bit
    rounding of ``alpha_t`` by ``e_t``, so with the generators' e-values of
    up to 1e25 the comparison measures conditioning, not the engine.
    """
    prefix = evidence[:ORACLE_PREFIX]
    if procedure.evidence_kind == "e":
        prefix = np.minimum(prefix, ORACLE_E_CAP)
    trajectory = procedure.clone().fit(prefix).trajectory()
    trace = scorefdr.naive_trajectory(procedure, prefix)
    divergence = scorefdr.trace_divergence(trace, trajectory)
    worst = max(divergence.values())
    if not worst <= ORACLE_TOL:
        raise Failure(f"{procedure.procedure_id}: oracle divergence {worst:.3e} "
                      f"over {len(prefix)} steps exceeds {ORACLE_TOL:.0e}")


class Workload:
    """Inputs, the operations of one round, and the output checks."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir

    def setup(self):
        """Construct the workload's procedures and configuration."""
        raise NotImplementedError

    def prepare(self):
        """Generate the inputs (untimed) and build the operations."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        return self._ops

    def digest(self, op: Op, output) -> str:
        raise NotImplementedError

    def check_study(self, study: str, output) -> int | None:
        """Seed-independent checks, run once per study after timing.

        Returns the study's discovery count where the output shows it.
        """
        raise NotImplementedError


class CliWorkload(Workload):
    """Studies that each run one in-process ``scorefdr`` command."""

    command = ""
    #: The option naming the output file that is digested.
    output_key = ""

    def studies(self) -> dict[str, dict[str, str]]:
        raise NotImplementedError

    def _build_ops(self, hypotheses: int):
        self._options = self.studies()
        self._ops = [Op(study, hypotheses,
                        lambda argv=_argv(self.command, options): _call_cli(argv))
                     for study, options in self._options.items()]

    def digest(self, op, output):
        if output != 0:
            raise Failure(f"{op.study}: scorefdr {self.command} exited {output}")
        return _file_digest(self._options[op.study][self.output_key])


# ---------------------------------------------------------------------------
# mc-study: in-process `scorefdr simulate` studies mirroring the paper
# ---------------------------------------------------------------------------


class McStudy(CliWorkload):
    name = "mc-study"
    command = "simulate"
    output_key = "metrics_out"

    def studies(self) -> dict[str, dict[str, str]]:
        plan = [("gaussian_mixture", pid, {}) for pid in GAUSSIAN_E_PROCEDURES]
        plan += [("ar_exponential", pid, {"omega": RAI_OMEGA})
                 for pid in AR_EXPONENTIAL_PROCEDURES]
        plan += [("ar1_gaussian", pid, {"evidence": "p_conditional"})
                 for pid in AR1_P_PROCEDURES]
        out = {}
        for dgp, pid, extra in plan:
            study = f"{dgp}/{pid}"
            out[study] = {
                "procedure": pid, "dgp": dgp, "horizon": str(self.sizes.horizon),
                "replicates": str(self.sizes.replicates), "seed": str(self.seed),
                "metrics_out": os.path.join(self.workdir, study.replace("/", "__") + ".csv"),
                **extra,
            }
        return out

    def setup(self):
        return [self._config(options) for options in self.studies().values()]

    @staticmethod
    def _config(options):
        cfg = cli.parse_config(_config_text(options), mode="simulate")
        return cfg, cfg.build_procedure(), cfg.build_dgp()

    def prepare(self):
        self._build_ops(self.sizes.replicates * self.sizes.horizon)

    def check_study(self, study, output):
        options = self._options[study]
        header, rows = _read_csv(options["metrics_out"])
        if tuple(header) != cli.METRICS_HEADER or len(rows) != self.sizes.horizon:
            raise Failure(f"{study}: metrics CSV has header {header} and {len(rows)} rows")
        values = np.asarray(rows, dtype=float)
        if not np.array_equal(values[:, 0], np.arange(1, self.sizes.horizon + 1)):
            raise Failure(f"{study}: metrics checkpoints are not 1..T")
        curves = values[:, [1, 3]]
        if not (np.all(curves >= 0.0) and np.all(curves <= 1.0)):
            raise Failure(f"{study}: fdr or power outside [0, 1]")
        _, procedure, dgp = self._config(options)
        stream = scorefdr.generate(dgp)
        evidence = options.get("evidence", "e")
        _oracle_check(procedure, stream.evidence(evidence))
        return None


# ---------------------------------------------------------------------------
# ingest-csv: in-process `scorefdr ingest` over generated CSV files
# ---------------------------------------------------------------------------


class IngestCsv(CliWorkload):
    name = "ingest-csv"
    command = "ingest"
    output_key = "decisions_out"

    def _paths(self):
        return {name: os.path.join(self.workdir, name)
                for name in ("pvalues.csv", "scores.csv", "calibration.csv")}

    def studies(self) -> dict[str, dict[str, str]]:
        paths = self._paths()

        def out(study):
            return os.path.join(self.workdir, "decisions__" + study.replace("/", "__") + ".csv")

        return {
            "vovk/score-lord": {
                "input": paths["pvalues.csv"], "calibrator": "vovk",
                "procedure": "score-lord", "decisions_out": out("vovk/score-lord")},
            "none/p-saffron": {
                "input": paths["pvalues.csv"], "calibrator": "none",
                "procedure": "p-saffron", "decisions_out": out("none/p-saffron")},
            "conformal/score-plus-lord": {
                "input": paths["scores.csv"], "calibrator": "conformal",
                "calibration_scores": paths["calibration.csv"],
                "procedure": "score-plus-lord",
                "decisions_out": out("conformal/score-plus-lord")},
        }

    def setup(self):
        configs = [cli.parse_config(_config_text(options), mode="ingest")
                   for options in self.studies().values()]
        return [(cfg, cfg.build_procedure()) for cfg in configs]

    def _generate(self):
        """Evidence with 20% non-nulls, strong enough that every study rejects.

        p-values are one-sided normal tails with alternative mean 4.5.
        Scores are Exp(1) under the null and 2000 * Exp(1) otherwise, so a
        non-null conformal e-value approaches the calibration size + 1.
        """
        rng = np.random.Generator(np.random.PCG64(self.seed))
        n = self.sizes.rows
        truth = rng.random(n) < 0.2
        z = rng.standard_normal(n) + 4.5 * truth
        p = np.clip(ndtr(-z), 1e-300, 1.0)
        scores = -np.log1p(-rng.random(n)) * np.where(truth, 2000.0, 1.0)
        calibration = -np.log1p(-rng.random(self.sizes.calibration))
        return truth, p, scores, calibration

    def prepare(self):
        truth, p, scores, calibration = self._generate()
        self._truth = truth
        self._evidence = {
            "vovk/score-lord": scorefdr.vovk_p_to_e(p),
            "none/p-saffron": p,
            "conformal/score-plus-lord": scorefdr.conformal_evalue(
                scores, scorefdr.CalibrationSet(calibration)),
        }
        paths = self._paths()
        labels = truth.astype(int).tolist()
        for path, column, values in ((paths["pvalues.csv"], "p", p),
                                     (paths["scores.csv"], "score", scores)):
            with open(path, "w") as handle:
                handle.write(f"index,{column},truth\n")
                handle.writelines(f"{i},{v:.17g},{t}\n"
                                  for i, (v, t) in enumerate(zip(values.tolist(), labels), 1))
        with open(paths["calibration.csv"], "w") as handle:
            handle.write("score\n")
            handle.writelines(f"{v:.17g}\n" for v in calibration.tolist())
        self._build_ops(self.sizes.rows)

    def _direct(self, study):
        procedure = scorefdr.make_procedure(self._options[study]["procedure"])
        return procedure, procedure.clone().fit(self._evidence[study], self._truth).trajectory()

    def check_study(self, study, output):
        """The decisions CSV, read back, equals a direct fit bit for bit."""
        header, rows = _read_csv(self._options[study]["decisions_out"])
        if tuple(header) != cli.DECISIONS_HEADER or len(rows) != self.sizes.rows:
            raise Failure(f"{study}: decisions CSV has header {header} and {len(rows)} rows")
        columns = dict(zip(header, np.asarray(rows, dtype=float).T))
        procedure, direct = self._direct(study)
        expected = {"index": np.arange(1, len(direct) + 1), "alpha": direct.alpha,
                    "decision": direct.decision, "overshoot": direct.overshoot,
                    "cost": direct.cost, "rejections": direct.rejections,
                    "fdp_hat": direct.fdp_hat}
        for name, values in expected.items():
            if not np.array_equal(columns[name], np.asarray(values, dtype=float)):
                raise Failure(f"{study}: decisions column {name!r} differs from a direct fit")
        _oracle_check(procedure, self._evidence[study])
        return direct.n_rejections


# ---------------------------------------------------------------------------
# online-stream: one Observation at a time through step()
# ---------------------------------------------------------------------------


class OnlineStream(Workload):
    name = "online-stream"

    def setup(self):
        schedule = scorefdr.Schedule
        return {
            "score-plus-saffron": scorefdr.make_procedure(
                "score-plus-saffron", omega=schedule.parse(RAI_OMEGA),
                lam=schedule.constant(0.5)),
            "score-lord": scorefdr.make_procedure("score-lord", omega=schedule.constant(0.05)),
        }

    def prepare(self):
        stream = scorefdr.generate(
            scorefdr.DgpConfig("ar_exponential", horizon=self.sizes.stream, seed=self.seed))
        self._x = stream.evalue
        self._y = stream.truth
        self._values = stream.evalue.tolist()
        self._labels = stream.truth.tolist()
        self._procedures = self.setup()
        self._ops = [Op(pid, self.sizes.stream, lambda proc=proc: self._feed(proc))
                     for pid, proc in self._procedures.items()]

    def _feed(self, proc):
        """Feed the stream one Observation at a time; return the trajectory,
        the wall time of each step() call with its Observation, and the
        wall time of reset() and trajectory()."""
        observation = scorefdr.Observation
        step = proc.step
        values, labels = self._values, self._labels
        clock = time.perf_counter
        latencies = [0.0] * len(values)
        edges = clock()
        proc.reset()
        edges = clock() - edges
        for i in range(len(values)):
            start = clock()
            step(observation(i + 1, values[i], kind="e", truth=labels[i]))
            latencies[i] = clock() - start
        start = clock()
        trajectory = proc.trajectory()
        return trajectory, latencies, edges + clock() - start

    def digest(self, op, output):
        trajectory = output[0]
        h = hashlib.sha256()
        for name in TRAJECTORY_FIELDS:
            value = getattr(trajectory, name)
            dtype = {"decision": np.uint8, "truth": np.uint8, "rejections": np.int64}.get(
                name, np.float64)
            h.update(name.encode())
            h.update(np.ascontiguousarray(value, dtype=dtype).tobytes())
        return h.hexdigest()

    def check_study(self, study, output):
        """step() equals fit() on the same array, and the prefix the oracle."""
        trajectory = output[0]
        procedure = self._procedures[study]
        fitted = procedure.clone().fit(self._x, self._y).trajectory()
        for name in TRAJECTORY_FIELDS:
            if not np.array_equal(getattr(trajectory, name), getattr(fitted, name),
                                  equal_nan=name not in ("decision", "truth", "rejections")):
                raise Failure(f"{study}: step() field {name!r} differs from fit()")
        _oracle_check(procedure, self._x)
        return trajectory.n_rejections


WORKLOADS = {cls.name: cls for cls in (McStudy, IngestCsv, OnlineStream)}


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def load_digests() -> dict:
    try:
        with open(DIGESTS_PATH) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


@dataclass
class Call:
    """Wall time of one successful call and the hypotheses it decided.

    ``edge_seconds`` is the time of ``reset()`` and ``trajectory()``, for
    a call that reports per-step latencies.
    """

    seconds: float
    hypotheses: int
    edge_seconds: float = 0.0


def fastest_mean(values, share: float = SELECTED_SHARE) -> float:
    """Mean of the fastest ``share`` of ``values``, and of at least
    ``MIN_SELECTED`` (all of them, when there are fewer)."""
    ranked = sorted(values)
    kept = ranked[:max(MIN_SELECTED, math.ceil(share * len(ranked)))]
    return math.fsum(kept) / len(kept)


class SegmentChunks:
    """Per-step latencies of one study, in microseconds: in each segment of
    ``SEGMENT_STEPS`` steps of the stream, the ``BEST_PER_SEGMENT`` chunks
    of ``CHUNK_STEPS`` consecutive steps with the lowest mean seen so far.

    Chunks of about 1 ms are short enough that the fastest ones ran
    while co-tenants left the core alone.  Every segment keeps the
    same number of chunks, so a step cost that grows along the stream
    shows in the samples in full.  Memory stays fixed however long the run.
    """

    def __init__(self):
        self._heaps: list[list[tuple[float, int, np.ndarray]]] = []
        self._steps: list[int] = []
        self._added = 0

    def add(self, seconds) -> None:
        """Add the step latencies, in seconds, of one whole stream."""
        micros = np.asarray(seconds, dtype=float) * 1e6
        for segment, first in enumerate(range(0, len(micros), SEGMENT_STEPS)):
            end = min(first + SEGMENT_STEPS, len(micros))
            if segment == len(self._heaps):
                self._heaps.append([])
                self._steps.append(end - first)
            heap = self._heaps[segment]
            for start in range(first, end, CHUNK_STEPS):
                chunk = micros[start:min(start + CHUNK_STEPS, end)].astype(np.float32)
                item = (-float(chunk.mean()), self._added, chunk)
                self._added += 1
                if len(heap) < BEST_PER_SEGMENT:
                    heapq.heappush(heap, item)
                elif item > heap[0]:
                    heapq.heapreplace(heap, item)

    def _segment_samples(self) -> list[np.ndarray]:
        return [np.concatenate([chunk for _, _, chunk in heap]) for heap in self._heaps]

    def samples(self) -> np.ndarray:
        return np.concatenate(self._segment_samples())

    def stream_seconds(self) -> float:
        """Time of one stream's steps: each segment's steps at the mean
        latency of the chunks kept there."""
        return 1e-6 * sum(steps * float(samples.mean())
                          for steps, samples in zip(self._steps, self._segment_samples()))


def _reference_loop() -> int:
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    return total


class HostSpeed:
    """The host's speed during a run, from a fixed pure-Python loop timed
    between calls.

    On a shared host, co-tenants slow computation in phases, and even the
    speed of the least disturbed moments drifts by up to 30% over minutes.
    The loop runs in the same phases as the program, so the statistic of
    its runs that matches a timing's statistic drifts with that timing;
    timings divided by :meth:`factors` compare across runs.  The loop
    allocates no tracked objects and calls nothing of scorefdr, so a
    change to the program leaves it alone.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, budget: float) -> None:
        """Time the loop at least once, and until it has taken ``budget`` s."""
        clock = time.perf_counter
        while True:
            start = clock()
            _reference_loop()
            elapsed = clock() - start
            self.samples.append(elapsed)
            self.spent += elapsed
            if self.spent >= budget:
                return

    def floor(self) -> float:
        return fastest_mean(self.samples, FLOOR_SHARE)

    def quartile(self) -> float:
        return float(np.quantile(self.samples, CALL_QUANTILE))

    def factors(self) -> tuple[float, float]:
        """How much slower the host ran than the reference machine: by the
        loop's lower quartile, for whole calls, and by its floor, for
        per-step chunks."""
        return self.quartile() / REFERENCE_QUARTILE_S, self.floor() / REFERENCE_FLOOR_S


def timing_summary(calls: dict[str, list[Call]], chunks: dict[str, SegmentChunks],
                   call_factor: float = 1.0, chunk_factor: float = 1.0) -> dict:
    """Throughput of a round built from each study's timings, and
    percentiles of per-hypothesis latency, with call times divided by
    ``call_factor`` and step times by ``chunk_factor``.

    A study without per-step latencies contributes the lower quartile of
    its call times to the round, and that time per hypothesis as a latency
    sample.  On a busy host, a call of tens of milliseconds rarely runs
    undisturbed, but its quartile moves with the reference loop's quartile
    (see :class:`HostSpeed`).  A study with per-step latencies contributes
    the steps of its fastest chunks in every segment as samples: chunks of
    about a millisecond do run undisturbed, and their floor moves with the
    loop's floor.  Its round time is the stream's steps at those chunks'
    mean latency, plus the fastest times of ``reset()`` and
    ``trajectory()``.  The caller's own loop and clock reads between steps
    are not the program's work and are left out.
    """
    if not calls:
        return {"round_s": 0.0, "throughput_steps_per_s": 0.0, "step_latency_p50_us": 0.0,
                "step_latency_p99_us": 0.0, "latency_samples": 0}
    round_s = 0.0
    round_hypotheses = 0
    samples = []
    for study, study_calls in calls.items():
        hypotheses = study_calls[0].hypotheses
        round_hypotheses += hypotheses
        if study in chunks:
            edges = fastest_mean(c.edge_seconds for c in study_calls)
            round_s += (chunks[study].stream_seconds() + edges) / chunk_factor
            samples.append(chunks[study].samples() / chunk_factor)
        else:
            seconds = float(np.quantile([c.seconds for c in study_calls], CALL_QUANTILE))
            round_s += seconds / call_factor
            samples.append(np.array([seconds / hypotheses * 1e6 / call_factor]))
    pooled = np.concatenate(samples)
    p50, p99 = np.percentile(pooled, [50, 99])
    return {"round_s": round_s, "throughput_steps_per_s": round_hypotheses / round_s,
            "step_latency_p50_us": float(p50), "step_latency_p99_us": float(p99),
            "latency_samples": int(pooled.size)}


def run_workload(name: str, seed: int, seconds: float, workdir: str, trace: bool = False,
                 sizes: Sizes = FULL) -> dict:
    """Run whole rounds of the workload until ``seconds`` of timed calls,
    and at least ``MIN_ROUNDS`` rounds.

    Every call's output is digested: it must match the first output of the
    same study and, at the default seed and sizes, the recorded digest.
    A call that raises, exits non-zero or fails a check counts as failed.
    Throughput and latency come from :func:`timing_summary`, scaled to the
    reference machine by the :class:`HostSpeed` loop, which runs before
    every call, outside the timed seconds.
    """
    workload = WORKLOADS[name](seed, sizes, workdir)
    workload.prepare()
    recorded = {}
    stored = load_digests()
    if seed == stored.get("seed") and asdict(sizes) == stored.get("sizes"):
        recorded = stored.get("digests", {}).get(name, {})

    tracer = None
    if trace:
        from tracer import Tracer  # imported only by the traced process
        tracer = Tracer().install()

    first_digest: dict[str, str] = {}
    last_output: dict[str, object] = {}
    calls: dict[str, list[Call]] = {}
    chunks: dict[str, SegmentChunks] = {}
    speed = HostSpeed()
    attempted = failed = rounds = hypotheses = 0
    errors: list[str] = []
    timed = 0.0
    clock = time.perf_counter
    gc.collect()
    try:
        while rounds < MIN_ROUNDS or timed < seconds:
            for op in workload.ops():
                speed.sample(REFERENCE_SHARE * timed)
                attempted += 1
                start = clock()
                try:
                    output = op.run()
                    elapsed = clock() - start
                    digest = workload.digest(op, output)
                    expected = first_digest.setdefault(op.study, recorded.get(op.study, digest))
                    if digest != expected:
                        raise Failure(f"{op.study}: output digest {digest[:12]} "
                                      f"differs from {expected[:12]}")
                except Exception as exc:  # a failed call counts; the loop goes on
                    elapsed = clock() - start
                    failed += 1
                    errors.append(f"{op.study}: {type(exc).__name__}: {exc}")
                    timed += elapsed
                    continue
                timed += elapsed
                hypotheses += op.hypotheses
                last_output[op.study] = output
                call = Call(elapsed, op.hypotheses)
                if isinstance(output, tuple):
                    call.edge_seconds = output[2]
                    chunks.setdefault(op.study, SegmentChunks()).add(output[1])
                calls.setdefault(op.study, []).append(call)
            rounds += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    discoveries = {}
    for study, output in last_output.items():
        try:
            discoveries[study] = workload.check_study(study, output)
        except Exception as exc:  # a failed check fails every passed call of the study
            failed += len(calls[study])
            errors.append(f"{study}: {type(exc).__name__}: {exc}")
            if not isinstance(exc, Failure):
                errors.append(traceback.format_exc())

    measured = timing_summary(calls, chunks)
    call_factor, chunk_factor = speed.factors()
    result = {
        "workload": name, "seed": seed, "trace": trace, "sizes": asdict(sizes),
        "rounds": rounds, "attempted": attempted, "failed": failed, "errors": errors[:20],
        "timed_s": timed, "hypotheses": hypotheses,
        **timing_summary(calls, chunks, call_factor, chunk_factor), "measured": measured,
        "call_factor": call_factor, "chunk_factor": chunk_factor,
        "reference_floor_s": speed.floor(), "reference_quartile_s": speed.quartile(),
        "reference_runs": len(speed.samples), "reference_s": speed.spent,
        "peak_rss_mb": peak_rss_mb, "digests_checked": bool(recorded),
        "digests": first_digest, "discoveries": discoveries,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "scorefdr": getattr(scorefdr, "__version__", "unknown")},
        "scorefdr_path": os.path.dirname(os.path.abspath(scorefdr.__file__)),
    }
    if tracer is not None:
        result["per_layer"] = tracer.layer_metrics(rounds)
        result["missing_targets"] = tracer.missing
    return result


def record_digests(workdir: str) -> dict:
    """Digests of one round of every workload at the default seed."""
    out = {"seed": DEFAULT_SEED, "sizes": asdict(FULL), "digests": {}}
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_SEED, FULL, workdir)
        workload.prepare()
        out["digests"][name] = {op.study: workload.digest(op, op.run()) for op in workload.ops()}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one workload and print its result as JSON")
    run.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--workdir", required=True)
    record = sub.add_parser("record-digests", help="rewrite digests.json")
    record.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    if args.command == "record-digests":
        with open(DIGESTS_PATH, "w") as handle:
            json.dump(record_digests(args.workdir), handle, indent=1, sort_keys=True)
            handle.write("\n")
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, args.workdir,
                          trace=bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
