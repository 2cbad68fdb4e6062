"""Command-line front end: simulate benchmark streams, ingest CSV evidence,
apply calibrators, run procedures, and emit decision / metrics reports.

Configuration is a flat ``key = value`` file with ``#`` comments; every key
is also available as a command-line flag, and flags override the file.  The
exact file formats, config keys, and serialization rules are documented in
FORMATS.md at the repository root.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationSet, conformal_evalue, vovk_p_to_e
from .procedures import (
    PROCEDURE_IDS,
    OnlineProcedure,
    Trajectory,
    make_procedure,
)
from .reference import naive_trajectory, trace_divergence
from .schedules import DEFAULT_GAMMA, DEFAULT_LAMBDA, DEFAULT_OMEGA, Schedule
from .simulation import (
    DgpConfig,
    MetricsReport,
    evaluate,
    generate,
    replicate,
    resolve_evidence,
)

DECISIONS_HEADER = ("index", "alpha", "decision", "overshoot", "cost", "rejections", "fdp_hat")
METRICS_HEADER = ("t", "fdr", "fdr_se", "power", "power_se")

CALIBRATORS = ("none", "vovk", "conformal")
EVIDENCE_CHOICES = ("auto", "e", "p_conditional", "p_marginal")

_COMMON_KEYS = {
    "mode", "procedure", "alpha", "gamma", "omega", "lambda", "seed",
    "checkpoints", "decisions_out", "metrics_out",
}
_SIMULATE_KEYS = {"dgp", "horizon", "pi1", "rho", "mu_set", "phi0", "phi1",
                  "replicates", "evidence"}
_INGEST_KEYS = {"input", "calibrator", "calibration_scores"}
ALL_KEYS = _COMMON_KEYS | _SIMULATE_KEYS | _INGEST_KEYS


class ConfigError(ValueError):
    """A configuration problem, formatted with its source location."""


@dataclass
class RunConfig:
    """Fully validated settings for one run."""

    mode: str
    procedure: str
    alpha: float = 0.05
    gamma: Schedule = DEFAULT_GAMMA
    omega: Schedule = DEFAULT_OMEGA
    lam: Schedule = DEFAULT_LAMBDA
    dgp: str = "gaussian_mixture"
    horizon: int = 1000
    pi1: float = 0.3
    rho: float = 0.5
    mu_set: tuple[float, ...] = (3.0, 20.0)
    phi0: float = 0.5
    phi1: float = 3.0
    seed: int = 0
    replicates: int = 1
    checkpoints: tuple[int, ...] | None = None
    evidence: str = "auto"
    calibrator: str = "none"
    input: str | None = None
    calibration_scores: str | None = None
    decisions_out: str | None = None
    metrics_out: str | None = None

    def build_procedure(self) -> OnlineProcedure:
        """The configured procedure; a schedule it cannot use is a :class:`ConfigError`."""
        try:
            return make_procedure(
                self.procedure, alpha=self.alpha, gamma=self.gamma,
                omega=self.omega, lam=self.lam,
            )
        except ValueError as exc:
            raise ConfigError(f"config: {exc}") from None

    def build_dgp(self) -> DgpConfig:
        return DgpConfig(
            dgp=self.dgp, horizon=self.horizon, pi1=self.pi1, rho=self.rho,
            mu_set=self.mu_set, phi0=self.phi0, phi1=self.phi1, seed=self.seed,
        )


def _fail(where: str, message: str):
    raise ConfigError(f"{where}: {message}")


def _to_float(raw, where, key, lo=None, hi=None, lo_open=False, hi_open=False):
    try:
        value = float(raw)
    except ValueError:
        _fail(where, f"{key} must be a number, got {raw!r}")
    if not math.isfinite(value):
        _fail(where, f"{key} must be finite, got {raw!r}")
    if lo is not None and (value < lo or (lo_open and value == lo)):
        _fail(where, f"{key} out of range: got {value!r}")
    if hi is not None and (value > hi or (hi_open and value == hi)):
        _fail(where, f"{key} out of range: got {value!r}")
    return value


def _to_int(raw, where, key, lo=None):
    try:
        value = int(str(raw).strip())
    except ValueError:
        _fail(where, f"{key} must be an integer, got {raw!r}")
    if lo is not None and value < lo:
        _fail(where, f"{key} must be >= {lo}, got {value}")
    return value


def _to_choice(raw, where, key, choices):
    value = str(raw).strip()
    if value not in choices:
        _fail(where, f"{key} must be one of {', '.join(choices)}; got {value!r}")
    return value


def _to_schedule(raw, where, key):
    try:
        return Schedule.parse(raw)
    except ValueError as exc:
        _fail(where, f"{key}: {exc}")


def read_raw_config(text: str) -> dict[str, tuple[str, str]]:
    """Parse ``key = value`` lines into ``{key: (value, location)}``."""
    entries: dict[str, tuple[str, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            _fail(f"line {lineno}", f"expected 'key = value', got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in ALL_KEYS:
            _fail(f"line {lineno}", f"unknown key {key!r}")
        if key in entries:
            _fail(f"line {lineno}", f"duplicate key {key!r}")
        entries[key] = (value, f"line {lineno}")
    return entries


def build_config(entries: dict[str, tuple[str, str]], mode: str | None = None) -> RunConfig:
    """Validate raw entries (from file and/or flags) into a :class:`RunConfig`."""
    def where(key):
        return entries[key][1]

    if "mode" in entries:
        file_mode = _to_choice(entries["mode"][0], where("mode"), "mode",
                               ("simulate", "ingest"))
        if mode is not None and file_mode != mode:
            _fail(where("mode"), f"mode {file_mode!r} conflicts with the {mode!r} command")
        mode = file_mode
    if mode is None:
        raise ConfigError("config: missing key 'mode'")

    allowed = _COMMON_KEYS | (_SIMULATE_KEYS if mode == "simulate" else _INGEST_KEYS)
    for key in entries:
        if key not in allowed:
            _fail(where(key), f"key {key!r} does not apply to mode {mode!r}")

    if "procedure" not in entries:
        raise ConfigError("config: missing key 'procedure'")
    cfg = RunConfig(
        mode=mode,
        procedure=_to_choice(entries["procedure"][0], where("procedure"),
                             "procedure", PROCEDURE_IDS),
    )

    if "alpha" in entries:
        cfg.alpha = _to_float(entries["alpha"][0], where("alpha"), "alpha",
                              lo=0.0, hi=1.0, lo_open=True, hi_open=True)
    for key, attr in (("gamma", "gamma"), ("omega", "omega"), ("lambda", "lam")):
        if key in entries:
            setattr(cfg, attr, _to_schedule(entries[key][0], where(key), key))
    if "seed" in entries:
        cfg.seed = _to_int(entries["seed"][0], where("seed"), "seed", lo=0)
    if "checkpoints" in entries:
        raw, loc = entries["checkpoints"]
        points = tuple(_to_int(part, loc, "checkpoints", lo=1)
                       for part in raw.split(",") if part.strip())
        if not points:
            _fail(loc, "checkpoints must be a comma-separated list of indices")
        cfg.checkpoints = points
    for key, attr in (("decisions_out", "decisions_out"), ("metrics_out", "metrics_out")):
        if key in entries:
            setattr(cfg, attr, entries[key][0])

    if mode == "simulate":
        if "dgp" in entries:
            cfg.dgp = _to_choice(entries["dgp"][0], where("dgp"), "dgp",
                                 ("gaussian_mixture", "ar_exponential", "ar1_gaussian"))
        if "horizon" in entries:
            cfg.horizon = _to_int(entries["horizon"][0], where("horizon"), "horizon", lo=1)
        if "pi1" in entries:
            cfg.pi1 = _to_float(entries["pi1"][0], where("pi1"), "pi1", lo=0.0, hi=1.0)
        if "rho" in entries:
            cfg.rho = _to_float(entries["rho"][0], where("rho"), "rho", lo=0.0)
        if "mu_set" in entries:
            raw, loc = entries["mu_set"]
            cfg.mu_set = tuple(_to_float(part, loc, "mu_set")
                               for part in raw.split(",") if part.strip())
        if "phi0" in entries:
            cfg.phi0 = _to_float(entries["phi0"][0], where("phi0"), "phi0")
        if "phi1" in entries:
            cfg.phi1 = _to_float(entries["phi1"][0], where("phi1"), "phi1")
        if "replicates" in entries:
            cfg.replicates = _to_int(entries["replicates"][0], where("replicates"),
                                     "replicates", lo=1)
        if "evidence" in entries:
            cfg.evidence = _to_choice(entries["evidence"][0], where("evidence"),
                                      "evidence", EVIDENCE_CHOICES)
        try:
            cfg.build_dgp()
        except ValueError as exc:
            raise ConfigError(f"config: {exc}") from None
    else:
        if "calibrator" in entries:
            cfg.calibrator = _to_choice(entries["calibrator"][0], where("calibrator"),
                                        "calibrator", CALIBRATORS)
        for key in ("input", "calibration_scores"):
            if key in entries:
                setattr(cfg, key, entries[key][0])
        if cfg.input is None:
            raise ConfigError("config: ingest mode requires the 'input' key")
        if cfg.calibrator == "conformal" and cfg.calibration_scores is None:
            raise ConfigError(
                "config: calibrator=conformal requires 'calibration_scores'"
            )
    return cfg


def parse_config(text: str, mode: str | None = None) -> RunConfig:
    """Parse and validate a flat key-value config document."""
    return build_config(read_raw_config(text), mode=mode)


# ---------------------------------------------------------------------------
# CSV ingestion and report emission
# ---------------------------------------------------------------------------


def _load_calibration_scores(path: str) -> CalibrationSet:
    scores = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "score" not in reader.fieldnames:
            raise ConfigError(f"{path}: calibration file needs a 'score' column")
        for row in reader:
            try:
                scores.append(float(row["score"]))
            except (TypeError, ValueError):
                raise ConfigError(
                    f"{path} row {reader.line_num}: bad score {row['score']!r}") from None
    try:
        return CalibrationSet(np.asarray(scores))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def ingest_stream(
    path: str,
    calibrator: str = "none",
    calibration: CalibrationSet | None = None,
) -> tuple[np.ndarray, str, np.ndarray | None]:
    """Read an evidence stream from CSV, applying the chosen calibrator.

    The file must have a header with exactly one evidence column among
    ``p`` (p-values in (0, 1]), ``e`` (non-negative e-values), and ``score``
    (non-negative raw scores, conformal calibration only).  Optional columns:
    ``index`` (must then run 1..T in file order) and ``truth`` (0/1, on
    every row or on none).  Malformed rows are hard errors naming the row
    by its file line, the header being line 1.
    Returns ``(evidence, kind, truth)``: the calibrated evidence array, its
    kind (``"p"`` for a ``p`` column under ``calibrator="none"``, else
    ``"e"``) and the boolean truth array, or None when no row is labelled.
    """
    if calibrator not in CALIBRATORS:
        raise ConfigError(f"unknown calibrator {calibrator!r}")
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        evidence_cols = [c for c in ("p", "e", "score") if c in header]
        if len(evidence_cols) != 1:
            raise ConfigError(
                f"{path}: need exactly one evidence column among p, e, score; "
                f"found {evidence_cols or 'none'}"
            )
        col = evidence_cols[0]
        if col == "score" and calibrator != "conformal":
            raise ConfigError(f"{path}: a 'score' column requires calibrator=conformal")
        if col != "score" and calibrator == "conformal":
            raise ConfigError(f"{path}: calibrator=conformal requires a 'score' column")
        if col == "e" and calibrator == "vovk":
            raise ConfigError(f"{path}: calibrator=vovk applies to a 'p' column, not 'e'")
        if calibrator == "conformal" and calibration is None:
            raise ConfigError("conformal calibration needs a calibration set")

        values: list[float] = []
        labels: list[str] = []
        first_blank = None
        for record, row in enumerate(reader, start=1):
            where = f"{path} row {reader.line_num}"
            if "index" in header:
                idx = _to_int(row["index"], where, "index", lo=1)
                if idx != record:
                    _fail(where, f"index must run 1..T in file order; expected {record}, got {idx}")
            try:
                value = float(row[col])
            except (TypeError, ValueError):
                _fail(where, f"bad {col} value {row[col]!r}")
            if not math.isfinite(value):
                _fail(where, f"{col} must be finite, got {value!r}")
            label = row.get("truth") or ""
            if label not in ("", "0", "1"):
                _fail(where, f"truth must be 0 or 1, got {label!r}")
            if not label and first_blank is None:
                first_blank = reader.line_num

            if col == "p":
                if not (0.0 < value <= 1.0):
                    _fail(where, f"p-value out of (0, 1]: {value!r}")
            elif col == "e":
                if value < 0.0:
                    _fail(where, f"negative e-value: {value!r}")
            elif value < 0.0:
                _fail(where, f"negative score: {value!r}")
            values.append(value)
            labels.append(label)

    truth = None
    if any(labels):
        if first_blank is not None:
            _fail(f"{path} row {first_blank}", "truth is blank; label every row or none")
        truth = np.asarray(labels) == "1"
    evidence = np.asarray(values, dtype=float)
    if calibrator == "vovk":
        evidence = vovk_p_to_e(evidence)
    elif calibrator == "conformal":
        evidence = conformal_evalue(evidence, calibration)
    return evidence, "p" if calibrator == "none" and col == "p" else "e", truth


def _load_stream(cfg: RunConfig, procedure: OnlineProcedure):
    """The evidence and truth arrays ``cfg`` names, checked against ``procedure``."""
    calibration = None
    if cfg.calibrator == "conformal":
        calibration = _load_calibration_scores(cfg.calibration_scores)
    evidence, kind, truth = ingest_stream(cfg.input, cfg.calibrator, calibration)
    if not len(evidence):
        raise ConfigError(f"{cfg.input}: no data rows")
    if kind != procedure.evidence_kind:
        raise ConfigError(
            f"{cfg.procedure} consumes {procedure.evidence_kind!r} evidence, but "
            f"calibrator={cfg.calibrator} on {cfg.input} gives {kind!r} evidence"
        )
    return evidence, truth


def _fmt(column):
    return (format(value, ".17g") for value in np.asarray(column, dtype=float).tolist())


def _write_csv(path: str, what: str, header, rows) -> None:
    try:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def emit_decisions(trajectory: Trajectory, path: str) -> None:
    """Write the per-step decision ledger as CSV (17 significant digits), a row at a time."""
    _write_csv(path, "decisions", DECISIONS_HEADER, zip(
        range(1, len(trajectory) + 1),
        _fmt(trajectory.alpha),
        trajectory.decision.astype(int).tolist(),
        _fmt(trajectory.overshoot),
        _fmt(trajectory.cost),
        trajectory.rejections.astype(int).tolist(),
        _fmt(trajectory.fdp_hat),
    ))


def emit_metrics(report: MetricsReport, path: str) -> None:
    """Write the aggregated FDR / power curves as CSV."""
    _write_csv(path, "metrics", METRICS_HEADER, zip(
        np.asarray(report.checkpoints, dtype=int).tolist(),
        _fmt(report.fdr),
        _fmt(report.fdr_se),
        _fmt(report.power),
        _fmt(report.power_se),
    ))


def read_decisions(path: str) -> dict[str, np.ndarray]:
    """Read back a decisions CSV into arrays (used for round-trip checks)."""
    columns = {name: [] for name in DECISIONS_HEADER}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if tuple(reader.fieldnames or ()) != DECISIONS_HEADER:
            raise ValueError(f"{path}: unexpected header {reader.fieldnames}")
        for row in reader:
            for name in DECISIONS_HEADER:
                columns[name].append(float(row[name]))
    out = {name: np.asarray(vals) for name, vals in columns.items()}
    out["index"] = out["index"].astype(int)
    out["decision"] = out["decision"].astype(bool)
    out["rejections"] = out["rejections"].astype(int)
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _metrics_from_single(trajectory: Trajectory, dgp: DgpConfig | None, procedure_id: str,
                         checkpoints) -> MetricsReport:
    fdp, power = evaluate(trajectory)
    checkpoints = np.asarray(checkpoints, dtype=int)
    if checkpoints.min() < 1 or checkpoints.max() > len(trajectory):
        raise ConfigError(
            f"checkpoints must lie in [1, {len(trajectory)}] for this stream"
        )
    idx = checkpoints - 1
    zeros = np.zeros(len(idx))
    return MetricsReport(
        checkpoints=checkpoints, fdr=fdp[idx], fdr_se=zeros,
        power=power[idx], power_se=zeros, n_reps=1, dgp=dgp,
        procedure_id=procedure_id,
    )


def _cmd_simulate(cfg: RunConfig) -> int:
    procedure = cfg.build_procedure()
    dgp = cfg.build_dgp()
    evidence = resolve_evidence(procedure, cfg.evidence)
    checkpoints = cfg.checkpoints
    report = replicate(
        dgp, procedure, n_reps=cfg.replicates, base_seed=cfg.seed,
        checkpoints=checkpoints, evidence=evidence,
    )
    if cfg.decisions_out:
        stream = generate(dgp)
        procedure.fit(stream.evidence(evidence), stream.truth)
        emit_decisions(procedure.trajectory(), cfg.decisions_out)
    if cfg.metrics_out:
        emit_metrics(report, cfg.metrics_out)
    print(
        f"simulate {cfg.procedure} dgp={cfg.dgp} replicates={cfg.replicates} "
        f"fdr(T)={report.fdr[-1]:.4f} power(T)={report.power[-1]:.4f}"
    )
    return 0


def _cmd_ingest(cfg: RunConfig) -> int:
    procedure = cfg.build_procedure()
    trajectory = procedure.fit(*_load_stream(cfg, procedure)).trajectory()
    if cfg.decisions_out:
        emit_decisions(trajectory, cfg.decisions_out)
    if cfg.metrics_out:
        if trajectory.truth is None:
            raise ConfigError("metrics_out requires a truth column in the input")
        checkpoints = cfg.checkpoints or tuple(range(1, len(trajectory) + 1))
        report = _metrics_from_single(trajectory, None, cfg.procedure, checkpoints)
        emit_metrics(report, cfg.metrics_out)
    print(
        f"ingest {cfg.procedure}: {trajectory.n_rejections} discoveries "
        f"in {len(trajectory)} hypotheses"
    )
    return 0


def _cmd_oracle_check(cfg: RunConfig, tol: float) -> int:
    procedure = cfg.build_procedure()
    if cfg.mode == "ingest":
        evidence, _ = _load_stream(cfg, procedure)
    else:
        stream = generate(cfg.build_dgp())
        evidence = stream.evidence(resolve_evidence(procedure, cfg.evidence))
    trajectory = procedure.fit(evidence).trajectory()
    trace = naive_trajectory(procedure, evidence)
    divergence = trace_divergence(trace, trajectory)
    worst = max(divergence.values())
    for name, value in divergence.items():
        print(f"{name}: max divergence {value:.3e}")
    if worst > tol:
        print(f"FAIL: divergence {worst:.3e} exceeds tolerance {tol:.1e}")
        return 1
    print(f"PASS: all fields within {tol:.1e} over {len(trajectory)} steps")
    return 0


def _add_override_flags(parser: argparse.ArgumentParser, with_mode: bool = False) -> None:
    for key in sorted(ALL_KEYS):
        if key == "mode" and not with_mode:
            continue
        parser.add_argument(f"--{key.replace('_', '-')}", dest=f"opt_{key}",
                            metavar="VALUE", help=f"override config key '{key}'")


def _collect_entries(args) -> dict[str, tuple[str, str]]:
    entries: dict[str, tuple[str, str]] = {}
    if args.config:
        try:
            with open(args.config) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        entries = read_raw_config(text)
    for key in ALL_KEYS:
        value = getattr(args, f"opt_{key}", None)
        if value is not None:
            entries[key] = (value, f"flag --{key.replace('_', '-')}")
    return entries


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scorefdr",
        description="Online FDR control with overshoot-refund procedures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("simulate", "run a synthetic Monte-Carlo study"),
        ("ingest", "run a procedure over a CSV evidence stream"),
        ("oracle-check", "cross-check the incremental engine against the brute-force oracle"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", help="path to a key = value config file")
        # oracle-check sources evidence from either mode; the others imply theirs
        _add_override_flags(cmd, with_mode=(name == "oracle-check"))
        if name == "oracle-check":
            cmd.add_argument("--tol", type=float, default=1e-10,
                             help="per-field divergence tolerance (default 1e-10)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        entries = _collect_entries(args)
        if args.command == "simulate":
            cfg = build_config(entries, mode="simulate")
            return _cmd_simulate(cfg)
        if args.command == "ingest":
            cfg = build_config(entries, mode="ingest")
            return _cmd_ingest(cfg)
        mode = entries.get("mode", ("simulate", ""))[0]
        cfg = build_config(entries, mode=mode)
        return _cmd_oracle_check(cfg, args.tol)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
