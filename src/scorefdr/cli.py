"""Command-line front end: simulate benchmark streams, ingest CSV evidence,
apply calibrators, run procedures, and emit decision / metrics reports.

Configuration is a flat ``key = value`` file with ``#`` comments; every key
is also a flag of each subcommand it applies to, and flags override the
file.  The exact file formats, config keys, and serialization rules are
documented in FORMATS.md at the repository root.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
import warnings
from contextlib import suppress
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain

import numpy as np

from .calibration import CalibrationSet, conformal_evalue, vovk_p_to_e
from ._validation import EntryError, check_array, check_checkpoints, check_count
from .procedures import OnlineProcedure, Trajectory, make_procedure
from .reference import naive_trajectory, trace_divergence
from .schedules import DEFAULT_GAMMA, DEFAULT_LAMBDA, DEFAULT_OMEGA, Schedule
from .simulation import (
    DgpConfig,
    MetricsReport,
    aggregate,
    generate,
    replicate,
    resolve_evidence,
)

DECISIONS_HEADER = ("index", "alpha", "decision", "overshoot", "cost", "rejections", "fdp_hat")
METRICS_HEADER = ("t", "fdr", "fdr_se", "power", "power_se")

#: Each evidence column's interval, as :func:`check_array` takes it.
_COLUMNS = {"p": (0.0, 1.0, "(]"), "e": (0.0, math.inf, "[)"), "score": (0.0, math.inf, "[)")}
#: The evidence kind of each (column, calibrator) pair; any other pair is refused.
_PAIRS = {("p", "none"): "p", ("p", "vovk"): "e", ("e", "none"): "e", ("score", "conformal"): "e"}
CALIBRATORS = tuple(dict.fromkeys(calibrator for _, calibrator in _PAIRS))
MODES = ("simulate", "ingest")


class ConfigError(ValueError):
    """A configuration problem, formatted with its source location."""


@dataclass
class RunConfig:
    """Settings for one run; :func:`build_config` has judged every key it set."""

    mode: str
    procedure: str
    alpha: float = 0.05
    gamma: Schedule = DEFAULT_GAMMA
    omega: Schedule = DEFAULT_OMEGA
    lam: Schedule = DEFAULT_LAMBDA
    dgp: str = "gaussian_mixture"
    horizon: int = DgpConfig.horizon
    pi1: float = DgpConfig.pi1
    rho: float = DgpConfig.rho
    mu_set: tuple[float, ...] = DgpConfig.mu_set
    phi0: float = DgpConfig.phi0
    phi1: float = DgpConfig.phi1
    seed: int = DgpConfig.seed
    replicates: int = 1
    checkpoints: tuple[int, ...] | None = None
    evidence: str = "auto"
    calibrator: str = "none"
    input: str | None = None
    calibration_scores: str | None = None
    decisions_out: str | None = None
    metrics_out: str | None = None

    def build_procedure(self) -> OnlineProcedure:
        return make_procedure(self.procedure, alpha=self.alpha, gamma=self.gamma,
                              omega=self.omega, lam=self.lam)

    def build_dgp(self) -> DgpConfig:
        return DgpConfig(dgp=self.dgp, horizon=self.horizon, pi1=self.pi1, rho=self.rho,
                         mu_set=self.mu_set, phi0=self.phi0, phi1=self.phi1, seed=self.seed)


def _fail(where: str, message: str):
    raise ConfigError(f"{where}: {message}")


def _number(text: str, kind=float):
    """``kind(text)``, but the digit-group ``_`` that Python accepts (``1_000``) is refused."""
    if "_" in text:
        raise ValueError(f"{text!r} holds an underscore")
    return kind(text)


def _to_float(raw, where, key):
    try:
        return _number(raw)
    except ValueError:
        _fail(where, f"{key} must be a number, got {raw!r}")


def _to_int(raw, where, key):
    try:
        return _number(raw, int)
    except ValueError:
        _fail(where, f"{key} must be an integer, got {raw!r}")


def _to_choice(raw, where, key, choices=None):
    value = raw.strip()
    if choices is not None and value not in choices:
        _fail(where, f"{key} must be one of {', '.join(choices)}; got {value!r}")
    return value


def _to_schedule(raw, where, key):
    try:
        if "_" in raw.partition(",")[2]:  # a digit-group "_", as _number refuses it
            raise ValueError(f"bad schedule parameter in {raw!r}")
        return Schedule.parse(raw)
    except ValueError as exc:
        _fail(where, f"{key}: {exc}")


def _to_list(raw, where, key, item=_to_float):
    """A comma-separated list of ``item`` values; empty parts are skipped."""
    return tuple(item(part, where, key) for part in raw.split(",") if part.strip())


def _to_path(raw, where, key):
    return raw


_SIMULATE = ("simulate",)
_INGEST = ("ingest",)

#: Every config key but ``mode``: the modes it applies to, its converter
#: ``(raw, where, key) -> value``, which only parses, its :class:`RunConfig`
#: field and the library rule ``(cfg) -> None`` that judges the value, if any.
#: Keys are set and judged in this order, so the first bad key reported does
#: not depend on the order of the file or the flags.  ``ingest`` judges the
#: checkpoints against the stream length only once it has read the stream.
_KEYS = {
    "procedure": (MODES, _to_choice, "procedure", RunConfig.build_procedure),
    "alpha": (MODES, _to_float, "alpha", RunConfig.build_procedure),
    "gamma": (MODES, _to_schedule, "gamma", RunConfig.build_procedure),
    "omega": (MODES, _to_schedule, "omega", RunConfig.build_procedure),
    "lambda": (MODES, _to_schedule, "lam", RunConfig.build_procedure),
    "seed": (_SIMULATE, _to_int, "seed", RunConfig.build_dgp),
    "dgp": (_SIMULATE, _to_choice, "dgp", RunConfig.build_dgp),
    "horizon": (_SIMULATE, _to_int, "horizon", RunConfig.build_dgp),
    "checkpoints": (MODES, partial(_to_list, item=_to_int), "checkpoints", lambda cfg:
                    check_checkpoints(cfg.checkpoints, cfg.horizon if cfg.mode == "simulate"
                                      else math.inf)),
    "decisions_out": (MODES, _to_path, "decisions_out", None),
    "metrics_out": (MODES, _to_path, "metrics_out", None),
    "pi1": (_SIMULATE, _to_float, "pi1", RunConfig.build_dgp),
    "rho": (_SIMULATE, _to_float, "rho", RunConfig.build_dgp),
    "mu_set": (_SIMULATE, _to_list, "mu_set", RunConfig.build_dgp),
    "phi0": (_SIMULATE, _to_float, "phi0", RunConfig.build_dgp),
    "phi1": (_SIMULATE, _to_float, "phi1", RunConfig.build_dgp),
    "replicates": (_SIMULATE, _to_int, "replicates",
                   lambda cfg: check_count(cfg.replicates, "replicates")),
    "evidence": (_SIMULATE, _to_choice, "evidence",
                 lambda cfg: resolve_evidence(cfg.build_procedure(), cfg.evidence)),
    "calibrator": (_INGEST, partial(_to_choice, choices=CALIBRATORS), "calibrator", None),
    "input": (_INGEST, _to_path, "input", None),
    "calibration_scores": (_INGEST, _to_path, "calibration_scores", None),
}
ALL_KEYS = {"mode", *_KEYS}
#: Keys that shape only the report files ``simulate`` and ``ingest`` write;
#: ``oracle-check`` writes none, so it refuses them (in ``_KEYS`` order).
_REPORT_KEYS = ("checkpoints", "decisions_out", "metrics_out", "replicates")


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
    """Set raw entries (from file and/or flags) on a :class:`RunConfig` in ``_KEYS``
    order.  Each key is judged once set, the keys before it having passed, so a
    refusal reads ``<its line or flag>: <the library's message>``."""
    if "mode" in entries:
        raw, where = entries["mode"]
        file_mode = _to_choice(raw, where, "mode", MODES)
        if mode is not None and file_mode != mode:
            _fail(where, f"mode {file_mode!r} conflicts with the {mode!r} command")
        mode = file_mode
    if mode is None:
        raise ConfigError("config: missing key 'mode'")

    for key, (_, where) in entries.items():
        if key != "mode" and mode not in _KEYS[key][0]:
            _fail(where, f"key {key!r} does not apply to mode {mode!r}")

    if "procedure" not in entries:
        raise ConfigError("config: missing key 'procedure'")
    cfg = RunConfig(mode=mode, procedure="")
    for key, (_, convert, field, judge) in _KEYS.items():
        if key in entries:
            raw, where = entries[key]
            setattr(cfg, field, convert(raw, where, key))
            if judge is not None:
                try:
                    judge(cfg)
                except ValueError as exc:
                    raise ConfigError(f"{where}: {exc}") from None

    if mode == "ingest" and cfg.input is None:
        raise ConfigError("config: ingest mode requires the 'input' key")
    if cfg.calibrator == "conformal" and cfg.calibration_scores is None:
        raise ConfigError("config: calibrator=conformal requires 'calibration_scores'")
    return cfg


def parse_config(text: str, mode: str | None = None) -> RunConfig:
    """Parse and validate a flat key-value config document."""
    return build_config(read_raw_config(text), mode=mode)


# ---------------------------------------------------------------------------
# CSV ingestion and report emission
# ---------------------------------------------------------------------------


def _at(path: str, reader) -> str:
    """``"<path> row N"``: the file line ``reader`` read last, the header being line 1."""
    return f"{path} row {reader.line_num}"


def _decode(data: bytes, path: str, unit: str, split) -> str:
    """``data``, read from ``path``, as UTF-8 text.  A byte that is not UTF-8 is refused
    at ``"<path> <unit> N"``, line N as ``split`` divides the text into lines."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(split(data[:exc.start].decode("utf-8") + "?"))  # "?" stands for the byte
        _fail(f"{path} {unit} {line}", f"byte 0x{data[exc.start]:02x} is not UTF-8 "
                                       f"({exc.reason})")


#: The bytes of a plain file but ``\r``: printable ASCII but the quote character, and ``\n``.
_PLAIN = bytes([10, *range(32, 34), *range(35, 127)])


def _read_text(path: str) -> tuple[str, bool]:
    """The UTF-8 text of the CSV file ``path``, and whether its bytes are plain: printable
    ASCII but the quote character, line ends LF or CR LF, and no line longer than the csv
    field limit.  There a csv row is its line split at commas, and numpy parses each
    number as :func:`_number` does or not at all."""
    with open(path, "rb") as handle:
        data = handle.read()
    # lines as csv.reader counts them: ends are \n, \r\n or \r
    text = _decode(data, path, "row", lambda text: io.StringIO(text, newline="").readlines())
    odd = data.translate(None, _PLAIN)  # every byte that is not plain
    if odd and (odd.strip(b"\r") or len(odd) != data.count(b"\r\n")):
        return text, False
    limit = csv.field_size_limit()  # numpy has none, so a longer line is left to csv
    if len(data) > limit:
        ends = np.flatnonzero(np.frombuffer(data, np.uint8) == 10)
        return text, np.diff(ends, prepend=-1, append=len(data)).max() <= limit
    return text, True


def _header(path: str, reader, names: tuple[str, ...], calibrator: str | None):
    """``(header, column)``: the row ``reader`` reads first and the one column of
    ``names`` it holds.  Given a ``calibrator``, a pair that ``_PAIRS`` lacks is refused."""
    header = next(reader, [])
    if header and header[0].startswith("\ufeff"):
        _fail(path, "the file starts with a UTF-8 byte-order mark (U+FEFF); "
                    "save it without one")
    if len(set(header)) != len(header):
        repeated = next(name for i, name in enumerate(header) if name in header[:i])
        _fail(path, f"duplicate column {repeated!r}")
    found = [name for name in names if name in header]
    if len(found) != 1:
        _fail(path, f"need exactly one evidence column among {', '.join(names)}; "
                    f"found {found or 'none'}")
    col = found[0]
    if calibrator is not None and (col, calibrator) not in _PAIRS:
        _fail(path, f"calibrator={calibrator} does not apply to the {col!r} column")
    return header, col


def _read_rows(path: str, text: str, names: tuple[str, ...], calibrator: str | None):
    """:func:`_read_column`'s result for ``text``, the contents of ``path``, read a row at
    a time: the reader that names each refusal's file line.

    Each data row is parsed in file order: its field count, ``index``, number and
    ``truth`` label.  Then the whole column is judged by :func:`check_array` against its
    ``_COLUMNS`` interval, and then a partly blank ``truth`` column is refused.  A refusal
    names ``path``, and a row's refusal its file line.  The header is judged by
    :func:`_header` before any data row is read.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header, col = _header(path, reader, names, calibrator)
        # Field positions are resolved once; a row's location and message are
        # built only when it fails.
        at = header.index(col)
        ix = header.index("index") if "index" in header else None
        tx = header.index("truth") if "truth" in header else None
        values: list[float] = []
        lines: list[int] = []
        labels: list[str] = []
        width, record = len(header), 0
        for row in reader:
            if len(row) != width:  # a blank line is skipped, a ragged row refused
                if row:
                    _fail(_at(path, reader), f"expected {width} fields, got {len(row)}")
                continue
            record += 1
            # the index is checked as written first; " 2", "+2" and "02" parse
            if ix is not None and row[ix] != str(record):
                idx = _to_int(row[ix], _at(path, reader), "index")
                if idx != record:
                    _fail(_at(path, reader), f"index must be >= 1, got {idx}" if idx < 1 else
                          f"index must run 1..T in file order; expected {record}, got {idx}")
            try:
                values.append(_number(row[at]))
            except ValueError:
                _to_float(row[at], _at(path, reader), col)  # refuses, naming the row
            label = row[tx] if tx is not None else ""
            if label not in ("", "0", "1"):
                _fail(_at(path, reader), f"truth must be 0 or 1, got {label!r}")
            lines.append(reader.line_num)
            labels.append(label)
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        _fail(_at(path, reader), str(exc))

    if not values:
        _fail(path, "no data rows")
    try:
        column = check_array(values, col, *_COLUMNS[col])
    except EntryError as exc:
        _fail(f"{path} row {lines[exc.index]}", exc.reason)
    truth = None
    if any(labels):
        if "" in labels:
            _fail(f"{path} row {lines[labels.index('')]}",
                  "truth is blank; label every row or none")
        truth = np.asarray(labels) == "1"
    return col, column, truth


#: The ``np.loadtxt`` type of each column of a plain file; any other column is skipped.
_PARSED = {"index": "i8", "truth": "U2"}  # a 1-char truth would cut "10" to "1"


def _blocks(text: str, start: int):
    """``text[start:]`` in pieces of whole lines of about 64 Ki characters, so that only
    one piece at a time is split into lines."""
    while start < len(text):
        end = text.find("\n", start + 65536) + 1 or len(text)
        yield text[start:end]
        start = end


def _read_plain(path: str, text: str, names: tuple[str, ...], calibrator: str | None):
    """:func:`_read_rows`'s result for the text of a plain file, its data rows parsed by
    one ``np.loadtxt`` call; None, or an exception, for a file that :func:`_read_rows`
    might refuse."""
    first = text.partition("\n")[0]
    header, col = _header(path, csv.reader([first]), names, calibrator)
    kinds = {**_PARSED, col: "f8"}
    lines = chain.from_iterable(map(str.splitlines, _blocks(text, len(first) + 1)))
    with warnings.catch_warnings():
        # numpy warns where it guesses (no rows; "2.0" read as an int by older numpy)
        warnings.simplefilter("error")
        table = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None, ndmin=1,
                           dtype=[(f"f{i}", kinds.get(name, "U0"))
                                  for i, name in enumerate(header)])
    column = {name: table[f"f{i}"] for i, name in enumerate(header)}
    if "index" in column and not np.array_equal(column["index"], np.arange(1, len(table) + 1)):
        return None
    truth = None
    if "truth" in column:
        labels = column["truth"]
        ones, blank = labels == "1", labels == ""
        if not (ones | blank | (labels == "0")).all() or blank.any() and not blank.all():
            return None
        truth = None if blank.all() else ones
    return col, check_array(np.array(column[col]), col, *_COLUMNS[col]), truth


def _read_column(path: str, names: tuple[str, ...], calibrator: str | None = None):
    """``(column, values, truth)``: the one column of ``names`` that the CSV file ``path``
    holds, as a float array, and its ``truth`` labels as a boolean array, or None.

    A plain file (see :func:`_read_text`) is parsed column by column; any other file,
    and any file that parse does not accept, goes to :func:`_read_rows`, which gives the
    same result or names the refusal's row.  So which reader runs changes the speed only.
    """
    text, plain = _read_text(path)
    found = None
    if plain:
        try:
            found = _read_plain(path, text, names, calibrator)
        except (ValueError, Warning):  # numpy's refusals, and the header's: left to be named
            pass
    return found or _read_rows(path, text, names, calibrator)


def ingest_stream(
    path: str,
    calibrator: str = "none",
    calibration: CalibrationSet | None = None,
) -> tuple[np.ndarray, str, np.ndarray | None]:
    """Read an evidence stream from CSV, applying the chosen calibrator.

    The file must have a header with exactly one evidence column among
    ``p`` (p-values in (0, 1]), ``e`` (non-negative e-values), and ``score``
    (non-negative raw scores, conformal calibration only), and at least one
    data row.  Optional columns: ``index`` (must then run 1..T in file
    order) and ``truth`` (0/1, on every row or on none).  Blank lines are
    skipped.  A byte-order mark, a repeated column name, or a column that
    ``calibrator`` does not apply to, is an error naming the file; a byte
    that is not UTF-8, a field longer than ``csv.field_size_limit()``, a row
    with another field count than the header, or any other malformed row or
    value, is an error naming its file line, the header being line 1.
    Returns ``(evidence, kind, truth)``: the calibrated evidence array, its
    kind (``"p"`` for a ``p`` column under ``calibrator="none"``, else
    ``"e"``) and the boolean truth array, or None when no row is labelled.
    """
    col, evidence, truth = _read_column(path, tuple(_COLUMNS), calibrator)
    if calibrator == "vovk":
        evidence = vovk_p_to_e(evidence)
    elif calibrator == "conformal":
        evidence = conformal_evalue(evidence, calibration)
    return evidence, _PAIRS[col, calibrator], truth


def _load_stream(cfg: RunConfig, procedure: OnlineProcedure):
    """The evidence and truth arrays ``cfg`` names, checked against ``procedure``."""
    calibration = None
    if cfg.calibrator == "conformal":
        calibration = CalibrationSet(_read_column(cfg.calibration_scores, ("score",))[1])
    evidence, kind, truth = ingest_stream(cfg.input, cfg.calibrator, calibration)
    if kind != procedure.evidence_kind:
        raise ConfigError(
            f"{cfg.procedure} consumes {procedure.evidence_kind!r} evidence, but "
            f"calibrator={cfg.calibrator} on {cfg.input} gives {kind!r} evidence"
        )
    return evidence, truth


# One %-format per row: integers as %d, reals as %.17g, \r\n line ends.
_DECISIONS_ROW = "%d,%.17g,%d,%.17g,%.17g,%d,%.17g\r\n"
_METRICS_ROW = "%d,%.17g,%.17g,%.17g,%.17g\r\n"


def _reals(column) -> list[float]:
    return np.asarray(column, dtype=float).tolist()


def _write_csv(path: str, what: str, header, row_format: str, rows) -> None:
    """Write ``header`` and then each row of ``rows`` through ``row_format``."""
    try:
        with open(path, "w", newline="") as handle:
            handle.write(",".join(header) + "\r\n")
            handle.writelines(row_format % row for row in rows)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def emit_decisions(trajectory: Trajectory, path: str) -> None:
    """Write the per-step decision ledger as CSV (17 significant digits), a row at a time."""
    _write_csv(path, "decisions", DECISIONS_HEADER, _DECISIONS_ROW, zip(
        range(1, len(trajectory) + 1),
        _reals(trajectory.alpha),
        trajectory.decision.astype(int).tolist(),
        _reals(trajectory.overshoot),
        _reals(trajectory.cost),
        trajectory.rejections.astype(int).tolist(),
        _reals(trajectory.fdp_hat),
    ))


def emit_metrics(report: MetricsReport, path: str) -> None:
    """Write the aggregated FDR / power curves as CSV, a row at a time."""
    _write_csv(path, "metrics", METRICS_HEADER, _METRICS_ROW, zip(
        np.asarray(report.checkpoints, dtype=int).tolist(),
        _reals(report.fdr),
        _reals(report.fdr_se),
        _reals(report.power),
        _reals(report.power_se),
    ))


def _write_reports(reports) -> None:
    """Run each ``(emit, data, path)`` of ``reports`` in order.  When one write
    fails, the files written before it are removed, so that a refused run
    leaves no partial output set."""
    written = []
    try:
        for emit, data, path in reports:
            emit(data, path)
            written.append(path)
    except OSError:
        for path in written:
            with suppress(OSError):
                os.remove(path)
        raise


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


def _cmd_simulate(cfg: RunConfig) -> int:
    procedure = cfg.build_procedure()
    # replicate() leaves procedure fitted on replicate 0, the seed's stream
    report = replicate(cfg.build_dgp(), procedure, n_reps=cfg.replicates,
                       checkpoints=cfg.checkpoints, evidence=cfg.evidence)
    reports = []
    if cfg.decisions_out:
        reports.append((emit_decisions, procedure.trajectory(), cfg.decisions_out))
    if cfg.metrics_out:
        reports.append((emit_metrics, report, cfg.metrics_out))
    _write_reports(reports)
    print(
        f"simulate {cfg.procedure} dgp={cfg.dgp} replicates={cfg.replicates} "
        f"fdr(T)={report.fdr[-1]:.4f} power(T)={report.power[-1]:.4f}"
    )
    return 0


def _cmd_ingest(cfg: RunConfig) -> int:
    procedure = cfg.build_procedure()
    evidence, truth = _load_stream(cfg, procedure)
    # The metrics request is checked before either output file is written.
    if cfg.metrics_out:
        if truth is None:
            raise ConfigError(f"{cfg.input}: metrics_out requires a truth column in the input")
        try:
            checkpoints = check_checkpoints(cfg.checkpoints or range(1, len(evidence) + 1),
                                            len(evidence))
        except ValueError as exc:
            raise ConfigError(f"{cfg.input}: {exc}") from None
    trajectory = procedure.fit(evidence).trajectory()
    reports = []
    if cfg.decisions_out:
        reports.append((emit_decisions, trajectory, cfg.decisions_out))
    if cfg.metrics_out:
        report = aggregate([(procedure.decision_, truth)], checkpoints, procedure)
        reports.append((emit_metrics, report, cfg.metrics_out))
    _write_reports(reports)
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


def _collect_entries(args) -> dict[str, tuple[str, str]]:
    entries: dict[str, tuple[str, str]] = {}
    if args.config:
        try:
            with open(args.config, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        entries = read_raw_config(_decode(data, args.config, "line", str.splitlines))
    for key in ALL_KEYS:
        value = getattr(args, f"opt_{key}", None)
        if value is not None:
            entries[key] = (value, f"flag --{key.replace('_', '-')}")
    return entries


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``scorefdr`` argument parser, built once per process on first use."""
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
        keys = ALL_KEYS if name == "oracle-check" else {
            key for key, (modes, *_) in _KEYS.items() if name in modes}
        for key in sorted(keys):
            cmd.add_argument(f"--{key.replace('_', '-')}", dest=f"opt_{key}",
                             metavar="VALUE", help=f"override config key '{key}'")
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
        for key in _REPORT_KEYS:
            if key in entries:
                _fail(entries[key][1], f"key {key!r} does not apply to oracle-check")
        mode = entries.get("mode", ("simulate", ""))[0]
        cfg = build_config(entries, mode=mode)
        return _cmd_oracle_check(cfg, args.tol)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
