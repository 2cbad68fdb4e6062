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

from .calibration import P_DOMAIN, CalibrationSet, conformal_evalue, vovk_p_to_e
from ._validation import (EVIDENCE, EntryError, check_array, check_checkpoints,
                          check_count, check_kind, check_number)
from .procedures import PROCEDURES, OnlineProcedure, Trajectory, make_procedure
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

#: Each evidence column's interval, as :func:`check_array` takes it.  A ``p`` column takes
#: the p-to-e calibrator's domain under every calibrator, so that a file reads alike
#: whether it is calibrated or not (FORMATS.md, "Input CSV").
_COLUMNS = {"p": P_DOMAIN, "e": EVIDENCE["e"], "score": EVIDENCE["e"]}
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


def _to_float(raw, where, key, kind=float):
    try:
        return check_number(raw, key, kind)
    except ValueError as exc:
        _fail(where, str(exc))


_to_int = partial(_to_float, kind=int)


def _to_choice(raw, where, key, choices=None):
    value = raw.strip()
    if choices is not None and value not in choices:
        _fail(where, f"{key} must be one of {', '.join(choices)}; got {value!r}")
    return value


def _to_schedule(raw, where, key):
    try:
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
#: A refusal names the first bad key in this order, so it does not depend on
#: the order of the file or the flags.  A rule reads only the fields of its
#: own keys and of keys listed before them, and judges each field on its own.
#: ``ingest`` judges the checkpoints against the stream length only once it
#: has read the stream.
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
    # the class carries the id and evidence kind that resolve_evidence reads
    "evidence": (_SIMULATE, _to_choice, "evidence",
                 lambda cfg: resolve_evidence(PROCEDURES[cfg.procedure], cfg.evidence)),
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


def _set_keys(cfg: RunConfig, entries, keys, judged: bool) -> RunConfig:
    """Convert and set ``keys`` on ``cfg`` in order; if ``judged``, judge each key once
    set, so that a refusal reads ``<its line or flag>: <the library's message>``."""
    for key in keys:
        raw, where = entries[key]
        _, convert, field, judge = _KEYS[key]
        setattr(cfg, field, convert(raw, where, key))
        if judged and judge is not None:
            try:
                judge(cfg)
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
    return cfg


def build_config(entries: dict[str, tuple[str, str]], mode: str | None = None) -> RunConfig:
    """Set raw entries (from file and/or flags) on a :class:`RunConfig` in ``_KEYS``
    order, then judge each rule once.  Only a config that some rule refuses is set
    again key by key, each judged once set, to name the first bad key."""
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
    keys = [key for key in _KEYS if key in entries]
    try:
        cfg = _set_keys(RunConfig(mode=mode, procedure=""), entries, keys, judged=False)
        for judge in dict.fromkeys(_KEYS[key][3] for key in keys):
            if judge is not None:
                judge(cfg)
    except ValueError:  # a converter's ConfigError too
        # Each rule judges its fields one by one, so a rule that passes on the whole
        # config passed at each key before, and one that fails fails at its last key.
        _set_keys(RunConfig(mode=mode, procedure=""), entries, keys, judged=True)
        raise  # not reached: the key-by-key pass refuses the same config

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
    number as :func:`check_number` does or not at all."""
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
    try:
        header = next(reader, [])
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        _fail(f"{path} row {reader.line_num}", str(exc))
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


def _parse(fields, name: str, kind):
    """``(numbers, refusal)``: the leading ``fields`` that :func:`check_number` reads as
    ``kind``, read, and its refusal of the next one, or None.  Numbers pass as they are."""
    if isinstance(fields, np.ndarray):  # numpy parsed them
        return fields, None
    if "_" not in "".join(fields):  # then kind() reads each field as check_number does
        with suppress(ValueError):
            return list(map(kind, fields)), None
    numbers = []
    for text in fields:
        try:
            numbers.append(check_number(text, name, kind))
        except ValueError as exc:
            return numbers, str(exc)
    return numbers, None


def _judge(path: str, col: str, columns: dict, stop: str | None = None):
    """:func:`_read_column`'s result for the tokenized data rows of ``path``.  ``columns``
    holds the fields of its ``index``, ``truth`` and evidence column ``col``, those it has,
    as text (the labels in an object array) or as numpy parsed them; ``stop`` refuses the
    row after them.  Each row rule is stated here once, and the first failure is refused:
    per row in file order its index (read, then its value), number and label, ``stop`` in
    its row's place; then the ``_COLUMNS`` interval; then a partly blank ``truth`` column.
    A row's refusal is an :class:`EntryError` at the row's position."""
    failures = [] if stop is None else [(len(columns[col]), 0, stop)]
    values, refusal = _parse(columns[col], col, float)
    if refusal is not None:
        failures.append((len(values), 1, refusal))
    if "index" in columns:
        numbers, refusal = _parse(columns["index"], "index", int)
        wrong = np.not_equal(numbers, np.arange(1, len(numbers) + 1))
        if wrong.any():  # a wrong value comes before a field that does not read
            at, got = int(wrong.argmax()), numbers[wrong.argmax()]
            failures.append((at, 0, f"index must be >= 1, got {got}" if got < 1 else
                             f"index must run 1..T in file order; expected {at + 1}, got {got}"))
        elif refusal is not None:
            failures.append((len(numbers), 0, refusal))
    labels = columns.get("truth")
    if labels is not None:
        blank, ones = labels == "", labels == "1"
        if not (known := blank | ones | (labels == "0")).all():
            at = int(known.argmin())
            failures.append((at, 2, f"truth must be 0 or 1, got {str(labels[at])!r}"))
    if failures:
        at, _, reason = min(failures)
        raise EntryError(reason, at, "")
    if not len(values):
        _fail(path, "no data rows")
    column = check_array(np.array(values), col, *_COLUMNS[col])
    if labels is None or blank.all():
        return col, column, None
    if blank.any():
        raise EntryError("truth is blank; label every row or none", int(blank.argmax()), "")
    return col, column, ones


def _tokenize_rows(path: str, text: str, names: tuple[str, ...], calibrator: str | None):
    """``(col, columns, lines, stop)`` of ``text``, the contents of ``path``, split into
    rows by ``csv.reader``: :func:`_judge`'s ``col``, ``columns`` and ``stop``, and the
    file line of each data row, then of the row ``stop`` refuses.  A row of another length
    than the header, or one csv refuses, ends the data rows."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header, col = _header(path, reader, names, calibrator)
    rows, lines, stop, width = [], [], None, len(header)
    try:
        for row in filter(None, reader):  # a blank line is skipped
            if len(row) != width:
                raise csv.Error(f"expected {width} fields, got {len(row)}")
            rows.append(row)
            lines.append(reader.line_num)
    except csv.Error as exc:  # that, or csv's own: e.g. a field over its size limit
        lines.append(reader.line_num)
        stop = str(exc)
    columns = {name: [row[i] for row in rows] for i, name in enumerate(header)
               if name in (col, "index", "truth")}
    if "truth" in columns:  # not a str array, which drops a last NUL
        columns["truth"] = np.array(columns["truth"], dtype=object)
    return col, columns, lines, stop


def _read_rows(path: str, text: str, names: tuple[str, ...], calibrator: str | None):
    """:func:`_read_column`'s result for ``text``, the contents of ``path``, split into rows
    by :func:`_tokenize_rows`: the tokenizer that names each refusal's file line."""
    col, columns, lines, stop = _tokenize_rows(path, text, names, calibrator)
    try:
        return _judge(path, col, columns, stop)
    except EntryError as exc:
        _fail(f"{path} row {lines[exc.index]}", exc.reason)


def _blocks(text: str, start: int):
    """``text[start:]`` in pieces of whole lines of about 64 Ki characters, so that only
    one piece at a time is split into lines."""
    while start < len(text):
        end = text.find("\n", start + 65536) + 1 or len(text)
        yield text[start:end]
        start = end


def _read_plain(path: str, text: str, names: tuple[str, ...], calibrator: str | None):
    """``(col, columns)`` of :func:`_judge` for the text of a plain file, its data rows
    parsed by one ``np.loadtxt`` call, which raises where numpy refuses a field."""
    first = text.partition("\n")[0]
    header, col = _header(path, csv.reader([first]), names, calibrator)
    kinds = {"index": "i8", "truth": "U2", col: "f8"}  # a 1-char truth would cut "10" to "1"
    lines = chain.from_iterable(map(str.splitlines, _blocks(text, len(first) + 1)))
    with warnings.catch_warnings():
        # numpy warns where it guesses (no rows; "2.0" read as an int by older numpy)
        warnings.simplefilter("error")
        table = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None, ndmin=1,
                           dtype=[(f"f{i}", kinds.get(name, "U0"))  # other columns skipped
                                  for i, name in enumerate(header)])
    return col, {name: table[f"f{i}"] for i, name in enumerate(header) if name in kinds}


def _read_column(path: str, names: tuple[str, ...], calibrator: str | None = None):
    """``(column, values, truth)``: the one column of ``names`` that the CSV file ``path``
    holds, as a float array, and its ``truth`` labels as a boolean array, or None.  A plain
    file (see :func:`_read_text`) is tokenized by :func:`_read_plain`; any other file, and
    any that numpy or :func:`_judge` refuses, by :func:`_read_rows`, which names the row.
    Both feed the one judge, so which tokenizer runs changes the speed only."""
    text, plain = _read_text(path)
    if plain:
        with suppress(ValueError, Warning):  # numpy's refusals and the judge's: to be named
            return _judge(path, *_read_plain(path, text, names, calibrator))
    return _read_rows(path, text, names, calibrator)


class _ZeroScore(ConfigError):
    """A test score of 0, at ``place``, when every calibration score is 0 too, so that
    its conformal e-value has a zero denominator."""

    def __init__(self, place: str, calibration: str = "calibration score"):
        super().__init__(f"{place}: degenerate conformal denominator: the score is 0, "
                         f"and so is every {calibration}")
        self.place = place


def ingest_stream(
    path: str,
    calibrator: str = "none",
    calibration: CalibrationSet | None = None,
) -> tuple[np.ndarray, str, np.ndarray | None]:
    """Read an evidence stream from CSV, applying the chosen calibrator.

    The file holds exactly one evidence column of :data:`_COLUMNS`, with optional
    ``index`` and ``truth`` columns; FORMATS.md ("Input CSV") states every rule and
    refusal.  Returns ``(evidence, kind, truth)``: the calibrated evidence array, its
    kind (``"p"`` for a ``p`` column under ``calibrator="none"``, else ``"e"``) and the
    boolean truth array, or None when no row is labelled.
    """
    col, evidence, truth = _read_column(path, tuple(_COLUMNS), calibrator)
    if calibrator == "vovk":
        evidence = vovk_p_to_e(evidence)
    elif calibrator == "conformal":
        try:
            evidence = conformal_evalue(evidence, calibration)
        except ValueError as exc:
            zero = evidence == 0.0
            if not isinstance(calibration, CalibrationSet) or not zero.any():
                raise ConfigError(f"{path}: {exc}") from None
            # every calibration score is 0, and so is a test score: tokenize the file
            # again, only here, for the line of the first one
            lines = _tokenize_rows(path, _read_text(path)[0], tuple(_COLUMNS), calibrator)[2]
            raise _ZeroScore(f"{path} row {lines[int(zero.argmax())]}") from None
    return evidence, _PAIRS[col, calibrator], truth


def _load_stream(cfg: RunConfig, procedure: OnlineProcedure):
    """The evidence and truth arrays ``cfg`` names, checked against ``procedure``."""
    calibration = None
    if cfg.calibrator == "conformal":
        calibration = CalibrationSet(_read_column(cfg.calibration_scores, ("score",))[1])
    try:
        evidence, kind, truth = ingest_stream(cfg.input, cfg.calibrator, calibration)
    except _ZeroScore as exc:  # named here by the file that holds the calibration scores
        raise _ZeroScore(exc.place, f"score in {cfg.calibration_scores}") from None
    check_kind(procedure, kind, f"calibrator={cfg.calibrator} on {cfg.input}")
    return evidence, truth


def _reals(column) -> tuple[str, list]:
    """``(spec, items)`` of one real column for :func:`_write_csv`.

    A column made of few runs of bit-equal values formats each run once, as
    ``%s`` and the run's ``%.17g`` text repeated over its rows; any other
    column is ``%.17g`` and its floats.  Runs are cut where the bits change,
    not the value: ``0.0 == -0.0`` yet they print apart, and NaN never equals
    itself.  Equal bits give equal text, so the two forms write the same bytes.
    """
    values = np.ascontiguousarray(column, dtype=float)
    bits = values.view(np.int64)
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if 2 * (len(starts) + 1) >= len(values):  # runs number half the rows or more
        return "%.17g", values.tolist()
    starts = np.concatenate(([0], starts))
    texts = np.array(["%.17g" % v for v in values[starts].tolist()], dtype=object)
    return "%s", np.repeat(texts, np.diff(starts, append=len(values))).tolist()


def _write_csv(path: str, what: str, header, columns) -> None:
    """Write ``header`` and then one row per item of ``columns``, each a
    ``(spec, items)`` pair, every line ending in CRLF.  When a write fails
    after the file was opened, the file is removed; a file that could not be
    opened is left as it was."""
    specs, items = zip(*columns)
    row_format = ",".join(specs) + "\r\n"
    try:
        handle = open(path, "w", newline="")
        try:
            with handle:
                handle.write(",".join(header) + "\r\n")
                handle.writelines(row_format % row for row in zip(*items))
        except OSError:
            with suppress(OSError):
                os.remove(path)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def emit_decisions(trajectory: Trajectory, path: str) -> None:
    """Write the per-step decision ledger as CSV (17 significant digits)."""
    _write_csv(path, "decisions", DECISIONS_HEADER, (
        ("%d", range(1, len(trajectory) + 1)),
        _reals(trajectory.alpha),
        ("%d", trajectory.decision.astype(int).tolist()),
        _reals(trajectory.overshoot),
        _reals(trajectory.cost),
        ("%d", trajectory.rejections.astype(int).tolist()),
        _reals(trajectory.fdp_hat),
    ))


def emit_metrics(report: MetricsReport, path: str) -> None:
    """Write the aggregated FDR / power curves as CSV."""
    _write_csv(path, "metrics", METRICS_HEADER, (
        ("%d", np.asarray(report.checkpoints, dtype=int).tolist()),
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
