import argparse
import csv
import hashlib
import io
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import scorefdr as sf
from scorefdr import cli
from scorefdr.cli import (
    _KEYS,
    ALL_KEYS,
    MODES,
    ConfigError,
    RunConfig,
    build_parser,
    emit_decisions,
    emit_metrics,
    ingest_stream,
    main,
    parse_config,
    read_decisions,
    read_raw_config,
)
from scorefdr._validation import check_checkpoints, check_count
from scorefdr.simulation import resolve_evidence
from helpers import build, random_e_stream


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config("mode = simulate\nprocedure = score-lord\n")
        assert cfg.mode == "simulate" and cfg.procedure == "score-lord"
        assert cfg.alpha == 0.05
        assert cfg.omega == sf.Schedule.constant(0.05)
        assert cfg.lam == sf.Schedule.constant(0.5)
        assert cfg.horizon == 1000 and cfg.replicates == 1

    def test_benchmark_style_config(self):
        text = """
        # independent-stream benchmark
        mode = simulate
        procedure = score-plus-saffron
        dgp = gaussian_mixture
        horizon = 1000
        pi1 = 0.3
        alpha = 0.05
        omega = constant,0.05
        lambda = constant,0.5
        replicates = 500
        seed = 123
        """
        cfg = parse_config(text)
        dgp = cfg.build_dgp()
        assert dgp.horizon == 1000 and dgp.pi1 == 0.3 and dgp.seed == 123
        proc = cfg.build_procedure()
        assert proc.procedure_id == "score-plus-saffron"

    def test_out_of_range_alpha_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"^line 2: alpha must be in \(0, 1\), got 1\.5$"):
            parse_config("mode = simulate\nalpha = 1.5\nprocedure = score-lord\n")

    def test_unknown_key_has_line_number(self):
        with pytest.raises(ConfigError, match=r"line 3: unknown key 'budget'"):
            parse_config("mode = simulate\nprocedure = e-lord\nbudget = 2\n")
        with pytest.raises(ConfigError, match=r"line 3: unknown key 'threads'"):
            parse_config("mode = simulate\nprocedure = e-lord\nthreads = 2\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            read_raw_config("alpha = 0.05\nalpha = 0.1\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            read_raw_config("just some words\n")

    def test_mode_conflict_with_command(self):
        with pytest.raises(ConfigError, match="conflicts"):
            parse_config("mode = ingest\nprocedure = e-lord\ninput = x.csv\n",
                         mode="simulate")

    def test_mode_field_mismatch(self):
        with pytest.raises(ConfigError, match="does not apply to mode"):
            parse_config("mode = simulate\nprocedure = e-lord\ninput = x.csv\n")
        with pytest.raises(ConfigError, match="does not apply to mode"):
            parse_config("mode = ingest\nprocedure = e-lord\ninput = x.csv\npi1 = 0.3\n")

    def test_missing_mode_and_procedure(self):
        with pytest.raises(ConfigError, match="missing key 'mode'"):
            parse_config("procedure = e-lord\n")
        with pytest.raises(ConfigError, match="missing key 'procedure'"):
            parse_config("mode = simulate\n")

    def test_ingest_requires_input(self):
        with pytest.raises(ConfigError, match="requires the 'input' key"):
            parse_config("mode = ingest\nprocedure = e-lord\n")

    def test_unknown_procedure_listed(self):
        with pytest.raises(ConfigError, match=r"^line 2: unknown procedure 'bh'; choose from "
                                              r"e-lond, .*, p-saffron$"):
            parse_config("mode = simulate\nprocedure = bh\n")

    def test_schedule_keys_parsed(self):
        cfg = parse_config(
            "mode = simulate\nprocedure = score-lord\nomega = rai,0.05,0.5,0.5\n"
        )
        assert cfg.omega == sf.Schedule.rai(0.05, 0.5, 0.5)

    def test_bad_schedule_reports_location(self):
        with pytest.raises(ConfigError, match="line 3: omega"):
            parse_config("mode = simulate\nprocedure = score-lord\nomega = rai,0.05\n")

    @pytest.mark.parametrize("text", ["constant,0.0_5", "rai,0.05,0.5,0_5", "geometric,_0.5"])
    def test_schedule_refuses_digit_group_underscore(self, text):
        message = f"line 3: omega: bad schedule parameter in {text!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(f"mode = simulate\nprocedure = score-lord\nomega = {text}\n")


#: A valid value for every key, none of them its default.
SAMPLE_VALUES = {
    "procedure": "score-lord", "alpha": "0.1", "gamma": "geometric,0.25",
    "omega": "constant,0.1", "lambda": "constant,0.25", "seed": "3",
    "checkpoints": "1,2", "decisions_out": "d.csv", "metrics_out": "m.csv",
    "dgp": "ar1_gaussian", "horizon": "50", "pi1": "0.2", "rho": "0.25",
    "mu_set": "4,20", "phi0": "0.4", "phi1": "2.0", "replicates": "2",
    "evidence": "e", "calibrator": "vovk", "input": "in.csv",
    "calibration_scores": "cal.csv",
}


def _config_text(mode, **extra):
    options = {"mode": mode, "procedure": "e-lord"}
    if mode == "ingest":
        options["input"] = "x.csv"
    options.update(extra)
    return "".join(f"{key} = {value}\n" for key, value in options.items())


def _subcommand_flags(command):
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for action in sub.choices[command]._actions for opt in action.option_strings}
    return options - {"-h", "--help", "--config", "--tol"}


def _formats_key_table():
    """``{key: modes}`` from the config-key table in FORMATS.md."""
    lines = (Path(__file__).parent.parent / "FORMATS.md").read_text().splitlines()
    start = lines.index("| key | applies to | default | meaning |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        keys, applies = line.split("|")[1:3]
        modes = MODES if applies.strip() == "both" else (applies.strip(),)
        table.update({key: modes for key in re.findall(r"`(\w+)`", keys)})
    return table


class TestKeyTable:
    """The key table, the subcommand flags and FORMATS.md state the same keys."""

    @pytest.mark.parametrize("key", sorted(_KEYS))
    def test_accepted_where_it_applies(self, key):
        modes, _, field, _ = _KEYS[key]
        for mode in modes:
            base = parse_config(_config_text(mode))
            cfg = parse_config(_config_text(mode, **{key: SAMPLE_VALUES[key]}))
            assert getattr(cfg, field) != getattr(base, field)

    @pytest.mark.parametrize("key", sorted(k for k, v in _KEYS.items() if v[0] != MODES))
    def test_rejected_elsewhere(self, key):
        (mode,) = set(MODES) - set(_KEYS[key][0])
        text = _config_text(mode, **{key: SAMPLE_VALUES[key]})
        line = len(text.splitlines())
        with pytest.raises(ConfigError,
                           match=rf"^line {line}: key '{key}' does not apply to mode '{mode}'$"):
            parse_config(text)

    @pytest.mark.parametrize("command, count", [
        ("simulate", 18), ("ingest", 11), ("oracle-check", 22),
    ])
    def test_subcommand_flags(self, command, count):
        keys = ALL_KEYS if command == "oracle-check" else {
            key for key, (modes, *_) in _KEYS.items() if command in modes}
        assert _subcommand_flags(command) == {f"--{k.replace('_', '-')}" for k in keys}
        assert len(keys) == count

    def test_formats_md_lists_the_same_keys(self):
        table = _formats_key_table()
        assert set(table) == ALL_KEYS
        assert table.pop("mode") == MODES
        assert table == {key: modes for key, (modes, *_) in _KEYS.items()}


def _library_accepts(cfg: RunConfig) -> None:
    """Run every library rule a simulate config meets; a refusal is a ``ValueError``."""
    resolve_evidence(cfg.build_procedure(), cfg.evidence)
    cfg.build_dgp()
    check_count(cfg.replicates, "replicates")
    if cfg.checkpoints is not None:
        check_checkpoints(cfg.checkpoints, cfg.horizon)


#: Every numeric and schedule key, evidence, which is judged against the procedure, and dgp.
JUDGED_KEYS = ("alpha", "gamma", "omega", "lambda", "seed", "horizon", "checkpoints", "pi1",
               "rho", "mu_set", "phi0", "phi1", "replicates", "evidence", "dgp")
#: Texts of every shape a value might arrive in.
_NUMBER_TEXT = st.one_of(
    st.integers(-3, 1200).map(str),
    st.floats(0.0, 1.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "", " ", "x", "0", "1",
                     "-1", "0.5", "1.5", "2.0", "1e3", "1_000", "0.1_5"]),
)
VALUE_TEXT = st.one_of(
    _NUMBER_TEXT,
    st.lists(_NUMBER_TEXT, min_size=1, max_size=4).map(",".join),
    st.builds("{},{}".format, st.sampled_from(["constant", "geometric", "rai", "step", ""]),
              st.lists(_NUMBER_TEXT, max_size=3).map(",".join)),
    st.sampled_from(["auto", "e", "p_conditional", "p_marginal", "E", "ar1_gaussian", ",", "1,,2",
                     "constant,0.5", "geometric,0.5", "rai,0.05,0.5,0.5"]),
    st.text(alphabet="0123456789.,-+e abcinf", max_size=8),
)


class TestCliMatchesLibrary:
    @settings(max_examples=400, deadline=None)
    @given(procedure=st.sampled_from(sf.PROCEDURE_IDS), key=st.sampled_from(JUDGED_KEYS),
           text=VALUE_TEXT)
    @example(procedure="e-lond", key="gamma", text="rai,0.05,0.5,0.5")
    @example(procedure="e-lord", key="evidence", text="p_conditional")
    @example(procedure="score-lord", key="mu_set", text="3,0.5")
    @example(procedure="e-lord", key="horizon", text="1_000")
    @example(procedure="e-lord", key="dgp", text="bogus")
    def test_cli_accepts_exactly_what_the_library_accepts(self, procedure, key, text):
        # The CLI either returns a config the library accepts whole, or refuses at
        # the key's line: with the converter's message if the text does not parse,
        # else with the library's own message for the parsed value.
        try:
            cfg = parse_config(f"mode = simulate\nprocedure = {procedure}\n{key} = {text}\n")
        except ConfigError as exc:
            refusal = str(exc)
        else:
            _library_accepts(cfg)
            return
        assert refusal.startswith("line 3: "), refusal
        _, convert, field, _ = _KEYS[key]
        try:
            value = convert(text.strip(), "line 3", key)
        except ConfigError as parse_error:  # the text is not of the key's type at all
            assert refusal == str(parse_error)
            assert re.match(rf"line 3: {key}(: | must be (a number|an integer), got )", refusal)
            return
        with pytest.raises(ValueError) as library:
            _library_accepts(RunConfig("simulate", procedure, **{field: value}))
        assert refusal == f"line 3: {library.value}"

    @pytest.mark.parametrize("command, flag, value, message", [
        ("simulate", "--rho", "-1", "flag --rho: rho must be in [0, inf), got -1.0"),
        ("ingest", "--alpha", "nan", "flag --alpha: alpha must be in (0, 1), got nan"),
    ])
    def test_refused_key_writes_no_metrics(self, tmp_path, capsys, command, flag, value,
                                           message):
        metrics = tmp_path / "m.csv"
        argv = [command, "--procedure", "p-lord", "--metrics-out", str(metrics), flag, value]
        if command == "ingest":
            argv += ["--input", _write_csv(tmp_path / "in.csv", "p,truth", ["0.1,1", "0.2,0"])]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not metrics.exists()


def _write_csv(path, header, rows):
    with open(path, "w") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(row + "\n")
    return str(path)


def _ingest_error(path) -> str:
    with pytest.raises(ConfigError) as excinfo:
        ingest_stream(str(path))
    return str(excinfo.value)


def _ingest_stderr(capsys, *args) -> str:
    assert main(["ingest", *args]) == 2
    return capsys.readouterr().err


def _conformal_args(tmp_path, cal):
    scores = _write_csv(tmp_path / "scores.csv", "score", ["1.0"])
    return ["--input", scores, "--calibrator", "conformal", "--calibration-scores", str(cal),
            "--procedure", "score-lord"]


class TestIngest:
    def test_pvalues_with_vovk(self, tmp_path):
        path = _write_csv(tmp_path / "s.csv", "p", ["0.05", "0.5"])
        evidence, kind, truth = ingest_stream(path, calibrator="vovk")
        assert kind == "e" and len(evidence) == 2 and truth is None
        assert evidence[0] == pytest.approx(1.7833, abs=1e-3)

    def test_pvalues_passthrough(self, tmp_path):
        path = _write_csv(tmp_path / "s.csv", "p,truth", ["0.05,1", "0.5,0"])
        evidence, kind, truth = ingest_stream(path)
        assert kind == "p" and len(evidence) == 2
        assert truth.tolist() == [True, False]

    def test_evalues_passthrough(self, tmp_path):
        path = _write_csv(tmp_path / "s.csv", "index,e", ["1,4.0", "2,0.2"])
        evidence, kind, _ = ingest_stream(path)
        assert kind == "e" and evidence.tolist() == [4.0, 0.2]

    def test_p_out_of_range_names_row(self, tmp_path):
        path = _write_csv(tmp_path / "s.csv", "p", ["0.05", "1.2"])
        with pytest.raises(ConfigError, match=r"row 3: p must be a finite real in \(0, 1\], "
                                              r"got 1\.2$"):
            ingest_stream(path)

    def test_zero_pvalue_rejected(self, tmp_path):
        path = _write_csv(tmp_path / "s.csv", "p", ["0"])
        with pytest.raises(ConfigError, match="row 2"):
            ingest_stream(path)

    def test_negative_evalue_names_row(self, tmp_path):
        path = _write_csv(tmp_path / "s.csv", "e", ["1.0", "-3"])
        with pytest.raises(ConfigError, match=r"row 3: e must be a finite real in \[0, inf\), "
                                              r"got -3\.0$"):
            ingest_stream(path)

    def test_non_binary_truth(self, tmp_path):
        path = _write_csv(tmp_path / "s.csv", "p,truth", ["0.4,yes"])
        with pytest.raises(ConfigError, match="truth must be 0 or 1"):
            ingest_stream(path)

    def test_partial_truth_names_first_blank_row(self, tmp_path):
        path = _write_csv(tmp_path / "s.csv", "p,truth", ["0.4,1", "0.3,", "0.2,0", "0.1,"])
        with pytest.raises(ConfigError, match=r"s\.csv row 3: truth is blank"):
            ingest_stream(path)
        path = _write_csv(tmp_path / "t.csv", "p,truth", ["0.4,", "0.3,1"])
        with pytest.raises(ConfigError, match=r"t\.csv row 2: truth is blank"):
            ingest_stream(path)

    @pytest.mark.parametrize("header, rows, message", [
        ("p", ["0.1", "", "0.2", "1.5"], r"s\.csv row 5: p must be a finite real in \(0, 1\], "
                                         r"got 1\.5$"),
        ("p,truth", ["0.1,1", "", "0.2,"], r"s\.csv row 4: truth is blank"),
        # index counts data rows, the row in the message counts file lines
        ("index,p", ["1,0.1", "", "2,0.2", "2,0.3"], r"row 5: .*expected 3, got 2"),
        ("index,p", ["1,0.1", "0_2,0.2"], r"s\.csv row 3: index must be an integer, got '0_2'$"),
    ], ids=["p", "truth", "index", "index-underscore"])
    def test_row_is_file_line(self, tmp_path, header, rows, message):
        path = _write_csv(tmp_path / "s.csv", header, rows)
        with pytest.raises(ConfigError, match=message):
            ingest_stream(path)

    def test_calibration_row_is_file_line(self, tmp_path, capsys):
        cal = tmp_path / "cal.csv"
        for text, line in ((b"score\n1\n\nx\n", 4), (b'score\r\n\r\n1\r\n"2"\r\n\r\nx', 6)):
            cal.write_bytes(text)
            assert f"{cal} row {line}: score must be a number, got 'x'" in _ingest_stderr(
                capsys, *_conformal_args(tmp_path, cal))

    @pytest.mark.parametrize("value, message", [
        ("-1", "score must be a finite real in [0, inf), got -1.0"),
        ("inf", "score must be a finite real in [0, inf), got inf"),
        ("-inf", "score must be a finite real in [0, inf), got -inf"),
        ("nan", "score must be a finite real in [0, inf), got nan"),
    ], ids=["-1", "inf", "-inf", "nan"])
    def test_calibration_bad_score_names_row(self, tmp_path, capsys, value, message):
        cal = _write_csv(tmp_path / "c.csv", "score", ["0.3", value, "0.8"])
        assert f"error: {cal} row 3: {message}\n" == _ingest_stderr(
            capsys, *_conformal_args(tmp_path, cal))

    def test_non_numeric_evidence(self, tmp_path):
        path = _write_csv(tmp_path / "s.csv", "e", ["abc"])
        with pytest.raises(ConfigError, match=r"s\.csv row 2: e must be a number, got 'abc'$"):
            ingest_stream(path)

    def test_evidence_column_required_and_unique(self, tmp_path):
        path = _write_csv(tmp_path / "s.csv", "p,e", ["0.1,2.0"])
        with pytest.raises(ConfigError, match="exactly one evidence column"):
            ingest_stream(path)
        path = _write_csv(tmp_path / "s2.csv", "index,truth", ["1,0"])
        with pytest.raises(ConfigError, match="exactly one evidence column"):
            ingest_stream(path)

    def test_index_must_match_file_order(self, tmp_path):
        path = _write_csv(tmp_path / "s.csv", "index,e", ["1,1.0", "5,2.0"])
        with pytest.raises(ConfigError, match="row 3: index"):
            ingest_stream(path)

    def test_calibrator_column_pairing(self, tmp_path):
        # refused at the header: the bad p and e values below are never read
        escore = _write_csv(tmp_path / "sc.csv", "score", ["0.9", "0.1"])
        with pytest.raises(ConfigError, match=r"sc\.csv: calibrator=none does not apply to "
                                              r"the 'score' column$"):
            ingest_stream(escore)
        epath = _write_csv(tmp_path / "e.csv", "e", ["-2.0"])
        with pytest.raises(ConfigError, match=r"e\.csv: calibrator=vovk does not apply to "
                                              r"the 'e' column$"):
            ingest_stream(epath, calibrator="vovk")
        with pytest.raises(ConfigError, match=r"e\.csv: calibrator=conformal does not apply to "
                                              r"the 'e' column$"):
            ingest_stream(epath, calibrator="conformal")
        ppath = _write_csv(tmp_path / "p.csv", "p", ["x"])
        with pytest.raises(ConfigError, match=r"p\.csv: calibrator=bogus does not apply to "
                                              r"the 'p' column$"):
            ingest_stream(ppath, calibrator="bogus")

    def test_conformal_conversion(self, tmp_path):
        path = _write_csv(tmp_path / "sc.csv", "score", ["1.0"])
        cal = sf.CalibrationSet([0.0, 0.0, 0.0])
        evidence, kind, _ = ingest_stream(path, calibrator="conformal", calibration=cal)
        assert kind == "e" and evidence[0] == pytest.approx(4.0)


class TestReader:
    """How an input CSV is read: blank lines, line ends, quoting, index
    spellings, the order of checks within a row and the file line an error
    names."""

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("index,p,truth\n\n1,0.1,1\n\n\n2,0.2,0\n\n\n")
        evidence, kind, truth = ingest_stream(str(path))
        assert evidence.tolist() == [0.1, 0.2] and kind == "p"
        assert truth.tolist() == [True, False]

    def test_header_is_the_first_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("\np\n0.1\n")
        assert "found none" in _ingest_error(path)

    def test_crlf_and_no_final_newline(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"p,truth\r\n0.1,1\r\n\r\n0.2,0")
        evidence, _, truth = ingest_stream(str(path))
        assert evidence.tolist() == [0.1, 0.2] and truth.tolist() == [True, False]
        path.write_bytes(b"p\r\n0.1\r\n\r\n2")
        assert _ingest_error(path) == f"{path} row 4: p must be a finite real in (0, 1], got 2.0"

    def test_quoted_fields(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text('"index","e","note","truth"\n'
                        '"1","4.0","a, ""b""","1"\n'
                        '2,"0.5","two\nlines",0\n'
                        '3,0.25,,1\n')
        evidence, kind, truth = ingest_stream(str(path))
        assert evidence.tolist() == [4.0, 0.5, 0.25] and kind == "e"
        assert truth.tolist() == [True, False, True]
        # a record spanning lines 3-4 moves every later row down one line
        with open(path, "a") as handle:
            handle.write('4,"-1",x,0\n')
        assert _ingest_error(path) == (
            f"{path} row 6: e must be a finite real in [0, inf), got -1.0")

    def test_index_spellings(self, tmp_path):
        path = _write_csv(tmp_path / "s.csv", "index,e",
                          ["1,1.0", " 2 ,2.0", "+3,3.0", "04,4.0", '"5",5.0'])
        evidence, _, _ = ingest_stream(path)
        assert evidence.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    @pytest.mark.parametrize("row, message", [
        ("x,abc,yes", "index must be an integer, got 'x'"),
        ("0,abc,yes", "index must be >= 1, got 0"),
        ("2,abc,yes", "index must run 1..T in file order; expected 1, got 2"),
        ("1,abc,yes", "p must be a number, got 'abc'"),
        ("1,0.1_5,yes", "p must be a number, got '0.1_5'"),
        # the column is judged once the last row is parsed, so a bad label comes first
        ("1,1.5,yes", "truth must be 0 or 1, got 'yes'"),
        ("1,nan,1", "p must be a finite real in (0, 1], got nan"),
        ("01,1.5,1", "p must be a finite real in (0, 1], got 1.5"),
    ], ids=["index-int", "index-range", "index-order", "parse", "underscore", "truth", "finite",
            "range"])
    def test_check_order_within_a_row(self, tmp_path, row, message):
        path = _write_csv(tmp_path / "s.csv", "index,p,truth", [row])
        assert _ingest_error(path) == f"{path} row 2: {message}"

    @pytest.mark.parametrize("header, rows, message", [
        ("p,truth", ["0.4", "0.3"], " row 2: expected 2 fields, got 1"),
        ("p,truth", ["0.4,1", "", "0.3"], " row 4: expected 2 fields, got 1"),
        ("p,truth", ["0.4,1,7"], " row 2: expected 2 fields, got 3"),
        ("p,p", ["0.4,0.5"], ": duplicate column 'p'"),
        ("index,note,p,note", ["1,a,0.4,b"], ": duplicate column 'note'"),
    ], ids=["unlabelled", "after-blank", "extra-field", "evidence", "other"])
    def test_ragged_rows_and_repeated_columns(self, tmp_path, header, rows, message):
        path = _write_csv(tmp_path / "s.csv", header, rows)
        assert _ingest_error(path) == f"{path}{message}"

    @pytest.mark.parametrize("text, message", [
        ("p\n0.1\n" + "0" * 131072 + "1\n", "row 3: field larger than field limit (131072)"),
        ("index,note,e\n1,a,1\n2," + "x" * 131073 + ",1\n",
         "row 3: field larger than field limit (131072)"),
        ("p," + "x" * 131073 + "\n0.1,a\n", "row 1: field larger than field limit (131072)"),
    ], ids=["evidence", "other-column", "header"])
    def test_oversized_field_names_its_row(self, tmp_path, text, message):
        path = tmp_path / "s.csv"
        path.write_text(text)
        assert _ingest_error(path) == f"{path} {message}"

    @pytest.mark.parametrize("data, line", [
        (b"p\n0.1\n0.\xe9\n", 3),
        (b"p\r\n0.1\r\n\r\n0.2\xff", 4),
        (b"p\r0.1\r\r0.2,\xc3\r", 4),
        (b"p\xe9\n0.1\n", 1),
        (b'p,note\n0.1,"two\nli\xe9nes"\n', 3),
    ], ids=["lf", "crlf", "cr", "header", "quoted"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, data, line):
        path = tmp_path / "s.csv"
        path.write_bytes(data)
        bad = next(byte for byte in data if byte > 127)
        assert re.fullmatch(rf"{re.escape(str(path))} row {line}: byte 0x{bad:02x} is not "
                            rf"UTF-8 \([a-z ]+\)", _ingest_error(path))

    @pytest.mark.parametrize("header", ["p", "index,p", "p,e"])
    def test_byte_order_mark_is_named(self, tmp_path, header):
        path = tmp_path / "s.csv"
        path.write_bytes(b"\xef\xbb\xbf" + f"{header}\n".encode() + b"1,0.1,1\n")
        assert _ingest_error(path) == (
            f"{path}: the file starts with a UTF-8 byte-order mark (U+FEFF); "
            f"save it without one")

    @pytest.mark.parametrize("text, evidence, truth", [
        ("index,p,truth\n1,0.5,1\n2,0.25,0\n", [0.5, 0.25], [True, False]),
        ("truth,note,p,index\r\n\r\n1,a b,0.5, 1 \r\n\r\n0,#,.25,+02", [0.5, 0.25],
         [True, False]),
        ("p,truth\n0.5,\n\n1e-300,\n", [0.5, 1e-300], None),
        ("e\n3\n", [3.0], None),
    ], ids=["lf", "crlf-blank-spellings", "unlabelled", "one-row"])
    def test_plain_file_takes_the_columnar_parse(self, tmp_path, monkeypatch, text,
                                                 evidence, truth):
        def row_reader(*args):
            raise AssertionError("a plain file went to the row reader")

        monkeypatch.setattr(cli, "_read_rows", row_reader)
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        values, _, labels = ingest_stream(str(path))
        assert values.tolist() == evidence and values.flags.c_contiguous
        assert labels is None if truth is None else labels.tolist() == truth

    @pytest.mark.parametrize("header, rows, message", [
        ("score", ["1", "3,4"], " row 3: expected 1 fields, got 2"),
        ("score,score", ["1,2"], ": duplicate column 'score'"),
    ], ids=["ragged", "repeated"])
    def test_calibration_ragged_rows_and_repeated_columns(self, tmp_path, capsys, header,
                                                          rows, message):
        cal = _write_csv(tmp_path / "cal.csv", header, rows)
        assert f"error: {cal}{message}\n" == _ingest_stderr(
            capsys, *_conformal_args(tmp_path, cal))


def _columns(draw, col):
    """``{name: fields}`` of a well-formed file whose evidence column is ``col``: some
    valid values, and maybe an ``index``, a ``truth`` and a free-text ``note`` column."""
    n = draw(st.integers(min_value=1, max_value=12))
    if col == "p":
        values = st.floats(min_value=1e-300, max_value=1.0)
    else:
        values = st.floats(min_value=0.0, max_value=1e300)
    columns = {col: [repr(v) for v in draw(st.lists(values, min_size=n, max_size=n))]}
    if draw(st.booleans()):
        columns["index"] = [draw(st.sampled_from([f"{i}", f" {i} ", f"+{i}", f"0{i}"]))
                            for i in range(1, n + 1)]
    if draw(st.booleans()):
        columns["truth"] = draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n))
    if draw(st.booleans()):
        note = st.text(alphabet='x ,"\n', max_size=4)
        columns["note"] = draw(st.lists(note, min_size=n, max_size=n))
    return columns


def _csv_text(draw, columns) -> tuple[str, list[int]]:
    """``columns`` written as CSV in a drawn column order, quoting and line end, with
    blank lines between rows: the text and the file line that ends each data row."""
    header = draw(st.permutations(sorted(columns)))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=quoting, lineterminator=end)
    writer.writerow(header)
    lines = []
    for i in range(len(columns[header[0]])):
        buffer.write(end * draw(st.integers(min_value=0, max_value=2)))
        writer.writerow([columns[name][i] for name in header])
        lines.append(buffer.getvalue().count("\n"))  # a quoted newline starts a line too
    text = buffer.getvalue()
    if draw(st.booleans()):
        text = text[:-len(end)]
    return text, lines


@st.composite
def _well_formed_csv(draw):
    """A well-formed evidence file: its text, calibrator and evidence column."""
    col, calibrator = draw(st.sampled_from([("p", "none"), ("p", "vovk"), ("e", "none")]))
    text, _ = _csv_text(draw, _columns(draw, col))
    return text, calibrator, col


@st.composite
def _one_bad_field(draw, col):
    """A file from :func:`_columns` with exactly one field of one data row spoiled: its
    text, that row's file line and the name the message starts with."""
    columns = _columns(draw, col)
    row = draw(st.integers(min_value=0, max_value=len(columns[col]) - 1))
    name = draw(st.sampled_from(sorted({col, "index", "truth"} & set(columns))))
    out_of_range = ["0", "1.5", "-0.1"] if col == "p" else ["-1", "-5e-324"]
    bad = {col: st.sampled_from(["abc", "", "nan", "inf", "-inf", "1_0", *out_of_range]),
           "truth": st.just("2"),
           "index": st.sampled_from(["0", "-1", f"{row + 2}", f"{row + 9}", "x"])}[name]
    columns[name][row] = draw(bad)
    text, lines = _csv_text(draw, columns)
    return text, lines[row], name


_ARABIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))  # int() reads them
#: Field spellings on which numpy and the row reader might part, by column: each turns a
#: valid field into one that both must read alike, or the row reader must refuse.
_FIELD_SPOILERS = {
    "evidence": [lambda v: v + "#x", lambda v: "\xa0" + v, lambda v: v + "\x1c",
                 lambda v: v + "\x00", lambda v: v.translate(_ARABIC), lambda v: f" {v}\t",
                 lambda v: "0" * 131072 + v],
    "index": [lambda v: v.strip() + ".0", lambda v: "\x1c" + v, lambda v: v.translate(_ARABIC),
              lambda v: v + "\x00", lambda v: "0" * 131072 + v],
    "truth": [lambda v: v + "0", lambda v: " " + v, lambda v: v + "\x00", lambda v: v + "\x0c",
              lambda v: ""],
    "note": [lambda v: "x" * 131073, lambda v: v + "#"],
}
#: Whole-file spoilers: CR-only line ends, a whitespace-only line, a byte-order mark.
_TEXT_SPOILERS = [
    lambda text: text.replace("\r\n", "\n").replace("\n", "\r"),
    lambda text: text.replace("\n", "\n \n", 1),
    lambda text: "\ufeff" + text,
]


@st.composite
def _spoiled_csv(draw, col):
    """A file from :func:`_columns`, maybe cut to one row, with one spoiler on which the
    columnar parse and the row reader might part: a field spelling, one of
    ``_TEXT_SPOILERS`` or a byte that is not UTF-8.  Its bytes."""
    columns = _columns(draw, col)
    if draw(st.booleans()):
        columns = {name: fields[:1] for name, fields in columns.items()}
    how = draw(st.sampled_from(["field", "field", "field", "text", "byte"]))
    if how == "field":
        name, spoil = draw(st.sampled_from([
            (name, spoil) for name in sorted(columns)
            for spoil in _FIELD_SPOILERS["evidence" if name == col else name]]))
        row = draw(st.integers(min_value=0, max_value=len(columns[name]) - 1))
        columns[name][row] = spoil(columns[name][row])
    text, _ = _csv_text(draw, columns)
    if how == "text":
        text = draw(st.sampled_from(_TEXT_SPOILERS))(text)
    data = text.encode()
    if how == "byte":
        at = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xe9", b"\xff", b"\xc3"])) + data[at:]
    return data


@st.composite
def _differential_case(draw):
    """``(bytes, column, calibrator)``: a well-formed, a one-bad-field or a spoiled file
    whose evidence column is ``column``, read as an evidence file under ``calibrator`` or,
    when that is None, as a calibration file."""
    col, calibrator = draw(st.sampled_from([("p", "none"), ("p", "vovk"), ("e", "none"),
                                            ("score", "conformal"), ("score", None)]))
    kind = draw(st.sampled_from(["well-formed", "one-bad-field", "spoiled", "spoiled"]))
    if kind == "well-formed":
        data = _csv_text(draw, _columns(draw, col))[0].encode()
    elif kind == "one-bad-field":
        data = draw(_one_bad_field(col))[0].encode()
    else:
        data = draw(_spoiled_csv(col))
    return data, col, calibrator


def _outcome(read):
    """What ``read()`` gives, as comparable data: the column, the bytes of its values and
    the labels, or the message of its refusal."""
    try:
        col, values, truth = read()
    except ConfigError as exc:
        return str(exc)
    return col, values.dtype.str, values.tobytes(), None if truth is None else truth.tolist()


@settings(deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(case=_differential_case())
@example(case=(b"p,truth\n0.5#x,1\n", "p", "none"))
@example(case=(b'index,p\n1,"0.5"\n2,0.25\n', "p", "none"))
@example(case=(b"p,note\n0.5,a\n0.25,\"x\n0.75,y\"\n", "p", "none"))
@example(case=(b"e\r1\r2\r", "e", "none"))
@example(case=(b"score\n1\n \n2\n", "score", None))
@example(case=(b"p,truth\n0.5,10\n", "p", "vovk"))
@example(case=(b"p,truth\n0.5, 1\n", "p", "none"))
@example(case=(b"p,truth\n0.5,1\n0.25,\n", "p", "none"))
@example(case=(b"p\n", "p", "none"))
@example(case=(b"score\r\n\r\n", "score", None))
@example(case=(b"p,truth\n0.5,1\x00\n", "p", "none"))
@example(case=(b"index,e\n2.0,1\n", "e", "none"))
@example(case=(b"index,e\n\x1c1,1\n", "e", "none"))
@example(case=(b"e\n" + b"0" * 131072 + b"1\n", "e", "none"))
@example(case=(b"e,note\n1," + b"x" * 131073 + b"\n", "e", "none"))
@example(case=(b"score\n1\n2\xe9\n", "score", "conformal"))
@example(case=(b"\xef\xbb\xbfscore\n1\n", "score", None))
def test_columnar_parse_matches_row_reader(tmp_path, case):
    data, col, calibrator = case
    names = tuple(cli._COLUMNS) if calibrator else (col,)
    path = tmp_path / "s.csv"
    path.write_bytes(data)
    rows = _outcome(lambda: cli._read_rows(str(path), cli._read_text(str(path))[0], names,
                                           calibrator))
    assert _outcome(lambda: cli._read_column(str(path), names, calibrator)) == rows


def _refused_without_output(tmp_path, capsys, argv, path, line, name):
    decisions, metrics = tmp_path / "d.csv", tmp_path / "m.csv"
    rc = main(["ingest", *argv, "--decisions-out", str(decisions), "--metrics-out", str(metrics)])
    err = capsys.readouterr().err
    assert rc == 2
    assert re.fullmatch(rf"error: {re.escape(str(path))} row {line}: {name} must [^\n]*\n", err)
    assert not decisions.exists() and not metrics.exists()


@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=st.sampled_from([("p", "none", "p-lord"), ("p", "vovk", "e-lord"),
                             ("e", "none", "e-lord"), ("score", "conformal", "score-lord")]),
       data=st.data())
def test_one_bad_field_names_its_row(tmp_path, capsys, pair, data):
    col, calibrator, procedure = pair
    text, line, name = data.draw(_one_bad_field(col))
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode())
    argv = ["--input", str(path), "--calibrator", calibrator, "--procedure", procedure]
    if calibrator == "conformal":
        argv += ["--calibration-scores", _write_csv(tmp_path / "cal.csv", "score", ["1.0"])]
    _refused_without_output(tmp_path, capsys, argv, path, line, name)


@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_one_bad_field("score"))
def test_one_bad_calibration_field_names_its_row(tmp_path, capsys, case):
    text, line, name = case
    cal = tmp_path / "cal.csv"
    cal.write_bytes(text.encode())
    _refused_without_output(tmp_path, capsys, _conformal_args(tmp_path, cal), cal, line, name)


@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_well_formed_csv())
def test_ingest_matches_dictreader(tmp_path, case):
    text, calibrator, col = case
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode())
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    expected = np.asarray([float(row[col]) for row in rows])
    if calibrator == "vovk":
        expected = sf.vovk_p_to_e(expected)
    evidence, kind, truth = ingest_stream(str(path), calibrator)
    assert evidence.tobytes() == expected.tobytes()
    assert kind == ("p" if col == "p" and calibrator == "none" else "e")
    if "truth" in rows[0]:
        assert truth.tolist() == [row["truth"] == "1" for row in rows]
    else:
        assert truth is None


class TestReports:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        traj = build("score-saffron").fit(random_e_stream(rng, 120)).trajectory()
        path = tmp_path / "decisions.csv"
        emit_decisions(traj, str(path))
        back = read_decisions(str(path))
        assert np.array_equal(back["alpha"], traj.alpha)
        assert np.array_equal(back["decision"], traj.decision)
        assert np.array_equal(back["overshoot"], traj.overshoot)
        assert np.array_equal(back["fdp_hat"], traj.fdp_hat)
        assert np.array_equal(back["index"], np.arange(1, 121))

    def test_two_step_trace_rows(self, tmp_path):
        traj = build("score-lond").fit([100.0, 1.0]).trajectory()
        path = tmp_path / "trace.csv"
        emit_decisions(traj, str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1" and first[2] == "1"          # index, decision
        assert float(first[1]) == 0.025                      # alpha_1
        assert float(first[3]) == pytest.approx(1.5, abs=1e-12)  # overshoot
        second = lines[2].split(",")
        assert float(second[1]) == pytest.approx(0.0375, abs=1e-12)
        assert second[2] == "0" and second[5] == "1"

    def test_empty_trajectory_header_only(self, tmp_path):
        traj = build("e-lord").fit([]).trajectory()
        path = tmp_path / "empty.csv"
        emit_decisions(traj, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines == ["index,alpha,decision,overshoot,cost,rejections,fdp_hat"]

    def test_metrics_shape(self, tmp_path):
        report = sf.replicate(
            sf.DgpConfig("gaussian_mixture", horizon=200, pi1=0.3, seed=0),
            build("score-lord"), n_reps=5, checkpoints=[50, 200],
        )
        path = tmp_path / "metrics.csv"
        emit_metrics(report, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,fdr,fdr_se,power,power_se"
        assert len(lines) == 3
        assert lines[1].startswith("50,")

    def test_write_error_names_path(self, tmp_path):
        traj = build("e-lord").fit([1.0]).trajectory()
        with pytest.raises(OSError, match="no/such/dir"):
            emit_decisions(traj, str(tmp_path / "no/such/dir/out.csv"))


class TestMain:
    def test_simulate_end_to_end(self, tmp_path, capsys):
        metrics = tmp_path / "m.csv"
        decisions = tmp_path / "d.csv"
        rc = main([
            "simulate", "--procedure", "score-lord", "--dgp", "gaussian_mixture",
            "--horizon", "200", "--replicates", "10", "--seed", "3",
            "--metrics-out", str(metrics), "--decisions-out", str(decisions),
            "--checkpoints", "100,200",
        ])
        assert rc == 0
        assert metrics.exists() and decisions.exists()
        out = capsys.readouterr().out
        assert "fdr(T)=" in out and "score-lord" in out

    def test_simulate_fits_each_replicate_once(self, tmp_path, capsys, monkeypatch):
        # the decisions CSV is replicate 0's ledger, not a fresh run of its stream
        calls = {"generate": 0, "fit": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        generate = counted("generate", sf.generate)
        # the CLI imports generate by name, so both bindings are counted
        monkeypatch.setattr("scorefdr.simulation.generate", generate)
        monkeypatch.setattr("scorefdr.cli.generate", generate)
        monkeypatch.setattr(sf.OnlineProcedure, "fit", counted("fit", sf.OnlineProcedure.fit))
        assert main(["simulate", "--procedure", "score-lord", "--horizon", "100",
                     "--replicates", "3", "--decisions-out", str(tmp_path / "d.csv")]) == 0
        assert calls == {"generate": 3, "fit": 3}

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "mode = simulate\nprocedure = e-lord\nhorizon = 100\nreplicates = 2\n"
        )
        rc = main(["simulate", "--config", str(cfg), "--procedure", "score-lord"])
        assert rc == 0
        assert "score-lord" in capsys.readouterr().out

    def test_ingest_end_to_end(self, tmp_path, capsys):
        stream = tmp_path / "in.csv"
        rows = ["p"] + [f"{v}" for v in (0.0001, 0.3, 0.7, 0.0002, 0.9)]
        stream.write_text("\n".join(rows) + "\n")
        out = tmp_path / "d.csv"
        rc = main(["ingest", "--input", str(stream), "--procedure", "p-lord",
                   "--alpha", "0.2", "--decisions-out", str(out)])
        assert rc == 0
        assert "discoveries" in capsys.readouterr().out
        assert len(out.read_text().strip().splitlines()) == 6

    def test_ingest_with_truth_writes_metrics(self, tmp_path, capsys):
        stream = tmp_path / "in.csv"
        stream.write_text("p,truth\n0.0001,1\n0.3,0\n0.002,1\n0.8,0\n")
        metrics = tmp_path / "m.csv"
        rc = main(["ingest", "--input", str(stream), "--procedure", "p-lord",
                   "--alpha", "0.2", "--metrics-out", str(metrics),
                   "--checkpoints", "2,4"])
        assert rc == 0
        lines = metrics.read_text().strip().splitlines()
        assert len(lines) == 3 and lines[1].startswith("2,")

    def test_ingest_metrics_require_truth(self, tmp_path, capsys):
        stream = tmp_path / "in.csv"
        stream.write_text("p\n0.1\n0.2\n")
        rc = main(["ingest", "--input", str(stream), "--procedure", "p-lord",
                   "--metrics-out", str(tmp_path / "m.csv")])
        assert rc == 2
        assert "truth" in capsys.readouterr().err

    def test_ingest_checkpoints_out_of_range(self, tmp_path, capsys):
        stream = tmp_path / "in.csv"
        stream.write_text("p,truth\n0.1,0\n0.2,1\n")
        rc = main(["ingest", "--input", str(stream), "--procedure", "p-lord",
                   "--metrics-out", str(tmp_path / "m.csv"), "--checkpoints", "5"])
        assert rc == 2
        assert "checkpoints" in capsys.readouterr().err

    @pytest.mark.parametrize("header, rows, extra, message", [
        ("p,truth", ["0.1,0", "0.2,1"], ["--checkpoints", "1,5"],
         r"checkpoints must be indices in \[1, 2\], got \(1, 5\)"),
        ("p", ["0.1", "0.2"], [], "metrics_out requires a truth column in the input"),
    ], ids=["checkpoints-beyond-stream", "no-truth-column"])
    def test_ingest_bad_metrics_request_writes_nothing(self, tmp_path, capsys, header, rows,
                                                       extra, message):
        stream = _write_csv(tmp_path / "in.csv", header, rows)
        metrics, decisions = tmp_path / "m.csv", tmp_path / "d.csv"
        rc = main(["ingest", "--input", stream, "--procedure", "p-lord",
                   "--metrics-out", str(metrics), "--decisions-out", str(decisions)] + extra)
        assert rc == 2
        assert re.search(f"^error: {re.escape(stream)}: {message}\n$", capsys.readouterr().err)
        assert not metrics.exists() and not decisions.exists()

    @pytest.mark.parametrize("command, args", [
        ("ingest", ["--procedure", "p-lord"]),
        ("simulate", ["--procedure", "score-lord", "--horizon", "50"]),
    ])
    def test_refused_metrics_write_leaves_no_decisions(self, tmp_path, capsys, command, args):
        if command == "ingest":
            args += ["--input", _write_csv(tmp_path / "in.csv", "p,truth", ["0.1,0", "0.2,1"])]
        decisions = tmp_path / "d.csv"
        rc = main([command, *args, "--decisions-out", str(decisions),
                   "--metrics-out", str(tmp_path / "nodir" / "m.csv")])
        assert rc == 2
        assert "cannot write metrics to" in capsys.readouterr().err
        assert not decisions.exists()

    def test_simulate_invalid_dgp_combination(self, capsys):
        rc = main(["simulate", "--procedure", "e-lord", "--dgp", "ar1_gaussian",
                   "--phi0", "1.0"])
        assert rc == 2
        assert "phi0" in capsys.readouterr().err

    def test_oracle_check_passes(self, capsys):
        rc = main(["oracle-check", "--procedure", "score-plus-saffron",
                   "--dgp", "gaussian_mixture", "--horizon", "150", "--seed", "4"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["checkpoints", "decisions_out", "metrics_out",
                                     "replicates"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_oracle_check_refuses_report_keys(self, tmp_path, capsys, monkeypatch,
                                              key, source):
        # oracle-check writes no report, so a key that shapes one is an error,
        # not silently ignored.
        monkeypatch.chdir(tmp_path)
        argv = ["oracle-check", "--procedure", "score-lord", "--horizon", "100"]
        if source == "flag":
            flag = f"--{key.replace('_', '-')}"
            argv += [flag, SAMPLE_VALUES[key]]
            where = f"flag {flag}"
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"# oracle run\n{key} = {SAMPLE_VALUES[key]}\n")
            argv += ["--config", str(config)]
            where = "line 2"
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {where}: key '{key}' does not apply to oracle-check\n"
        assert captured.out == ""
        assert sorted(path.name for path in tmp_path.iterdir()) == (
            ["run.cfg"] if source == "file" else [])

    def test_oracle_check_on_csv(self, tmp_path, capsys):
        stream = tmp_path / "in.csv"
        stream.write_text("e\n" + "\n".join(str(v) for v in (30.0, 0.5, 900.0)) + "\n")
        rc = main(["oracle-check", "--mode", "ingest", "--input", str(stream),
                   "--procedure", "score-lord"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["ingest"], ["oracle-check", "--mode", "ingest"]],
                             ids=["ingest", "oracle-check"])
    @pytest.mark.parametrize("rows,procedure,message", [
        ([], "p-lord", r"in\.csv: no data rows"),
        (["0.01", "0.5"], "e-lord",
         r"e-lord consumes 'e' evidence, but calibrator=none on .*in\.csv gives 'p'"),
    ], ids=["header-only", "kind-mismatch"])
    def test_load_errors_shared(self, tmp_path, capsys, command, rows, procedure, message):
        stream = _write_csv(tmp_path / "in.csv", "p", rows)
        rc = main(command + ["--input", stream, "--procedure", procedure])
        assert rc == 2
        assert re.search(message, capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["simulate", "ingest"])
    @pytest.mark.parametrize("points", ["4,2", "2,2"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_checkpoints_must_increase(self, tmp_path, capsys, command, points, source):
        metrics = tmp_path / "m.csv"
        argv = [command, "--procedure", "p-lord", "--metrics-out", str(metrics)]
        if command == "ingest":
            stream = _write_csv(tmp_path / "in.csv", "p,truth",
                                ["0.001,1", "0.3,0", "0.002,1", "0.8,0"])
            argv += ["--input", stream]
        if source == "flag":
            argv += ["--checkpoints", points]
            where = "flag --checkpoints"
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"# report points\ncheckpoints = {points}\n")
            argv += ["--config", str(config)]
            where = "line 2"
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {where}: checkpoints must be strictly increasing, "
                       f"got ({points.replace(',', ', ')})\n")
        assert not metrics.exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_simulate_checkpoints_beyond_horizon(self, tmp_path, capsys, source):
        metrics = tmp_path / "m.csv"
        argv = ["simulate", "--procedure", "score-lord", "--horizon", "100",
                "--metrics-out", str(metrics)]
        if source == "flag":
            argv += ["--checkpoints", "50,200"]
            where = "flag --checkpoints"
        else:
            config = tmp_path / "run.cfg"
            config.write_text("# report points\ncheckpoints = 50,200\n")
            argv += ["--config", str(config)]
            where = "line 2"
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {where}: checkpoints must be indices in [1, 100], got (50, 200)\n")
        assert captured.out == "" and not metrics.exists()

    def test_oracle_check_fails_on_non_finite_gap(self, capsys):
        # The oracle's wealth re-sum overflows to inf on this stream while the
        # engine's stays finite; an infinite gap must fail, not compare as NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["oracle-check", "--mode", "ingest",
                       "--input", str(DATA / "synthetic_pvalues.csv"),
                       "--calibrator", "vovk", "--procedure", "score-saffron"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "nan" not in out
        assert out.endswith("FAIL: divergence inf exceeds tolerance 1.0e-10\n")

    @pytest.mark.parametrize("command", ["simulate", "oracle-check"])
    @pytest.mark.parametrize("pid, evidence, kind", [
        ("e-lord", "p_conditional", "p"), ("p-lord", "e", "e"),
    ])
    def test_evidence_of_the_other_kind(self, capsys, command, pid, evidence, kind):
        rc = main([command, "--procedure", pid, "--dgp", "ar1_gaussian",
                   "--horizon", "50", "--evidence", evidence])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: flag --evidence: {pid} consumes '{pid[0]}' evidence, "
            f"but evidence={evidence} gives '{kind}' evidence\n")

    def test_validation_error_exit_code(self, capsys):
        rc = main(["simulate", "--procedure", "score-lord", "--alpha", "1.5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "alpha" in err

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["ingest", "--procedure", "e-lord",
                   "--input", str(tmp_path / "absent.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


DATA = Path(__file__).parent / "data"

#: SHA-256 of the files ``scorefdr ingest`` writes, and of the generated
#: score and calibration inputs they are computed from.
OUTPUT_BYTES = {
    "vovk/score-lord/decisions":
        "c9e8d18a2ed296c4a9f4dccab27605ab9cc799583ccdd3109c9600e84d31fd25",
    "none/p-saffron/decisions":
        "fb5b7cc9044bce1925dde12f79b4456186cde8ef8b3e3f88a21a51f38173b52a",
    "conformal/score-plus-lord/scores":
        "65b15d027ce8eb0167863e938ed6be2345da9e35f54c75a3ee89019f70012ae2",
    "conformal/score-plus-lord/calibration":
        "c6c8b89f68b6493d4d8c742ba4f665f7bb27559c5f0c282f9c86a4880a9c3336",
    "conformal/score-plus-lord/decisions":
        "8dbe38d5f5f43fec27da043a8727bfdc94907fca88b42d987c0e76932b0a8040",
    "conformal/score-plus-lord/metrics":
        "b4d45c8bcdec033d39a96f67a7bcdd3cb2723abf5e0409f7edf74dedcd6c8239",
}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_conformal_inputs(tmp_path):
    rng = np.random.Generator(np.random.PCG64(20261018))
    truth = rng.random(2000) < 0.2
    scores = -np.log1p(-rng.random(2000)) * np.where(truth, 2000.0, 1.0)
    calibration = -np.log1p(-rng.random(1000))
    scores_path = _write_csv(
        tmp_path / "scores.csv", "score,truth",
        [f"{s:.17g},{int(t)}" for s, t in zip(scores.tolist(), truth.tolist())])
    cal_path = _write_csv(tmp_path / "cal.csv", "score",
                          [f"{s:.17g}" for s in calibration.tolist()])
    return scores_path, cal_path


class TestOutputBytes:
    """The decisions and metrics CSVs that ``ingest`` writes, byte for byte:
    ``%.17g`` reals, ``\\r\\n`` line ends and the column order."""

    @pytest.mark.parametrize("calibrator,pid", [("vovk", "score-lord"),
                                                ("none", "p-saffron")])
    def test_synthetic_pvalues(self, tmp_path, calibrator, pid):
        out = tmp_path / "d.csv"
        assert main(["ingest", "--input", str(DATA / "synthetic_pvalues.csv"),
                     "--calibrator", calibrator, "--procedure", pid,
                     "--decisions-out", str(out)]) == 0
        assert _sha256(out) == OUTPUT_BYTES[f"{calibrator}/{pid}/decisions"]

    def test_conformal_with_metrics(self, tmp_path):
        scores, cal = _write_conformal_inputs(tmp_path)
        key = "conformal/score-plus-lord"
        assert _sha256(scores) == OUTPUT_BYTES[f"{key}/scores"]
        assert _sha256(cal) == OUTPUT_BYTES[f"{key}/calibration"]
        decisions, metrics = tmp_path / "d.csv", tmp_path / "m.csv"
        assert main(["ingest", "--input", scores, "--calibrator", "conformal",
                     "--calibration-scores", cal, "--procedure", "score-plus-lord",
                     "--decisions-out", str(decisions),
                     "--metrics-out", str(metrics)]) == 0
        assert _sha256(decisions) == OUTPUT_BYTES[f"{key}/decisions"]
        assert _sha256(metrics) == OUTPUT_BYTES[f"{key}/metrics"]


#: SHA-256 of the metrics and decisions CSVs of three ``simulate`` runs, each
#: at horizon 300, 4 replicates and seed 1.
SIMULATE_BYTES = {
    "gaussian_mixture/score-lord/metrics":
        "2f1e22322c9b0281d1bec820e9d34596853ab8e05d40085c3cc328fd450a982a",
    "gaussian_mixture/score-lord/decisions":
        "0d529466a6622964524f25cc71870028578a5dbc51caa1f9bd9827a6c03d3b5e",
    "ar_exponential/score-plus-lord/metrics":
        "c67dd3b3dbeffa1d2a83b78c489bc250617d962731c6a2666c2ff266ab502047",
    "ar_exponential/score-plus-lord/decisions":
        "b9ff6172e2b4370dcad5eeb7341bc67151cdb4afa00e9c7a364a21acea67683d",
    "ar1_gaussian/p-saffron/metrics":
        "a6fcda47a61ade8026dd8487181c8ddd062fd43fb243893d25e8c8a307c3bfa8",
    "ar1_gaussian/p-saffron/decisions":
        "e344cc3c57c5b0c84331f4757ffe9a1b50c6909b297d3aa782d7089850fa5967",
}


class TestSimulateBytes:
    """The metrics and decisions CSVs that ``simulate`` writes, byte for byte:
    the generators, the replicate aggregation and both writers."""

    @pytest.mark.parametrize("dgp,pid,extra", [
        ("gaussian_mixture", "score-lord", []),
        ("ar_exponential", "score-plus-lord", ["--omega", "rai,0.05,0.5,0.5"]),
        ("ar1_gaussian", "p-saffron", ["--evidence", "p_conditional"]),
    ])
    def test_simulate_outputs(self, tmp_path, dgp, pid, extra):
        metrics, decisions = tmp_path / "m.csv", tmp_path / "d.csv"
        assert main(["simulate", "--dgp", dgp, "--procedure", pid, "--horizon", "300",
                     "--replicates", "4", "--seed", "1", *extra,
                     "--metrics-out", str(metrics), "--decisions-out", str(decisions)]) == 0
        assert _sha256(metrics) == SIMULATE_BYTES[f"{dgp}/{pid}/metrics"]
        assert _sha256(decisions) == SIMULATE_BYTES[f"{dgp}/{pid}/decisions"]


class TestErrorBytes:
    """Errors no other test reaches, each pinned to its exit code and exact stderr."""

    @pytest.mark.parametrize("flag, value, message", [
        ("--rho", "-1", "flag --rho: rho must be in [0, inf), got -1.0"),
        ("--pi1", "x", "flag --pi1: pi1 must be a number, got 'x'"),
        ("--horizon", "1_000", "flag --horizon: horizon must be an integer, got '1_000'"),
        ("--pi1", "inf", "flag --pi1: pi1 must be in [0, 1], got inf"),
        ("--checkpoints", ",",
         "flag --checkpoints: checkpoints must be indices in [1, 1000], got ()"),
    ])
    def test_simulate_flag(self, capsys, flag, value, message):
        assert main(["simulate", "--procedure", "e-lord", flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_conformal_needs_calibration_scores(self, tmp_path, capsys):
        scores = _write_csv(tmp_path / "s.csv", "score", ["1.0"])
        err = _ingest_stderr(capsys, "--input", scores, "--calibrator", "conformal",
                             "--procedure", "score-lord")
        assert err == "error: config: calibrator=conformal requires 'calibration_scores'\n"

    @pytest.mark.parametrize("header, rows, message", [
        ("x", ["1.0"], "need exactly one evidence column among score; found none"),
        ("score", [], "no data rows"),
    ], ids=["no-score-column", "header-only"])
    def test_calibration_file(self, tmp_path, capsys, header, rows, message):
        cal = _write_csv(tmp_path / "c.csv", header, rows)
        err = _ingest_stderr(capsys, *_conformal_args(tmp_path, cal))
        assert err == f"error: {cal}: {message}\n"

    def test_negative_score_evidence(self, tmp_path, capsys):
        stream = _write_csv(tmp_path / "in.csv", "score,truth", ["0.4,0", "-35,1", "1.2,0"])
        cal = _write_csv(tmp_path / "c.csv", "score", ["1.0"])
        err = _ingest_stderr(capsys, "--input", stream, "--calibrator", "conformal",
                             "--calibration-scores", cal, "--procedure", "score-lord")
        assert err == (
            f"error: {stream} row 3: score must be a finite real in [0, inf), got -35.0\n")

    @pytest.mark.parametrize("data, message", [
        (b"p\n0.5\n" + b"1" * 131073 + b"\n", "row 3: field larger than field limit (131072)"),
        (b"p\n0.5\n0.\xe9\n", "row 3: byte 0xe9 is not UTF-8 (invalid continuation byte)"),
    ], ids=["oversized-field", "not-utf8"])
    def test_unreadable_input(self, tmp_path, capsys, data, message):
        stream, decisions = tmp_path / "in.csv", tmp_path / "d.csv"
        stream.write_bytes(data)
        err = _ingest_stderr(capsys, "--input", str(stream), "--procedure", "p-lord",
                             "--decisions-out", str(decisions))
        assert err == f"error: {stream} {message}\n" and not decisions.exists()

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"mode = simulate\r\nprocedure = e-lord\r\n# caf\xe9\r\n")
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path} line 3: byte 0xe9 is not UTF-8 (invalid continuation byte)\n")

    def test_unreadable_config(self, tmp_path, capsys):
        path = tmp_path / "missing.cfg"
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read config {path}: [Errno 2] No such file or directory: '{path}'\n")

    @pytest.mark.parametrize("flags, message", [
        (["--dgp", "ar1_gaussian", "--evidence", "p_conditional", "--phi0", "1.5"],
         "flag --phi0: phi0 must be in (-1, 1), got 1.5"),
        (["--dgp", "ar_exponential", "--mu-set", "3,0.5"],
         "flag --mu-set: mu_set must be a finite real in (1, inf), got 0.5 at index 1"),
    ], ids=["phi0", "mu_set"])
    def test_dgp_parameter_named_with_its_interval(self, capsys, flags, message):
        assert main(["simulate", "--procedure", "p-lord", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_read_decisions_wrong_header(self, tmp_path):
        path = _write_csv(tmp_path / "d.csv", "index,alpha", ["1,0.05"])
        message = f"{path}: unexpected header ['index', 'alpha']"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_decisions(path)
