import argparse
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

import scorefdr as sf
from scorefdr.cli import (
    _KEYS,
    ALL_KEYS,
    MODES,
    ConfigError,
    build_parser,
    emit_decisions,
    emit_metrics,
    ingest_stream,
    main,
    parse_config,
    read_decisions,
    read_raw_config,
)
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
        with pytest.raises(ConfigError, match=r"line 2: alpha out of range"):
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
        with pytest.raises(ConfigError, match="must be one of"):
            parse_config("mode = simulate\nprocedure = bh\n")

    def test_schedule_keys_parsed(self):
        cfg = parse_config(
            "mode = simulate\nprocedure = score-lord\nomega = rai,0.05,0.5,0.5\n"
        )
        assert cfg.omega == sf.Schedule.rai(0.05, 0.5, 0.5)

    def test_bad_schedule_reports_location(self):
        with pytest.raises(ConfigError, match="line 3: omega"):
            parse_config("mode = simulate\nprocedure = score-lord\nomega = rai,0.05\n")


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
        modes, _, field = _KEYS[key]
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
            key for key, (modes, _, _) in _KEYS.items() if command in modes}
        assert _subcommand_flags(command) == {f"--{k.replace('_', '-')}" for k in keys}
        assert len(keys) == count

    def test_formats_md_lists_the_same_keys(self):
        table = _formats_key_table()
        assert set(table) == ALL_KEYS
        assert table.pop("mode") == MODES
        assert table == {key: modes for key, (modes, _, _) in _KEYS.items()}


def _write_csv(path, header, rows):
    with open(path, "w") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(row + "\n")
    return str(path)


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
        with pytest.raises(ConfigError, match=r"row 3: p-value out of"):
            ingest_stream(path)

    def test_zero_pvalue_rejected(self, tmp_path):
        path = _write_csv(tmp_path / "s.csv", "p", ["0"])
        with pytest.raises(ConfigError, match="row 2"):
            ingest_stream(path)

    def test_negative_evalue_names_row(self, tmp_path):
        path = _write_csv(tmp_path / "s.csv", "e", ["1.0", "-3"])
        with pytest.raises(ConfigError, match="row 3: negative e-value"):
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
        ("p", ["0.1", "", "0.2", "1.5"], r"s\.csv row 5: p-value out of"),
        ("p,truth", ["0.1,1", "", "0.2,"], r"s\.csv row 4: truth is blank"),
        # index counts data rows, the row in the message counts file lines
        ("index,p", ["1,0.1", "", "2,0.2", "2,0.3"], r"row 5: .*expected 3, got 2"),
    ], ids=["p", "truth", "index"])
    def test_row_is_file_line(self, tmp_path, header, rows, message):
        path = _write_csv(tmp_path / "s.csv", header, rows)
        with pytest.raises(ConfigError, match=message):
            ingest_stream(path)

    def test_calibration_row_is_file_line(self, tmp_path, capsys):
        scores = _write_csv(tmp_path / "s.csv", "score", ["1.0"])
        cal = _write_csv(tmp_path / "cal.csv", "score", ["1", "", "x"])
        code = main(["ingest", "--input", scores, "--calibrator", "conformal",
                     "--calibration-scores", cal, "--procedure", "score-lord"])
        assert code == 2
        assert "cal.csv row 4: bad score 'x'" in capsys.readouterr().err

    def test_non_numeric_evidence(self, tmp_path):
        path = _write_csv(tmp_path / "s.csv", "e", ["abc"])
        with pytest.raises(ConfigError, match="bad e value"):
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
        escore = _write_csv(tmp_path / "sc.csv", "score", ["0.9", "0.1"])
        with pytest.raises(ConfigError, match="requires calibrator=conformal"):
            ingest_stream(escore)
        epath = _write_csv(tmp_path / "e.csv", "e", ["2.0"])
        with pytest.raises(ConfigError, match="applies to a 'p' column"):
            ingest_stream(epath, calibrator="vovk")
        with pytest.raises(ConfigError, match="requires a 'score' column"):
            ingest_stream(epath, calibrator="conformal")

    def test_conformal_conversion(self, tmp_path):
        path = _write_csv(tmp_path / "sc.csv", "score", ["1.0"])
        cal = sf.CalibrationSet([0.0, 0.0, 0.0])
        evidence, kind, _ = ingest_stream(path, calibrator="conformal", calibration=cal)
        assert kind == "e" and evidence[0] == pytest.approx(4.0)


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
            sf.DgpConfig("gaussian_mixture", horizon=200, pi1=0.3),
            build("score-lord"), n_reps=5, base_seed=0, checkpoints=[50, 200],
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
         r"checkpoints must lie in \[1, 2\] for this stream, got 5"),
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
        assert err == f"error: {where}: checkpoints must be strictly increasing\n"
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
        assert captured.err == f"error: {where}: checkpoint 200 exceeds the horizon 100\n"
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
            f"error: {pid} consumes '{pid[0]}' evidence, "
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
