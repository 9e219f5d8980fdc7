import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qudit_teleport import cli, protocol
from qudit_teleport.protocol import ProtocolConfig, run_protocol
from qudit_teleport.states import uniform_state
from qudit_teleport.cli import (
    CSV_HEADER,
    MAX_GRID_POINTS,
    InputSpec,
    SweepConfig,
    SweepResult,
    SweepRow,
    emit,
    main,
    parse_cli,
    parse_p_grid,
    run_sweep,
)

from sweep_oracle import render as oracle_csv


class TestParsePGrid:
    def test_eleven_point_unit_grid(self):
        grid = parse_p_grid("0:1:0.1")
        assert len(grid) == 11
        np.testing.assert_allclose(grid, [k / 10 for k in range(11)], atol=1e-9)
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_single_point(self):
        assert parse_p_grid("0:0:1") == (0.0,)

    def test_step_must_divide_range(self):
        with pytest.raises(ValueError, match="divide"):
            parse_p_grid("0:1:0.3")

    def test_values_must_be_probabilities(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            parse_p_grid("0:2:1")

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_p_grid("0-1-0.1")

    def test_point_count_capped(self):
        assert len(parse_p_grid("0:0.999999:0.000001")) == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="has 1000001 points"):
            parse_p_grid("0:1:0.000001")


class TestParseCli:
    def test_defaults(self):
        cfg = parse_cli([])
        assert cfg.dims == (2, 3, 4, 5, 8)
        assert len(cfg.p_grid) == 11
        assert cfg.input.kind == "uniform"
        assert cfg.noise == "weyl"
        assert cfg.noise_targets == ("a1", "a2")
        assert cfg.correction == "derived-exact"
        assert cfg.eta is None
        assert cfg.out is None
        assert cfg.format == "csv"
        assert cfg.timing is False

    def test_single_point_config(self):
        cfg = parse_cli(["--dims", "2", "--p-grid", "0:0:1", "--input", "uniform"])
        assert cfg.dims == (2,) and cfg.p_grid == (0.0,)

    def test_random_input_spec(self):
        cfg = parse_cli(["--input", "random:5:42"])
        assert cfg.input == InputSpec(kind="random", count=5, base_seed=42)
        assert cfg.input.label == "random:5:42"

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_random_seed_exits_2(self, tmp_path, capsys, source):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({"input": "random:2:-1"}))
        argv = ["--input", "random:2:-1"] if source == "flag" else ["--config", str(cfg_path)]
        with pytest.raises(SystemExit) as exc:
            parse_cli(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "qudit-teleport: error: random input seed must be >= 0, got -1\n"
        )

    def test_file_input_spec(self):
        cfg = parse_cli(["--input", "file:/tmp/state.txt"])
        assert cfg.input.kind == "file" and cfg.input.path == "/tmp/state.txt"

    def test_noise_targets_a2_only(self):
        cfg = parse_cli(["--noise-targets", "a2"])
        assert cfg.noise_targets == ("a2",)

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--frobnicate"])
        assert exc.value.code == 2

    def test_bad_dims_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--dims", "1,2"])
        assert exc.value.code == 2

    def test_bad_input_spec_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--input", "haar:3"])
        assert exc.value.code == 2

    def test_bad_targets_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--noise-targets", "bob"])
        assert exc.value.code == 2

    def test_dims_64_accepted(self):
        cfg = parse_cli(["--dims", "64", "--p-grid", "0:0:1"])
        assert cfg.dims == (64,)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(
            json.dumps({"dims": [2, 3], "p_grid": "0:0:1", "noise": "phase", "eta": 1.5e-8})
        )
        cfg = parse_cli(["--config", str(cfg_path), "--noise", "shift"])
        assert cfg.dims == (2, 3)
        assert cfg.p_grid == (0.0,)
        assert cfg.noise == "shift"  # flag beats file
        assert cfg.eta == pytest.approx(1.5e-8)

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_noise_mode_setting_rejected(self, tmp_path, source):
        # the sender's two channels always compose independently
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({"noise_mode": "correlated"}))
        argv = ["--noise-mode", "correlated"] if source == "flag" else ["--config", str(cfg_path)]
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--p-grid", "0:0:1"] + argv)
        assert exc.value.code == 2

    def test_config_file_unknown_key_exits_2(self, tmp_path):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({"dimensions": [2]}))
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--config", str(cfg_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "entry",
        [
            {"dims": 5},
            {"dims": [2.7]},
            {"p_grid": 0.5},
            {"p_grid": "0:inf:0.1"},
            {"input": 5},
            {"noise_targets": ["a1"]},
            {"eta": [1]},
            {"timing": "no"},
            {"noise": 3},
            {"out": 5},
        ],
    )
    def test_config_file_bad_value_exits_2(self, tmp_path, capsys, entry):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(entry))
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--config", str(cfg_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "error" in err

    def test_config_p_grid_list_clamped_like_flag(self, tmp_path):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({"p_grid": [1.0000000000001]}))
        from_file = parse_cli(["--config", str(cfg_path)]).p_grid
        from_flag = parse_cli(["--p-grid", "1.0000000000001:1.0000000000001:1"]).p_grid
        assert from_file == from_flag == (1.0,)

    @pytest.mark.parametrize("grid", ["0:1:1e-12", "0:1:5e-324"])
    def test_oversized_p_grid_exits_2(self, tmp_path, capsys, grid):
        # rejected from the point count, before any point is built
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({"p_grid": grid}))
        for argv in (["--p-grid", grid], ["--config", str(cfg_path)]):
            with pytest.raises(SystemExit) as exc:
                parse_cli(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"more than the limit of {MAX_GRID_POINTS}" in err

    def test_missing_config_file_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--config", "/nonexistent/sweep.json"])
        assert exc.value.code == 2


# `qudit-teleport --help` at COLUMNS=80, frozen when the settings moved onto
# SweepConfig's fields
HELP_AT_80_COLUMNS = (
    "usage: qudit-teleport [-h] [--config PATH] [--dims LIST] [--p-grid S:E:STEP]\n"
    "                      [--input SPEC] [--noise {shift,phase,weyl}]\n"
    "                      [--noise-targets LIST]\n"
    "                      [--correction {paper-weyl,derived-exact}] [--eta ETA]\n"
    "                      [--out PATH] [--format {csv,json}] [--timing]\n"
    "\n"
    "Sweep teleportation fidelity over dimensions and crosstalk strength.\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "  --config PATH         JSON file with sweep settings; flags override\n"
    "  --dims LIST           comma-separated dimensions (default 2,3,4,5,8)\n"
    "  --p-grid S:E:STEP     inclusive probability grid (default 0:1:0.1)\n"
    "  --input SPEC          uniform | random:N:SEED | file:PATH (default uniform)\n"
    "  --noise {shift,phase,weyl}\n"
    "                        crosstalk variant (default weyl)\n"
    "  --noise-targets LIST  a1,a2 or a2 (default a1,a2)\n"
    "  --correction {paper-weyl,derived-exact}\n"
    "                        correction scheme (default derived-exact)\n"
    "  --eta ETA             upconversion efficiency in [0, 1], reporting only\n"
    "  --out PATH            output path (default stdout)\n"
    "  --format {csv,json}   output format (default csv)\n"
    "  --timing              record wall-clock runtime_ms (breaks byte determinism)\n"
)


class TestSettingDeclarations:
    def test_dataclass_defaults_are_the_cli_defaults(self):
        assert SweepConfig() == parse_cli([])

    def test_default_config_runs_the_default_grid(self):
        assert len(run_sweep(SweepConfig(dims=(2,))).rows) == 11

    def test_large_dim_warning_on_default_config(self):
        # Weyl noise on a1,a2 folds into one sender ket per label, d^2 of them
        assert cli._large_dim_warning(SweepConfig(dims=(16,))).endswith(
            "at d = 16, p = 1 the run holds 256 folded sender kets of 16 amplitudes, 65.5 kB, "
            "beside the fold's cached columns and coefficients, 32.8 kB and 65.5 kB"
        )
        assert cli._large_dim_warning(SweepConfig(dims=(64,))).endswith(
            "at d = 64, p = 1 the run holds 4096 folded sender kets of 64 amplitudes, 4.2 MB, "
            "beside the fold's cached columns and coefficients, 2.1 MB and 4.2 MB"
        )
        assert cli._large_dim_warning(SweepConfig(dims=(128,))).endswith(
            "at d = 128, p = 1 the run holds 16384 folded sender kets of 128 amplitudes, 33.6 MB, "
            "beside the fold's cached columns and coefficients, 16.8 MB and 33.6 MB"
        )

    def test_large_dim_warning_names_kets_when_noiseless(self):
        # one Weyl label survives at p = 0, so the noise folds into one sender ket
        assert cli._large_dim_warning(SweepConfig(dims=(128,), p_grid=(0.0,))).endswith(
            "at d = 128, p = 0 the run holds 1 folded sender ket of 128 amplitudes, 2.0 kB, "
            "beside the fold's cached columns and coefficients, 1.0 kB and 2.0 kB"
        )

    def test_help_snapshot(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == HELP_AT_80_COLUMNS

    def test_config_file_with_every_key_matches_flags(self, tmp_path):
        settings = {
            "dims": "3,2",
            "p_grid": "0:0.5:0.25",
            "input": "random:2:5",
            "noise": "phase",
            "noise_targets": "a2",
            "correction": "paper-weyl",
            "eta": 0.5,
            "out": "x.csv",
            "format": "json",
            "timing": True,
        }
        assert set(settings) == {f.name for f in fields(SweepConfig)}
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(settings))
        from_file = parse_cli(["--config", str(cfg_path)])
        argv = ["--timing"]
        for key, value in settings.items():
            if key != "timing":
                argv += ["--" + key.replace("_", "-"), str(value)]
        assert from_file == parse_cli(argv)
        default = SweepConfig()
        assert all(getattr(from_file, key) != getattr(default, key) for key in settings)


class TestRunSweep:
    def test_one_channel_per_grid_point(self, monkeypatch):
        built, configs = [], []
        real_channel, real_run = cli.crosstalk_channel, cli.run_protocol

        def channel(*args):
            built.append(args)
            return real_channel(*args)

        def run(config):
            configs.append(config)
            return real_run(config)

        monkeypatch.setattr(cli, "crosstalk_channel", channel)
        monkeypatch.setattr(cli, "run_protocol", run)
        run_sweep(parse_cli(["--dims", "2,3", "--p-grid", "0:1:0.5", "--input", "random:2:0"]))
        assert len(built) == 6 and len(configs) == 12
        assert all(c.noise_a1 is c.noise_a2 for c in configs)

    def test_default_sweep_equals_closed_form_oracle(self):
        # the CSV the CI compares with cmp: every printed digit from the formula
        assert emit(run_sweep(parse_cli([])), "csv") == oracle_csv()

    def test_d32_sweep_equals_closed_form_oracle(self):
        # every p of the default grid, far past the default dims
        assert emit(run_sweep(parse_cli(["--dims", "32"])), "csv") == oracle_csv((32,))

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (
                "--dims 8 --p-grid 0:0:1 --correction paper-weyl --input random:20:3",
                "paper-weyl-d8-random-20-3.csv",
            ),
            ("--dims 2,3 --input random:10:1", "d2-3-random-10-1.csv"),
        ],
    )
    def test_non_default_sweeps_equal_golden_files(self, argv, golden):
        # the CSVs the CI compares with cmp; every row was checked against the
        # branch engine when the file was written
        want = (Path(__file__).parent / "data" / golden).read_bytes()
        assert emit(run_sweep(parse_cli(argv.split())), "csv") == want

    def test_noiseless_point_reaches_unit_fidelity(self):
        cfg = parse_cli(["--dims", "2", "--p-grid", "0:0:1"])
        rows = run_sweep(cfg).rows
        assert len(rows) == 1
        assert abs(rows[0].avg_fidelity - 1) < 1e-10
        assert rows[0].expected_trigger_probability == 1.0
        assert rows[0].runtime_ms == 0.0

    def test_row_ordering(self):
        cfg = parse_cli(["--dims", "3,2", "--p-grid", "0:0.5:0.5", "--input", "random:2:7"])
        rows = run_sweep(cfg).rows
        keys = [(r.d, r.p, r.seed) for r in rows]
        assert keys == sorted(keys)
        assert {r.seed for r in rows} == {7, 8}

    def test_eta_reported_not_applied(self):
        cfg = parse_cli(["--dims", "2", "--p-grid", "0:0:1", "--eta", "1.5e-8"])
        rows = run_sweep(cfg).rows
        assert rows[0].expected_trigger_probability == pytest.approx(1.5e-8)
        assert abs(rows[0].avg_fidelity - 1) < 1e-10

    def test_shift_variant_uniform_input_stays_at_one(self):
        cfg = parse_cli(["--dims", "2,3", "--p-grid", "0:1:0.5", "--noise", "shift"])
        for row in run_sweep(cfg).rows:
            assert abs(row.avg_fidelity - 1) < 1e-10

    def test_file_input(self, tmp_path):
        state = tmp_path / "s.txt"
        state.write_text("3\n1 0\n1 0\n1 0\n")
        cfg = parse_cli(["--dims", "3", "--p-grid", "0:0:1", "--input", f"file:{state}"])
        rows = run_sweep(cfg).rows
        assert rows[0].input_spec == f"file:{state}"
        assert abs(rows[0].avg_fidelity - 1) < 1e-10

    def test_file_dimension_mismatch(self, tmp_path):
        state = tmp_path / "s.txt"
        state.write_text("2\n1 0\n0 1\n")
        cfg = parse_cli(["--dims", "3", "--p-grid", "0:0:1", "--input", f"file:{state}"])
        with pytest.raises(ValueError, match="dimension"):
            run_sweep(cfg)

    def test_timing_flag_records_wall_clock(self):
        cfg = parse_cli(["--dims", "2", "--p-grid", "0:0:1", "--timing"])
        rows = run_sweep(cfg).rows
        assert rows[0].runtime_ms > 0.0

    @pytest.mark.parametrize("targets", ["a1,a2", "a2"])
    def test_sweep_builds_no_outcome_state(self, monkeypatch, targets):
        # a row needs only p and F, and a record builds its state when read
        def unread(*args):
            raise AssertionError("the sweep built an outcome state")

        monkeypatch.setattr(protocol, "_gathered_state", unread)
        argv = ["--dims", "2,3,8", "--p-grid", "0:1:0.5", "--input", "random:2:5"]
        rows = run_sweep(parse_cli(argv + ["--noise-targets", targets])).rows
        assert len(rows) == 18

    @pytest.mark.parametrize("targets", ["a1,a2", "a2"])
    def test_sweep_builds_no_record(self, monkeypatch, targets):
        # a row needs only the average and the minimum, and a run builds its
        # records when they are read
        built = []

        def counted(cls, *args, **kwargs):
            built.append(cls)
            return object.__new__(cls)

        # both kinds of record protocol makes, each counted as it is made
        for name in ("OutcomeRecord", "_LazyRecord"):
            kind = getattr(protocol, name)
            monkeypatch.setattr(protocol, name, type(name, (kind,), {"__new__": counted}))
        argv = ["--dims", "2,3,8", "--p-grid", "0:1:0.5", "--input", "random:2:5"]
        rows = run_sweep(parse_cli(argv + ["--noise-targets", targets])).rows
        assert len(rows) == 18 and built == []
        # the count sees every record a read builds
        records = run_protocol(ProtocolConfig(d=2, input_state=uniform_state(2))).records
        assert len(records) == len(built) == 4

    def test_golden_p0_sweep_bytes(self):
        # frozen golden output: at p = 0 every fidelity rounds to 1 at 12
        # significant digits, and the pipeline is fully deterministic
        golden_lines = [CSV_HEADER] + [
            f"{d},0,weyl,independent,derived-exact,uniform,0,1,1,0,1" for d in (2, 3, 4, 5)
        ]
        golden = ("\n".join(golden_lines) + "\n").encode()
        cfg = parse_cli(["--dims", "2,3,4,5", "--p-grid", "0:0:1"])
        assert emit(run_sweep(cfg), "csv") == golden
        assert emit(run_sweep(cfg), "csv") == golden


class TestEmit:
    def _one_row(self):
        return SweepResult(
            rows=[
                SweepRow(
                    d=3,
                    p=0.30000000000000004,
                    noise_variant="weyl",
                    noise_mode="independent",
                    correction_scheme="derived-exact",
                    input_spec="uniform",
                    seed=0,
                    avg_fidelity=0.8944271909999159,
                    min_outcome_fidelity=0.8944271909999159,
                    runtime_ms=0.0,
                    expected_trigger_probability=1.0,
                )
            ]
        )

    def test_header_exact(self):
        assert CSV_HEADER == (
            "d,p,noise_variant,noise_mode,correction_scheme,input_spec,seed,"
            "avg_fidelity,min_outcome_fidelity,runtime_ms,expected_trigger_probability"
        )

    def test_empty_result_is_header_only(self):
        assert emit(SweepResult(), "csv") == (CSV_HEADER + "\n").encode()

    def test_csv_twelve_significant_digits(self):
        data = emit(self._one_row(), "csv").decode()
        line = data.splitlines()[1]
        assert line == "3,0.3,weyl,independent,derived-exact,uniform,0,0.894427191,0.894427191,0,1"

    def test_json_roundtrip_identical_values(self):
        res = self._one_row()
        rows = json.loads(emit(res, "json").decode())
        assert len(rows) == 1
        src = res.rows[0]
        assert rows[0]["d"] == src.d
        assert rows[0]["p"] == src.p
        assert rows[0]["avg_fidelity"] == src.avg_fidelity
        assert rows[0]["input_spec"] == src.input_spec
        assert list(rows[0]) == CSV_HEADER.split(",")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            emit(SweepResult(), "yaml")


class TestMain:
    def test_stdout_csv(self, capsysbinary):
        rc = main(["--dims", "2", "--p-grid", "0:0:1"])
        assert rc == 0
        out = capsysbinary.readouterr().out.decode()
        assert out.startswith(CSV_HEADER)
        assert out.splitlines()[1].startswith("2,0,weyl,independent,derived-exact,uniform,0,1,1,")

    def test_out_file_and_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["--dims", "2,3", "--p-grid", "0:0.5:0.25"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_large_dim_warns_on_stderr(self, capsys):
        rc = main(["--dims", "16", "--p-grid", "0:0:1"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "warning" in err and "16" in err

    def test_large_dim_warning_gives_branch_array_size(self, monkeypatch, capsys):
        # the default Weyl sweep on a1,a2 at d = 16, p = 1: 256 sender kets of 16 amplitudes
        monkeypatch.setattr(cli, "run_sweep", lambda config: SweepResult())
        assert main(["--dims", "2,16"]) == 0
        assert capsys.readouterr().err == (
            "warning: exact enumeration scales steeply; dims [16] may take a long time; "
            "at d = 16, p = 1 the run holds 256 folded sender kets of 16 amplitudes, 65.5 kB, "
            "beside the fold's cached columns and coefficients, 32.8 kB and 65.5 kB\n"
        )

    def test_large_dim_warning_counts_targeted_channels(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_sweep", lambda config: SweepResult())
        argv = ["--dims", "9", "--p-grid", "0:0.5:0.5", "--noise", "shift", "--noise-targets", "a2"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        # a shift channel's 9 labels on a2 alone fold into 9 sender kets
        assert err.endswith(
            "at d = 9, p = 0.5 the run holds 9 folded sender kets of 9 amplitudes, 1.3 kB, "
            "beside the fold's cached columns and coefficients, 0.6 kB and 1.3 kB\n"
        )

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        rc = main(["--dims", "2", "--p-grid", "0:0:1", "--out", str(tmp_path / "nope" / "x.csv")])
        assert rc == 3
        assert "error" in capsys.readouterr().err

    def test_config_error_from_sweep_exits_2(self, tmp_path, capsys):
        state = tmp_path / "s.txt"
        state.write_text("2\n1 0\n0 1\n")
        rc = main(["--dims", "3", "--p-grid", "0:0:1", "--input", f"file:{state}"])
        assert rc == 2

    def test_internal_check_failure_exits_4(self, monkeypatch, capsys):
        def broken(config):
            raise RuntimeError("outcome probabilities do not sum to the branch weight")

        monkeypatch.setattr(cli, "run_protocol", broken)
        rc = main(["--dims", "2", "--p-grid", "0:0:1"])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: internal check failed: outcome probabilities do not sum to the branch weight\n"
        )

    def test_negative_overlap_exits_4(self, monkeypatch, capsys):
        # an F^2 below zero beyond round-off breaks an invariant; no input causes it
        scored_records = protocol._scored_records

        def negated(d, correction, probs, weighted, scored, state):
            return scored_records(d, correction, probs, -weighted, scored, state)

        monkeypatch.setattr(protocol, "_scored_records", negated)
        rc = main(["--dims", "2", "--p-grid", "0:0:1"])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: internal check failed: <phi|sigma|phi> = -1.000e+00 is negative beyond round-off\n"
        )

    def test_missing_input_file_exits_3(self, capsys):
        rc = main(["--dims", "2", "--p-grid", "0:0:1", "--input", "file:/nonexistent/state.txt"])
        assert rc == 3

    def test_json_format(self, capsysbinary):
        rc = main(["--dims", "2", "--p-grid", "0:0:1", "--format", "json"])
        assert rc == 0
        rows = json.loads(capsysbinary.readouterr().out.decode())
        assert rows[0]["d"] == 2 and abs(rows[0]["avg_fidelity"] - 1) < 1e-10
