import json

import numpy as np
import pytest

from qudit_teleport.cli import (
    CSV_HEADER,
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


class TestParseCli:
    def test_defaults(self):
        cfg = parse_cli([])
        assert cfg.dims == (2, 3, 4, 5, 8)
        assert len(cfg.p_grid) == 11
        assert cfg.input_spec.kind == "uniform"
        assert cfg.noise_variant == "weyl"
        assert cfg.noise_mode == "independent"
        assert cfg.noise_targets == ("a1", "a2")
        assert cfg.correction_scheme == "derived-exact"
        assert cfg.eta is None
        assert cfg.out_path is None
        assert cfg.fmt == "csv"
        assert cfg.measure_runtime is False

    def test_single_point_config(self):
        cfg = parse_cli(["--dims", "2", "--p-grid", "0:0:1", "--input", "uniform"])
        assert cfg.dims == (2,) and cfg.p_grid == (0.0,)

    def test_random_input_spec(self):
        cfg = parse_cli(["--input", "random:5:42"])
        assert cfg.input_spec == InputSpec(kind="random", count=5, base_seed=42)
        assert cfg.input_spec.label == "random:5:42"

    def test_file_input_spec(self):
        cfg = parse_cli(["--input", "file:/tmp/state.txt"])
        assert cfg.input_spec.kind == "file" and cfg.input_spec.path == "/tmp/state.txt"

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
        assert cfg.noise_variant == "shift"  # flag beats file
        assert cfg.eta == pytest.approx(1.5e-8)

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

    def test_missing_config_file_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--config", "/nonexistent/sweep.json"])
        assert exc.value.code == 2


class TestRunSweep:
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

    def test_correlated_crosstalk_fails_completeness(self):
        # index-locked products of two flip channels no longer sum to the
        # identity; the sweep surfaces that as a config-level error
        from qudit_teleport.channels import CompletenessError

        cfg = parse_cli(["--dims", "2", "--p-grid", "0.5:0.5:1", "--noise-mode", "correlated"])
        with pytest.raises(CompletenessError):
            run_sweep(cfg)

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

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        rc = main(["--dims", "2", "--p-grid", "0:0:1", "--out", str(tmp_path / "nope" / "x.csv")])
        assert rc == 3
        assert "error" in capsys.readouterr().err

    def test_config_error_from_sweep_exits_2(self, tmp_path, capsys):
        state = tmp_path / "s.txt"
        state.write_text("2\n1 0\n0 1\n")
        rc = main(["--dims", "3", "--p-grid", "0:0:1", "--input", f"file:{state}"])
        assert rc == 2

    def test_missing_input_file_exits_3(self, capsys):
        rc = main(["--dims", "2", "--p-grid", "0:0:1", "--input", "file:/nonexistent/state.txt"])
        assert rc == 3

    def test_json_format(self, capsysbinary):
        rc = main(["--dims", "2", "--p-grid", "0:0:1", "--format", "json"])
        assert rc == 0
        rows = json.loads(capsysbinary.readouterr().out.decode())
        assert rows[0]["d"] == 2 and abs(rows[0]["avg_fidelity"] - 1) < 1e-10
