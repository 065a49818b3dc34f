"""Experiment harness: config parsing, CSV artifacts, sweeps, CLI."""

import hashlib
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from dualdetect import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config_text,
    run_single,
    run_sweep,
)
from dualdetect.cli import _build_parser, _load, main
from dualdetect.harness import SCATTER_CSV_HEADER, SWEEP_CSV_HEADER

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# One non-default setting per group of keys, as config file text and as
# command line flags. Priors and thresholds are only valid as a group.
# output_dir has no override flag: simulate's --output-dir names the
# artifact directory directly.
KEY_PARITY_CASES = [
    ("width", "width = 30", ["--width", "30"]),
    ("height", "height = 25.5", ["--height", "25.5"]),
    ("sensor_count", "sensor_count = 150", ["--sensor-count", "150"]),
    ("event1_region", "event1_region = 1, 1, 9, 9", ["--event1-region", "1,1,9,9"]),
    ("event2_region", "event2_region = 13,13,19,19", ["--event2-region", "13, 13, 19, 19"]),
    ("neighborhood_size", "neighborhood_size = 7", ["--neighborhood-size", "7"]),
    ("quorum", "quorum = 4", ["--quorum", "4"]),
    ("include_self", "include_self = no", ["--exclude-self"]),
    ("m0", "m0 = -1", ["--m0", "-1"]),
    ("m1", "m1 = 2.5", ["--m1", "2.5"]),
    ("m2", "m2 = 7", ["--m2", "7"]),
    ("q0 q1 q2", "q0 = 0.5\nq1 = 0.3\nq2 = 0.2",
     ["--q0", "0.5", "--q1", "0.3", "--q2", "0.2"]),
    ("p_f", "p_f = 0.24", ["--p-f", "0.24"]),
    ("alphas", "\n".join(f"alpha{i} = 0.0{i}" for i in range(1, 7)),
     ["--alphas", "0.01,0.02,0.03,0.04,0.05,0.06"]),
    ("fault_mode", "fault_mode = alpha-table", ["--fault-mode", "alpha-table"]),
    ("seed", "seed = 7", ["--seed", "7"]),
    ("repetitions", "repetitions = 10", ["--repetitions", "10"]),
    ("lambda1 lambda2", "lambda1 = 1.25\nlambda2 = 2.5", ["--lambda1", "1.25", "--lambda2", "2.5"]),
]

# sha256 of every file `simulate --config configs/experiment2.conf` writes.
GOLDEN_SIMULATE_DIGESTS = {
    "forced-change": {
        "final_decisions.csv": "0ce67c8bf516756b3ba08c0b2fceb7ee19a03d1f6b332d7ae34cf02373eb0fa5",
        "final_decisions_faulty.csv": "501c9b560af2a5ca62f9ed3d03450ee4b952ad51a3fc4030719653af2790812d",
        "local_decisions.csv": "ec2ce5ab9cd95c9e9e929dcebb4d46de8ef07d8e465c6295296ea2eb44222342",
        "local_decisions_faulty.csv": "a71278f4e60541d5df181d85de27d7647f92aa0a9f511912bbe15d8d099a9d80",
        "summary.csv": "726e841afb7fb3e1f57264aebe27064b55581a2b74e4eb142c0c3a4595542609",
    },
    "alpha-table": {
        "final_decisions.csv": "0ce67c8bf516756b3ba08c0b2fceb7ee19a03d1f6b332d7ae34cf02373eb0fa5",
        "final_decisions_faulty.csv": "ebcb175584207440e0a9a5be01b0b61e6e2d0900df0aae789013cb175279c7a8",
        "local_decisions.csv": "ec2ce5ab9cd95c9e9e929dcebb4d46de8ef07d8e465c6295296ea2eb44222342",
        "local_decisions_faulty.csv": "3643e5f3cf01709e4e891e87c4af7d6bd3a7e795972497897218a44afce9635a",
        "summary.csv": "6d4bb36dc91ac31c2b2c4c270309ca4e5ad26b845cc72e41ab08ca8936b629c0",
    },
}


def small_config(**overrides):
    values = dict(repetitions=3, sensor_count=80, seed=9,
                  lambda1=0.9829, lambda2=1.8496)
    values.update(overrides)
    return ExperimentConfig(**values)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfigParsing:
    def test_key_value_lines(self):
        values = parse_config_text("sensor_count = 100\n# comment\nm1 = 2.5\n")
        assert values == {"sensor_count": 100, "m1": 2.5}

    def test_inline_comment_and_blank_lines(self):
        values = parse_config_text("\nseed = 4  # chosen by fair dice roll\n\n")
        assert values == {"seed": 4}

    def test_region_value(self):
        values = parse_config_text("event1_region = 0, 0, 10, 10\n")
        assert values == {"event1_region": (0.0, 0.0, 10.0, 10.0)}

    def test_alpha_block(self):
        text = "\n".join(f"alpha{i} = 0.0{i}" for i in range(1, 7))
        values = parse_config_text(text)
        assert values == {"alphas": (0.01, 0.02, 0.03, 0.04, 0.05, 0.06)}

    def test_incomplete_alpha_block_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config_text("alpha1 = 0.1\nalpha2 = 0.1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("sensor_cout = 100\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("sensor_count = many\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n")

    def test_load_config_with_overrides(self, tmp_path):
        conf = tmp_path / "t.conf"
        conf.write_text("sensor_count = 100\nseed = 3\n")
        config = load_config(conf, {"seed": 8, "p_f": 0.12})
        assert config.sensor_count == 100
        assert config.seed == 8
        assert config.p_f == 0.12

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.conf")


class TestKeyParity:
    def test_cases_cover_every_key(self):
        covered = {key for case in KEY_PARITY_CASES for key in case[0].split()}
        assert covered | {"output_dir"} == {f.name for f in fields(ExperimentConfig)}

    @pytest.mark.parametrize(
        "file_text, argv", [case[1:] for case in KEY_PARITY_CASES],
        ids=[case[0] for case in KEY_PARITY_CASES],
    )
    def test_file_and_flag_agree(self, tmp_path, file_text, argv):
        conf = tmp_path / "case.conf"
        conf.write_text(file_text + "\n")
        from_file = load_config(conf)
        from_flags = _load(_build_parser().parse_args(["optimize", *argv]))
        assert from_file == from_flags
        assert from_file != ExperimentConfig()

    @pytest.mark.parametrize("argv", [
        ["--sensor-count", "many"],
        ["--event1-region", "1,2,3"],
        ["--alphas", "0.1,0.1"],
        ["--alphas", "a,b,c,d,e,f"],
    ])
    def test_bad_flag_value_exit_two(self, argv, capsys):
        assert main(["optimize", *argv]) == 2
        assert "bad value" in capsys.readouterr().err


class TestConfigValidation:
    def test_quorum_larger_than_neighborhood(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(neighborhood_size=3, quorum=4).validate()

    def test_lambda_override_must_be_paired(self):
        with pytest.raises(ConfigError, match="together"):
            ExperimentConfig(lambda1=1.0).validate()

    def test_pf_and_alphas_are_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            ExperimentConfig(p_f=0.1, alphas=(0.02,) * 6).validate()

    def test_alphas_define_fault_probability(self):
        config = ExperimentConfig(alphas=(0.02,) * 6).validate()
        assert config.fault_probability() == pytest.approx(0.12)
        assert config.fault_spec() is not None

    def test_defaults_are_valid(self):
        ExperimentConfig().validate()


class TestRunSingle:
    def test_writes_expected_files(self, tmp_path):
        artifacts = run_single(small_config(), tmp_path)
        names = sorted(p.name for p in artifacts.paths)
        assert names == ["final_decisions.csv", "local_decisions.csv", "summary.csv"]

    def test_fault_run_adds_faulty_files(self, tmp_path):
        artifacts = run_single(small_config(p_f=0.12), tmp_path)
        names = sorted(p.name for p in artifacts.paths)
        assert "local_decisions_faulty.csv" in names
        assert "final_decisions_faulty.csv" in names

    def test_scatter_format(self, tmp_path):
        artifacts = run_single(small_config(), tmp_path)
        header, rows = read_csv(tmp_path / "local_decisions.csv")
        assert ",".join(header) == SCATTER_CSV_HEADER
        assert len(rows) == 80
        for row in rows:
            assert int(row[2]) in (0, 1, -1)
            assert int(row[3]) in (0, 1, -1)
            assert row[4] in ("0", "1")

    def test_summary_recomputable_from_scatter(self, tmp_path):
        artifacts = run_single(small_config(p_f=0.12, sensor_count=200), tmp_path)
        for csv_name, key in [
            ("local_decisions.csv", "local_error_percent"),
            ("final_decisions.csv", "final_error_percent"),
            ("local_decisions_faulty.csv", "local_error_faulty_percent"),
            ("final_decisions_faulty.csv", "final_error_faulty_percent"),
        ]:
            _, rows = read_csv(tmp_path / csv_name)
            errors = sum(1 for row in rows if row[2] != row[3])
            recomputed = 100.0 * errors / len(rows)
            assert artifacts.summary[key] == pytest.approx(recomputed, abs=1e-12)

    def test_lambda_override_echoed_exactly(self, tmp_path):
        config = small_config(lambda1=1.25, lambda2=2.5)
        artifacts = run_single(config, tmp_path)
        assert artifacts.optimization is None
        _, rows = read_csv(tmp_path / "summary.csv")
        values = {row[0]: row[1] for row in rows}
        assert values["lambda1"] == repr(1.25)
        assert values["lambda2"] == repr(2.5)

    def test_optimizes_when_no_override(self, tmp_path):
        config = small_config(lambda1=None, lambda2=None)
        artifacts = run_single(config, tmp_path)
        assert artifacts.optimization is not None
        assert artifacts.thresholds.lambda1 == pytest.approx(0.9829, abs=0.02)

    def test_fault_count_floor(self, tmp_path):
        artifacts = run_single(small_config(p_f=0.12, sensor_count=200), tmp_path)
        assert artifacts.summary["fault_count"] == math.floor(0.12 * 200)

    @pytest.mark.parametrize("mode", sorted(GOLDEN_SIMULATE_DIGESTS))
    def test_seeded_artifacts_match_golden_digests(self, tmp_path, capsys, mode):
        code = main([
            "simulate", "--config", str(CONFIGS / "experiment2.conf"),
            "--fault-mode", mode, "--output-dir", str(tmp_path),
        ])
        capsys.readouterr()
        assert code == 0
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
        }
        assert digests == GOLDEN_SIMULATE_DIGESTS[mode]

    def test_before_fault_files_are_clean(self, tmp_path):
        run_single(small_config(p_f=0.24), tmp_path)
        for name in ("local_decisions.csv", "final_decisions.csv"):
            _, rows = read_csv(tmp_path / name)
            assert all(row[4] == "0" for row in rows)


class TestRunSweep:
    def test_rows_follow_value_order(self):
        base = small_config(lambda1=None, lambda2=None)
        summary = run_sweep(base, "p_f", ["0.12", "0.24"])
        assert [row.label for row in summary.rows] == ["0.12", "0.24"]

    def test_permutation_invariance(self):
        base = small_config(lambda1=None, lambda2=None)
        forward = run_sweep(base, "p_f", ["0.12", "0.24"])
        backward = run_sweep(base, "p_f", ["0.24", "0.12"])
        assert forward.rows[0] == backward.rows[1]
        assert forward.rows[1] == backward.rows[0]

    def test_nk_sweep_changes_fusion(self):
        base = small_config()
        summary = run_sweep(base, "nk", ["3/2", "5/3"])
        assert summary.rows[0].label == "3/2"
        assert summary.rows[1].label == "5/3"

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="sweep parameter"):
            run_sweep(small_config(), "variance", ["1"])

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="nk"):
            run_sweep(small_config(), "nk", ["3x2"])

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            run_sweep(small_config(), "p_f", [])

    def test_csv_format(self, tmp_path):
        base = small_config(lambda1=None, lambda2=None)
        summary = run_sweep(base, "p_f", ["0.12"])
        path = summary.to_csv(tmp_path / "sweep.csv")
        header, rows = read_csv(path)
        assert ",".join(header) == SWEEP_CSV_HEADER
        assert len(rows) == 1
        assert rows[0][0] == "0.12"
        ld_bf = float(rows[0][1])
        assert 0.0 <= ld_bf <= 100.0


class TestCli:
    def test_optimize_exit_zero(self, capsys):
        code = main(["optimize", "--repetitions", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "lambda1" in captured.out

    def test_config_error_exit_two(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("quorum = 9\nneighborhood_size = 3\n")
        code = main(["simulate", "--config", str(conf)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in captured.err

    def test_unknown_config_key_exit_two(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("sensor_cout = 10\n")
        assert main(["optimize", "--config", str(conf)]) == 2

    def test_simulate_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "runs"
        code = main([
            "simulate", "--sensor-count", "60", "--seed", "2",
            "--lambda1", "1.0", "--lambda2", "1.9",
            "--output-dir", str(out),
        ])
        capsys.readouterr()
        assert code == 0
        assert (out / "local_decisions.csv").exists()
        assert (out / "summary.csv").exists()

    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--param", "p_f", "--values", "0.12,0.24",
            "--repetitions", "2", "--sensor-count", "60",
            "--lambda1", "1.0", "--lambda2", "1.9",
            "--output", str(out),
        ])
        capsys.readouterr()
        assert code == 0
        header, rows = read_csv(out)
        assert ",".join(header) == SWEEP_CSV_HEADER
        assert len(rows) == 2

    def test_oracle_check_exit_zero(self, capsys):
        code = main(["oracle-check", "--trials", "5", "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 0
        assert "agreement" in captured.out

    @pytest.mark.parametrize("argv", [["--n", "13"], ["--n", "3", "--k", "5"]])
    def test_oracle_check_bad_arguments_exit_two(self, argv, capsys):
        assert main(["oracle-check", *argv]) == 2
        assert "error" in capsys.readouterr().err

    def test_alphas_flag(self, tmp_path, capsys):
        out = tmp_path / "runs"
        code = main([
            "simulate", "--sensor-count", "60", "--seed", "2",
            "--lambda1", "1.0", "--lambda2", "1.9",
            "--alphas", "0.02,0.02,0.02,0.02,0.02,0.02",
            "--output-dir", str(out),
        ])
        capsys.readouterr()
        assert code == 0
        assert (out / "local_decisions_faulty.csv").exists()
