"""Experiment harness: config parsing, CSV artifacts, sweeps, CLI."""

import contextlib
import hashlib
import importlib
import inspect
import io
import math
import pkgutil
import platform
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import dualdetect
from dualdetect import (
    ConfigError,
    ExperimentConfig,
    FieldConfig,
    Rectangle,
    fusion_quality,
    gammas_from_lambdas,
    generate_field,
    harness,
    load_config,
    minimize_error,
    optimize,
    parse_config_text,
    run_single,
    run_sweep,
    simulator,
)
from dualdetect.cli import _build_parser, _flag, _load, main
from dualdetect.harness import CONFIG_KEYS, SCATTER_CSV_HEADER, SWEEP_CSV_HEADER

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# One non-default setting per group of keys, as config file text and as
# command line flags. Priors and thresholds are only valid as a group.
KEY_PARITY_CASES = [
    ("width", "width = 30", ["--width", "30"]),
    ("height", "height = 25.5", ["--height", "25.5"]),
    ("sensor_count", "sensor_count = 150", ["--sensor-count", "150"]),
    ("event1_region", "event1_region = 1, 1, 9, 9", ["--event1-region", "1,1,9,9"]),
    ("event2_region", "event2_region = 13,13,19,19", ["--event2-region", "13, 13, 19, 19"]),
    ("neighborhood_size", "neighborhood_size = 7", ["--neighborhood-size", "7"]),
    ("quorum", "quorum = 4", ["--quorum", "4"]),
    ("include_self", "include_self = no", ["--include-self", "no"]),
    ("m0", "m0 = -1", ["--m0", "-1"]),
    ("m1", "m1 = 2.5", ["--m1", "2.5"]),
    ("m2", "m2 = 7", ["--m2", "7"]),
    ("q0 q1 q2", "q0 = 0.5\nq1 = 0.3\nq2 = 0.2",
     ["--q0", "0.5", "--q1", "0.3", "--q2", "0.2"]),
    ("p_f", "p_f = 0.24", ["--p-f", "0.24"]),
    ("alphas", "alphas = 0.01, 0.02, 0.03, 0.04, 0.05, 0.06",
     ["--alphas", "0.01,0.02,0.03,0.04,0.05,0.06"]),
    ("fault_mode", "fault_mode = alpha-table", ["--fault-mode", "alpha-table"]),
    ("seed", "seed = 7", ["--seed", "7"]),
    ("repetitions", "repetitions = 10", ["--repetitions", "10"]),
    ("lambda1 lambda2", "lambda1 = 1.25\nlambda2 = 2.5", ["--lambda1", "1.25", "--lambda2", "2.5"]),
]

# sha256 of every file `simulate --config configs/experiment2.conf` writes.
# summary.csv records p_f as configured, `p_f,0.12`.
GOLDEN_SIMULATE_DIGESTS = {
    "forced-change": {
        "final_decisions.csv": "0ce67c8bf516756b3ba08c0b2fceb7ee19a03d1f6b332d7ae34cf02373eb0fa5",
        "final_decisions_faulty.csv": "501c9b560af2a5ca62f9ed3d03450ee4b952ad51a3fc4030719653af2790812d",
        "local_decisions.csv": "ec2ce5ab9cd95c9e9e929dcebb4d46de8ef07d8e465c6295296ea2eb44222342",
        "local_decisions_faulty.csv": "a71278f4e60541d5df181d85de27d7647f92aa0a9f511912bbe15d8d099a9d80",
        "summary.csv": "94def6dfe2dd343674750204107810939f39036d6134831c8c22c98311b0813e",
    },
    "alpha-table": {
        "final_decisions.csv": "0ce67c8bf516756b3ba08c0b2fceb7ee19a03d1f6b332d7ae34cf02373eb0fa5",
        "final_decisions_faulty.csv": "ebcb175584207440e0a9a5be01b0b61e6e2d0900df0aae789013cb175279c7a8",
        "local_decisions.csv": "ec2ce5ab9cd95c9e9e929dcebb4d46de8ef07d8e465c6295296ea2eb44222342",
        "local_decisions_faulty.csv": "3643e5f3cf01709e4e891e87c4af7d6bd3a7e795972497897218a44afce9635a",
        "summary.csv": "88fd495c97aac5744935709057746aaa1481487993c839eba406011ec9db1e34",
    },
}

# The same under the sweep digests' unequal alphas, where summary.csv
# leaves p_f blank.
GOLDEN_SIMULATE_ALPHAS_FLAGS = ("--p-f", "0", "--alphas", "0.1,0,0.05,0,0.3,0",
                                "--fault-mode", "alpha-table")
GOLDEN_SIMULATE_ALPHAS_DIGESTS = {
    "final_decisions.csv": "c6e68e55bd3c250e55a2e7ad78b1e41b630762d88d9f1f28d8c46bc6f13978e6",
    "final_decisions_faulty.csv": "cf8c2fe30febb73ed6af7c23c0306dee748ec67119cccc02410e3e664f0378df",
    "local_decisions.csv": "1b5176e31853bdf1c659253b57db03f28e60745d2fcc880a698b201d61eb7ea6",
    "local_decisions_faulty.csv": "470c6207f4968968e9dd94f9d870c6e6e90f4543b09b9ff370594fd70340b0d5",
    "summary.csv": "2568f14c3bf176f2923e886424d030ff99093710b71477fe98c955fe4999979d",
}

# sha256 of `optimize` stdout and of the `sweep` CSV; the sweeps run on
# configs/experiment2.conf with --repetitions 3 plus each key's extra
# flags. Together they reach every sweep parameter, both fault modes and
# the fixed-threshold path, which searches nothing.
GOLDEN_OPTIMIZE_DIGESTS = {
    "experiment1.conf": "827e9dc0b1f986980be64273fb08e8f64645cb1d4f69e9e1ac1ebfcaddba9f76",
    "experiment2.conf": "21d506de8bd7e4380775c78b6f6c369adb69d371a82b18a886daf434869d8be2",
}
GOLDEN_SWEEP_DIGESTS = {
    ("sensor_count", "200,400", ()):
        "2a299b259e083eb513021560bdefd3ba6fa74ef74083990e29e20611cb32477e",
    ("p_f", "0.12,0.24", ()):
        "202991235bcfa3bed7990315840dbf020aeb6dac4b4adb0b35628f171eecdd9f",
    ("nk", "3/2,5/3,7/4", ()):
        "ce6d2669584a713902b1b5c1e5601e2923d75ba8bdd7884a394170222f6f72c7",
    ("means", "0/3/6,0/2/5", ()):
        "5d5d9b5ef14922be0acc5330822f09df754941338619cbefcb5a6bfbe3e9e100",
    ("priors", "0.59/0.25/0.16,0.875/0.0625/0.0625", ()):
        "5b3c0294b9448387b1981676de6a75c9167a5fb1bf6639dccc115c7f67205882",
    ("p_f", "0.0,0.12,0.24", ("--fault-mode", "alpha-table")):
        "44f5185be1fa4e422f51fdfee8aa9e11ebf6fc27c17f14589a7dffd3521abd29",
    ("p_f", "0.12,0.24", ("--lambda1", "1", "--lambda2", "2")):
        "a5584aea5bac0e42e3ecd0cad1b37663aa58b9db10bf830fdbf2e77314b46f5d",
    # Unequal (+1), one-sided (quiet) and all-zero (-1) arcs pin each
    # mode's transition law beyond an even split.
    ("sensor_count", "200,400", ("--p-f", "0", "--alphas", "0.1,0,0.05,0,0.3,0",
                                 "--fault-mode", "forced-change")):
        "0280917c1b16035670f123ffd2f475dbcf66fb09368e09357c90445418bdf848",
    ("sensor_count", "200,400", ("--p-f", "0", "--alphas", "0.1,0,0.05,0,0.3,0",
                                 "--fault-mode", "alpha-table")):
        "1d8f2145b3b548f35ff1775daa7c05b07ccd183c6597ed1ce785d3265d3f5e35",
}


def golden_sweep_id(key):
    """``param-values``, then the extra flags without their dashes."""
    param, values, extra = key
    return "-".join([param, values, *(arg.lstrip("-") for arg in extra)])


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


def reference_scatter_csv(positions, truth, decisions, faulty):
    """The scatter CSV text as the earlier per-cell writer produced it."""

    def format_value(value):
        if isinstance(value, (bool, np.bool_)):
            return "1" if value else "0"
        if isinstance(value, float):
            return repr(value)
        if isinstance(value, (np.floating, np.integer)):
            return repr(value.item())
        return str(value)

    rows = [
        [float(positions[i, 0]), float(positions[i, 1]),
         int(truth[i]), int(decisions[i]), int(faulty[i])]
        for i in range(positions.shape[0])
    ]
    lines = [SCATTER_CSV_HEADER]
    lines.extend(",".join(format_value(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


class TestConfigParsing:
    def test_key_value_lines(self):
        values = parse_config_text("sensor_count = 100\n# comment\nm1 = 2.5\n")
        assert values == {"sensor_count": 100, "m1": 2.5}

    def test_inline_comment_and_blank_lines(self):
        values = parse_config_text("\nseed = 4  # chosen by fair dice roll\n\n")
        assert values == {"seed": 4}

    def test_region_value(self):
        values = parse_config_text("event1_region = 0, 0, 10, 10\n")
        assert values == {"event1_region": Rectangle(0.0, 0.0, 10.0, 10.0)}

    def test_alphas_value(self):
        values = parse_config_text("alphas = 0.01, 0.02, 0.03, 0.04, 0.05, 0.06\n")
        assert values == {"alphas": (0.01, 0.02, 0.03, 0.04, 0.05, 0.06)}

    def test_short_alphas_rejected(self):
        with pytest.raises(ConfigError, match="bad value for alphas"):
            parse_config_text("alphas = 0.1, 0.1\n")

    @pytest.mark.parametrize("line", ["alpha1 = 0.1", "output_dir = runs"])
    def test_removed_keys_rejected(self, line):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(line + "\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("sensor_cout = 100\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("sensor_count = many\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match=r"^t.conf:3: p_f already set on line 1$"):
            parse_config_text("p_f = 0.12\nseed = 3\np_f = 0.24\n", source="t.conf")

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


# Backticked README names ending in one of these are file names.
README_FILE_SUFFIXES = {"py", "md", "csv", "json", "conf", "toml", "yml"}


def _resolves(obj, parts):
    """Whether ``obj.parts[0].parts[1]...`` names a module, an attribute,
    a property or a dataclass field."""
    for i, part in enumerate(parts):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif inspect.ismodule(obj):
            try:
                obj = importlib.import_module(f"{obj.__name__}.{part}")
            except ModuleNotFoundError:
                return False
        else:
            # A dataclass field without a default is no class attribute.
            return (is_dataclass(obj) and i == len(parts) - 1
                    and part in {f.name for f in fields(obj)})
    return True


class TestKeyParity:
    def test_cases_cover_every_key(self):
        covered = {key for case in KEY_PARITY_CASES for key in case[0].split()}
        assert covered == {f.name for f in fields(ExperimentConfig)} == CONFIG_KEYS.keys()

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

    @pytest.mark.parametrize("argv", [["--m0", "-1e-3"], ["--m0=-1e-3"], ["--m0", "-.001"]])
    def test_negative_value_in_every_form(self, tmp_path, argv):
        # argparse alone reads "-1e-3" as an option, not as --m0's value.
        conf = tmp_path / "case.conf"
        conf.write_text("m0 = -1e-3\n")
        from_file = load_config(conf)
        assert from_file.m0 == -1e-3
        assert _load(_build_parser().parse_args(["optimize", *argv])) == from_file

    def test_value_flag_given_last_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--m0"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--sensor-count", "many"],
        ["--event1-region", "1,2,3"],
        ["--alphas", "0.1,0.1"],
        ["--alphas", "a,b,c,d,e,f"],
        ["--include-self", "maybe"],
    ])
    def test_bad_flag_value_exit_two(self, argv, capsys):
        assert main(["optimize", *argv]) == 2
        assert "bad value" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--exclude-self"],
        ["oracle-check", "--trials", "5"],
        ["oracle-check", "--seed", "3"],
        ["oracle-check", "--tolerance", "1e-3"],
    ])
    def test_removed_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["optimize", "--event1-reg", "-1,0,2,2"],
        ["optimize", "--event1-reg=-1,0,2,2"],
        ["optimize", "--sensor-c", "300"],
        ["optimize", "--sensor-c=300"],
        ["simulate", "--output-d", "runs"],
        ["sweep", "--param", "p_f", "--values", "0.1", "--out", "sweep.csv"],
    ])
    def test_abbreviated_flags_rejected(self, argv, capsys):
        # A flag is its full name in both spellings. With argparse's
        # prefix matching, "--event1-reg=-1,0,2,2" parsed while
        # "--event1-reg -1,0,2,2" took "-1,0,2,2" for an option.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--event1-region", "1,0,3,2"], ["--event1-region=1,0,3,2"]])
    def test_full_flag_in_both_spellings(self, argv):
        config = _load(_build_parser().parse_args(["optimize", *argv]))
        assert config.event1_region == Rectangle(1.0, 0.0, 3.0, 2.0)

    def test_readme_table_names_every_key(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        section = text.split("\n## Configuration files\n", 1)[1].split("\n## ", 1)[0]
        named = [name for line in section.splitlines() if line.startswith("| `")
                 for name in re.findall(r"`(\w+)`", line.split("|")[1])]
        assert sorted(named) == sorted(CONFIG_KEYS)

    def test_readme_names_only_code_that_exists(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        modules = {info.name for info in pkgutil.iter_modules(dualdetect.__path__)}
        missing = []
        for span in re.findall(r"`([^`\n]+)`", text):
            if not re.fullmatch(r"\w+(\.\w+)+", span):
                continue
            parts = span.split(".")
            if parts[0] == "dualdetect":
                parts = parts[1:]
            if parts[-1] in README_FILE_SUFFIXES or not (
                    parts[0] in modules or parts[0] in dualdetect.__all__):
                continue
            if not _resolves(dualdetect, parts):
                missing.append(span)
        assert missing == []

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.conf")), ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        # parse_config_text rejects an unknown key.
        assert isinstance(load_config(path), ExperimentConfig)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--p-f", "-0.3"],
        ["simulate", "--p-f", "nan"],
        ["simulate", "--seed", "-1"],
        ["simulate", "--width", "inf"],
        ["sweep", "--param", "p_f", "--values=-0.3"],
        ["simulate", "--repetitions", "0"],
        ["simulate", "--alphas", "0.6,0.6,0,0,0,0"],
        ["simulate", "--sensor-count", "0"],
    ])
    def test_out_of_range_flag_value_exit_two(self, argv, capsys):
        assert main(argv) == 2
        assert "error" in capsys.readouterr().err


class TestConfigValidation:
    def test_quorum_larger_than_neighborhood(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(neighborhood_size=3, quorum=4)

    def test_lambda_override_must_be_paired(self):
        with pytest.raises(ConfigError, match="together"):
            ExperimentConfig(lambda1=1.0)

    def test_pf_and_alphas_are_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            ExperimentConfig(p_f=0.1, alphas=(0.02,) * 6)

    @pytest.mark.parametrize("changes", [
        {"quorum": 9}, {"lambda1": 1.0}, {"fault_mode": "bogus"},
        {"event2_region": "12,12,20,20"},
    ], ids=["quorum", "lambda1", "fault_mode", "event2_region"])
    def test_replace_rejects_invalid_values(self, changes):
        with pytest.raises(ConfigError):
            replace(ExperimentConfig(), **changes)

    @pytest.mark.parametrize("changes, match", [
        ({"event1_region": (0.0, 0.0, 5.0, 5.0)}, "event1_region must be a Rectangle"),
        ({"event2_region": Rectangle(12.0, 12.0, 22.0, 20.0)}, "does not fit"),
        ({"event2_region": Rectangle(8.0, 8.0, 20.0, 20.0)}, "must not overlap"),
    ], ids=["tuple", "outside", "overlapping"])
    def test_bad_region_rejected_in_python(self, changes, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(**changes)
        with pytest.raises(ConfigError, match=match):
            replace(ExperimentConfig(), **changes)

    @pytest.mark.parametrize("raw", ["5,0,4,10", "12,12,22,20", "8,8,20,20"],
                             ids=["degenerate", "outside", "overlapping"])
    def test_bad_region_rejected_from_file_and_flag(self, tmp_path, capsys, raw):
        conf = tmp_path / "region.conf"
        conf.write_text(f"event2_region = {raw}\n")
        with pytest.raises(ConfigError):
            load_config(conf)
        assert main(["optimize", "--event2-region", raw]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("changes, match", [
        ({"include_self": "no"}, "include_self must be a bool"),
        ({"include_self": 0}, "include_self must be a bool"),
        ({"sensor_count": 200.5}, "sensor_count must be an integer"),
        ({"neighborhood_size": 5.0}, "neighborhood_size must be an integer"),
        ({"quorum": 3.0}, "quorum must be an integer"),
        ({"quorum": True}, "quorum must be an integer"),
        ({"repetitions": 2.5}, "repetitions must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
    ], ids=["include_self-str", "include_self-int", "sensor_count", "neighborhood_size",
            "quorum", "quorum-bool", "repetitions", "seed"])
    def test_wrong_type_rejected_in_python(self, changes, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(**changes)
        with pytest.raises(ConfigError, match=match):
            replace(ExperimentConfig(), **changes)

    @pytest.mark.parametrize("changes", [
        {"include_self": "no"}, {"sensor_count": 200.5}, {"neighborhood_size": True},
    ], ids=["include_self", "sensor_count", "neighborhood_size"])
    def test_field_config_wrong_type_is_type_error(self, changes):
        with pytest.raises(TypeError, match="must be a"):
            FieldConfig(**changes)

    def test_numpy_integers_accepted(self):
        config = ExperimentConfig(
            sensor_count=np.int64(200), neighborhood_size=np.int32(5), quorum=np.int64(3),
            seed=np.int64(2), repetitions=np.uint8(4),
        )
        assert (config.sensor_count, config.seed, config.repetitions) == (200, 2, 4)

    def test_oversized_sensor_count_refused_before_allocating(self, tmp_path, capsys):
        # Neighbour lists are int32. Positions for 2**31 sensors alone
        # would take 32 GiB; the config refuses the count first.
        with pytest.raises(ConfigError, match="sensor_count must be at most 2147483647"):
            ExperimentConfig(sensor_count=2**31)
        tracemalloc.start()
        try:
            code = main(["simulate", "--sensor-count", str(2**31), "--output-dir",
                         str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "sensor_count must be at most" in capsys.readouterr().err
        assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"
        assert not (tmp_path / "out").exists()

    def test_alphas_define_fault_probability(self):
        config = ExperimentConfig(alphas=(0.02,) * 6)
        assert config.fault_model().total_probability == pytest.approx(0.12)

    def test_defaults_are_valid(self):
        ExperimentConfig()


GEOMETRY = [f.name for f in fields(FieldConfig)]


class TestFieldGeometry:
    """An ExperimentConfig is the field config the simulator reads."""

    def test_defaults_match_field_config(self):
        experiment, field = ExperimentConfig(), FieldConfig()
        assert isinstance(experiment, FieldConfig)
        assert [getattr(experiment, k) for k in GEOMETRY] == [getattr(field, k) for k in GEOMETRY]

    def test_field_and_rates_match_field_config(self):
        config = ExperimentConfig(
            sensor_count=300, event1_region=Rectangle(1.0, 2.0, 9.0, 8.0),
            event2_region=Rectangle(13.0, 12.0, 19.0, 18.0), neighborhood_size=7,
            quorum=4, include_self=False, p_f=0.12, lambda1=0.9829, lambda2=1.8496,
        )
        same = FieldConfig(**{k: getattr(config, k) for k in GEOMETRY})
        gammas = gammas_from_lambdas(config.signal_model(), config.threshold_override())
        results = []
        for field_config in (config, same):
            rngs = [np.random.default_rng(seed) for seed in (4, 5)]
            field = generate_field(field_config, rngs)
            results.append(simulator.run_detection(
                field, config.signal_model(), gammas, config.fault_model(), rngs))
        a, b = results
        for name in ("positions", "truth", "neighbors"):
            np.testing.assert_array_equal(getattr(a.field, name), getattr(b.field, name))
        np.testing.assert_array_equal(a.error_rates, b.error_rates)


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

    @pytest.mark.parametrize("p_f, faults", [(0.25, 50), (1.0, 200)])
    def test_fault_count_uses_configured_p_f(self, tmp_path, p_f, faults):
        # Six shares of p_f / 6 add up to one ulp under these p_f values;
        # the count and the summary follow p_f itself.
        artifacts = run_single(small_config(p_f=p_f, sensor_count=200), tmp_path)
        assert artifacts.summary["fault_count"] == faults
        assert artifacts.summary["p_f"] == p_f
        assert artifacts.result.faulty.sum() == faults

    @pytest.mark.parametrize("overrides, written", [
        ({}, "0.0"),
        ({"p_f": 0.12}, "0.12"),
        # Six alphas that add up to 2: the line is left blank, not 2.0.
        ({"alphas": (0.5, 0.5, 0.5, 0.5, 0.0, 0.0), "fault_mode": "alpha-table"}, ""),
    ], ids=["no-faults", "p_f", "alphas"])
    def test_summary_p_f_is_configured_p_f(self, tmp_path, overrides, written):
        run_single(small_config(**overrides), tmp_path)
        _, rows = read_csv(tmp_path / "summary.csv")
        assert {row[0]: row[1] for row in rows}["p_f"] == written

    def test_summary_percentages_follow_error_rates(self, tmp_path):
        artifacts = run_single(small_config(p_f=0.12, sensor_count=200), tmp_path)
        keys = ("local_error_percent", "final_error_percent",
                "local_error_faulty_percent", "final_error_faulty_percent")
        assert SWEEP_CSV_HEADER.split(",")[1:5] == ["ld_bf", "fd_bf", "ld_af", "fd_af"]
        percents = [artifacts.summary[key] for key in keys]
        assert percents == (100.0 * artifacts.result.error_rates[0]).tolist()
        assert percents[:2] != percents[2:]

    @staticmethod
    def _simulate_digests(tmp_path, capsys, *flags):
        code = main([
            "simulate", "--config", str(CONFIGS / "experiment2.conf"),
            *flags, "--output-dir", str(tmp_path),
        ])
        capsys.readouterr()
        assert code == 0
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}

    @pytest.mark.parametrize("mode", sorted(GOLDEN_SIMULATE_DIGESTS))
    def test_seeded_artifacts_match_golden_digests(self, tmp_path, capsys, mode):
        digests = self._simulate_digests(tmp_path, capsys, "--fault-mode", mode)
        assert digests == GOLDEN_SIMULATE_DIGESTS[mode]

    def test_alphas_artifacts_match_golden_digests(self, tmp_path, capsys):
        digests = self._simulate_digests(tmp_path, capsys, *GOLDEN_SIMULATE_ALPHAS_FLAGS)
        assert digests == GOLDEN_SIMULATE_ALPHAS_DIGESTS

    @pytest.mark.parametrize("conf", sorted(GOLDEN_OPTIMIZE_DIGESTS))
    def test_optimize_stdout_matches_golden_digest(self, capsys, conf):
        code = main(["optimize", "--config", str(CONFIGS / conf)])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_OPTIMIZE_DIGESTS[conf], out

    @pytest.mark.parametrize("key", sorted(GOLDEN_SWEEP_DIGESTS), ids=golden_sweep_id)
    def test_sweep_csv_matches_golden_digest(self, tmp_path, capsys, key):
        param, values, extra = key
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--config", str(CONFIGS / "experiment2.conf"),
            "--param", param, "--values", values, "--repetitions", "3",
            *extra, "--output", str(out),
        ])
        capsys.readouterr()
        assert code == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == GOLDEN_SWEEP_DIGESTS[key], out.read_text()

    def test_scatter_writer_matches_per_cell_formatter(self, tmp_path):
        # Floats whose repr is easy to get wrong, and all six
        # (decision, faulty) pairs.
        crafted = [1e-05, 3.0, 0.1 + 0.2, 5e-324, 19.999999999999996, 0.0]
        positions = np.array([crafted, crafted[::-1]], dtype=np.float64).T
        truth = np.array([0, 1, -1, -1, 1, 0], dtype=np.int8)
        decisions = np.array([0, 0, 1, 1, -1, -1], dtype=np.int8)
        flags = np.array([False, True] * 3)
        base = generate_field(small_config(sensor_count=6), [np.random.default_rng(0)])
        field = replace(base, positions=positions, truth=truth)
        files = [("one.csv", decisions, flags), ("two.csv", decisions[::-1], ~flags)]
        paths = harness._write_scatter(tmp_path, field, files)
        assert [p.name for p in paths] == ["one.csv", "two.csv"]
        for path, (_, codes, faulty) in zip(paths, files):
            assert path.read_text() == reference_scatter_csv(positions, truth, codes, faulty)
        rows = read_csv(paths[0])[1]
        assert {tuple(row[3:]) for row in rows} == {
            (d, f) for d in ("0", "1", "-1") for f in ("0", "1")
        }
        # The written coordinates read back as the exact positions.
        assert [[float(row[0]), float(row[1])] for row in rows] == positions.tolist()

    def test_fault_free_run_writes_two_clean_scatter_files(self, tmp_path):
        artifacts = run_single(small_config(), tmp_path)
        result = artifacts.result
        clean = np.zeros(result.local.shape, dtype=bool)
        scatter = sorted(p.name for p in tmp_path.glob("*_decisions*.csv"))
        assert scatter == ["final_decisions.csv", "local_decisions.csv"]
        for name, decisions in [("local_decisions.csv", result.local),
                                ("final_decisions.csv", result.clean_final)]:
            expected = reference_scatter_csv(result.field.positions, result.field.truth,
                                             decisions, clean)
            assert (tmp_path / name).read_text() == expected

    def test_large_field_scatter_matches_per_cell_formatter(self, tmp_path):
        config = small_config(sensor_count=20_000, p_f=0.24, fault_mode="alpha-table")
        result = run_single(config, tmp_path).result
        assert result.faulty.any()
        clean = np.zeros(result.local.shape, dtype=bool)
        for name, decisions, faulty in [
            ("local_decisions.csv", result.local, clean),
            ("final_decisions.csv", result.clean_final, clean),
            ("local_decisions_faulty.csv", result.reported, result.faulty),
            ("final_decisions_faulty.csv", result.final, result.faulty),
        ]:
            expected = reference_scatter_csv(result.field.positions, result.field.truth,
                                             decisions, faulty)
            assert (tmp_path / name).read_text() == expected, name

    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize("faults", [{}, {"p_f": 0.24}, {"p_f": 0.24, "fault_mode": "alpha-table"}],
                             ids=["no-fault", "forced-change", "alpha-table"])
    def test_scatter_blocks_write_the_same_bytes(self, tmp_path, monkeypatch, faults, block):
        # 80 rows: many blocks, the last one short at 3 and 7.
        config = small_config(**faults)
        run_single(config, tmp_path / "default")
        monkeypatch.setattr(harness, "_SCATTER_BLOCK_ROWS", block)
        run_single(config, tmp_path / "blocks")
        names = sorted(p.name for p in (tmp_path / "default").iterdir())
        assert len(names) == (3 if not faults else 5)
        assert sorted(p.name for p in (tmp_path / "blocks").iterdir()) == names
        for name in names:
            assert (tmp_path / "blocks" / name).read_bytes() == (
                tmp_path / "default" / name).read_bytes(), name

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

    @pytest.mark.parametrize("param, values, expected", [
        ("sensor_count", ["40", "50", "60"], 1),
        ("p_f", ["0.12", "0.24", "0.36"], 3),
        ("nk", ["3/2", "5/3"], 2),
    ])
    def test_one_search_per_distinct_objective(self, monkeypatch, param, values, expected):
        searches = []

        def counted(*args):
            searches.append(args)
            return minimize_error(*args)

        monkeypatch.setattr(harness, "minimize_error", counted)
        base = small_config(lambda1=None, lambda2=None, p_f=0.12, repetitions=1)
        summary = run_sweep(base, param, values)
        assert len(searches) == expected
        # Every row, thresholds and convergence flag included, equals the
        # row of a sweep over its value alone.
        for row, raw in zip(summary.rows, values):
            assert row == run_sweep(base, param, [raw]).rows[0]

    def test_threshold_override_searches_nothing(self, monkeypatch):
        searches = []
        monkeypatch.setattr(harness, "minimize_error", lambda *args: searches.append(args))
        summary = run_sweep(small_config(repetitions=1), "p_f", ["0.12", "0.24"])
        assert searches == []
        assert all((row.lambda1, row.lambda2, row.converged) == (0.9829, 1.8496, True)
                   for row in summary.rows)

    @pytest.mark.parametrize("run, expected", [
        # The three cells share one search; each cell's two repetitions
        # make one batch.
        (lambda config, _: run_sweep(config, "sensor_count", ["40", "50", "60"]), (1, 3, 3, 3)),
        (run_single, (1, 1, 1, 1)),
    ], ids=["sweep", "single"])
    def test_run_path_calls_module_bindings(self, tmp_path, monkeypatch, run, expected):
        # The benchmark tracer counts these calls by patching the names in
        # the harness module, so the run path must look them up there.
        names = ("minimize_error", "generate_field", "run_detection", "gammas_from_lambdas")
        calls = dict.fromkeys(names, 0)

        def counted(name, func):
            def wrapper(*args):
                calls[name] += 1
                return func(*args)
            return wrapper

        for name in names:
            monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
        run(small_config(repetitions=2, lambda1=None, lambda2=None), tmp_path)
        assert tuple(calls.values()) == expected

    def test_cell_memo_holds_only_searches(self):
        searches = {}
        overridden = harness._cell(small_config(), searches)
        assert overridden.optimization is None
        assert searches == {}
        searched = small_config(lambda1=None, lambda2=None)
        first = harness._cell(searched, searches)
        # Sensor count is not part of the objective, so its cell reuses the search.
        second = harness._cell(replace(searched, sensor_count=50), searches)
        assert second.optimization is first.optimization
        assert list(searches.values()) == [first.optimization]

    @pytest.mark.parametrize("fault_mode", ["forced-change", "alpha-table"])
    def test_batch_boundaries_leave_rows_unchanged(self, monkeypatch, fault_mode):
        # Five 40-sensor repetitions per cell run as 5 x 1, 2 + 2 + 1 and
        # 1 x 5 realizations; no row may depend on where batches split.
        calls = []

        def counted(*args):
            calls.append(len(args[-1]))
            return simulator.run_detection(*args)

        monkeypatch.setattr(harness, "run_detection", counted)
        base = small_config(repetitions=5, sensor_count=40, fault_mode=fault_mode)
        sweeps = {}
        for per_batch, sizes in ((1, [1] * 5), (2, [2, 2, 1]), (5, [5])):
            monkeypatch.setattr(harness, "_BATCH_SENSORS", per_batch * 40)
            calls.clear()
            sweeps[per_batch] = run_sweep(base, "p_f", ["0.0", "0.24"])
            assert calls == sizes * 2
        assert sweeps[1] == sweeps[2] == sweeps[5]

    def test_batched_cell_memory_is_bounded(self):
        # 50 realizations of 1,000 sensors run eight at a time; stacked
        # all at once they would peak near 12 MiB.
        config = small_config(sensor_count=1000, repetitions=50, p_f=0.12)
        tracemalloc.start()
        try:
            run_sweep(config, "sensor_count", ["1000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="sweep parameter"):
            run_sweep(small_config(), "variance", ["1"])

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="nk"):
            run_sweep(small_config(), "nk", ["3x2"])

    @pytest.mark.parametrize("param, values", [
        ("sensor_count", ["200", "0"]), ("nk", ["5/3", "5/6"]),
    ])
    def test_bad_value_rejected_before_any_run(self, monkeypatch, param, values):
        # The first value is valid, so a cell-by-cell check would search
        # and simulate it before reaching the bad one.
        calls = []

        def counted(name, func):
            def wrapper(*args):
                calls.append(name)
                return func(*args)
            return wrapper

        for name in ("minimize_error", "generate_field"):
            monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
        with pytest.raises(ConfigError):
            run_sweep(small_config(lambda1=None, lambda2=None), param, values)
        assert calls == []

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


# Hostile flag values for TestHostileCli: every key gets the scalars,
# and the keys that take lists also get whole bad lists and lists with
# one scalar in one slot. A valid value that asks for a large run (a
# sweep of 2**31 repetitions) is left out.
HOSTILE_SCALARS = ("nan", "inf", "-inf", "0", "-1", "-0.0", "1e308", "1e16",
                   str(2**31), "1e-320", "5e-324")
# Degenerate, reversed, and larger than any field.
HOSTILE_REGIONS = ("2,2,2,8", "8,8,2,2", "-1e308,-1e308,1e308,1e308", "0,0,1e16,1e16")
# Each command's own arguments, {tmp} a fresh directory; simulate and
# sweep run at 60 sensors. A hostile flag given after one of these wins.
HOSTILE_COMMANDS = {
    "optimize": [],
    "simulate": ["--sensor-count", "60", "--output-dir", "{tmp}"],
    "sweep": ["--param", "p_f", "--values", "0.1", "--repetitions", "1",
              "--sensor-count", "60", "--output", "{tmp}/sweep.csv"],
}
HOSTILE_EXAMPLES = 300
HOSTILE_SECONDS = 10.0


def _one_slot_hostile(template):
    """A comma-separated list with one entry replaced by a hostile scalar."""
    entries = template.split(",")
    return st.tuples(st.integers(0, len(entries) - 1), st.sampled_from(HOSTILE_SCALARS)).map(
        lambda pick: ",".join(pick[1] if i == pick[0] else e for i, e in enumerate(entries)))


def _hostile_value(key):
    scalars = st.sampled_from(HOSTILE_SCALARS)
    if key in ("event1_region", "event2_region"):
        return st.one_of(scalars, st.sampled_from(HOSTILE_REGIONS), _one_slot_hostile("0,0,10,10"))
    if key == "alphas":
        return st.one_of(scalars, _one_slot_hostile("0.01,0.01,0.01,0.01,0.01,0.01"))
    if key == "include_self":
        return st.one_of(scalars, st.just("maybe"))
    return scalars


@st.composite
def hostile_runs(draw):
    """A command and one to three hostile flags, each for a different key."""
    command = draw(st.sampled_from(sorted(HOSTILE_COMMANDS)))
    keys = draw(st.lists(st.sampled_from(sorted(CONFIG_KEYS)), min_size=1, max_size=3,
                         unique=True))
    flags = [(key, draw(_hostile_value(key))) for key in keys]
    assume(not (command == "sweep" and ("repetitions", str(2**31)) in flags))
    return command, flags


class TestHostileCli:
    @given(hostile_runs())
    @settings(max_examples=HOSTILE_EXAMPLES, derandomize=True, deadline=None)
    def test_hostile_flag_value_exits_cleanly(self, run):
        # A bad value exits 2 (a ConfigError, or argparse's refusal), and
        # no value or mix of values prints a traceback, hangs or starts a
        # large run.
        command, flags = run
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command, *(arg.format(tmp=tmp) for arg in HOSTILE_COMMANDS[command]),
                    *(arg for key, value in flags for arg in (_flag(key), value))]
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse refusals
                    code = exc.code
            elapsed = time.perf_counter() - start
        assert code in (0, 2, 3), (argv, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        assert elapsed < HOSTILE_SECONDS, argv


class TestCli:
    def test_optimize_exit_zero(self, capsys):
        code = main(["optimize", "--repetitions", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "lambda1" in captured.out

    @pytest.mark.parametrize("text", [
        "quorum = 9\nneighborhood_size = 3\n",
        # Checked even though p_f = 0 leaves nothing to read it.
        "fault_mode = bogus\n",
        "include_self = maybe\n",
    ], ids=["quorum", "fault_mode", "include_self"])
    def test_config_error_exit_two(self, tmp_path, capsys, text):
        conf = tmp_path / "bad.conf"
        conf.write_text(text)
        code = main(["simulate", "--config", str(conf)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in captured.err

    def test_simulate_not_converged_exit_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(optimize, "MAX_REFINE_EVALUATIONS", 4)
        out = tmp_path / "runs"
        code = main(["simulate", "--sensor-count", "60", "--output-dir", str(out)])
        assert code == 3
        assert "did not converge" in capsys.readouterr().err
        assert "optimizer_converged,0" in (out / "summary.csv").read_text().splitlines()

    def test_sweep_not_converged_exit_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(optimize, "MAX_REFINE_EVALUATIONS", 4)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--param", "p_f", "--values", "0.12", "--repetitions", "1",
                     "--sensor-count", "60", "--output", str(out)])
        assert code == 3
        assert "did not converge" in capsys.readouterr().err
        header, rows = read_csv(out)
        assert ",".join(header) == SWEEP_CSV_HEADER
        assert len(rows) == 1

    @pytest.mark.parametrize("command", ["optimize", "simulate"])
    @pytest.mark.parametrize("m1, code", [("1e-320", 2), ("5e-324", 2), ("1e-300", 0)])
    def test_subnormal_mean_gap_exits_two(self, tmp_path, capsys, command, m1, code):
        # ln lambda / (m1 - m0) overflows at a subnormal gap, so the
        # config is refused; a gap of 1e-300 runs.
        outputs = ["--sensor-count", "60", "--output-dir", str(tmp_path)] * (command == "simulate")
        argv = [command, "--config", str(CONFIGS / "experiment1.conf"),
                "--m0", "0", "--m1", m1, "--m2", "3", *outputs]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert f"ln(ratio) / ({m1} - 0.0)" in err and "out of float range" in err

    def test_non_utf8_config_exit_two(self, tmp_path, capsys):
        conf = tmp_path / "latin1.conf"
        conf.write_bytes(b"sensor_count = 100 # \xff\n")
        assert main(["optimize", "--config", str(conf)]) == 2
        err = capsys.readouterr().err
        assert str(conf) in err and "utf-8" in err
        with pytest.raises(ConfigError, match="latin1.conf"):
            load_config(conf)

    def test_unknown_config_key_exit_two(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("sensor_cout = 10\n")
        assert main(["optimize", "--config", str(conf)]) == 2
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(None, {"bogus": 1})

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

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="sets glibc's malloc thresholds")
    def test_repeat_sweep_reuses_freed_heap(self, tmp_path):
        # At glibc's default thresholds the neighbour search's freed
        # temporaries go back to the kernel and the next chunk faults them
        # in again: about 1,500 minor faults for the second run, and about
        # 100 with the thresholds raised. A fresh process, because large
        # frees earlier in this one may already have raised glibc's
        # dynamic thresholds.
        argv = ["sweep", "--param", "sensor_count", "--values", "1000",
                "--repetitions", "10", "--output", str(tmp_path / "sweep.csv")]
        script = (
            "import resource, sys\n"
            "from dualdetect.cli import main\n"
            f"argv = {argv!r}\n"
            "assert main(argv) == 0\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "assert main(argv) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, file=sys.stderr)\n"
        )
        completed = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                   text=True, timeout=120)
        assert completed.returncode == 0, completed.stderr
        faults = int(completed.stderr.split()[-1])
        assert faults < 300, f"{faults} minor faults"

    def test_huge_field_exits_two(self, tmp_path):
        # Squared distances in this field overflow to inf, so the neighbour
        # search's rings would grow for ever; a subprocess, so that a hang
        # fails by its timeout.
        completed = subprocess.run(
            [sys.executable, "-m", "dualdetect", "simulate", "--width", "1e160",
             "--height", "1e160", "--output-dir", str(tmp_path)],
            capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 2, completed.stderr
        assert "width*width + height*height at most 1.79" in completed.stderr

    def test_oracle_check_exit_zero(self, capsys):
        code = main(["oracle-check"])
        captured = capsys.readouterr()
        assert code == 0
        assert "agreement" in captured.out

    def test_oracle_check_mismatch_exit_one(self, capsys, monkeypatch):
        def shifted(metrics, params):
            quality = fusion_quality(metrics, params)
            return replace(quality, q_d1=quality.q_d1 + 1e-3)

        monkeypatch.setattr("dualdetect.cli.fusion_quality", shifted)
        code = main(["oracle-check"])
        captured = capsys.readouterr()
        assert code == 1
        assert "MISMATCH" in captured.err
        assert "agreement" not in captured.out

    def test_oracle_check_catches_swapped_false_alarms(self, capsys, monkeypatch):
        # q_f1 + q_f2 is unchanged by the swap; only a term-by-term check sees it.
        def swapped(metrics, params):
            quality = fusion_quality(metrics, params)
            return replace(quality, q_f1=quality.q_f2, q_f2=quality.q_f1)

        monkeypatch.setattr("dualdetect.cli.fusion_quality", swapped)
        code = main(["oracle-check", "--n", "5", "--k", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert "MISMATCH" in captured.err

    @pytest.mark.parametrize("argv", [["--n", "13"], ["--n", "3", "--k", "5"]])
    def test_oracle_check_bad_arguments_exit_two(self, argv, capsys):
        assert main(["oracle-check", *argv]) == 2
        assert "error" in capsys.readouterr().err

    def test_simulate_output_dir_is_a_file_exit_two(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        code = main(["simulate", "--sensor-count", "60", "--lambda1", "1.0",
                     "--lambda2", "1.9", "--output-dir", str(blocker)])
        assert code == 2
        assert str(blocker) in capsys.readouterr().err

    def test_simulate_output_file_is_a_directory_exit_two(self, tmp_path, capsys):
        blocker = tmp_path / "local_decisions.csv"
        blocker.mkdir()
        code = main(["simulate", "--sensor-count", "60", "--lambda1", "1.0",
                     "--lambda2", "1.9", "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [f"error: cannot write {blocker}: Is a directory"]

    @pytest.mark.parametrize("where", ["under_a_file", "a_directory", "a_dangling_symlink"])
    def test_sweep_bad_output_exit_two_before_simulating(
        self, tmp_path, capsys, monkeypatch, where
    ):
        blocker = tmp_path / "taken"
        if where == "under_a_file":
            blocker.write_text("")
            output = blocker / "s.csv"
        elif where == "a_directory":
            blocker.mkdir()
            output = blocker
        else:
            output = tmp_path / "sweep.csv"
            output.symlink_to(blocker / "sweep.csv")
            blocker = output  # the path the error names
        sweeps = []
        monkeypatch.setattr("dualdetect.cli.run_sweep", lambda *args: sweeps.append(args))
        code = main(["sweep", "--param", "p_f", "--values", "0.12",
                     "--output", str(output)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert str(blocker) in err
        assert sweeps == []

    def test_refused_sweep_leaves_its_output_as_it_was(self, tmp_path, capsys):
        # The output is checked by opening it before the values are; a new
        # file is removed again and an existing one keeps its bytes.
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("kept\n")
        for output in (new, old):
            assert main(["sweep", "--param", "p_f", "--values", "2",
                         "--output", str(output)]) == 2
        assert "error: " in capsys.readouterr().err
        assert not new.exists() and old.read_text() == "kept\n"

    def test_sweep_negative_means(self, tmp_path, capsys):
        csvs = []
        for values in (["--values", "-0.5/1/2"], ["--values=-0.5/1/2"]):
            out = tmp_path / f"sweep{len(csvs)}.csv"
            code = main(["sweep", "--param", "means", *values, "--repetitions", "1",
                         "--sensor-count", "60", "--lambda1", "1.0", "--lambda2", "1.9",
                         "--output", str(out)])
            assert code == 0
            csvs.append(out.read_bytes())
        assert capsys.readouterr().out.count("means=-0.5/1.0/2.0:") == 2
        assert csvs[0] == csvs[1]

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
