"""Command line interface.

Subcommands:

* ``optimize``     search likelihood-ratio thresholds for a scenario
* ``simulate``     one seeded field realization with CSV artifacts
* ``sweep``        averaged error rates across one varied parameter
* ``oracle-check`` closed-form fusion math vs exhaustive enumeration

Exit codes: 0 on success, 1 on oracle mismatch, 2 on configuration
errors, 3 when the threshold search stops without converging (results
are still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from .decision_rules import LikelihoodThresholds, gammas_from_lambdas, local_metrics
from .fusion import (
    MAX_ORACLE_SENSORS,
    FaultModel,
    FusionParams,
    enumerate_fusion_oracle,
    fault_adjust,
    fusion_quality,
)
from .harness import (
    CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    load_config,
    make_output_dir,
    parse_value,
    run_single,
    run_sweep,
    SWEEP_PARAMS,
)
from .optimize import minimize_error
from .signal_model import SignalModel
from .simulator import FAULT_MODES

__all__ = ["main"]

EXIT_OK = 0
EXIT_ORACLE_MISMATCH = 1
EXIT_CONFIG_ERROR = 2
EXIT_NOT_CONVERGED = 3

# oracle-check's random scenarios, their seed, and the largest
# closed-form/enumeration difference it accepts.
ORACLE_TRIALS = 25
ORACLE_SEED = 0
ORACLE_TOLERANCE = 1e-10

# glibc's malloc hands freed memory above its trim threshold at the top
# of the heap back to the kernel, and serves blocks above its mmap
# threshold from fresh mappings that are unmapped on free. At the
# defaults a sweep's neighbour search, whose chunks allocate and free
# about 1.5 MB of numpy temporaries each, faults the same pages in again
# chunk after chunk. Any mallopt call also turns off glibc's dynamic
# mmap threshold, so both are set: raising the trim threshold alone
# doubles the faults of a 100,000-sensor simulate.
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 64 << 20
_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers from glibc's <malloc.h>
_M_MMAP_THRESHOLD = -3

_FLAG_OPTIONS = {
    "event1_region": {"metavar": "X0,Y0,X1,Y1"},
    "event2_region": {"metavar": "X0,Y0,X1,Y1"},
    "alphas": {"metavar": "A1,A2,A3,A4,A5,A6",
               "help": "explicit fault transition probabilities"},
    "include_self": {"metavar": "BOOL"},
    "fault_mode": {"choices": FAULT_MODES},
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _collect_overrides(args: argparse.Namespace) -> dict[str, object]:
    return {
        key: parse_value(key, raw, _flag(key))
        for key in CONFIG_KEYS
        if (raw := getattr(args, key)) is not None
    }


def _load(args: argparse.Namespace) -> ExperimentConfig:
    return load_config(args.config, _collect_overrides(args))


def _cmd_optimize(args: argparse.Namespace) -> int:
    config = _load(args)
    result = minimize_error(*config.objective())
    print(f"lambda1 = {result.lambda1!r}")
    print(f"lambda2 = {result.lambda2!r}")
    print(f"error_probability = {result.objective_value!r}")
    print(f"evaluations = {result.evaluations}")
    print(f"converged = {result.converged}")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load(args)
    artifacts = run_single(config, args.output_dir)
    for key, value in artifacts.summary.items():
        print(f"{key} = {value}")
    for path in artifacts.paths:
        print(f"wrote {path}")
    opt = artifacts.optimization
    if opt is not None and not opt.converged:
        print("warning: threshold search did not converge", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load(args)
    # Refuse an unusable output path before the repetitions run.
    output = Path(args.output)
    make_output_dir(output.parent)
    if output.is_dir():
        raise ConfigError(f"sweep output {output} is a directory")
    values = [v for v in args.values.split(",") if v.strip()]
    summary = run_sweep(config, args.param, values)
    path = summary.to_csv(args.output)
    for row in summary.rows:
        print(
            f"{args.param}={row.label}: ld_bf={row.ld_bf:.2f}% fd_bf={row.fd_bf:.2f}% "
            f"ld_af={row.ld_af:.2f}% fd_af={row.fd_af:.2f}%"
        )
    print(f"wrote {path}")
    if not summary.all_converged:
        print("warning: threshold search did not converge for every cell", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    try:
        params = FusionParams(args.n, args.k)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if params.n > MAX_ORACLE_SENSORS:
        raise ConfigError(f"--n must not exceed {MAX_ORACLE_SENSORS}, got {params.n}")
    rng = np.random.default_rng(ORACLE_SEED)
    worst = 0.0
    for _ in range(ORACLE_TRIALS):
        m0 = rng.uniform(-1.0, 1.0)
        m1 = m0 + rng.uniform(0.5, 4.0)
        m2 = m1 + rng.uniform(0.5, 4.0)
        model = SignalModel(m0, m1, m2)
        lambdas = LikelihoodThresholds(
            float(np.exp(rng.uniform(-3.0, 3.0))),
            float(np.exp(rng.uniform(-3.0, 3.0))),
        )
        metrics = local_metrics(model, gammas_from_lambdas(model, lambdas))
        if rng.random() < 0.5:
            metrics = fault_adjust(metrics, FaultModel.uniform_split(rng.uniform(0.0, 0.3)).matrix)
        quality = dataclasses.astuple(fusion_quality(metrics, params))
        reference = dataclasses.astuple(enumerate_fusion_oracle(metrics, params))
        worst = max(worst, *(abs(a - b) for a, b in zip(quality, reference)))
    print(f"checked {4 * ORACLE_TRIALS} quantities (q_d1, q_d2, q_f1, q_f2) over "
          f"{ORACLE_TRIALS} random scenarios")
    print(f"max |closed-form - enumeration| = {worst:.3e}")
    if worst > ORACLE_TOLERANCE:
        print(f"MISMATCH: exceeds tolerance {ORACLE_TOLERANCE:.1e}", file=sys.stderr)
        return EXIT_ORACLE_MISMATCH
    print(f"agreement within {ORACLE_TOLERANCE:.1e}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualdetect",
        description="Fault-tolerant fusion of ternary sensor decisions for two concurrent events",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The config options, declared once and shared by optimize, simulate and sweep.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="FILE", help="flat key = value config file")
    for key in CONFIG_KEYS:
        shared.add_argument(_flag(key), default=None, dest=key, **_FLAG_OPTIONS.get(key, {}))

    p_opt = sub.add_parser("optimize", help="search likelihood-ratio thresholds", parents=[shared])
    p_opt.set_defaults(func=_cmd_optimize)

    p_sim = sub.add_parser("simulate", help="run one seeded field realization", parents=[shared])
    p_sim.add_argument("--output-dir", default="runs", help="directory for CSV artifacts")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser(
        "sweep", help="average error rates across one parameter", parents=[shared],
    )
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument(
        "--values", required=True,
        help="comma-separated values; use '/' inside one value for tuples, e.g. 5/3",
    )
    p_sweep.add_argument("--output", default="sweep.csv", help="sweep CSV path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser(
        "oracle-check", help="compare fusion closed forms with exhaustive enumeration",
    )
    p_oracle.add_argument("--n", type=int, default=5)
    p_oracle.add_argument("--k", type=int, default=3)
    p_oracle.set_defaults(func=_cmd_oracle_check)

    return parser


@functools.cache
def _keep_freed_heap() -> None:
    """Raise glibc's trim and mmap thresholds, once per process.

    Done by the command line only, so importing the package leaves a
    library user's allocator alone. Does nothing off Linux or where the
    C library has no ``mallopt``; a rejected value keeps its default.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_heap()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
