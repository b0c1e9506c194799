"""Command-line front end: run experiments, sweep the spectral ratio,
certify persisted trajectories.

Exit codes: 0 success, 1 check failure, 2 config, input or OS error,
3 numeric abort in every trial, 4 internal error (any other exception,
reported as one line without a traceback). A config file (--config)
merges with flags; flags win.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .datagen import SpikedSpec
from .featuremaps import FeatureMapSpec, poly2_dim
from .harness import (
    ConfigError,
    OUT_DIR_ENV,
    RunConfig,
    _write_json,
    check_trajectory_file,
    run,
    sweep,
)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ABORT = 3
EXIT_INTERNAL_ERROR = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamkpca",
        description="Streaming kernel PCA experiments and trajectory checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one configuration")
    _add_run_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="sweep the target spectral ratio")
    _add_run_flags(sweep_p)
    sweep_p.add_argument(
        "--ratios",
        type=str,
        default=None,
        help="comma-separated target ratios, e.g. 5,20,100",
    )

    check_p = sub.add_parser("check", help="certify a trajectory CSV")
    check_p.add_argument("trajectory", type=str, help="path to trajectory CSV")
    check_p.add_argument("--out", type=str, default=None)
    return parser


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="JSON config file")
    p.add_argument("--phi", choices=("identity", "poly2", "rff"), default=None)
    p.add_argument("--dim", type=int, default=None, help="input dimension d")
    p.add_argument(
        "--feature-dim", type=int, default=None, help="feature dimension m (rff)"
    )
    p.add_argument("--bandwidth", type=float, default=None, help="rff bandwidth")
    p.add_argument("--n", type=int, default=None, help="stream length")
    p.add_argument("--ratio", type=float, default=None, help="target lambda1/lambda2")
    p.add_argument("--tail-decay", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--eta", type=float, default=None, help="fixed learning rate")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--init", choices=("random", "vstar"), default=None)
    p.add_argument(
        "--check", action="store_true", help="run the invariant suite per trial"
    )
    p.add_argument(
        "--save-trajectories", action="store_true", help="persist trajectory CSVs"
    )
    p.add_argument("--out", type=str, default=None, help="output directory")


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Build a RunConfig from an optional config file merged with flags."""
    base: dict = {}
    if args.config:
        base = RunConfig.load(args.config).to_dict()

    gen = base.get("generator", {})
    dim = args.dim if args.dim is not None else gen.get("input_dim", 8)
    n = args.n if args.n is not None else gen.get("n", 1000)
    seed = args.seed
    if seed is not None:
        basis_seed, sample_seed = seed, seed + 1
    else:
        basis_seed = gen.get("basis_seed", 0)
        sample_seed = gen.get("sample_seed", 1)
    lambda1 = gen.get("lambda1", 1.0)
    if args.ratio is not None:
        if args.ratio < 1.0:
            raise ConfigError("--ratio must be >= 1")
        lambda2 = lambda1 / args.ratio
    else:
        lambda2 = gen.get("lambda2", lambda1 / 10.0)
    tail = args.tail_decay if args.tail_decay is not None else gen.get(
        "tail_decay", 1.0
    )
    try:
        generator = SpikedSpec(
            input_dim=dim,
            n=n,
            lambda1=lambda1,
            lambda2=lambda2,
            tail_decay=tail,
            basis_seed=basis_seed,
            sample_seed=sample_seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    fm = base.get("feature_map", {})
    kind = args.phi if args.phi is not None else fm.get("kind", "identity")
    try:
        if kind == "identity":
            feature_map = FeatureMapSpec.identity(dim)
        elif kind == "poly2":
            feature_map = FeatureMapSpec.poly2(dim)
        else:
            m = (
                args.feature_dim
                if args.feature_dim is not None
                else fm.get("feature_dim", 4 * dim)
            )
            bandwidth = (
                args.bandwidth
                if args.bandwidth is not None
                else fm.get("bandwidth", 1.0)
            )
            rff_seed = fm.get("seed", basis_seed + 7)
            feature_map = FeatureMapSpec.rff(dim, m, bandwidth, rff_seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if kind == "poly2" and poly2_dim(dim) > 2048:
        raise ConfigError("poly2 feature dimension exceeds the oracle cap")

    return RunConfig(
        feature_map=feature_map,
        generator=generator,
        eta_policy=args.eta if args.eta is not None else base.get(
            "eta_policy", "auto"
        ),
        init=args.init if args.init is not None else base.get("init", "random"),
        trials=args.trials if args.trials is not None else base.get("trials", 1),
        run_checks=bool(args.check) or base.get("run_checks", False),
        save_trajectories=bool(args.save_trajectories)
        or base.get("save_trajectories", False),
        out_dir=args.out if args.out is not None else base.get("out_dir"),
    )


def _default_out(args: argparse.Namespace) -> str:
    return args.out or os.environ.get(OUT_DIR_ENV) or "skpca-out"


def cmd_run(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    report = run(config, out_dir=_default_out(args))
    agg = report["aggregate"]
    print(f"trials: {agg['trials']}  aborted: {agg['aborted']}")
    if agg["alignment_error"]["median"] is not None:
        print(
            "alignment error median={median:.6g} q10={q10:.6g} q90={q90:.6g}".format(
                **agg["alignment_error"]
            )
        )
    if agg["aborted"] == agg["trials"]:
        return EXIT_NUMERIC_ABORT
    if config.run_checks and agg["check_failure_count"] > 0:
        print(f"check failures in {agg['check_failure_count']} trial(s)")
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if not args.ratios:
        raise ConfigError("sweep requires --ratios")
    try:
        ratios = [float(tok) for tok in args.ratios.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --ratios: {exc}") from exc
    config = config_from_args(args)
    out = sweep(config, ratios, out_dir=_default_out(args))
    header = (
        "r_target empirical_r_median median_alignment_error "
        "logd_over_r bound_satisfied_fraction"
    )
    print(header)
    aborted_everywhere = True
    for row in out["rows"]:
        print(
            f"{row['r_target']:g} {row['empirical_r_median']} "
            f"{row['median_alignment_error']} {row['logd_over_r']:.6g} "
            f"{row['bound_satisfied_fraction']}"
        )
        if row["median_alignment_error"] is not None:
            aborted_everywhere = False
    return EXIT_NUMERIC_ABORT if aborted_everywhere else EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    report = check_trajectory_file(args.trajectory)
    for entry in report.entries:
        margin = entry.margin
        suffix = "" if margin != margin else f" (margin={margin:.6g})"
        print(f"{entry.name}: {entry.status}{suffix}")
    out_path = args.out or (args.trajectory + ".checks.json")
    _write_json(Path(out_path), report.to_dict())
    return EXIT_OK if report.ok else EXIT_CHECK_FAILURE


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_check(args)
    except (ValueError, OSError) as exc:
        # ConfigError, TrajectoryParseError, the library's input errors and
        # unreadable or unwritable paths are all configuration problems
        # from the CLI's point of view; exit 1 stays "a check failed".
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as exc:
        # A bug, not a verdict on the input: it must not read as exit 1.
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
