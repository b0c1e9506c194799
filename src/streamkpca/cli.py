"""Command-line front end: run experiments, sweep the spectral ratio,
certify persisted trajectories.

Exit codes: 0 success, 1 check failure, 2 config, input or OS error,
3 numeric abort in every trial, 4 internal error (any other exception,
one line, no traceback).
A run's config is the --config document, else _DEFAULT_CONFIG, with
each given flag written over the key it sets; RunConfig.from_dict
builds it. Which files are written where is not part of it: they go
to --out, else STREAMKPCA_OUT, else skpca-out, and run's
--save-trajectories adds the trajectory CSVs. BLAS runs on one thread
unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS is set.
"""

from __future__ import annotations

import argparse
import copy
import os
import sys
from pathlib import Path

# Before numpy loads: the eigensolve's last bits depend on the count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .config import (  # noqa: E402
    ConfigError,
    RunConfig,
    _write_json,
    check_target_ratio,
)
from .featuremaps import poly2_dim  # noqa: E402
from .harness import check_trajectory_file, run, sweep, sweep_csv  # noqa: E402

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ABORT = 3
EXIT_INTERNAL_ERROR = 4

OUT_DIR_ENV = "STREAMKPCA_OUT"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamkpca",
        description="Streaming kernel PCA experiments and trajectory checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one configuration")
    _add_run_flags(run_p)
    run_p.add_argument(
        "--save-trajectories", action="store_true",
        help="persist trajectory CSVs",
    )

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
    # None unless given, as for every other flag.
    p.add_argument(
        "--check", action="store_true", default=None,
        help="run the invariant suite per trial",
    )
    p.add_argument("--out", type=str, default=None, help="output directory")


# A run's config without a --config file; RunConfig.from_dict supplies
# the keys it leaves out.
_DEFAULT_CONFIG = {
    "feature_map": {"kind": "identity", "input_dim": 8, "feature_dim": 8},
    "generator": {
        "input_dim": 8, "n": 1000, "lambda1": 1.0, "lambda2": 0.1,
        "tail_decay": 1.0, "basis_seed": 0, "sample_seed": 1,
    },
}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The --config document (else _DEFAULT_CONFIG) with each given flag
    written over the key it sets, as one RunConfig.from_dict."""
    if args.config:
        doc = RunConfig.load(args.config).to_dict()
    else:
        doc = copy.deepcopy(_DEFAULT_CONFIG)
    gen = doc["generator"]
    _write_flags(gen, args, dim="input_dim", n="n", tail_decay="tail_decay")
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        gen["basis_seed"], gen["sample_seed"] = args.seed, args.seed + 1
    if args.ratio is not None:
        gen["lambda2"] = gen["lambda1"] / check_target_ratio(args.ratio, "--ratio")

    fm = doc["feature_map"]
    kind = args.phi or fm["kind"]
    if kind != fm["kind"]:
        # Another map's feature_dim, bandwidth and seed are not this one's.
        fm = doc["feature_map"] = {"kind": kind}
    d = fm["input_dim"] = gen["input_dim"]
    for flag in ("feature_dim", "bandwidth"):
        if kind != "rff" and getattr(args, flag) is not None:
            raise ConfigError(
                f"--{flag.replace('_', '-')} is for an rff map only, not {kind}"
            )
    if kind == "identity":
        fm["feature_dim"] = d
    elif kind == "poly2":
        fm["feature_dim"] = poly2_dim(d)
    else:
        _write_flags(fm, args, feature_dim="feature_dim", bandwidth="bandwidth")
        fm.setdefault("feature_dim", 4 * d)
        fm.setdefault("bandwidth", 1.0)
        fm.setdefault("seed", gen["basis_seed"] + 7)

    _write_flags(
        doc, args, eta="eta_policy", init="init", trials="trials", check="run_checks"
    )
    return RunConfig.from_dict(doc)


def _write_flags(section: dict, args: argparse.Namespace, **keys: str) -> None:
    """section[key] = the flag's value, for each flag=key given."""
    for flag, key in keys.items():
        if getattr(args, flag) is not None:
            section[key] = getattr(args, flag)


def _out_dir(args: argparse.Namespace) -> Path:
    """--out, else STREAMKPCA_OUT, else skpca-out."""
    if args.out is not None:
        return Path(args.out)
    return Path(os.environ.get(OUT_DIR_ENV) or "skpca-out")


def cmd_run(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    report = run(
        config, out_dir=_out_dir(args), save_trajectories=args.save_trajectories
    )
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
    for ratio in ratios:
        check_target_ratio(ratio, "--ratios")
    config = config_from_args(args)
    out = sweep(config, ratios, out_dir=_out_dir(args))
    print(sweep_csv(out), end="")
    aggs = [row["aggregate"] for row in out["rows"]]
    if all(agg["aborted"] == agg["trials"] for agg in aggs):
        return EXIT_NUMERIC_ABORT
    return EXIT_OK


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
