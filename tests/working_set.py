"""Neither a run's working set nor `check`'s grows with n, and nor do a
run's page faults.

    PYTHONPATH=src python tests/working_set.py check N1 N2
    PYTHONPATH=src python tests/working_set.py run N1 N2
    PYTHONPATH=src python tests/working_set.py run-check N1 N2
    PYTHONPATH=src python tests/working_set.py faults N1 N2
    PYTHONPATH=src python tests/working_set.py m M1 M2

Each n mode measures one command at N1 and N2 steps in a child process
that reads its own peak resident set (VmHWM in /proc/self/status; a
parent's rusage would count the parent's image too), prints both
figures and exits 1 unless they differ by less than the mode's slack
(SLACK_MIB, or SLACK_FAULTS for faults):

  * check: `check` of an identity d=6 at-v* trial saved by
    --save-trajectories.
  * run: `run` of an identity d=RUN_DIM at-v* trial, which replays its
    stream from the seed once for the oracle and once for the Oja pass.
  * run-check: the same trial under `run --check`. Both n must exceed a
    few units of run_stream (unit_rows(RUN_DIM) = 5632 steps), since its
    unit buffer fills up to about 1 MiB first.
  * faults: the minor page faults (ru_minflt) of `run --check` of an
    rff d=16, m=128 trial, with glibc's mmap threshold pinned to
    MMAP_THRESHOLD, as the benchmark pins it. Every array of that size
    or more is a fresh mapping whose pages fault in anew, so one
    allocated per block would make the count grow with n. A loaded
    host only adds faults, so each figure is the least of FAULT_TRIES
    children.

The m mode measures the paper's space claim in m, at feature dims M1
and M2 of an rff d=8 trial of M_STEPS steps started at v*: the peak of
run_stream with the certificate as its reader, as `run --check` runs
them, but with a random start standing in for the oracle's v* (so no
m x m array is ever formed), beside the whole `run --check` trial's
peak, where the oracle's O(m^2) shows. It exits 1 unless the pass's
peak grows by less than PASS_ROWS rows of float64 per unit of m.

Linux only, for /proc.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from streamkpca.checks import CHECK_PAIR_COUNT
from streamkpca.linalg import BLOCK_ROWS

SRC = Path(__file__).resolve().parents[1] / "src"

# How far apart the two peaks may be. Each command holds O(m^2) floats
# whatever n is, so only allocator noise separates them (under 0.1 MiB
# for `check` between n = 2e4 and 2e5, where whole-array reads differed
# by 25 MiB).
SLACK_MIB = 1.0

# How far apart the two fault counts may be. Each block of the faults
# mode's pass reuses buffers allocated once: its count was 6.9k at both
# n = 2e3 and 2e4, where one new lift, second-moment term and orjson
# document per block gave 16.5k and 101.5k.
SLACK_FAULTS = 1000

# Children per n whose least fault count the faults mode takes.
FAULT_TRIES = 3

# The benchmark's glibc mmap threshold, in bytes.
MMAP_THRESHOLD = 131072

# The input dimension of the run modes' identity map.
RUN_DIM = 20

# Steps of the m mode's trial: a few units of run_stream at every m.
M_STEPS = 4096

# Rows of m floats the pass and its certificate may hold, at an m where
# a unit of run_stream is one block (m >= 509): the unit and the lift,
# the certificate's three buffers (each a block's rows, or one more), and
# the orthogonal parts of the drift pairs' rows (at most two per pair),
# 1485 rows; a block more covers the map's frequencies, the state's
# vectors and the allocator. The pass grew by 1500 rows per unit of m
# from m = 1024 to 2048; one m x m array at m = 2048 adds 2048.
PASS_ROWS = 5 * (BLOCK_ROWS + 1) + BLOCK_ROWS + 2 * CHECK_PAIR_COUNT

_REPORT = """
import resource
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
with open("/proc/self/status") as status:
    peak = next(line for line in status if line.startswith("VmHWM:"))
print(code, int(peak.split()[1]), faults)
"""

_CHILD = """
import sys
from streamkpca.cli import main
code = main(sys.argv[1:])
""" + _REPORT

# run_trial's pass and certificate for trial 0 of the `run --check`
# argv, with no oracle: the random start stands in for v* and two small
# constants for alpha and beta, so the run starts at v*, every entry is
# judged and every drift pair's rows are held.
_PASS_CHILD = """
import sys
from dataclasses import replace
from streamkpca import cli
from streamkpca.checks import _Certificate
from streamkpca.datagen import make_spiked_stream
from streamkpca.harness import trial_seeds
from streamkpca.oja import OjaConfig, init_state, run_stream, select_learning_rate
from streamkpca.trajectory import _Head
config = cli.config_from_args(cli.build_parser().parse_args(sys.argv[1:]))
sample_seed, init_seed = trial_seeds(config, 0)
stream, truth = make_spiked_stream(replace(config.generator, sample_seed=sample_seed))
phi = config.feature_map
bound = phi.norm_bound(truth.norm_bound)
oja_config = OjaConfig(eta=select_learning_rate(bound), feature_map=phi, norm_bound=bound)
start = init_state(phi.feature_dim, init_seed)
head = _Head(oja_config, start.v_hat, len(stream), sample_seed)
certificate = _Certificate(head, start.v_hat, 1e-4, 1e-3)
run_stream(stream, oja_config, start, into=[certificate.add])
certificate.report()
code = 0
""" + _REPORT


def _env() -> dict[str, str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_args(dim: int, n: int, out: Path, *flags: str) -> list[str]:
    """`run` of one identity at-v* trial of n steps into out."""
    return [
        "run", "--phi", "identity", "--dim", str(dim), "--n", str(n),
        "--init", "vstar", "--trials", "1", "--seed", "3", "--out", str(out),
        *flags,
    ]


def _child(argv: list[str], script: str = _CHILD, **env: str) -> tuple[float, int]:
    """The peak resident set, in MiB, and the minor page faults of a
    child running script (the CLI) on argv, with env added to its
    environment; it must exit 0."""
    child = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=_env() | env,
        check=True,
        capture_output=True,
        text=True,
    )
    code, peak_kib, faults = child.stdout.splitlines()[-1].split()
    if code != "0":
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {child.stderr}")
    return int(peak_kib) / 1024.0, int(faults)


def check_peak_mib(n: int, work: Path) -> float:
    """The peak resident set of `check` of an identity d=6 at-v* trial
    of n steps, in MiB, written and checked under work."""
    out = work / f"n{n}"
    run = [sys.executable, "-m", "streamkpca.cli", *_run_args(6, n, out, "--save-trajectories")]
    subprocess.run(run, env=_env(), check=True, stdout=subprocess.DEVNULL)
    check = ["check", str(out / "trial_000.csv"), "--out", str(work / f"n{n}.json")]
    return _child(check)[0]


def run_peak_mib(n: int, work: Path) -> float:
    """The peak resident set of `run` of an identity d=RUN_DIM at-v*
    trial of n steps, in MiB, written under work."""
    return _child(_run_args(RUN_DIM, n, work / f"run{n}"))[0]


def run_check_peak_mib(n: int, work: Path) -> float:
    """run_peak_mib's trial under `run --check`."""
    return _child(_run_args(RUN_DIM, n, work / f"run-check{n}", "--check"))[0]


def _rff_check_args(d: int, m: int, n: int, out: Path, *flags: str) -> list[str]:
    """`run --check` of one rff trial of n steps into out."""
    return [
        "run", "--phi", "rff", "--dim", str(d), "--feature-dim", str(m),
        "--bandwidth", "4", "--n", str(n), "--ratio", "20", "--trials", "1",
        "--seed", "3", "--check", "--out", str(out), *flags,
    ]


def run_check_faults(n: int, work: Path) -> int:
    """The minor page faults of `run --check` of an rff d=16, m=128
    trial of n steps (the benchmark's oracle-rff128 run), written under
    work, with glibc's mmap threshold at MMAP_THRESHOLD: the least count
    of FAULT_TRIES children."""
    env = {"MALLOC_MMAP_THRESHOLD_": str(MMAP_THRESHOLD)}
    return min(
        _child(_rff_check_args(16, 128, n, work / f"faults{n}-{t}"), **env)[1]
        for t in range(FAULT_TRIES)
    )


def pass_peak_mib(m: int, work: Path) -> float:
    """The peak resident set, in MiB, of run_stream with the certificate
    as its reader, over the m mode's trial at feature dim m."""
    return _child(_rff_check_args(8, m, M_STEPS, work / f"pass{m}"), _PASS_CHILD)[0]


def trial_peak_mib(m: int, work: Path) -> float:
    """The peak resident set, in MiB, of the m mode's whole `run --check`
    trial at feature dim m, oracle included."""
    argv = _rff_check_args(8, m, M_STEPS, work / f"trial{m}", "--init", "vstar")
    return _child(argv)[0]


def pass_slack_mib(m1: int, m2: int) -> float:
    """How far the pass's peak may grow from m1 to m2: PASS_ROWS rows of
    float64 per unit of m."""
    return PASS_ROWS * 8 * (m2 - m1) / 2**20


def space_in_m(m1: int, m2: int) -> int:
    """The m mode: print the pass's and the trial's peaks at m1 and m2;
    0 if the pass's grows by less than pass_slack_mib, else 1."""
    with tempfile.TemporaryDirectory() as work:
        passes = [pass_peak_mib(m, Path(work)) for m in (m1, m2)]
        trials = [trial_peak_mib(m, Path(work)) for m in (m1, m2)]
    gap, slack = passes[1] - passes[0], pass_slack_mib(m1, m2)
    for m, peak, trial in zip((m1, m2), passes, trials):
        print(f"m: m={m} pass {peak:.2f} MiB, run --check trial {trial:.2f} MiB")
    print(f"m: pass gap {gap:.2f} MiB (slack {slack:.2f} MiB, {PASS_ROWS} rows per unit of m)")
    return 0 if gap < slack else 1


def main(argv: list[str]) -> int:
    mode, n1, n2 = argv[0], int(argv[1]), int(argv[2])
    if mode == "m":
        return space_in_m(n1, n2)
    measure, slack, unit, spec = {
        "check": (check_peak_mib, SLACK_MIB, "MiB", ".2f"),
        "run": (run_peak_mib, SLACK_MIB, "MiB", ".2f"),
        "run-check": (run_check_peak_mib, SLACK_MIB, "MiB", ".2f"),
        "faults": (run_check_faults, SLACK_FAULTS, "faults", "d"),
    }[mode]
    with tempfile.TemporaryDirectory() as work:
        figures = [measure(n, Path(work)) for n in (n1, n2)]
    gap = figures[1] - figures[0]
    print(
        f"{mode}: n={n1} {figures[0]:{spec}} {unit}, n={n2} {figures[1]:{spec}} "
        f"{unit}, gap {gap:{spec}} {unit} (slack {slack} {unit})"
    )
    return 0 if abs(gap) < slack else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
