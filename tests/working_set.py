"""Neither a run's working set nor `check`'s grows with n, and nor do a
run's page faults.

    PYTHONPATH=src python tests/working_set.py check N1 N2
    PYTHONPATH=src python tests/working_set.py run N1 N2
    PYTHONPATH=src python tests/working_set.py run-check N1 N2
    PYTHONPATH=src python tests/working_set.py faults N1 N2

Each mode measures one command at N1 and N2 steps in a child process
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
    allocated per block would make the count grow with n.

Linux only, for /proc.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

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

# The benchmark's glibc mmap threshold, in bytes.
MMAP_THRESHOLD = 131072

# The input dimension of the run modes' identity map.
RUN_DIM = 20

_CHILD = """
import resource, sys
from streamkpca.cli import main
code = main(sys.argv[1:])
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
with open("/proc/self/status") as status:
    peak = next(line for line in status if line.startswith("VmHWM:"))
print(code, int(peak.split()[1]), faults)
"""


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


def _child(argv: list[str], **env: str) -> tuple[float, int]:
    """The peak resident set, in MiB, and the minor page faults of a
    child running the CLI on argv, with env added to its environment;
    the CLI must exit 0."""
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv],
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


def run_check_faults(n: int, work: Path) -> int:
    """The minor page faults of `run --check` of an rff d=16, m=128
    trial of n steps (the benchmark's oracle-rff128 run), written under
    work, with glibc's mmap threshold at MMAP_THRESHOLD."""
    argv = [
        "run", "--phi", "rff", "--dim", "16", "--feature-dim", "128",
        "--bandwidth", "4", "--n", str(n), "--ratio", "20", "--trials", "1",
        "--seed", "3", "--check", "--out", str(work / f"faults{n}"),
    ]
    return _child(argv, MALLOC_MMAP_THRESHOLD_=str(MMAP_THRESHOLD))[1]


def main(argv: list[str]) -> int:
    mode, n1, n2 = argv[0], int(argv[1]), int(argv[2])
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
