"""Neither a run's working set nor `check`'s grows with n.

    PYTHONPATH=src python tests/working_set.py check N1 N2
    PYTHONPATH=src python tests/working_set.py run N1 N2
    PYTHONPATH=src python tests/working_set.py run-check N1 N2

Each mode measures one command at N1 and N2 steps in a child process
that reads its own peak resident set (VmHWM in /proc/self/status; a
parent's rusage would count the parent's image too), prints both peaks
and exits 1 unless they differ by less than SLACK_MIB:

  * check: `check` of an identity d=6 at-v* trial saved by
    --save-trajectories.
  * run: `run` of an identity d=RUN_DIM at-v* trial, which replays its
    stream from the seed once for the oracle and once for the Oja pass.
  * run-check: the same trial under `run --check`. Both n must exceed a
    few units of run_stream (unit_rows(RUN_DIM) = 5632 steps), since its
    unit buffer fills up to about 1 MiB first.

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

# The input dimension of the run modes' identity map.
RUN_DIM = 20

_CHILD = """
import sys
from streamkpca.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    peak = next(line for line in status if line.startswith("VmHWM:"))
print(code, int(peak.split()[1]))
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


def _child_peak_mib(argv: list[str]) -> float:
    """The peak resident set, in MiB, of a child running the CLI on argv,
    which must exit 0."""
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv],
        env=_env(),
        check=True,
        capture_output=True,
        text=True,
    )
    code, peak_kib = child.stdout.splitlines()[-1].split()
    if code != "0":
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {child.stderr}")
    return int(peak_kib) / 1024.0


def check_peak_mib(n: int, work: Path) -> float:
    """The peak resident set of `check` of an identity d=6 at-v* trial
    of n steps, in MiB, written and checked under work."""
    out = work / f"n{n}"
    run = [sys.executable, "-m", "streamkpca.cli", *_run_args(6, n, out, "--save-trajectories")]
    subprocess.run(run, env=_env(), check=True, stdout=subprocess.DEVNULL)
    return _child_peak_mib(["check", str(out / "trial_000.csv"), "--out", str(work / f"n{n}.json")])


def run_peak_mib(n: int, work: Path) -> float:
    """The peak resident set of `run` of an identity d=RUN_DIM at-v*
    trial of n steps, in MiB, written under work."""
    return _child_peak_mib(_run_args(RUN_DIM, n, work / f"run{n}"))


def run_check_peak_mib(n: int, work: Path) -> float:
    """run_peak_mib's trial under `run --check`."""
    return _child_peak_mib(_run_args(RUN_DIM, n, work / f"run-check{n}", "--check"))


def main(argv: list[str]) -> int:
    mode, n1, n2 = argv[0], int(argv[1]), int(argv[2])
    measure = {
        "check": check_peak_mib, "run": run_peak_mib, "run-check": run_check_peak_mib
    }[mode]
    with tempfile.TemporaryDirectory() as work:
        peaks = [measure(n, Path(work)) for n in (n1, n2)]
    gap = peaks[1] - peaks[0]
    print(
        f"{mode} peak: n={n1} {peaks[0]:.2f} MiB, n={n2} {peaks[1]:.2f} MiB, "
        f"gap {gap:.2f} MiB (slack {SLACK_MIB} MiB)"
    )
    return 0 if abs(gap) < SLACK_MIB else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
