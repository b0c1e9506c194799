"""`check`'s working set is flat in the trajectory's length.

    PYTHONPATH=src python tests/working_set.py N1 N2

runs identity d=6 at-v* trials of N1 and N2 steps with
--save-trajectories, then `check`s each trajectory in a child process
that reads its own peak resident set (VmHWM in /proc/self/status; a
parent's rusage would count the parent's image too). It prints both
peaks and exits 1 unless they differ by less than SLACK_MIB. Linux
only, for /proc.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# How far apart the two peaks may be. `check` holds O(m) floats whatever
# n is, so only allocator noise separates them (under 0.1 MiB between
# n = 2e4 and 2e5, where whole-array reads differed by 25 MiB).
SLACK_MIB = 1.0

_CHILD = """
import sys
from streamkpca.cli import main
code = main(["check", sys.argv[1], "--out", sys.argv[2]])
with open("/proc/self/status") as status:
    peak = next(line for line in status if line.startswith("VmHWM:"))
print(code, int(peak.split()[1]))
"""


def _env() -> dict[str, str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def check_peak_mib(n: int, work: Path) -> float:
    """The peak resident set of `check` of an identity d=6 at-v* trial
    of n steps, in MiB, written and checked under work."""
    out = work / f"n{n}"
    run = [
        sys.executable, "-m", "streamkpca.cli", "run", "--phi", "identity",
        "--dim", "6", "--n", str(n), "--init", "vstar", "--trials", "1",
        "--save-trajectories", "--seed", "3", "--out", str(out),
    ]
    subprocess.run(run, env=_env(), check=True, stdout=subprocess.DEVNULL)
    csv_path, report = out / "trial_000.csv", work / f"n{n}.json"
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(csv_path), str(report)],
        env=_env(),
        check=True,
        capture_output=True,
        text=True,
    )
    code, peak_kib = child.stdout.splitlines()[-1].split()
    if code != "0":
        raise RuntimeError(f"check of n = {n} exited {code}: {child.stderr}")
    return int(peak_kib) / 1024.0


def main(argv: list[str]) -> int:
    n1, n2 = (int(a) for a in argv)
    with tempfile.TemporaryDirectory() as work:
        peaks = [check_peak_mib(n, Path(work)) for n in (n1, n2)]
    gap = abs(peaks[1] - peaks[0])
    print(
        f"check peak: n={n1} {peaks[0]:.2f} MiB, n={n2} {peaks[1]:.2f} MiB, "
        f"gap {gap:.2f} MiB (slack {SLACK_MIB} MiB)"
    )
    return 0 if gap < SLACK_MIB else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
