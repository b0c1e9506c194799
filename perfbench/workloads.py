"""The benchmark's workloads. Why each was chosen is recorded in
BENCHMARK.json; which end-to-end metric each layer should move, in
README.md.

A workload's program arguments never carry a seed or an output path:
the benchmark appends ``--seed`` (from its own ``--seed``) and ``--out``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run": time `streamkpca run`; "certify": time `streamkpca check`
    run_args: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="oracle-rff128",
            kind="run",
            run_args=(
                "--phi", "rff", "--dim", "16", "--feature-dim", "128",
                "--bandwidth", "4", "--n", "2000", "--ratio", "20",
                "--trials", "1", "--check",
            ),
        ),
        Workload(
            name="stream-id20",
            kind="run",
            run_args=(
                "--phi", "identity", "--dim", "20", "--n", "20000",
                "--ratio", "20", "--trials", "2", "--check",
            ),
        ),
        Workload(
            name="certify-poly2",
            kind="certify",
            run_args=(
                "--phi", "poly2", "--dim", "12", "--n", "20000",
                "--init", "vstar", "--trials", "1", "--check",
            ),
        ),
    )
}

