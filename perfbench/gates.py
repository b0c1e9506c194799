"""Correctness gates: each returns a list of failure messages, empty when
the program's outputs are right."""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

REL_TOL = 1e-9


def file_digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every file in ``directory``, keyed by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(directory).iterdir())
        if p.is_file()
    }


def directory_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())


def rerun_failures(first: dict[str, str], again: dict[str, str]) -> list[str]:
    """A rerun with the same seed and output path must write identical bytes."""
    if first.keys() != again.keys():
        return [f"rerun wrote files {sorted(again)}, first run {sorted(first)}"]
    return [f"rerun changed {name}" for name in first if first[name] != again[name]]


def eigh_reference(streamkpca, config) -> list[tuple[float, float]]:
    """(lambda_1, lambda_2) of F^T F for each trial, by numpy.linalg.eigh.

    F stacks the lifted samples of the trial's stream, regenerated from
    the same per-trial seeds the harness uses.
    """
    harness, datagen = streamkpca.harness, streamkpca.datagen
    out = []
    for trial in range(config.trials):
        sample_seed, _ = harness.trial_seeds(config, trial)
        xs, _ = datagen.make_spiked_stream(
            replace(config.generator, sample_seed=sample_seed)
        )
        f = np.array([config.feature_map.apply(x) for x in xs])
        w = np.linalg.eigh(f.T @ f)[0]
        out.append((float(w[-1]), float(w[-2])))
    return out


def _rel_err(got, want: float) -> float:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return math.inf
    return abs(got - want) / abs(want)


def report_failures(report: dict, reference: list[tuple[float, float]]) -> list[str]:
    """Gates on one run's report.json: no aborted trial, no failed check,
    and each trial's oracle output agreeing with the eigh reference."""
    out = []
    agg = report["aggregate"]
    if agg["aborted"] != 0:
        out.append(f"{agg['aborted']} trial(s) aborted")
    if agg["check_failure_count"] != 0:
        out.append(f"check failures in {agg['check_failure_count']} trial(s)")
    trials = report["trials"]
    if len(trials) != len(reference):
        out.append(f"report has {len(trials)} trials, expected {len(reference)}")
    for t, (lam1, lam2) in zip(trials, reference):
        eta = t["eta"]
        want = {"beta": eta * lam1, "alpha": eta * lam2, "ratio": lam1 / lam2}
        for key, value in want.items():
            err = _rel_err(t[key], value)
            if not err <= REL_TOL:
                out.append(
                    f"trial {t['trial']}: {key}={t[key]!r} is {err:.3g} "
                    f"relative from the eigh reference {value!r}"
                )
    return out
