"""The traced run: spans around the calls the harness makes into each layer.

One traced pass runs ``harness.run`` in this process with the layer
functions it calls (looked up in the harness module's namespace) wrapped
in spans, so the spans follow the order ``harness.run_trial`` calls them.
It then lifts every sample of each trial's stream once
(``FeatureMapSpec.apply``) and certifies each trajectory the run wrote
with ``harness.check_trajectory_file``, which reads it back
(``read_trajectory``) and runs the checks.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import spans as sp

# Function looked up in the harness module -> span name.
HARNESS_CALLS = {
    "run_trial": "harness.run_trial",
    "make_spiked_stream": "datagen.make_spiked_stream",
    "summarize": "spectral.summarize",
    "compute_alpha_beta": "spectral.compute_alpha_beta",
    "run_stream": "oja.run_stream",
    "run_all_checks": "checks.run_all_checks",
    "write_trajectory": "harness.write_trajectory",
    "write_trajectory_meta": "harness.write_trajectory_meta",
    "read_trajectory": "harness.read_trajectory",
}
# Older or newer harnesses may fold the sidecar into write_trajectory.
OPTIONAL_CALLS = {"write_trajectory_meta"}

_TRIAL_FILE = re.compile(r"trial_(\d+)")


def _trial_of(attr: str, args) -> int | None:
    if attr == "run_trial":
        return int(args[1])
    if "trajectory" in attr:
        match = _TRIAL_FILE.search(Path(args[0]).name)
        return int(match.group(1)) if match else None
    return None


class HarnessProbe:
    """Wraps the harness's layer calls in spans and keeps what the metrics
    need from their results: each trial's stream and each check report."""

    def __init__(self, harness, tracer: sp.Tracer):
        self.harness = harness
        self.tracer = tracer
        self.streams: dict[int, object] = {}
        self.check_statuses: dict[int, list[str]] = {}  # span index -> statuses

    def _wrap(self, attr: str, fn):
        name = HARNESS_CALLS[attr]

        def traced(*args, **kwargs):
            with self.tracer.span(name, _trial_of(attr, args)) as index:
                result = fn(*args, **kwargs)
            if attr == "make_spiked_stream":
                self.streams[self.tracer.spans[index].trial] = result[0]
            elif attr == "run_all_checks":
                self.check_statuses[index] = [e.status for e in result.entries]
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = {}
        try:
            for attr in HARNESS_CALLS:
                if not hasattr(self.harness, attr):
                    if attr in OPTIONAL_CALLS:
                        continue
                    raise RuntimeError(f"harness has no {attr}")
                saved[attr] = getattr(self.harness, attr)
                setattr(self.harness, attr, self._wrap(attr, saved[attr]))
            yield self
        finally:
            for attr, fn in saved.items():
                setattr(self.harness, attr, fn)


@dataclass
class TracedPass:
    tracer: sp.Tracer
    probe: HarnessProbe
    report: dict  # what harness.run returned
    run_root: int  # the harness.run span
    check_roots: list[int]  # one harness.check_trajectory_file span per CSV
    csvs: list[Path]
    check_reports: list  # what harness.check_trajectory_file returned


def traced_pass(streamkpca, config, out_dir: Path) -> TracedPass:
    harness = streamkpca.harness
    tracer = sp.Tracer()
    probe = HarnessProbe(harness, tracer)
    with probe.installed():
        with tracer.span("harness.run") as run_root:
            report = harness.run(config, out_dir=str(out_dir))
        for trial, xs in sorted(probe.streams.items()):
            with tracer.span("featuremaps.apply", trial):
                for x in xs:
                    config.feature_map.apply(x)
        csvs = sorted(out_dir.glob("trial_*.csv"))
        check_roots, check_reports = [], []
        for path in csvs:
            trial = int(_TRIAL_FILE.search(path.name).group(1))
            with tracer.span("harness.check_trajectory_file", trial) as root:
                check_reports.append(harness.check_trajectory_file(path))
            check_roots.append(root)
    missing = [
        name
        for attr, name in HARNESS_CALLS.items()
        if attr not in OPTIONAL_CALLS and not any(s.name == name for s in tracer.spans)
    ]
    if missing:
        raise RuntimeError(f"the traced pass never called {', '.join(missing)}")
    return TracedPass(
        tracer, probe, report, run_root, check_roots, csvs, check_reports
    )


def layer_metrics(p: TracedPass, checks_from_certify: bool) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    ``checks_from_certify`` picks which ``run_all_checks`` calls are the
    workload's: those made while certifying the written files (the
    ``check`` path) or those made inside ``harness.run`` (``run --check``).
    """
    spans = p.tracer.spans
    in_run = [p.run_root]

    def run_total(name: str) -> float:
        return sp.total(spans, name, in_run)

    summarize = run_total("spectral.summarize")
    alpha_beta = run_total("spectral.compute_alpha_beta")
    run_stream = run_total("oja.run_stream")
    steps = sum(len(xs) for xs in p.probe.streams.values())
    lift = sum(s.duration for s in spans if s.name == "featuremaps.apply")
    check_scope = p.check_roots if checks_from_certify else in_run
    in_scope = {i for root in check_scope for i in sp.descendants(spans, root)}
    statuses = [
        status
        for index, found in p.probe.check_statuses.items()
        if index in in_scope
        for status in found
    ]
    return {
        "datagen.make_spiked_stream_s": run_total("datagen.make_spiked_stream"),
        "featuremaps.apply_s": lift,
        "featuremaps.apply_us": 1e6 * lift / steps,
        "spectral.summarize_s": summarize,
        "spectral.compute_alpha_beta_s": alpha_beta,
        "spectral.oracle_share": (summarize + alpha_beta)
        / sp.trial_time(spans, p.run_root),
        "oja.run_stream_s": run_stream,
        "oja.step_us": 1e6 * run_stream / steps,
        "oja.steps": steps,
        "checks.run_all_checks_s": sp.total(
            spans, "checks.run_all_checks", check_scope
        ),
        "checks.pass": statuses.count("pass"),
        "checks.vacuous": statuses.count("vacuous"),
        "checks.total": len(statuses),
        "harness.write_trajectory_s": run_total("harness.write_trajectory")
        + run_total("harness.write_trajectory_meta"),
        "harness.read_trajectory_s": sp.total(
            spans, "harness.read_trajectory", p.check_roots
        ),
        "harness.csv_bytes": sum(path.stat().st_size for path in p.csvs),
        "harness.run_self_s": sp.self_times(spans)[p.run_root],
    }
