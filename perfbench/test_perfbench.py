"""Tests of the benchmark's own arithmetic and gates.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json

import pytest

import gates
import hostspeed
import layers
import run
import spans as sp
from workloads import Workload

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tree() -> list[sp.Span]:
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9]
    return [
        sp.Span("root", 0.0, 10.0),
        sp.Span("a", 1.0, 4.0, parent=0, trial=0),
        sp.Span("a1", 2.0, 3.0, parent=1, trial=0),
        sp.Span("b", 5.0, 9.0, parent=0, trial=1),
    ]


class TestSpans:
    def test_self_times_of_nested_spans(self):
        assert sp.self_times(_tree()) == [3.0, 2.0, 1.0, 4.0]

    def test_overlapping_children_are_covered_once(self):
        assert sp.covered([(1.0, 4.0), (2.0, 6.0), (8.0, 12.0)], 0.0, 10.0) == 7.0

    def test_totals_and_trial_time(self):
        spans = _tree()
        assert sp.total(spans, "a1", [0]) == 1.0
        assert sp.total(spans, "a1", [3]) == 0.0
        # a1 sits inside a, which belongs to the same trial: counted once
        assert sp.trial_time(spans, 0) == 3.0 + 4.0

    def test_tracer_records_parent_and_inherits_trial(self):
        ticks = iter(range(100))
        tracer = sp.Tracer(clock=lambda: float(next(ticks)))
        with tracer.span("run"):
            with tracer.span("trial", trial=7):
                with tracer.span("layer"):
                    pass
        run_, trial, layer = tracer.spans
        assert (trial.parent, layer.parent, layer.trial) == (0, 1, 7)
        assert (run_.duration, trial.duration, layer.duration) == (5.0, 3.0, 1.0)


def _report(alpha=0.2, beta=4.0, ratio=20.0, aborted=0, failures=0) -> dict:
    return {
        "aggregate": {"aborted": aborted, "check_failure_count": failures},
        "trials": [
            {"trial": 0, "eta": 0.1, "alpha": alpha, "beta": beta, "ratio": ratio}
        ],
    }


class TestGates:
    reference = [(40.0, 2.0)]  # eta * 40 = beta, eta * 2 = alpha, 40 / 2 = ratio

    def test_fixed_report_passes(self):
        assert gates.report_failures(_report(), self.reference) == []

    @pytest.mark.parametrize(
        "report",
        [
            _report(alpha=0.2 * (1 + 1e-8)),
            _report(beta="inf"),
            _report(ratio=None),
            _report(aborted=1),
            _report(failures=1),
        ],
    )
    def test_each_gate_fails_alone(self, report):
        assert len(gates.report_failures(report, self.reference)) == 1

    def test_rerun_digests(self):
        first = {"report.json": "a", "trial_000.csv": "b"}
        assert gates.rerun_failures(first, dict(first)) == []
        assert gates.rerun_failures(first, {**first, "trial_000.csv": "c"})
        assert gates.rerun_failures(first, {"report.json": "a"})


def test_end_to_end_metrics_from_fixed_ops():
    ops = [
        run.Op([(0.0, 2.0)], rss_mib=100.0, artifact_bytes=2**20, samples=1000),
        run.Op([(2.0, 6.0)], rss_mib=120.0, artifact_bytes=2**20, samples=1000),
        run.Op(
            [(6.0, 7.0), (8.0, 9.5)], rss_mib=110.0, artifact_bytes=2**20, samples=1000
        ),
    ]
    setups = [(-1.0, -0.7), (-0.7, -0.6), (-0.6, -0.4)]

    def half_speed(start, end):  # the host ran at half the reference speed
        return 0.5

    metrics = run.end_to_end_metrics(setups, ops, half_speed, attempted=8, failed=2)
    assert metrics == pytest.approx({
        "setup_s": 0.1,
        "wall_s": 1.25,
        "samples_per_s": 800.0,
        "peak_rss_mib": 110.0,
        "artifact_mib": 1.0,
        "ok_rate": 0.75,
    })
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]


def test_host_speed_scale_uses_the_ticks_inside_an_interval():
    sampler = hostspeed.Sampler()
    ref = hostspeed.REFERENCE_S
    # (start, end, CPU time): the second tick was preempted for 0.5 s
    sampler.ticks = [(0.0, ref, ref), (1.0, 1.5, 2 * ref), (2.0, 2.0 + 4 * ref, 4 * ref)]
    assert sampler.scale(0.5, 3.0) == pytest.approx(1 / 3)  # mean tick 3 * ref
    assert sampler.scale(-1.0, 3.0) == pytest.approx(3 / 7)
    # no tick fits inside: the nearest one
    assert sampler.scale(1.6, 1.7) == pytest.approx(0.25)


def test_layer_metrics_of_a_fixed_pass(tmp_path):
    csv = tmp_path / "trial_000.csv"
    csv.write_bytes(b"x" * 123)
    tracer = sp.Tracer()
    tracer.spans = [
        sp.Span("harness.run", 0.0, 10.0),
        sp.Span("harness.run_trial", 0.0, 8.0, parent=0, trial=0),
        sp.Span("datagen.make_spiked_stream", 0.0, 1.0, parent=1, trial=0),
        sp.Span("spectral.summarize", 1.0, 4.0, parent=1, trial=0),
        sp.Span("spectral.compute_alpha_beta", 4.0, 5.0, parent=1, trial=0),
        sp.Span("oja.run_stream", 5.0, 7.0, parent=1, trial=0),
        sp.Span("checks.run_all_checks", 7.0, 7.5, parent=1, trial=0),
        sp.Span("harness.write_trajectory", 8.0, 9.5, parent=0, trial=0),
        sp.Span("featuremaps.apply", 10.0, 10.5, trial=0),
        sp.Span("harness.check_trajectory_file", 11.0, 14.0, trial=0),
        sp.Span("harness.read_trajectory", 11.0, 13.0, parent=9, trial=0),
        sp.Span("checks.run_all_checks", 13.0, 13.75, parent=9, trial=0),
    ]
    probe = layers.HarnessProbe(harness=None, tracer=tracer)
    probe.streams = {0: [None] * 1000}
    probe.check_statuses = {6: ["pass", "vacuous"], 11: ["pass", "fail", "pass"]}
    p = layers.TracedPass(tracer, probe, {}, 0, [9], [csv], [])

    run_side = layers.layer_metrics(p, checks_from_certify=False)
    assert run_side["spectral.oracle_share"] == pytest.approx(4.0 / 9.5)
    assert run_side["oja.step_us"] == pytest.approx(2000.0)
    assert run_side["featuremaps.apply_us"] == pytest.approx(500.0)
    assert run_side["harness.run_self_s"] == pytest.approx(0.5)
    assert run_side["harness.write_trajectory_s"] == pytest.approx(1.5)
    assert run_side["harness.read_trajectory_s"] == pytest.approx(2.0)
    assert run_side["harness.csv_bytes"] == 123
    assert (run_side["checks.run_all_checks_s"], run_side["checks.total"]) == (0.5, 2)

    certify_side = layers.layer_metrics(p, checks_from_certify=True)
    assert certify_side["checks.run_all_checks_s"] == 0.75
    assert (certify_side["checks.pass"], certify_side["checks.total"]) == (2, 3)

    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    assert declared == set(run_side) | {"cli.startup_s", "trace.overhead_s"}


def test_tampered_trajectory_counts_as_a_failure(tmp_path):
    tiny = Workload(
        name="tiny-certify",
        kind="certify",
        run_args=(
            "--phi", "poly2", "--dim", "3", "--n", "40",
            "--init", "vstar", "--trials", "1", "--check",
        ),
    )
    bench = run.Bench(run.load_program(), tiny, seed=3, out_root=tmp_path)
    bench.setup()
    bench.timed_op()
    assert (bench.failures, bench.attempted) == ([], 3)

    csv = bench.out / "trial_000.csv"
    lines = csv.read_text(encoding="utf-8").split("\n")
    cells = lines[5].split(",")
    cells[1] = repr(1.5 * float(cells[1]))  # the s column of step 4
    lines[5] = ",".join(cells)
    csv.write_text("\n".join(lines), encoding="utf-8")

    op = bench.timed_op()
    assert bench.attempted == 4 and len(bench.failures) == 1
    assert "check trial_000.csv" in bench.failures[0]
    assert op.samples == 40
