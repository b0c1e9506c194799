"""streamkpca benchmark: drives the real `streamkpca` CLI, one process at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``, so nothing needs installing. Every child runs with BLAS
threads pinned to 1 and glibc's mmap threshold fixed (see MALLOC_ENV).
Outputs go under ``.bench_out/<workload>/``.

``--trace 0`` sets the workload up SETUPS times (setup_s is the
median), then repeats the workload's timed operation for about
``--seconds`` (at least three times) and reports the end-to-end
metrics. An operation is one ``streamkpca run`` for a run workload, one
``streamkpca check`` of every fixture trajectory for a certify workload.
Times are scaled to a reference host speed, measured while they run by
the sampler in ``hostspeed.py``.

``--trace 1`` sets up once, then for about ``--seconds`` (at least three
times) times one untraced operation followed by one traced in-process
pass (see ``layers.py``), and reports medians of the per-layer metrics.
The spans of every pass are written to ``spans.json`` when the
benchmark ends.

Every operation passes through the correctness gates in ``gates.py``;
``attempted`` counts the child processes and traced passes, ``failed``
those that broke a gate, and each failure is printed to stderr. The last
line of standard output is the JSON result. Exit status is 2, with no
result, when the checkout holds no program to measure.
"""

from __future__ import annotations

import os

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy loads, for the in-process layers

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gates  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import spans as sp  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUPS = 3
MIN_OPS = 3
STARTUP_PROBES = 3
CHILD_TIMEOUT_S = 150.0
IMPORT_ONLY = ("-c", "import streamkpca.cli")


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import streamkpca from this checkout's src/, and nothing else."""
    if not (SRC / "streamkpca" / "cli.py").is_file():
        raise ProgramMissing(f"no program to measure: {SRC / 'streamkpca'} is missing")
    sys.path.insert(0, str(SRC))
    import streamkpca
    import streamkpca.cli
    import streamkpca.datagen
    import streamkpca.harness

    if Path(streamkpca.__file__).resolve().parent != SRC / "streamkpca":
        raise ProgramMissing(f"imported streamkpca from {streamkpca.__file__}")
    return streamkpca


# glibc raises its mmap threshold after the first large free, so whether a
# later trial's CSV text lands on the heap (and stays resident) would depend
# on the order of the trials' file sizes. Pinning the threshold at glibc's
# initial default keeps peak RSS a function of the work, not of that order.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV, **MALLOC_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return env


@dataclass
class Child:
    exit: int
    start: float  # time.perf_counter() at spawn
    wall_s: float
    rss_mib: float
    log: Path  # the child's stdout and stderr


def spawn(args, log: Path) -> Child:
    """Run ``python args`` from the checkout root; wall time and peak RSS."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            cwd=ROOT,
            env=child_env(),
            stdout=sink,
            stderr=subprocess.STDOUT,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Child(proc.returncode, start, wall, usage.ru_maxrss / 1024.0, log)


@dataclass
class Op:
    """One timed operation of a workload."""

    intervals: list[tuple[float, float]]  # (start, end) of each child process
    rss_mib: float
    artifact_bytes: int
    samples: int  # stream samples processed, or trajectory rows certified

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.intervals)


def scaled_s(intervals: list[tuple[float, float]], scale) -> float:
    """Time spent in ``intervals`` at the reference host speed;
    ``scale(start, end)`` is hostspeed.Sampler.scale."""
    return sum((end - start) * scale(start, end) for start, end in intervals)


def end_to_end_metrics(
    setups: list[tuple[float, float]],
    ops: list[Op],
    scale,
    attempted: int,
    failed: int,
) -> dict[str, float]:
    """Medians over the run's set-ups and operations, each timed interval
    scaled to the reference host speed by ``scale`` (see hostspeed.py)."""
    wall = statistics.median(scaled_s(op.intervals, scale) for op in ops)
    return {
        "setup_s": statistics.median(scaled_s([s], scale) for s in setups),
        "wall_s": wall,
        "samples_per_s": ops[0].samples / wall,
        "peak_rss_mib": statistics.median(op.rss_mib for op in ops),
        "artifact_mib": statistics.median(op.artifact_bytes for op in ops) / 2**20,
        "ok_rate": 1.0 - failed / attempted,
    }


class Bench:
    def __init__(self, streamkpca, workload: Workload, seed: int, out_root: Path = OUT):
        self.sk = streamkpca
        self.w = workload
        self.dir = out_root / workload.name
        self.out = self.dir / "out"  # run outputs, or the certify fixture
        self.checks = self.dir / "checks"
        self.logs = self.dir / "logs"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.logs.mkdir(parents=True)
        cli = streamkpca.cli
        self.run_argv = [
            "run", *workload.run_args, "--seed", str(seed), "--out", self._rel(self.out)
        ]
        self.config = cli.config_from_args(cli.build_parser().parse_args(self.run_argv))
        self.reference = None
        self.digests = None
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict = {}  # the figures each metric is computed from
        self._children = 0

    @staticmethod
    def _rel(path: Path) -> str:
        """``path`` as the CLI sees it: relative to the checkout root, so that
        report.json, which embeds the output path, is the same in any checkout."""
        return os.path.relpath(path, ROOT)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            message = f"{self.w.name}: {what}: {'; '.join(problems)}"
            self.failures.append(message)
            print(message, file=sys.stderr)

    def spawn(self, args) -> Child:
        self._children += 1
        return spawn(args, self.logs / f"child_{self._children:03d}.log")

    def cli(self, argv) -> Child:
        return self.spawn(["-m", "streamkpca.cli", *argv])

    @staticmethod
    def _exit_problems(child: Child) -> list[str]:
        if child.exit == 0:
            return []
        tail = child.log.read_text(errors="replace").strip().splitlines()[-2:]
        return [f"exit {child.exit}: {' | '.join(tail)}"]

    # -- set-up ------------------------------------------------------------

    def startup(self) -> Child:
        child = self.spawn(IMPORT_ONLY)
        self.record("import streamkpca.cli", self._exit_problems(child))
        return child

    def _run_gates(self, child: Child) -> list[str]:
        """Gates on a finished `streamkpca run` into self.out."""
        problems = self._exit_problems(child)
        if problems:
            return problems
        report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
        problems += gates.report_failures(report, self.reference)
        digests = gates.file_digests(self.out)
        if self.digests is None:
            self.digests = digests
        else:
            problems += gates.rerun_failures(self.digests, digests)
        return problems

    def setup(self) -> None:
        """Warm the program's import, compute the eigh reference and, for a
        certify workload, write the fixture trajectories with `run`."""
        self.startup()
        self.reference = gates.eigh_reference(self.sk, self.config)
        if self.w.kind == "certify":
            shutil.rmtree(self.out, ignore_errors=True)
            child = self.cli(self.run_argv)
            self.record("fixture run", self._run_gates(child))

    # -- timed operations --------------------------------------------------

    def timed_op(self) -> Op:
        if self.w.kind == "certify":
            return self._certify_op()
        shutil.rmtree(self.out, ignore_errors=True)
        child = self.cli(self.run_argv)
        self.record("run", self._run_gates(child))
        size = gates.directory_bytes(self.out) if self.out.is_dir() else 0
        samples = self.config.trials * self.config.generator.n
        interval = (child.start, child.start + child.wall_s)
        return Op([interval], child.rss_mib, size, samples)

    def _certify_op(self) -> Op:
        """`streamkpca check` of every fixture trajectory, each output compared
        with the checks.json that `run --check` wrote for it."""
        shutil.rmtree(self.checks, ignore_errors=True)
        self.checks.mkdir()
        intervals, rss, size, rows = [], 0.0, 0, 0
        for csv in sorted(self.out.glob("trial_*.csv")):
            target = self.checks / f"{csv.stem}.checks.json"
            child = self.cli(["check", self._rel(csv), "--out", self._rel(target)])
            problems = self._exit_problems(child)
            if not problems:
                expected = (self.out / f"{csv.stem}.checks.json").read_bytes()
                if target.read_bytes() != expected:
                    problems.append("differs from the checks.json `run --check` wrote")
                size += target.stat().st_size
            self.record(f"check {csv.name}", problems)
            intervals.append((child.start, child.start + child.wall_s))
            rss = max(rss, child.rss_mib)
            rows += self.config.generator.n
        if rows == 0:
            self.record("check", ["no fixture trajectory to certify"])
        return Op(intervals, rss, size, rows)

    def repeat(self, seconds: float, body) -> list:
        """Run ``body`` at least MIN_OPS times and while another one still
        fits in ``seconds``; returns the results."""
        out, durations = [], []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            out.append(body())
            durations.append(time.perf_counter() - t)
            elapsed = time.perf_counter() - start
            if len(out) >= MIN_OPS and elapsed + statistics.median(durations) > seconds:
                return out

    # -- the two kinds of run ----------------------------------------------

    def end_to_end(self, seconds: float) -> dict[str, float]:
        """Set-ups and operations run on one CPU, with the host-speed
        sampler ticking on it throughout."""
        hostspeed.pin_to_one_cpu()
        with hostspeed.Sampler() as sampler:
            setups = []
            for _ in range(SETUPS):
                start = time.perf_counter()
                self.setup()
                setups.append((start, time.perf_counter()))
            ops = self.repeat(seconds, self.timed_op)
        scale = sampler.scale
        self.samples = {
            "setup_s": [end - start for start, end in setups],
            "setup_scale": [scale(*s) for s in setups],
            "ops": [
                {
                    "wall_s": op.wall_s,
                    "scaled_s": scaled_s(op.intervals, scale),
                    "rss_mib": op.rss_mib,
                    "artifact_bytes": op.artifact_bytes,
                }
                for op in ops
            ],
            "tick_s": [cpu for _, _, cpu in sampler.ticks],
        }
        return end_to_end_metrics(setups, ops, scale, self.attempted, len(self.failures))

    def per_layer(self, seconds: float) -> tuple[dict[str, float], list]:
        """Each iteration times one untraced operation, then one traced pass;
        trace.overhead_s is the traced total minus that untraced wall_s."""
        self.setup()
        startup = statistics.median(self.startup().wall_s for _ in range(STARTUP_PROBES))
        certify = self.w.kind == "certify"
        trace_dir = self.dir / "trace"

        def iteration():
            untraced = self.timed_op().wall_s
            shutil.rmtree(trace_dir, ignore_errors=True)
            p = layers.traced_pass(self.sk, self.config, trace_dir)
            problems = gates.report_failures(p.report, self.reference)
            problems += [
                f"{csv.name}: a check failed"
                for csv, report in zip(p.csvs, p.check_reports)
                if not report.ok
            ]
            self.record("traced pass", problems)
            figures = layers.layer_metrics(p, checks_from_certify=certify)
            figures["cli.startup_s"] = startup
            if certify:
                roots = [p.tracer.spans[r].duration for r in p.check_roots]
                traced_total = sum(roots) + startup * len(roots)
            else:
                traced_total = p.tracer.spans[p.run_root].duration + startup
            figures["trace.overhead_s"] = traced_total - untraced
            return figures, p.tracer.spans

        passes = self.repeat(seconds, iteration)
        self.samples = {"passes": [figures for figures, _ in passes]}
        metrics = {
            name: statistics.median(figures[name] for figures, _ in passes)
            for name in passes[0][0]
        }
        return metrics, [pass_spans for _, pass_spans in passes]


def machine_info() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_ENV,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            info[f"l{level}_size"] = (index / "size").read_text().strip()
        except OSError:
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        info["blas"] = None
    return info


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        streamkpca = load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = declared()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    workload = WORKLOADS[args.workload]
    bench = Bench(streamkpca, workload, args.seed)
    if args.trace:
        metrics, passes = bench.per_layer(args.seconds)
        sp.write(bench.dir / "spans.json", passes)
    else:
        metrics = bench.end_to_end(args.seconds)
    if metrics.keys() != units.keys():
        raise RuntimeError(
            f"measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}"
        )
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    context = {
        "workload": workload.name,
        "why": why[workload.name],
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_info(),
    }
    (bench.dir / "result.json").write_text(
        json.dumps(
            {**context, "failures": bench.failures, "samples": bench.samples, **result},
            indent=2,
        ) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
