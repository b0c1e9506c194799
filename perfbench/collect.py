"""Repeat the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --workloads stream-id20,certify-poly2 \
        --seeds 1-10 [--trace 0|1] [--seconds S] [--json summary.json]

For each workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread (their
distance as a share of the median) and, for end-to-end metrics, the
bound from BENCHMARK.json. The spread of every bounded metric except
setup_s should stay within its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else 0.0,
        "n": len(values),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--json", type=Path, default=None, help="write the summary here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            took = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["run_s"] = took
            runs.append(result)
            print(f"{workload} seed {seed}: {took:.1f} s, correct={result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
        metrics = {
            name: summarize([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        summary[workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "run_s": summarize([r["run_s"] for r in runs]),
            "metrics": metrics,
        }
        for name, s in metrics.items():
            bound = bounds.get(name) if not args.trace else None
            flag = "" if bound is None else f" bound={bound} {'ok' if s['spread'] <= bound / 3 else 'WIDE'}"
            print(f"  {name:32s} median={s['median']:.6g} q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g} spread={s['spread']:.4f}{flag}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
