"""Repeat ``run.py`` over seeds and summarise each metric's spread.

Usage (from the repository root)::

    python3 perfbench/sweep.py --workloads all --seeds 1-10 --trace 0 --out sweep.json

Runs one benchmark run per (workload, seed), one at a time, and reports
for every metric the sample count, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
the quantity the benchmark's bounds are set against.  ``--seconds``
defaults to ``run_seconds`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    names = (
        [w["name"] for w in spec["workloads"]]
        if args.workloads == "all"
        else args.workloads.split(",")
    )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in args.seeds:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            brief = " ".join(f"{m}={e['value']:.4g}" for m, e in result["metrics"].items())
            print(f"{name} seed={seed} correct={result['correct']} {brief}", file=sys.stderr)
        summary = {metric: summarise(v) for metric, v in values.items()}
        report["workloads"][name] = {
            "attempted": attempted,
            "failed": failed,
            "metrics": summary,
        }
        for metric, s in summary.items():
            bound = bounds.get(metric)
            flag = "" if bound is None else f"  bound {bound}" + ("  OVER" if s["spread"] > bound else "")
            print(
                f"{name:16s} {metric:36s} n={s['n']:<3d} median={s['median']:.6g} "
                f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f}{flag}"
            )
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
