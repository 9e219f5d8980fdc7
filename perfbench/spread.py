#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads sweep-weyl --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --traced-seeds 1-3 --out perfbench/baseline.json

For every workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json. Runs are
made one after another, each in a fresh process. With ``--out`` the summary
and the environment (numpy, BLAS, BLAS threads, nproc) are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "n": len(values),
        "values": values,
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--traced-seeds", default="", help="seeds for --trace 1 runs")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {"workloads": {}}
    header = None
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seed_range(args.seeds):
            start = time.perf_counter()
            result, header = _run(workload, seed, args.seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT {result['failed']}/{result['attempted']}")
            runs.append(result)
            print(f"{workload} seed {seed}: "
                  + "  ".join(f"{k} {v['value']:.4f}" for k, v in result["metrics"].items())
                  + f"  ({time.perf_counter() - start:.1f} s wall)", flush=True)
        entry = {
            "end_to_end": {
                name: _summary([r["metrics"][name]["value"] for r in runs])
                for name in runs[0]["metrics"]
            },
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
        }
        for name, s in entry["end_to_end"].items():
            print(f"  {workload:14s} {name:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  "
                  f"q3 {s['q3']:.4f}  spread {s['spread']:.4f}  bound {bounds.get(name)}")
        print(f"  {workload:14s} fail_rate    {entry['failed'] / entry['attempted']:.6g} ratio  "
              f"({entry['failed']} of {entry['attempted']} checked rows failed)", flush=True)
        traced_seeds = _seed_range(args.traced_seeds) if args.traced_seeds else []
        if traced_seeds:
            traced = [_run(workload, seed, args.seconds, 1)[0] for seed in traced_seeds]
            entry["per_layer"] = {
                name: _summary([t["metrics"][name]["value"] for t in traced])
                for name in traced[0]["metrics"]
            }
            entry["traced_failed"] = sum(t["failed"] for t in traced)
        report["workloads"][workload] = entry

    if args.out:
        tokens = header[0].split()  # "workload W  seed S  ...  numpy V  blas B ..."
        env = dict(zip(tokens[::2], tokens[1::2]))
        report["environment"] = {key: env[key] for key in ("numpy", "blas", "blas_threads", "nproc")}
        report["environment"].update(run_seconds=args.seconds, seeds=args.seeds,
                                     traced_seeds=args.traced_seeds)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
