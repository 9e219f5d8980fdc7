#!/usr/bin/env python3
"""Benchmark of the qudit_teleport simulator.

    python3 perfbench/run.py --workload sweep-weyl --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation:
set-up time over several fresh interpreters, the median pass time, peak
RSS, and the failure rate of the correctness check. ``--trace 1`` wraps the
public functions of every module, alternates traced and untraced passes and
reports per-layer metrics plus the tracing overhead. Every line before the
last is for people; the last line is one JSON object for tools.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
SETUP_PROBES = 9

# BLAS reads these once, at load; they must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "channels.fanout_a1.s": "s",
    "channels.fanout_a2.s": "s",
    "channels.fanout.kraus_applications": "count",
    "channels.fanout.branches_out": "count",
    "channels.fanout.kept_ratio": "ratio",
    "channels.fanout.bytes_out": "B",
    "protocol.enumerate_outcomes.s": "s",
    "protocol.enumerate_outcomes.receivers_bytes": "B",
    "protocol.enumerate_outcomes.mixed_fraction": "ratio",
    "protocol.run_protocol.calls": "count",
    "protocol.run_protocol.self_s": "s",
    "protocol.compose_initial.s": "s",
    "protocol.derived_exact_correction.s": "s",
    "measurement.measurement_rows.s": "s",
    "measurement.measurement_rows.bytes": "B",
    "linalg.pure_fidelity.calls": "count",
    "linalg.pure_fidelity.s": "s",
    "states.random_pure_state.s": "s",
    "states.bell_state.s": "s",
    "cli.run_sweep.self_s": "s",
    "cli.emit.s": "s",
    "cli.emit.bytes": "B",
    "bench.self_s": "s",
    "cli.self_s": "s",
    "protocol.self_s": "s",
    "channels.self_s": "s",
    "measurement.self_s": "s",
    "linalg.self_s": "s",
    "states.self_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_frac": "ratio",
}


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep-weyl", "random-inputs", "kraus-large-d"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed window of passes")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload so the benchmark's own tests run fast")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _require_sources() -> None:
    needed = (ROOT / "src" / "qudit_teleport" / "__init__.py", ROOT / "tests" / "dm_reference.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: run from a checkout of the repository; missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _setup_samples(args) -> list[float]:
    """Wall seconds from spawning a fresh interpreter to the workload being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        samples.append(elapsed)
    return samples


def _blas_name() -> str:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")
        return info["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None) -> int:
    args = _parse_args(argv)
    _require_sources()

    from workloads import WORKLOADS

    workdir = HERE / "out" / f"tmp-{os.getpid()}"
    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, args.smoke, workdir).setup()
        print("ready", flush=True)
        return 0

    import numpy as np
    import tracing

    setup = [] if args.trace else _setup_samples(args)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        tracer = tracing.Tracer()
        inst = tracing.Instrumentation(tracer) if args.trace else None
        if inst:
            inst.install()
            with tracer.root("bench.setup", "setup"):
                workload.setup()
            inst.remove()
        else:
            workload.setup()

        outputs, untraced, traced, traced_ids = [], [], [], []
        window_start = time.perf_counter()
        k = 0
        while True:
            use_trace = inst is not None and k % 2 == 1
            if use_trace:
                inst.install()
                start = time.perf_counter()
                with tracer.root("bench.pass", k):
                    workload.run_pass()
                traced.append(time.perf_counter() - start)
                inst.remove()
                traced_ids.append(k)
            else:
                start = time.perf_counter()
                workload.run_pass()
                untraced.append(time.perf_counter() - start)
            outputs.append(workload.collect())
            k += 1
            if time.perf_counter() - window_start >= args.seconds and (inst is None or traced):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        attempted, failed = workload.check(outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"numpy {np.__version__}  blas {_blas_name()}  blas_threads {BLAS_THREADS}  "
          f"nproc {NPROC}")
    if inst:
        metrics = tracing.layer_metrics(tracer, traced_ids, untraced)
        units = PER_LAYER_UNITS
        spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        for name in units:
            print(f"{name:46s} {metrics[name]:.6g} {units[name]}")
        print(f"traced passes {len(traced)}, untraced passes {len(untraced)}; "
              f"spans in {spans_path.relative_to(ROOT)}")
    else:
        q1, pass_s, q3 = _quartiles(untraced)
        s1, setup_s, s3 = _quartiles(setup)
        metrics = {"pass_s": pass_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
        print(f"pass_s       {pass_s:.4f} s   median of {len(untraced)} passes, "
              f"q1 {q1:.4f}, q3 {q3:.4f}")
        print(f"setup_s      {setup_s:.4f} s   median of {len(setup)} fresh interpreters, "
              f"q1 {s1:.4f}, q3 {s3:.4f}")
        print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
        print("pass times   " + " ".join(f"{t:.3f}" for t in untraced))
    print(f"fail_rate    {failed / attempted:.6g} ratio   {failed} of {attempted} checked rows failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
