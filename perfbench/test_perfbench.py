"""Smoke tests of the benchmark itself: python3 -m pytest perfbench -q

Each run uses ``--smoke``, which shrinks the workloads (sweep-weyl at d = 2,3,
random-inputs with N = 2, kraus-large-d at d = 4) so the suite takes seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "5",
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    assert any(line.startswith("fail_rate") for line in lines)
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(v for k, v in metrics.items() if k.count(".") == 1 and k.endswith(".self_s"))
        assert layers == pytest.approx(metrics["trace.pass_s"], rel=1e-9)


def _corrupt_csv(data: bytes) -> bytes:
    lines = data.decode("utf-8").splitlines()
    cells = lines[-1].split(",")
    cells[7] = f"{float(cells[7]) - 1e-6:.12g}"  # avg_fidelity of the last row
    lines[-1] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_result_raises_the_fail_rate(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    from workloads import WORKLOADS as classes

    wl = classes[workload](5, True, tmp_path)
    wl.setup()
    wl.run_pass()
    good = wl.collect()
    assert wl.check([good])[1] == 0
    if isinstance(good, bytes):
        bad = _corrupt_csv(good)
    else:
        probs, fids, avg = good
        bad = (probs, np.where(np.arange(fids.size) == 0, fids + 1e-6, fids), avg)
    attempted, failed = wl.check([good, bad])
    assert failed >= 1 and failed / attempted > 0


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
