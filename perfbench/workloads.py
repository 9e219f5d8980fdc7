"""The benchmark's workloads: set-up, one timed pass, and the correctness check.

Every workload goes through the public API of qudit_teleport only. Module
attributes are looked up at call time (``cli.main``, ``protocol.run_protocol``)
so that the tracing wrappers, when installed, see every call.
"""

from __future__ import annotations

import csv
import io
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np

from qudit_teleport import channels, cli, protocol, states

HERE = Path(__file__).resolve().parent
REFERENCE_CSV = HERE / "reference" / "sweep-weyl.csv"

FIDELITY_COLUMNS = ("avg_fidelity", "min_outcome_fidelity")
CSV_FIDELITY_TOL = Decimal("1e-12")  # on the printed 12-significant-digit values
DM_TOL = 1e-9
PROB_SUM_TOL = 1e-10
REPEAT_TOL = 1e-12


def _warm(dims) -> None:
    """Fill the first-use caches (measurement rows, correction tables)."""
    for d in dims:
        protocol.run_protocol(
            protocol.ProtocolConfig(d=d, input_state=states.uniform_state(d))
        )


def _dm_reference():
    """The independent density-matrix reference from the repository's tests."""
    tests_dir = str(HERE.parent / "tests")
    if tests_dir not in sys.path:
        sys.path.insert(0, tests_dir)
    import dm_reference

    return dm_reference.run_protocol_dm


def _parse_csv(data: bytes) -> tuple[list[str], list[dict]]:
    reader = csv.DictReader(io.StringIO(data.decode("utf-8")))
    return list(reader.fieldnames or []), list(reader)


class CliWorkload:
    """A sweep run in-process through ``cli.main`` with ``--out`` to a file."""

    name = ""
    dims: tuple[int, ...] = ()

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.out_path = workdir / f"{self.name}.csv"

    def argv(self) -> list[str]:
        raise NotImplementedError

    def setup(self) -> None:
        _warm(self.dims)

    def run_pass(self) -> None:
        code = cli.main(self.argv())
        if code != 0:
            raise RuntimeError(f"cli.main exited with {code}")

    def collect(self) -> bytes:
        return self.out_path.read_bytes()


class SweepWeyl(CliWorkload):
    """The default CLI sweep; the input is uniform, so the seed is unused."""

    name = "sweep-weyl"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.dims = (2, 3) if smoke else (2, 3, 4, 5, 8)  # the CLI's default dims

    def argv(self):
        extra = ["--dims", ",".join(map(str, self.dims))] if self.smoke else []
        return extra + ["--out", str(self.out_path)]

    def check(self, outputs: list[bytes]) -> tuple[int, int]:
        ref_header, ref_rows = _parse_csv(REFERENCE_CSV.read_bytes())
        ref_rows = [r for r in ref_rows if int(r["d"]) in self.dims]
        attempted = failed = 0
        for data in outputs:
            header, rows = _parse_csv(data)
            attempted += max(len(rows), len(ref_rows))
            if header != ref_header:
                failed += max(len(rows), len(ref_rows))
                continue
            failed += abs(len(rows) - len(ref_rows))
            for got, want in zip(rows, ref_rows):
                failed += not _rows_match(got, want)
        return attempted, failed


def _rows_match(got: dict, want: dict) -> bool:
    for key, value in want.items():
        if key in FIDELITY_COLUMNS:
            if abs(Decimal(got[key]) - Decimal(value)) > CSV_FIDELITY_TOL:
                return False
        elif got[key] != value:
            return False
    return True


class RandomInputs(CliWorkload):
    """Many millisecond-scale runs: seeded random inputs at d = 2, 3."""

    name = "random-inputs"
    dims = (2, 3)
    COUNT = 100
    SAMPLE = 48  # rows per pass cross-checked against the density-matrix reference

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.count = 2 if smoke else self.COUNT

    def argv(self):
        return [
            "--dims", ",".join(map(str, self.dims)),
            "--input", f"random:{self.count}:{self.seed}",
            "--out", str(self.out_path),
        ]

    def _expected_keys(self) -> list[tuple[int, float, int]]:
        grid = cli.parse_p_grid("0:1:0.1")
        return [
            (d, p, self.seed + j) for d in self.dims for p in grid for j in range(self.count)
        ]

    def check(self, outputs: list[bytes]) -> tuple[int, int]:
        run_protocol_dm = _dm_reference()
        keys = self._expected_keys()
        rng = np.random.default_rng(self.seed)
        sample = rng.choice(len(keys), size=min(self.SAMPLE, len(keys)), replace=False)
        reference = {}
        for idx in sample.tolist():
            d, p, s = keys[idx]
            ops = list(channels.crosstalk_channel(d, p, channels.WEYL).operators)
            outcomes, avg = run_protocol_dm(
                d, states.random_pure_state(d, s), ops_a1=ops, ops_a2=ops
            )
            reference[idx] = (avg, min(f for _, _, _, f in outcomes))

        fixed = {
            "noise_variant": "weyl", "noise_mode": "independent",
            "correction_scheme": "derived-exact", "input_spec": f"random:{self.count}:{self.seed}",
            "runtime_ms": "0", "expected_trigger_probability": "1",
        }
        first = None
        attempted = failed = 0
        for data in outputs:
            header, rows = _parse_csv(data)
            attempted += len(keys)
            if header != cli.CSV_HEADER.split(",") or len(rows) != len(keys):
                failed += len(keys)
                continue
            first = first or rows
            for idx, (row, (d, p, s)) in enumerate(zip(rows, keys)):
                ok = (
                    row["d"] == str(d)
                    and row["p"] == f"{p:.12g}"
                    and row["seed"] == str(s)
                    and all(row[key] == value for key, value in fixed.items())
                    and all(0.0 <= float(row[key]) <= 1.0 for key in FIDELITY_COLUMNS)
                    and row == first[idx]
                )
                if ok and idx in reference:
                    avg, low = reference[idx]
                    ok = (
                        abs(float(row["avg_fidelity"]) - avg) <= DM_TOL
                        and abs(float(row["min_outcome_fidelity"]) - low) <= DM_TOL
                    )
                failed += not ok
        return attempted, failed


def isometry_channel(d: int, n_ops: int, rng: np.random.Generator, label: str):
    """A random channel: the d x d blocks of a Haar-like (n_ops*d) x d isometry."""
    g = rng.standard_normal((n_ops * d, d)) + 1j * rng.standard_normal((n_ops * d, d))
    q, _ = np.linalg.qr(g)
    ops = tuple(np.ascontiguousarray(q[k * d : (k + 1) * d]) for k in range(n_ops))
    return channels.KrausChannel(d=d, operators=ops, label=label)


class KrausLargeD:
    """``run_protocol`` at d = 32 with two random 16-operator Kraus channels."""

    name = "kraus-large-d"
    D = 32
    CHECK_D = 3
    N_OPS = 16

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.d = 4 if smoke else self.D

    def _instance(self, d: int):
        rng = np.random.default_rng(self.seed)
        ch_a1 = isometry_channel(d, self.N_OPS, rng, "isometry-a1")
        ch_a2 = isometry_channel(d, self.N_OPS, rng, "isometry-a2")
        phi = states.random_pure_state(d, self.seed)
        return protocol.ProtocolConfig(
            d=d, input_state=phi, noise_a1=ch_a1, noise_a2=ch_a2,
            noise_mode=channels.INDEPENDENT,
        )

    def setup(self) -> None:
        self.config = self._instance(self.d)
        _warm((self.d,))

    def run_pass(self) -> None:
        self.result = protocol.run_protocol(self.config)

    def collect(self):
        res = self.result
        self.result = None
        return (
            np.array([r.probability for r in res.records]),
            np.array([r.fidelity for r in res.records], dtype=float),
            res.average_fidelity,
        )

    def check(self, outputs: list) -> tuple[int, int]:
        attempted = failed = 0
        probs0, fids0, _ = outputs[0]
        for probs, fids, avg in outputs:
            attempted += probs.size
            bad = ~np.isfinite(fids) | (fids < 0.0) | (fids > 1.0)
            # every pass computes the same instance, so its records must repeat
            bad |= (np.abs(probs - probs0) > REPEAT_TOL) | (np.abs(fids - fids0) > REPEAT_TOL)
            if (
                abs(float(probs.sum()) - 1.0) > PROB_SUM_TOL
                or abs(float(probs @ fids) - avg) > REPEAT_TOL
                or not 0.0 <= avg <= 1.0
            ):
                bad[:] = True
            failed += int(bad.sum())

        # the same construction at small d, against the density-matrix reference
        config = self._instance(self.CHECK_D)
        got = protocol.run_protocol(config)
        outcomes, avg_dm = _dm_reference()(
            self.CHECK_D, config.input_state,
            ops_a1=list(config.noise_a1.operators), ops_a2=list(config.noise_a2.operators),
        )
        attempted += len(outcomes)
        for rec, (i, m, p, f) in zip(got.records, outcomes):
            ok = (rec.i, rec.m) == (i, m) and abs(rec.probability - p) <= DM_TOL
            failed += not (ok and abs(rec.fidelity - f) <= DM_TOL)
        attempted += 1
        failed += not abs(got.average_fidelity - avg_dm) <= DM_TOL
        return attempted, failed


WORKLOADS = {w.name: w for w in (SweepWeyl, RandomInputs, KrausLargeD)}
