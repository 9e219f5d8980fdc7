"""Command-line sweep runner.

Runs the teleportation protocol over a grid of dimensions and crosstalk
probabilities and emits one CSV or JSON row per (d, p, input instance).
Output is deterministic for a fixed configuration: rows are ordered by
(d, p, seed) and the runtime column stays at 0 unless --timing is given, so
identical invocations produce byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .channels import INDEPENDENT, CORRELATED, VARIANTS, crosstalk_channel
from .linalg import EXACT_TOL, GRID_TOL
from .protocol import DERIVED_EXACT, PAPER_WEYL, ProtocolConfig, run_protocol
from .states import load_state, random_pure_state, uniform_state

__all__ = [
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "parse_p_grid",
    "parse_cli",
    "run_sweep",
    "emit",
    "main",
]

CSV_HEADER = (
    "d,p,noise_variant,noise_mode,correction_scheme,input_spec,seed,"
    "avg_fidelity,min_outcome_fidelity,runtime_ms,expected_trigger_probability"
)

DEFAULT_DIMS = (2, 3, 4, 5, 8)
DEFAULT_P_GRID = "0:1:0.1"
RUNTIME_WARN_DIM = 8


@dataclass(frozen=True)
class InputSpec:
    """Parsed --input value: uniform, random:N:SEED or file:PATH."""

    kind: str
    count: int = 1
    base_seed: int = 0
    path: str | None = None

    @property
    def label(self) -> str:
        if self.kind == "uniform":
            return "uniform"
        if self.kind == "random":
            return f"random:{self.count}:{self.base_seed}"
        return f"file:{self.path}"


@dataclass
class SweepConfig:
    dims: tuple[int, ...] = DEFAULT_DIMS
    p_grid: tuple[float, ...] = ()
    input_spec: InputSpec = field(default_factory=lambda: InputSpec(kind="uniform"))
    noise_variant: str = "weyl"
    noise_mode: str = INDEPENDENT
    noise_targets: tuple[str, ...] = ("a1", "a2")
    correction_scheme: str = DERIVED_EXACT
    eta: float | None = None
    out_path: str | None = None
    fmt: str = "csv"
    measure_runtime: bool = False


@dataclass
class SweepRow:
    d: int
    p: float
    noise_variant: str
    noise_mode: str
    correction_scheme: str
    input_spec: str
    seed: int
    avg_fidelity: float
    min_outcome_fidelity: float
    runtime_ms: float
    expected_trigger_probability: float


@dataclass
class SweepResult:
    rows: list[SweepRow] = field(default_factory=list)


def parse_p_grid(raw: str | list) -> tuple[float, ...]:
    """Probability grid from start:end:step text or a list of numbers.

    The text form is an inclusive grid whose step must divide the range.
    Values within 1e-12 outside [0, 1] are clamped onto it.
    """
    if isinstance(raw, str):
        values = _grid_values(raw)
    elif isinstance(raw, list) and raw and all(type(x) in (int, float) for x in raw):
        values = tuple(float(x) for x in raw)
    else:
        raise ValueError(f"p-grid must be start:end:step or a nonempty list of numbers, got {raw!r}")
    for v in values:
        if not -EXACT_TOL <= v <= 1 + EXACT_TOL:
            raise ValueError(f"p-grid value {v} outside [0, 1]")
    return tuple(min(max(v, 0.0), 1.0) for v in values)


def _grid_values(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"p-grid must be start:end:step, got {text!r}")
    try:
        start, end, step = (float(x) for x in parts)
    except ValueError:
        raise ValueError(f"p-grid values must be numeric, got {text!r}") from None
    if not all(math.isfinite(x) for x in (start, end, step)):
        raise ValueError(f"p-grid values must be finite, got {text!r}")
    if step < 0 or end < start:
        raise ValueError(f"p-grid needs end >= start and step >= 0, got {text!r}")
    if end == start:
        return (start,)
    if step == 0:
        raise ValueError("p-grid step must be positive for a nonempty range")
    n = round((end - start) / step)
    if abs(start + n * step - end) > GRID_TOL:
        raise ValueError(f"p-grid step {step} does not divide the range [{start}, {end}]")
    return tuple(start + k * step for k in range(n + 1))


def _parse_dims(raw: str | list) -> tuple[int, ...]:
    if isinstance(raw, str):
        try:
            dims = tuple(int(x) for x in raw.split(","))
        except ValueError:
            raise ValueError(f"dims must be comma-separated integers, got {raw!r}") from None
    elif isinstance(raw, list) and all(type(x) is int for x in raw):
        dims = tuple(raw)
    else:
        raise ValueError(f"dims must be comma-separated integers or a list of integers, got {raw!r}")
    if not dims or any(d < 2 for d in dims):
        raise ValueError("every dimension must be an integer >= 2")
    return dims


def _require_str(raw, key: str) -> str:
    if not isinstance(raw, str):
        raise ValueError(f"{key} must be a string, got {raw!r}")
    return raw


def _parse_input(raw: str) -> InputSpec:
    text = _require_str(raw, "input")
    if text == "uniform":
        return InputSpec(kind="uniform")
    if text.startswith("random:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"random input spec must be random:N:SEED, got {text!r}")
        try:
            count, seed = int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"random input spec must be random:N:SEED, got {text!r}") from None
        if count < 1:
            raise ValueError("random input count must be >= 1")
        return InputSpec(kind="random", count=count, base_seed=seed)
    if text.startswith("file:"):
        path = text[len("file:") :]
        if not path:
            raise ValueError("file input spec needs a path: file:PATH")
        return InputSpec(kind="file", path=path)
    raise ValueError(f"unknown input spec {text!r}")


def _parse_targets(raw: str) -> tuple[str, ...]:
    text = _require_str(raw, "noise targets")
    targets = tuple(t.strip() for t in text.split(",") if t.strip())
    if not targets or any(t not in ("a1", "a2") for t in targets):
        raise ValueError(f"noise targets must be a subset of a1,a2, got {text!r}")
    return tuple(dict.fromkeys(targets))


def _parse_eta(raw: str | float) -> float:
    message = f"eta must be a number in [0, 1], got {raw!r}"
    if type(raw) not in (str, int, float):
        raise ValueError(message)
    try:
        eta = float(raw)
    except ValueError:
        raise ValueError(message) from None
    if not 0 <= eta <= 1:
        raise ValueError(message)
    return eta


def _parse_timing(raw: bool) -> bool:
    if not isinstance(raw, bool):
        raise ValueError(f"timing must be true or false, got {raw!r}")
    return raw


def _choice(key: str, allowed: tuple[str, ...]):
    def parse(raw: str) -> str:
        if not isinstance(raw, str) or raw not in allowed:
            raise ValueError(f"{key} must be one of {', '.join(allowed)}, got {raw!r}")
        return raw

    return parse


NOISE_MODES = (INDEPENDENT, CORRELATED)
CORRECTIONS = (PAPER_WEYL, DERIVED_EXACT)
FORMATS = ("csv", "json")

# Config key (also the argparse dest) -> (parser, default). A parser takes the
# flag's text or the JSON value and raises ValueError on a bad type or value.
_SETTINGS = {
    "dims": (_parse_dims, ",".join(map(str, DEFAULT_DIMS))),
    "p_grid": (parse_p_grid, DEFAULT_P_GRID),
    "input": (_parse_input, "uniform"),
    "noise": (_choice("noise", VARIANTS), "weyl"),
    "noise_mode": (_choice("noise mode", NOISE_MODES), INDEPENDENT),
    "noise_targets": (_parse_targets, "a1,a2"),
    "correction": (_choice("correction", CORRECTIONS), DERIVED_EXACT),
    "eta": (_parse_eta, None),
    "out": (lambda raw: _require_str(raw, "out"), None),
    "format": (_choice("format", FORMATS), "csv"),
    "timing": (_parse_timing, False),
}


def _metavar(allowed: tuple[str, ...]) -> str:
    return "{" + ",".join(allowed) + "}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qudit-teleport",
        description="Sweep teleportation fidelity over dimensions and crosstalk strength.",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON file with sweep settings; flags override")
    parser.add_argument("--dims", metavar="LIST", help=f"comma-separated dimensions (default {','.join(map(str, DEFAULT_DIMS))})")
    parser.add_argument("--p-grid", metavar="S:E:STEP", help=f"inclusive probability grid (default {DEFAULT_P_GRID})")
    parser.add_argument("--input", metavar="SPEC", help="uniform | random:N:SEED | file:PATH (default uniform)")
    parser.add_argument("--noise", metavar=_metavar(VARIANTS), help="crosstalk variant (default weyl)")
    parser.add_argument("--noise-mode", metavar=_metavar(NOISE_MODES), help="two-qudit composition (default independent)")
    parser.add_argument("--noise-targets", metavar="LIST", help="a1,a2 or a2 (default a1,a2)")
    parser.add_argument("--correction", metavar=_metavar(CORRECTIONS), help="correction scheme (default derived-exact)")
    parser.add_argument("--eta", help="upconversion efficiency in [0, 1], reporting only")
    parser.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    parser.add_argument("--format", metavar=_metavar(FORMATS), help="output format (default csv)")
    parser.add_argument("--timing", action="store_true", default=None, help="record wall-clock runtime_ms (breaks byte determinism)")
    return parser


def parse_cli(argv: list[str] | None = None) -> SweepConfig:
    """Parse flags (and optional --config file) into a SweepConfig.

    Each setting goes through one parser, whether it comes from a flag or
    from the config file. A malformed value exits with status 2 and a
    one-line message on stderr.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)

    def fail(message: str):
        parser.exit(2, f"{parser.prog}: error: {message}\n")

    file_cfg: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            fail(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            fail(f"config file is not valid JSON: {exc}")
        if not isinstance(file_cfg, dict):
            fail("config file must hold a JSON object")
        unknown = set(file_cfg) - set(_SETTINGS)
        if unknown:
            fail(f"unknown config file keys: {sorted(unknown)}")

    # a flag beats the file, the file beats the default; null means unset
    values = {}
    for key, (parse, default) in _SETTINGS.items():
        raw = getattr(args, key)
        if raw is None:
            raw = file_cfg.get(key)
        if raw is None:
            raw = default
        try:
            values[key] = None if raw is None else parse(raw)
        except ValueError as exc:
            fail(str(exc))

    return SweepConfig(
        dims=values["dims"],
        p_grid=values["p_grid"],
        input_spec=values["input"],
        noise_variant=values["noise"],
        noise_mode=values["noise_mode"],
        noise_targets=values["noise_targets"],
        correction_scheme=values["correction"],
        eta=values["eta"],
        out_path=values["out"],
        fmt=values["format"],
        measure_runtime=values["timing"],
    )


def _input_instances(spec: InputSpec, d: int) -> list[tuple[int, np.ndarray]]:
    if spec.kind == "uniform":
        return [(0, uniform_state(d))]
    if spec.kind == "random":
        return [(spec.base_seed + j, random_pure_state(d, spec.base_seed + j)) for j in range(spec.count)]
    state = load_state(spec.path)
    if state.size != d:
        raise ValueError(
            f"input file holds a dimension-{state.size} state but the sweep asks for d={d}"
        )
    return [(0, state)]


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate the protocol at every grid point, one row per input instance.

    Rows are ordered by (d ascending, p ascending, seed ascending). The
    expected trigger probability column carries eta verbatim (1 when unset);
    it never scales fidelities.
    """
    etp = config.eta if config.eta is not None else 1.0
    result = SweepResult()
    for d in sorted(config.dims):
        instances = _input_instances(config.input_spec, d)
        for p in sorted(config.p_grid):
            ch_a1 = crosstalk_channel(d, p, config.noise_variant) if "a1" in config.noise_targets else None
            ch_a2 = crosstalk_channel(d, p, config.noise_variant) if "a2" in config.noise_targets else None
            for seed, state in instances:
                start = time.perf_counter()
                proto = run_protocol(
                    ProtocolConfig(
                        d=d,
                        input_state=state,
                        convention="general",
                        noise_a1=ch_a1,
                        noise_a2=ch_a2,
                        noise_mode=config.noise_mode,
                        correction=config.correction_scheme,
                    )
                )
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                result.rows.append(
                    SweepRow(
                        d=d,
                        p=p,
                        noise_variant=config.noise_variant,
                        noise_mode=config.noise_mode,
                        correction_scheme=config.correction_scheme,
                        input_spec=config.input_spec.label,
                        seed=seed,
                        avg_fidelity=proto.average_fidelity,
                        min_outcome_fidelity=proto.min_outcome_fidelity,
                        runtime_ms=elapsed_ms if config.measure_runtime else 0.0,
                        expected_trigger_probability=etp,
                    )
                )
    return result


def emit(result: SweepResult, fmt: str = "csv") -> bytes:
    """Serialize rows; CSV floats use 12 significant digits."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in result.rows:
            lines.append(
                f"{r.d},{r.p:.12g},{r.noise_variant},{r.noise_mode},{r.correction_scheme},"
                f"{r.input_spec},{r.seed},{r.avg_fidelity:.12g},{r.min_outcome_fidelity:.12g},"
                f"{r.runtime_ms:.12g},{r.expected_trigger_probability:.12g}"
            )
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "json":
        rows = [{f.name: getattr(r, f.name) for f in fields(SweepRow)} for r in result.rows]
        return (json.dumps(rows, indent=2) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


def main(argv: list[str] | None = None) -> int:
    config = parse_cli(argv)
    big = [d for d in config.dims if d > RUNTIME_WARN_DIM]
    if big:
        print(
            f"warning: exact enumeration scales steeply; dims {big} may take a long time",
            file=sys.stderr,
        )
    try:
        result = run_sweep(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    data = emit(result, config.fmt)
    if config.out_path is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return 0
    try:
        with open(config.out_path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
