"""Command-line sweep runner.

Runs the teleportation protocol over a grid of dimensions and crosstalk
probabilities and emits one CSV or JSON row per (d, p, input instance).
Output is deterministic for a fixed configuration: rows are ordered by
(d, p, seed) and the runtime column stays at 0 unless --timing is given, so
identical invocations produce byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 internal check
failed (an invariant such as the outcome probability sum broke; a bug, not
a bad input).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .channels import INDEPENDENT, VARIANTS, crosstalk_channel
from .linalg import EXACT_TOL, GRID_TOL
from .protocol import DERIVED_EXACT, PAPER_WEYL, ProtocolConfig, _fold_weyl_weights, run_protocol
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

RUNTIME_WARN_DIM = 8
# A start:end:step grid is built point by point, so its size is capped.
MAX_GRID_POINTS = 10**6


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
class SweepRow:
    """One output row; its fields are the CSV and JSON columns, in order.

    ``noise_mode`` always reads ``independent``, the one way the sender's two
    channels compose; the column stays so that output files keep their layout.
    """

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


_COLUMNS = tuple(f.name for f in fields(SweepRow))
CSV_HEADER = ",".join(_COLUMNS)


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
    steps = (end - start) / step
    # round(steps) + 1 points; steps is inf when step underflows the range
    if steps >= MAX_GRID_POINTS - 0.5:
        raise ValueError(
            f"p-grid {text!r} has {steps + 1:.0f} points, more than the limit of {MAX_GRID_POINTS}"
        )
    n = round(steps)
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
        if seed < 0:
            raise ValueError(f"random input seed must be >= 0, got {seed}")
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


CORRECTIONS = (PAPER_WEYL, DERIVED_EXACT)
FORMATS = ("csv", "json")


def _metavar(allowed: tuple[str, ...]) -> str:
    return "{" + ",".join(allowed) + "}"


def _setting(parse, default, help: str, metavar: str | None = None):
    """A SweepConfig field that declares one CLI setting.

    ``parse`` takes the flag's text or the JSON value and raises ValueError on
    a bad type or value. ``default`` is in that same form and goes through
    ``parse``, so ``SweepConfig()`` holds the CLI defaults. A string default
    is shown in the help; a bool default makes the flag a switch.
    """
    return field(
        default=None if default is None else parse(default),
        metadata={"parse": parse, "default": default, "help": help, "metavar": metavar},
    )


@dataclass
class SweepConfig:
    """The sweep settings, each declared once by its field.

    A field's name is its --config key, and the name with - for _ is its flag.
    """

    dims: tuple[int, ...] = _setting(_parse_dims, "2,3,4,5,8", "comma-separated dimensions", "LIST")
    p_grid: tuple[float, ...] = _setting(parse_p_grid, "0:1:0.1", "inclusive probability grid", "S:E:STEP")
    input: InputSpec = _setting(_parse_input, "uniform", "uniform | random:N:SEED | file:PATH", "SPEC")
    noise: str = _setting(_choice("noise", VARIANTS), "weyl", "crosstalk variant", _metavar(VARIANTS))
    noise_targets: tuple[str, ...] = _setting(_parse_targets, "a1,a2", "a1,a2 or a2", "LIST")
    correction: str = _setting(
        _choice("correction", CORRECTIONS), DERIVED_EXACT, "correction scheme", _metavar(CORRECTIONS)
    )
    eta: float | None = _setting(_parse_eta, None, "upconversion efficiency in [0, 1], reporting only")
    out: str | None = _setting(lambda raw: _require_str(raw, "out"), None, "output path (default stdout)", "PATH")
    format: str = _setting(_choice("format", FORMATS), "csv", "output format", _metavar(FORMATS))
    timing: bool = _setting(_parse_timing, False, "record wall-clock runtime_ms (breaks byte determinism)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qudit-teleport",
        description="Sweep teleportation fidelity over dimensions and crosstalk strength.",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON file with sweep settings; flags override")
    for f in fields(SweepConfig):
        flag = "--" + f.name.replace("_", "-")
        default, help = f.metadata["default"], f.metadata["help"]
        if isinstance(default, str):
            help = f"{help} (default {default})"
        if isinstance(default, bool):
            parser.add_argument(flag, action="store_true", default=None, help=help)
        else:
            parser.add_argument(flag, metavar=f.metadata["metavar"], help=help)
    return parser


def parse_cli(argv: list[str] | None = None) -> SweepConfig:
    """Parse flags (and optional --config file) into a SweepConfig.

    Each setting goes through its field's one parser, whether it comes from
    a flag or from the config file. A malformed value exits with status 2
    and a one-line message on stderr.
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
        unknown = set(file_cfg) - {f.name for f in fields(SweepConfig)}
        if unknown:
            fail(f"unknown config file keys: {sorted(unknown)}")

    # a flag beats the file, the file beats the field default; null means unset
    values = {}
    for f in fields(SweepConfig):
        raw = getattr(args, f.name)
        if raw is None:
            raw = file_cfg.get(f.name)
        if raw is not None:
            try:
                values[f.name] = f.metadata["parse"](raw)
            except ValueError as exc:
                fail(str(exc))
    return SweepConfig(**values)


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
        instances = _input_instances(config.input, d)
        for p in sorted(config.p_grid):
            channel = crosstalk_channel(d, p, config.noise)
            ch_a1 = channel if "a1" in config.noise_targets else None
            ch_a2 = channel if "a2" in config.noise_targets else None
            for seed, state in instances:
                start = time.perf_counter()
                proto = run_protocol(
                    ProtocolConfig(
                        d=d,
                        input_state=state,
                        convention="general",
                        noise_a1=ch_a1,
                        noise_a2=ch_a2,
                        correction=config.correction,
                    )
                )
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                result.rows.append(
                    SweepRow(
                        d=d,
                        p=p,
                        noise_variant=config.noise,
                        noise_mode=INDEPENDENT,
                        correction_scheme=config.correction,
                        input_spec=config.input.label,
                        seed=seed,
                        avg_fidelity=proto.average_fidelity,
                        min_outcome_fidelity=proto.min_outcome_fidelity,
                        runtime_ms=elapsed_ms if config.timing else 0.0,
                        expected_trigger_probability=etp,
                    )
                )
                # the next run would otherwise start with this one's sender state alive
                del proto
    return result


def emit(result: SweepResult, fmt: str = "csv") -> bytes:
    """Serialize rows; CSV floats use 12 significant digits."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in result.rows:
            values = (getattr(r, name) for name in _COLUMNS)
            lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in values))
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "json":
        rows = [{name: getattr(r, name) for name in _COLUMNS} for r in result.rows]
        return (json.dumps(rows, indent=2) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


def _format_bytes(n: int) -> str:
    for unit, scale in (("GB", 1e9), ("MB", 1e6)):
        if n >= scale:
            return f"{n / scale:.1f} {unit}"
    return f"{n / 1e3:.1f} kB"


def _large_dim_warning(config: SweepConfig) -> str | None:
    """The stderr warning for dims above RUNTIME_WARN_DIM, with the run's largest arrays.

    At the largest d and p, those are the sender kets the noise folds into,
    one per label of the folded table Q, counted from the channel's label
    table with no operator built, and the fold's cached columns and
    coefficients, one row of each per ket. The run builds no outcome state;
    its other tables are (d, d), and no other array grows with d^3 or the
    noise.
    """
    big = [d for d in config.dims if d > RUNTIME_WARN_DIM]
    if not big:
        return None
    d, p = max(big), max(config.p_grid)
    weights = crosstalk_channel(d, p, config.noise).weyl_weights
    tables = (weights if t in config.noise_targets else None for t in ("a1", "a2"))
    kets = np.count_nonzero(_fold_weyl_weights(d, *tables))
    amplitudes = _format_bytes(kets * d * np.dtype(complex).itemsize)
    return (
        f"warning: exact enumeration scales steeply; dims {big} may take a long time; "
        f"at d = {d}, p = {p:g} the run holds {kets} folded sender {'ket' if kets == 1 else 'kets'} "
        f"of {d} amplitudes, {amplitudes}, beside the fold's cached columns and coefficients, "
        f"{_format_bytes(kets * d * np.dtype(np.intp).itemsize)} and {amplitudes}"
    )


def main(argv: list[str] | None = None) -> int:
    config = parse_cli(argv)
    warning = _large_dim_warning(config)
    if warning is not None:
        print(warning, file=sys.stderr)
    try:
        result = run_sweep(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 4
    data = emit(result, config.format)
    if config.out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return 0
    try:
        with open(config.out, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
