"""In-memory span tracing around the public functions of qudit_teleport.

Each traced function is replaced at the module attribute its caller looks
up (``protocol.py`` imports ``apply_channel_to_branches`` by name, so the
fan-out is wrapped at ``qudit_teleport.protocol.apply_channel_to_branches``).
Nothing inside ``src/`` is edited: counts and computed byte sizes come from
call arguments and return values only.

A span is (name, start_ns, end_ns, parent, pass_id, counts). Spans live in a
list until the run ends and are then written out as JSON Lines.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

COMPLEX_BYTES = 16


class Tracer:
    """Span recorder; ``pass_id`` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id: int | str = "setup"

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.pass_id, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, counts: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        span[5] = counts
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span[0]!r} closed out of order")

    @contextlib.contextmanager
    def root(self, name: str, pass_id: int | str):
        """The root span of one pass (or of set-up); tags its spans with pass_id."""
        self.pass_id = pass_id
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def write(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "pass_id", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals, in s."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, span in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        for start, end in sorted(children.get(idx, ())):
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((span[2] - span[1] - covered) / 1e9)
    return out


# --- counters computed from arguments and return values -------------------


# Name functions get the call's arguments by parameter name; counters also get
# the return value.


def _fanout_name(a) -> str:
    if len(a["dims"]) == 3 and a["target"] in (0, 1):
        return f"channels.fanout_a{a['target'] + 1}"
    return "channels.fanout_pair"


def _fanout_counts(a, result) -> dict:
    size = int(result[0][1].size) if result else 0
    return {
        "kraus_applications": len(a["branches"]) * len(a["channel"].operators),
        "branches_out": len(result),
        "bytes_out": len(result) * size * COMPLEX_BYTES,
    }


def _enumerate_counts(a, result) -> dict:
    d = a["d"]
    return {
        "receivers_bytes": d * d * len(a["branches"]) * d * COMPLEX_BYTES,
        "records": len(result),
        "mixed_records": sum(1 for r in result if r.receiver_state.ndim == 2),
    }


def _rows_counts(a, result) -> dict:
    return {"bytes": a["d"] ** 4 * COMPLEX_BYTES}


def _emit_counts(a, result) -> dict:
    return {"bytes": len(result)}


# (module, attribute, span name or name function, counter or None)
TRACE_POINTS = (
    ("cli", "main", "cli.main", None),
    ("cli", "parse_cli", "cli.parse_cli", None),
    ("cli", "run_sweep", "cli.run_sweep", None),
    ("cli", "emit", "cli.emit", _emit_counts),
    ("cli", "crosstalk_channel", "channels.crosstalk_channel", None),
    ("cli", "run_protocol", "protocol.run_protocol", None),
    ("cli", "random_pure_state", "states.random_pure_state", None),
    ("cli", "uniform_state", "states.uniform_state", None),
    ("protocol", "run_protocol", "protocol.run_protocol", None),
    ("protocol", "compose_initial", "protocol.compose_initial", None),
    ("protocol", "bell_state", "states.bell_state", None),
    ("protocol", "apply_channel_to_branches", _fanout_name, _fanout_counts),
    ("protocol", "enumerate_outcomes", "protocol.enumerate_outcomes", _enumerate_counts),
    ("protocol", "measurement_rows", "measurement.measurement_rows", _rows_counts),
    ("protocol", "derived_exact_correction", "protocol.derived_exact_correction", None),
    ("protocol", "pure_fidelity", "linalg.pure_fidelity", None),
)


def _wrap(tracer: Tracer, fn, name, counter):
    params = list(inspect.signature(fn).parameters)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        named = None
        if counter is not None or not isinstance(name, str):
            named = dict(zip(params, args), **kwargs)
        idx = tracer.open(name if isinstance(name, str) else name(named))
        counts = None
        try:
            result = fn(*args, **kwargs)
            if counter is not None:
                counts = counter(named, result)
        finally:
            tracer.close(idx, counts)
        return result

    return traced


class Instrumentation:
    """Installs and removes the wrappers listed in TRACE_POINTS."""

    def __init__(self, tracer: Tracer):
        self._targets = []
        for module_name, attr, name, counter in TRACE_POINTS:
            module = importlib.import_module(f"qudit_teleport.{module_name}")
            original = getattr(module, attr)
            self._targets.append((module, attr, original, _wrap(tracer, original, name, counter)))

    def install(self) -> None:
        for module, attr, _, wrapped in self._targets:
            setattr(module, attr, wrapped)

    def remove(self) -> None:
        for module, attr, original, _ in self._targets:
            setattr(module, attr, original)


# --- per-layer metrics ----------------------------------------------------

LAYERS = ("bench", "cli", "protocol", "channels", "measurement", "linalg", "states")
FANOUTS = ("channels.fanout_a1", "channels.fanout_a2", "channels.fanout_pair")


class Totals:
    """Inclusive and self seconds, call counts and counters of one phase."""

    def __init__(self, spans, selfs, pass_id):
        self.incl: dict[str, float] = defaultdict(float)
        self.self: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        for span, st in zip(spans, selfs):
            if span[4] != pass_id:
                continue
            name = span[0]
            self.incl[name] += (span[2] - span[1]) / 1e9
            self.self[name] += st
            self.calls[name] += 1
            for key, value in (span[5] or {}).items():
                self.counts[f"{name}.{key}"] += value

    def fanout(self, key: str) -> float:
        return sum(self.counts[f"{f}.{key}"] for f in FANOUTS)

    def layer_self(self, layer: str) -> float:
        return sum(v for name, v in self.self.items() if name.split(".")[0] == layer)


# metric name -> value for one traced pass
PASS_METRICS = {
    "channels.fanout_a1.s": lambda t: t.incl["channels.fanout_a1"],
    "channels.fanout_a2.s": lambda t: t.incl["channels.fanout_a2"],
    "channels.fanout.kraus_applications": lambda t: t.fanout("kraus_applications"),
    "channels.fanout.branches_out": lambda t: t.fanout("branches_out"),
    "channels.fanout.bytes_out": lambda t: t.fanout("bytes_out"),
    "protocol.enumerate_outcomes.s": lambda t: t.incl["protocol.enumerate_outcomes"],
    "protocol.enumerate_outcomes.receivers_bytes":
        lambda t: t.counts["protocol.enumerate_outcomes.receivers_bytes"],
    "protocol.run_protocol.calls": lambda t: t.calls["protocol.run_protocol"],
    "protocol.run_protocol.self_s": lambda t: t.self["protocol.run_protocol"],
    "protocol.compose_initial.s": lambda t: t.incl["protocol.compose_initial"],
    "linalg.pure_fidelity.calls": lambda t: t.calls["linalg.pure_fidelity"],
    "linalg.pure_fidelity.s": lambda t: t.incl["linalg.pure_fidelity"],
    "states.random_pure_state.s": lambda t: t.incl["states.random_pure_state"],
    "states.bell_state.s": lambda t: t.incl["states.bell_state"],
    "cli.run_sweep.self_s": lambda t: t.self["cli.run_sweep"],
    "cli.emit.s": lambda t: t.incl["cli.emit"],
    "cli.emit.bytes": lambda t: t.counts["cli.emit.bytes"],
    **{f"{layer}.self_s": (lambda t, layer=layer: t.layer_self(layer)) for layer in LAYERS},
    "trace.pass_s": lambda t: t.incl["bench.pass"],
}


def layer_metrics(tracer: Tracer, traced_ids: list[int], untraced_s: list[float]) -> dict:
    """Per-layer metrics: means over traced passes, plus set-up-only spans.

    Means (not medians) keep the per-layer self times additive: the
    ``<layer>.self_s`` values sum to ``trace.pass_s``. Measurement rows and
    correction tables are built once, in set-up; in a pass they are cache
    hits, so their metrics are read from the traced set-up.
    """
    selfs = self_times(tracer.spans)
    passes = [Totals(tracer.spans, selfs, pid) for pid in traced_ids]
    m = {name: sum(f(t) for t in passes) / len(passes) for name, f in PASS_METRICS.items()}

    records = sum(t.counts["protocol.enumerate_outcomes.records"] for t in passes)
    mixed = sum(t.counts["protocol.enumerate_outcomes.mixed_records"] for t in passes)
    applications = m["channels.fanout.kraus_applications"]
    m["channels.fanout.kept_ratio"] = (
        m["channels.fanout.branches_out"] / applications if applications else 0.0
    )
    m["protocol.enumerate_outcomes.mixed_fraction"] = mixed / records if records else 0.0

    setup = Totals(tracer.spans, selfs, "setup")
    m["measurement.measurement_rows.s"] = setup.incl["measurement.measurement_rows"]
    m["measurement.measurement_rows.bytes"] = setup.counts["measurement.measurement_rows.bytes"]
    m["protocol.derived_exact_correction.s"] = setup.incl["protocol.derived_exact_correction"]

    m["trace.overhead_frac"] = m["trace.pass_s"] / (sum(untraced_s) / len(untraced_s)) - 1.0
    return m
