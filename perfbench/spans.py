"""Spans around the public functions of each nilmbench layer, from outside.

For a traced operation the benchmark replaces module attributes (the call
sites) with timing wrappers and puts the originals back afterwards; nothing
in ``src/`` changes.  Spans are kept in memory: name, start, end, CPU time
at both ends, parent span and operation id.  A span's self time is its
duration minus the durations of its children; calls are synchronous on one
thread, so children never overlap.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = (
    "synth", "io", "preprocess", "stats", "diagnostics",
    "training", "disaggregate", "metrics", "pipeline",
)

# Attributes replaced for a traced operation.  ``pipeline`` imports most
# layer functions by name, so its own bindings are the call sites inside
# ``pipeline.run``; ``pipeline.run`` reaches io through the module
# attribute, and the ingest chain calls every layer through its module.
CALL_SITES = {
    "nilmbench.pipeline": (
        "run", "generate", "filter_out_implausible", "normalize_voltage",
        "interpolate_small_gaps", "intersect_with_mains", "downsample",
        "train_test_split", "train_co", "train_fhmm",
        "disaggregate_co", "disaggregate_fhmm", "evaluate",
    ),
    "nilmbench.io": (
        "load_dataset_dir", "save_dataset_dir", "export_model_json", "import_model_json",
    ),
    "nilmbench.preprocess": (
        "filter_out_implausible", "normalize_voltage", "interpolate_small_gaps",
        "intersect_with_mains", "downsample", "train_test_split",
    ),
    "nilmbench.stats": (
        "proportion_energy_submetered", "top_k_appliances", "on_off_durations", "daily_energy",
    ),
    "nilmbench.diagnostics": ("diagnose",),
}

# The span that covers one whole operation; its self time is the
# benchmark's glue between calls and is counted with the pipeline layer.
OPERATION = "pipeline.operation"

# Span name -> per-layer metric its self time adds to.
TIME_METRICS = {
    "synth.generate": "synth.generate_s",
    "io.load_dataset_dir": "io.load_dataset_dir_s",
    "io.save_dataset_dir": "io.save_dataset_dir_s",
    "io.export_model_json": "io.model_json_s",
    "io.import_model_json": "io.model_json_s",
    "preprocess.filter_out_implausible": "preprocess.filter_implausible_s",
    "preprocess.normalize_voltage": "preprocess.normalize_voltage_s",
    "preprocess.interpolate_small_gaps": "preprocess.interpolate_small_gaps_s",
    "preprocess.intersect_with_mains": "preprocess.intersect_with_mains_s",
    "preprocess.downsample": "preprocess.downsample_s",
    "preprocess.train_test_split": "preprocess.split_s",
    "stats.proportion_energy_submetered": "stats.energy_s",
    "stats.top_k_appliances": "stats.energy_s",
    "stats.on_off_durations": "stats.on_off_durations_s",
    "stats.daily_energy": "stats.daily_energy_s",
    "diagnostics.diagnose": "diagnostics.diagnose_s",
    "training.train_co": "training.train_co_s",
    "training.train_fhmm": "training.train_fhmm_s",
    "disaggregate.disaggregate_co": "disaggregate.co_s",
    "disaggregate.disaggregate_fhmm": "disaggregate.fhmm_s",
    "metrics.evaluate": "metrics.evaluate_s",
}
PREPROCESS_CHAIN = {
    "preprocess.filter_out_implausible", "preprocess.normalize_voltage",
    "preprocess.interpolate_small_gaps", "preprocess.intersect_with_mains",
    "preprocess.downsample",
}


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _rows(x) -> int:
    """Rows over every channel of a channel, building or dataset."""
    if hasattr(x, "buildings"):
        return sum(_rows(b) for b in x.buildings.values())
    if hasattr(x, "appliances") and hasattr(x, "mains"):
        return sum(len(c) for _, _, c in x.channels())
    return len(x)


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def _fhmm_counts(args, kwargs, result) -> dict:
    model = _arg(args, kwargs, 0, "m")
    steps = len(_arg(args, kwargs, 1, "aggregate"))
    states = math.prod(a.K for a in model.appliances)
    return {
        "disaggregate.fhmm_steps": steps,
        "disaggregate.fhmm_states": states,
        # computed from the decoder's int32 (T, S) table, not measured
        "disaggregate.fhmm_backpointer_bytes": steps * states * 4,
    }


# Span name -> counts taken from the call's arguments and result.  A Path
# value stands for the bytes under it, summed when the operation ends, so
# the walk over files is not timed inside any span.
COUNTERS = {
    "synth.generate": lambda a, kw, r: {"synth.samples": _rows(r[0])},
    "io.load_dataset_dir": lambda a, kw, r: {
        "io.rows_read": _rows(r), "io.bytes_read": Path(_arg(a, kw, 0, "root")),
    },
    "io.save_dataset_dir": lambda a, kw, r: {
        "io.rows_written": _rows(_arg(a, kw, 0, "ds")),
        "io.bytes_written": Path(_arg(a, kw, 1, "root")),
    },
    "disaggregate.disaggregate_fhmm": _fhmm_counts,
    "disaggregate.disaggregate_co": lambda a, kw, r: {
        "disaggregate.co_combinations": math.prod(m.K for m in _arg(a, kw, 0, "m").appliances),
    },
    **{
        name: lambda a, kw, r: {
            "preprocess.rows_in": _rows(a[0] if a else next(iter(kw.values()))),
            "preprocess.rows_out": _rows(r),
        }
        for name in PREPROCESS_CHAIN
    },
}


@dataclass
class Span:
    id: int
    op: int
    name: str
    parent: int | None
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for operations run inside :meth:`operation`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = 0

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), self._op, name, parent, time.perf_counter(), time.process_time())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu_end = time.process_time()
        self._stack.pop()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def operation(self):
        """Trace one operation: patch the call sites, record, restore."""
        self._op += 1
        originals = []
        for module_name, attrs in CALL_SITES.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn))
        root = self._open(OPERATION)
        try:
            yield
        finally:
            self._close(root)
            for module, attr, fn in originals:
                setattr(module, attr, fn)
        for span in self.op_spans(self._op):
            for key, value in span.counts.items():
                if isinstance(value, Path):
                    span.counts[key] = _dir_bytes(value)

    def op_spans(self, op: int) -> list[Span]:
        return [s for s in self.spans if s.op == op]

    def records(self) -> list[dict]:
        return [
            {
                "id": s.id, "op": s.op, "name": s.name, "parent": s.parent,
                "start": s.start, "end": s.end, "cpu_s": s.cpu_end - s.cpu_start,
                "counts": s.counts,
            }
            for s in self.spans
        ]


def self_times(spans: list[Span]) -> dict[int, float]:
    children = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.wall
    return {s.id: s.wall - children[s.id] for s in spans}


def operation_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced operation (zero where a layer is idle)."""
    out: dict[str, float] = defaultdict(float)
    for key in (*TIME_METRICS.values(), *(f"{layer}.self_s" for layer in LAYERS)):
        out[key] = 0.0
    for key in (
        "synth.samples", "io.rows_read", "io.bytes_read", "io.rows_written",
        "io.bytes_written", "io.wait_s", "preprocess.rows_in", "preprocess.rows_out",
        "disaggregate.fhmm_steps", "disaggregate.fhmm_states",
        "disaggregate.fhmm_backpointer_bytes", "disaggregate.co_combinations",
    ):
        out[key] = 0
    selfs = self_times(spans)
    for s in spans:
        layer = s.name.split(".", 1)[0]
        out[f"{layer}.self_s"] += selfs[s.id]
        if s.name in TIME_METRICS:
            out[TIME_METRICS[s.name]] += selfs[s.id]
        if layer == "io":
            out["io.wait_s"] += s.wall - (s.cpu_end - s.cpu_start)
        for key, value in s.counts.items():
            out[key] += value
    steps = out["disaggregate.fhmm_steps"]
    out["disaggregate.fhmm_us_per_step"] = 1e6 * out["disaggregate.fhmm_s"] / steps if steps else 0.0
    out["trace.op_s"] = next(s.wall for s in spans if s.name == OPERATION)
    return dict(out)
