"""Per-layer spans recorded from outside the program.

The tracer wraps public functions of ``mcwave`` for the length of one run and
restores them afterwards; no file under ``src/`` is edited.  Each function is
wrapped under the name its caller looks it up by: ``kpi`` imports
``effective_channel``, ``mmse_equalize``, ``apply_channel`` and friends by
name, so the binding patched is ``kpi.<name>``; ``bench`` calls
``build_bundle``, ``emit_results`` and ``validate_config`` through its own
globals; ``waveforms`` calls ``transforms.<fn>`` through the module; methods
are patched on their class.  A binding the program no longer has is skipped,
so its span reads zero calls.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

class Tracer:
    """In-memory span recorder: name, start, end and parent of each call."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_s, end_s, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(args, kwargs)`` adds counters."""

        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                for key, value in count(args, kwargs).items():
                    self.counters[key] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_factory(self, name: str, factory):
        """``factory`` whose returned callable is recorded as span ``name``."""

        def make(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))

        make.__wrapped__ = factory
        return make

    def summary(self) -> dict[str, dict]:
        """Calls and self time per span name.

        Self time is a span's duration minus the time its child spans cover.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - covered
        return dict(out)

    def covered_s(self) -> float:
        """Wall time inside any span (the sum of top-level span durations)."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _emit_bytes(args, kwargs) -> dict:
    return {"bench.emit_results.bytes": Path(_arg(args, kwargs, 2, "path")).stat().st_size}


def mmse_gflop(n: int) -> float:
    """Flops of one block MMSE at n symbols, computed from its shape.

    Gram ``H^H H`` (n^3 complex multiply-adds), LU of the n x n system
    (n^3 / 3), the matched filter and two triangular solves (3 n^2); one
    complex multiply-add is 8 real flops.
    """
    return 8.0 * (4.0 * n**3 / 3.0 + 3.0 * n**2) / 1e9


def _mmse_flops(args, kwargs) -> dict:
    n = len(_arg(args, kwargs, 1, "h_eff"))
    return {"detection.mmse_equalize.gflop": mmse_gflop(n)}


def program_bindings():
    """(span name, owner, attribute, kind, counter) for every wrapped function."""
    from mcwave import bench, channel, kpi, transforms, waveforms

    rows = [
        ("config.validate_config", bench, "validate_config", "call", None),
        ("bench.build_bundle", bench, "build_bundle", "call", None),
        ("bench.emit_results", bench, "emit_results", "call", _emit_bytes),
        ("kpi.run_ber", kpi, "run_ber", "call", None),
        ("kpi.papr_samples", kpi, "papr_samples", "call", None),
        ("kpi.papr", kpi, "papr", "call", None),
        ("kpi.qam_frame", kpi, "qam_frame_source", "factory", None),
        ("kpi.ddam_frame", kpi, "ddam_frame_source", "factory", None),
        ("channel.realize", channel.ChannelConfig, "realize", "call", None),
        ("channel.apply_channel", kpi, "apply_channel", "call", None),
        ("waveforms.transmit", waveforms.WaveformBundle, "transmit", "call", None),
        ("waveforms.receive", waveforms.WaveformBundle, "receive", "call", None),
        ("waveforms.effective_channel", kpi, "effective_channel", "call", None),
        ("waveforms.ddam_precode", kpi, "ddam_precode", "call", None),
        ("detection.mmse_equalize", kpi, "mmse_equalize", "call", _mmse_flops),
        ("detection.map_bits", kpi, "map_bits", "call", None),
        ("detection.bits_for_indices", kpi, "bits_for_indices", "call", None),
    ]
    rows += [
        (f"transforms.{fn}", transforms, fn, "call", None)
        for fn in getattr(transforms, "__all__", ())
    ]
    return rows


@contextmanager
def installed(tracer: Tracer):
    """Wrap every program binding for the duration of the block."""
    saved = []
    try:
        for name, owner, attr, kind, count in program_bindings():
            original = getattr(owner, attr, None)
            if original is None:
                continue
            if kind == "factory":
                wrapped = tracer.wrap_factory(name, original)
            else:
                wrapped = tracer.wrap(name, original, count)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_spans() -> list[str]:
    """Spans reported as ``<name>.calls`` and ``<name>.self_s``.

    The wrapped functions of ``program_bindings``, with the transform
    builders folded into ``transforms.total``.
    """
    names = [row[0] for row in program_bindings() if not row[0].startswith("transforms.")]
    return names + ["transforms.total"]


def layer_metrics(summary: dict[str, dict], counters: dict[str, float]) -> dict[str, tuple]:
    """Per-layer metrics as name -> (value, unit); transform builders summed."""
    total = {"calls": 0, "self_s": 0.0}
    for name, row in summary.items():
        if name.startswith("transforms."):
            total["calls"] += row["calls"]
            total["self_s"] += row["self_s"]
    rows = dict(summary, **{"transforms.total": total})
    out = {}
    for name in layer_spans():
        row = rows.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.self_s"] = (row["self_s"], "s")
    out["detection.mmse_equalize.gflop"] = (
        counters.get("detection.mmse_equalize.gflop", 0.0), "GFLOP-computed")
    out["bench.emit_results.bytes"] = (int(counters.get("bench.emit_results.bytes", 0)), "bytes")
    return out
