"""Call-site spans and work counters for the traced run.

Each ``ddcap`` function below is wrapped in the namespace of the module that
*calls* it: ``from .signals import canonicalize_phase`` binds the name in
``ddcap.zeros`` at import time, so patching ``ddcap.signals`` alone would miss
those calls.  A span is named ``<layer>.<function>``, where the layer is the
module that defines the function, and records its op, its parent span and its
start and end.  Spans stay in memory and are written out once, at the end of
the run.  A span's self time is its duration minus the durations of its
children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass

LAYERS = ("cli", "formats", "signals", "zeros", "minphase", "channel")

# (calling module, function, layer that defines it)
CALL_SITES = [
    ("ddcap.cli", "enumerate_family", "zeros"),
    ("ddcap.cli", "min_phase_from_intensity", "minphase"),
    ("ddcap.cli", "mc_mi", "channel"),
    ("ddcap.cli", "counting_entropy", "channel"),
    ("ddcap.cli", "apply_noise", "channel"),
    ("ddcap.cli", "read_signal_json", "formats"),
    ("ddcap.cli", "write_signal_json", "formats"),
    ("ddcap.cli", "read_intensity_csv", "formats"),
    ("ddcap.cli", "write_intensity_csv", "formats"),
    ("ddcap.cli", "write_family_json", "formats"),
    ("ddcap.cli", "write_report_json", "formats"),
    ("ddcap.cli", "intensity_grid", "signals"),
    ("ddcap.cli", "field_grid", "signals"),
    ("ddcap.cli", "samples_to_spectrum", "signals"),
    ("ddcap.zeros", "find_zeros", "zeros"),
    ("ddcap.zeros", "flip_zeros", "zeros"),
    ("ddcap.zeros", "canonicalize_phase", "signals"),
    ("ddcap.zeros", "samples_to_spectrum", "signals"),
    ("ddcap.zeros", "spectrum_to_samples", "signals"),
    ("ddcap.minphase", "canonicalize_phase", "signals"),
    ("ddcap.minphase", "field_grid", "signals"),
    ("ddcap.minphase", "samples_to_spectrum", "signals"),
    ("ddcap.minphase", "spectrum_to_samples", "signals"),
    ("ddcap.channel", "canonicalize_phase", "signals"),
    ("ddcap.channel", "intensity_grid", "signals"),
    ("ddcap.channel", "chain_bound_check", "channel"),  # called by the benchmark itself
]

# (name, unit, better): what ``--trace 1`` prints.  ``trace.overhead_ratio``
# and the ``probe.*`` counts are filled in by run.py.
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("cli.refused", "count", "lower"),
    ("zeros.self_s", "s", "lower"),
    ("zeros.enumerate_family.self_s", "s", "lower"),
    ("zeros.find_zeros.self_s", "s", "lower"),
    ("zeros.flip_zeros.calls", "count", "lower"),
    ("zeros.flip_zeros.self_s", "s", "lower"),
    ("zeros.members", "count", "higher"),
    ("zeros.self_s_per_member", "s", "lower"),
    ("signals.self_s", "s", "lower"),
    ("signals.canonicalize_phase.calls", "count", "lower"),
    ("signals.canonicalize_phase.self_s", "s", "lower"),
    ("signals.intensity_grid.calls", "count", "lower"),
    ("signals.field_grid.self_s", "s", "lower"),
    ("formats.self_s", "s", "lower"),
    ("formats.write_family_json.self_s", "s", "lower"),
    ("formats.write_intensity_csv.self_s", "s", "lower"),
    ("formats.read_intensity_csv.self_s", "s", "lower"),
    ("formats.bytes_written", "B", "lower"),
    ("formats.bytes_read", "B", "lower"),
    ("minphase.self_s", "s", "lower"),
    ("minphase.min_phase_from_intensity.calls", "count", "lower"),
    ("minphase.min_phase_from_intensity.self_s", "s", "lower"),
    ("minphase.grid_points", "count", "lower"),
    ("minphase.grid_doublings", "count", "lower"),
    ("minphase.self_s_per_grid_point", "s", "lower"),
    ("channel.self_s", "s", "lower"),
    ("channel.mc_mi.self_s", "s", "lower"),
    ("channel.mc_mi.peak_mib", "MiB", "lower"),
    ("channel.mc_samples", "count", "higher"),
    ("channel.self_s_per_mc_sample", "s", "lower"),
    ("channel.counting_entropy.self_s", "s", "lower"),
    ("channel.chain_bound_check.self_s", "s", "lower"),
    ("channel.clustered_items", "count", "higher"),
    ("channel.self_s_per_clustered_item", "s", "lower"),
    ("probe.refused", "count", "lower"),
    ("probe.wrong", "count", "lower"),
    ("trace.overhead_ratio", "1", "higher"),
]


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start_ns: int
    end_ns: int = 0


class NullTracer:
    """Stand-in for untraced passes: records nothing."""

    op = None

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    """Spans and counters of the traced passes, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._last_grid = 0

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(len(self.spans), self._stack[-1] if self._stack else None, self.op, name, 0)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start_ns = time.perf_counter_ns()
        try:
            yield
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()

    @contextlib.contextmanager
    def patched(self):
        """Install the call-site wrappers for the duration of one traced pass."""
        originals = []
        for module_name, attr, layer in CALL_SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(f"{layer}.{attr}", fn))
        minphase = importlib.import_module("ddcap.minphase")
        channel = importlib.import_module("ddcap.channel")
        originals += [(minphase, "periodic_hilbert", minphase.periodic_hilbert),
                      (channel, "_cluster", channel._cluster)]
        minphase.periodic_hilbert = self._count_hilbert(minphase.periodic_hilbert)
        channel._cluster = self._count_clustered(channel._cluster)
        try:
            yield
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def _wrap(self, name: str, fn):
        if name == "channel.mc_mi":
            return self._wrap_mc_mi(fn)
        if name == "minphase.min_phase_from_intensity":
            return self._wrap_min_phase(fn)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self.counters, args, result)
            return result

        return wrapper

    def _wrap_mc_mi(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                with self.span("channel.mc_mi"):
                    report = fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self.counters["channel.mc_mi.peak_mib"] = max(self.counters["channel.mc_mi.peak_mib"], peak / 2**20)
            self.counters["channel.mc_samples"] += report.n_samples
            return report

        return wrapper

    def _wrap_min_phase(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self.counters["minphase.hilbert_calls"]
            try:
                with self.span("minphase.min_phase_from_intensity"):
                    return fn(*args, **kwargs)
            finally:
                # one Hilbert transform per grid size tried; the last size is the final grid
                tried = self.counters["minphase.hilbert_calls"] - before
                if tried:
                    self.counters["minphase.grid_doublings"] += tried - 1
                    self.counters["minphase.grid_points"] += self._last_grid

        return wrapper

    def _count_hilbert(self, fn):
        @functools.wraps(fn)
        def wrapper(series):
            self.counters["minphase.hilbert_calls"] += 1
            self._last_grid = len(getattr(series, "values", series))
            return fn(series)

        return wrapper

    def _count_clustered(self, fn):
        @functools.wraps(fn)
        def wrapper(vectors, tol):
            labels = fn(vectors, tol)
            self.counters["channel.clustered_items"] += len(vectors)
            return labels

        return wrapper

    def layer_metrics(self, first_span: int) -> dict[str, float]:
        """Per-layer metrics of the spans from ``first_span`` on, plus the counters."""
        spans = self.spans[first_span:]
        child_ns: dict[int, int] = defaultdict(int)
        for s in spans:
            if s.parent is not None:
                child_ns[s.parent] += s.end_ns - s.start_ns
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for s in spans:
            own = s.end_ns - s.start_ns - child_ns[s.id]
            if own < 0:
                raise RuntimeError(f"span {s.name} (op {s.op}) has negative self time {own} ns")
            calls[s.name] += 1
            self_ns[s.name] += own
        values: dict[str, float] = dict(self.counters)
        for name in calls:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = self_ns[name] / 1e9
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(ns for name, ns in self_ns.items() if name.startswith(layer + ".")) / 1e9

        def get(key):
            return values.get(key, 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        values["zeros.self_s_per_member"] = ratio(get("zeros.self_s"), get("zeros.members"))
        values["minphase.self_s_per_grid_point"] = ratio(get("minphase.self_s"), get("minphase.grid_points"))
        values["channel.self_s_per_mc_sample"] = ratio(get("channel.mc_mi.self_s"), get("channel.mc_samples"))
        values["channel.self_s_per_clustered_item"] = ratio(
            get("channel.counting_entropy.self_s") + get("channel.chain_bound_check.self_s"),
            get("channel.clustered_items"))
        return values

    def dump(self, path: os.PathLike):
        """Write every recorded span as one JSON line each."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns]) + "\n")


def _file_size(counter: str):
    def after(counters, args, result):
        counters[counter] += os.path.getsize(args[0])

    return after


_AFTER = {
    "zeros.enumerate_family": lambda counters, args, result: counters.update({"zeros.members": len(result)}),
    "formats.write_signal_json": _file_size("formats.bytes_written"),
    "formats.write_intensity_csv": _file_size("formats.bytes_written"),
    "formats.write_family_json": _file_size("formats.bytes_written"),
    "formats.write_report_json": _file_size("formats.bytes_written"),
    "formats.read_signal_json": _file_size("formats.bytes_read"),
    "formats.read_intensity_csv": _file_size("formats.bytes_read"),
}
