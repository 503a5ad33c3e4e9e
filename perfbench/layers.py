"""Per-layer tracing for the traced benchmark run.

The benchmark does not change the simulator to trace it.  Instead
:func:`instrument` wraps the public entry points of each layer (and the
one private helper the plan layer is made of, ``runner._warmup_positions``)
for the duration of one run, and every wrapper records a span in an
in-memory :class:`Tracer`.  After the run, :func:`layer_metrics` derives
per-layer *self* time (a span's duration minus the time its child spans
cover) plus the layer counts, and :func:`write_perfetto` writes the spans
as a Chrome ``trace_event`` file that Perfetto and ``chrome://tracing``
open.

Layer names follow the modules they time:

=================================  ============================================
span                               wrapped call(s)
=================================  ============================================
``workloads.build``                ``Workload.program`` on its first (building)
                                   access
``sim.functional.seq``             ``FunctionalSimulator.run``
``slicer.compile``                 ``compile_hidisc`` + ``validate_separation``
``sim.functional.dec``             ``DecoupledFunctionalSimulator.run``
``sim.trace.plans``                ``build_queue_plan``, ``build_cmas_plan`` (both
                                   calls) and the warmup-position scan
``experiments.cache.load``         ``RunCache.load``
``experiments.cache.store``        ``RunCache.store``
``experiments.checkpoint.store``   ``SuiteCheckpoint.store``
``sim.decoupled.replay``           ``Machine.run`` outside the sampling driver
                                   (full-detail timing replay)
``sim.sampling``                   ``run_sampled`` (fast-forward, detail
                                   windows and extrapolation together)
=================================  ============================================

``experiments.suite.run_suite``, ``experiments.runner.prepare`` and
``experiments.runner.run_model`` get structural spans too, so the trace
nests the same way the program does; their self time is the glue between
layers and is reported as unaccounted.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

#: Layer spans whose self time is a per-layer metric, in report order.
LAYER_SPANS = (
    "workloads.build",
    "sim.functional.seq",
    "slicer.compile",
    "sim.functional.dec",
    "sim.trace.plans",
    "experiments.cache.load",
    "experiments.cache.store",
    "experiments.checkpoint.store",
    "sim.decoupled.replay",
    "sim.sampling",
)


class Tracer:
    """Nested host-time spans, kept in memory until the run ends.

    Single-threaded by design: the benchmark drives the program serially,
    so the open spans form one stack.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "child_s": 0.0, "args": {}}
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record["args"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            if parent is not None:
                parent["child_s"] += record["end"] - record["start"]

    def inside(self, name: str) -> bool:
        return any(record["name"] == name for record in self._open)

    def self_seconds(self, name: str) -> float:
        return sum(r["end"] - r["start"] - r["child_s"]
                   for r in self.spans if r["name"] == name)

    def total(self, name: str, arg: str) -> float:
        return sum(r["args"].get(arg, 0) for r in self.spans
                   if r["name"] == name)


def _wrap(owner, attr: str, make, stack: ExitStack) -> None:
    """Replace ``owner.attr`` with ``make(original)`` until *stack* closes."""
    original = owner.__dict__[attr]
    setattr(owner, attr, make(original))
    stack.callback(setattr, owner, attr, original)


def _spanned(tracer: Tracer, name: str, count=None):
    """Wrapper factory: time every call as span *name*; *count* may add
    arguments to the span from ``(args, kwargs, result)``."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as span_args:
                result = fn(*args, **kwargs)
                if count is not None:
                    span_args.update(count(args, kwargs, result))
                return result
        return wrapper
    return make


@contextmanager
def instrument(tracer: Tracer):
    """Route every layer call through *tracer* while the block runs."""
    from repro.experiments import cache, checkpoint, runner, suite
    from repro.sim import decoupled
    from repro.sim.functional import (DecoupledFunctionalSimulator,
                                      FunctionalSimulator)
    from repro.workloads.base import Workload

    def program_getter(original):
        @functools.wraps(original.fget)
        def getter(self):
            if self._program is not None:
                return original.fget(self)
            with tracer.span("workloads.build"):
                return original.fget(self)
        return property(getter)

    def entry_size(store, key) -> int:
        try:
            return store.path_for(key).stat().st_size
        except OSError:
            return 0

    def cache_load(args, kwargs, result):
        if result is None:
            return {"lookups": 1}
        return {"lookups": 1, "hits": 1, "bytes": entry_size(*args[:2])}

    def cache_store(args, kwargs, result):
        return {"entries": 1, "bytes": entry_size(*args[:2])}

    def traced(args, kwargs, result):
        trace = kwargs.get("trace")
        return {"instructions": len(trace)} if trace is not None else {}

    def sampled_cell(args, kwargs, result):
        meta = result.sampling
        if meta.get("exact"):
            detail = meta["total_positions"]
        else:
            detail = sum(end - start for start, _, end in meta["schedule"])
        return {"covered": meta["total_positions"], "detail": detail,
                "exact": int(bool(meta.get("exact"))),
                "ci95": meta.get("cycles_rel_ci95", 0.0)}

    def machine_run(original):
        @functools.wraps(original)
        def run(self, *args, **kwargs):
            # Detail windows belong to the sampling layer's time.
            if tracer.inside("sim.sampling"):
                return original(self, *args, **kwargs)
            with tracer.span("sim.decoupled.replay") as span_args:
                result = original(self, *args, **kwargs)
                span_args["cycles"] = result.total_cycles
                return result
        return run

    with ExitStack() as stack:
        _wrap(Workload, "program", program_getter, stack)
        _wrap(FunctionalSimulator, "run",
              _spanned(tracer, "sim.functional.seq", traced), stack)
        _wrap(DecoupledFunctionalSimulator, "run",
              _spanned(tracer, "sim.functional.dec", traced), stack)
        for attr in ("compile_hidisc", "validate_separation"):
            _wrap(runner, attr, _spanned(tracer, "slicer.compile"), stack)
        for attr in ("build_queue_plan", "build_cmas_plan",
                     "_warmup_positions"):
            _wrap(runner, attr, _spanned(tracer, "sim.trace.plans"), stack)
        _wrap(runner, "run_sampled",
              _spanned(tracer, "sim.sampling", sampled_cell), stack)
        _wrap(cache.RunCache, "load",
              _spanned(tracer, "experiments.cache.load", cache_load), stack)
        _wrap(cache.RunCache, "store",
              _spanned(tracer, "experiments.cache.store", cache_store), stack)
        _wrap(checkpoint.SuiteCheckpoint, "store",
              _spanned(tracer, "experiments.checkpoint.store"), stack)
        _wrap(decoupled.Machine, "run", machine_run, stack)
        # Structural parents (run_suite calls these by module attribute).
        _wrap(runner, "prepare",
              _spanned(tracer, "experiments.runner.prepare"), stack)
        _wrap(suite, "run_model",
              _spanned(tracer, "experiments.runner.run_model"), stack)
        yield tracer


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer self times, rates and ratios of one traced run."""
    self_s = {name: tracer.self_seconds(name) for name in LAYER_SPANS}

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    lookups = tracer.total("experiments.cache.load", "lookups")
    entries = (tracer.total("experiments.cache.store", "entries")
               + tracer.total("experiments.cache.load", "hits"))
    entry_bytes = (tracer.total("experiments.cache.store", "bytes")
                   + tracer.total("experiments.cache.load", "bytes"))
    covered = tracer.total("sim.sampling", "covered")
    ci95 = [r["args"]["ci95"] for r in tracer.spans
            if r["name"] == "sim.sampling"]
    accounted = sum(self_s.values())
    return {
        "workloads.build_s": self_s["workloads.build"],
        "sim.functional.seq_s": self_s["sim.functional.seq"],
        "sim.functional.seq_instr_per_s": rate(
            tracer.total("sim.functional.seq", "instructions"),
            self_s["sim.functional.seq"]),
        "slicer.compile_s": self_s["slicer.compile"],
        "sim.functional.dec_s": self_s["sim.functional.dec"],
        "sim.functional.dec_instr_per_s": rate(
            tracer.total("sim.functional.dec", "instructions"),
            self_s["sim.functional.dec"]),
        "sim.trace.plans_s": self_s["sim.trace.plans"],
        "experiments.cache.store_s": self_s["experiments.cache.store"],
        "experiments.cache.entry_mb": rate(entry_bytes, entries) / 2**20,
        "experiments.cache.load_s": self_s["experiments.cache.load"],
        "experiments.cache.hit_ratio": rate(
            tracer.total("experiments.cache.load", "hits"), lookups),
        "experiments.checkpoint.store_s":
            self_s["experiments.checkpoint.store"],
        "sim.decoupled.replay_s": self_s["sim.decoupled.replay"],
        "sim.decoupled.kcycles_per_s": rate(
            tracer.total("sim.decoupled.replay", "cycles") / 1000.0,
            self_s["sim.decoupled.replay"]),
        "sim.sampling.s": self_s["sim.sampling"],
        "sim.sampling.detail_fraction": rate(
            tracer.total("sim.sampling", "detail"), covered),
        "sim.sampling.exact_fallbacks": tracer.total("sim.sampling", "exact"),
        "sim.sampling.max_ci95": max(ci95, default=0.0),
        "host.unaccounted_s": wall_s - accounted,
        "host.unaccounted_share": rate(wall_s - accounted, wall_s),
    }


def write_perfetto(tracer: Tracer, path: Path, label: str) -> None:
    """Write the spans as a Chrome ``trace_event`` JSON file."""
    if not tracer.spans:
        return
    origin = min(r["start"] for r in tracer.spans)
    pid = os.getpid()
    events = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
               "args": {"name": label}}]
    for record in tracer.spans:
        events.append({
            "name": record["name"], "cat": record["name"].split(".")[0],
            "ph": "X", "pid": pid, "tid": 0,
            "ts": (record["start"] - origin) * 1e6,
            "dur": (record["end"] - record["start"]) * 1e6,
            "args": dict(record["args"],
                         self_s=record["end"] - record["start"]
                         - record["child_s"]),
        })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))
