"""One phase of a benchmark run, in a fresh Python process.

``run.py`` starts this script once per phase so that every timed pass
has its own peak resident memory (``ru_maxrss`` is a process high-water
mark) and its own imports:

``setup``  import the simulator and build the seed's ``Workload``
           objects, then stop (a set-up time sample);
``prime``  fill the run cache with the scenario's compiled workloads, or
           with ``--full`` run the whole cold pass and report its digest;
``run``    one timed pass of the scenario; with ``--trace-out`` it is
           traced layer by layer (see ``layers.py``).

The result is one JSON object written to ``--out``.  ``ready`` is the
``time.monotonic()`` stamp taken when set-up ended; ``run.py`` subtracts
its own launch stamp from it (CLOCK_MONOTONIC is system-wide on Linux).

Usage: python3 perfbench/child.py --scenario NAME --seed N --phase PHASE
       --cache DIR --out FILE [--full] [--trace-out FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _import_simulator():
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("setup", "prime", "run"),
                        required=True)
    parser.add_argument("--cache", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    _import_simulator()
    import layers
    import scenarios
    from repro.experiments.cache import RunCache

    scenario = scenarios.SCENARIOS[args.scenario]
    workloads = scenario.workloads(args.seed)
    out: dict = {"ready": time.monotonic(),
                 "cells": scenario.cells(workloads)}
    if args.phase == "setup":
        return _write(args.out, out)

    cache = RunCache(args.cache)
    start = time.perf_counter()
    if args.phase == "prime" and not args.full:
        scenarios.prime(workloads, cache)
        out["work_s"] = time.perf_counter() - start
        return _write(args.out, out)

    tracer = layers.Tracer() if args.trace_out else None
    with (layers.instrument(tracer) if tracer else nullcontext()), \
            (tracer.span("experiments.suite.run_suite") if tracer
             else nullcontext()):
        suite, done, error = scenarios.run_pass(scenario, workloads, cache)
    wall_s = time.perf_counter() - start
    out.update(wall_s=wall_s, error=error,
               failed=out["cells"] - done,
               rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               / 1024.0,
               cache_hits=cache.hits, cache_misses=cache.misses)
    if suite is not None:
        broken = scenarios.broken_cells(suite)
        out.update(broken=broken, failed=len(broken),
                   work=scenarios.work(suite),
                   digest=scenarios.digest(suite),
                   model=scenarios.model_stats(suite))
    warm_pass = args.phase == "run" and scenario.warm
    if warm_pass and (cache.misses or cache.hits != len(workloads)):
        # A warm pass that recompiles is a cold pass: fail its cells.
        out["failed"] += cache.misses * len(scenario.modes)
        out["error"] = (out["error"] or
                        f"warm cache: {cache.hits} hits, {cache.misses} "
                        f"misses for {len(workloads)} lookups")
    if tracer is not None:
        out["layers"] = layers.layer_metrics(tracer, wall_s)
        layers.write_perfetto(tracer, args.trace_out,
                              f"perfbench {scenario.name} seed {args.seed}")
    return _write(args.out, out)


def _write(path: Path, out: dict) -> int:
    path.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
