"""The benchmark's workloads: which grid cells, how one pass runs them,
and what is checked about the outcome.

Every workload is a closed loop of one serial caller: one
``run_suite(jobs=1)`` call, the path ``hidisc suite`` takes, issued only
after the previous one returned.  The program receives only the
``Workload`` objects built here from the benchmark's seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.config import MachineConfig, SamplingPlan
from repro.experiments.cache import RunCache, prepare_cached
from repro.experiments.models import MODEL_ORDER, PAPER
from repro.experiments.suite import SuiteResult, run_suite
from repro.telemetry.diff import IGNORED_KEYS
from repro.workloads import Workload, all_workloads, large_workload

#: Cores whose commit bandwidth a model's IPC can use (invariant bound).
MODEL_CORES = {
    "superscalar": ("superscalar",),
    "cp_ap": ("cp", "ap"),
    "cp_cmp": ("superscalar", "cmp"),
    "hidisc": ("cp", "ap", "cmp"),
}


@dataclass(frozen=True)
class Scenario:
    name: str
    #: large-tier benchmark names, or ``None`` for the paper-scale suite.
    large: tuple[str, ...] | None
    modes: tuple[str, ...]
    sampled: bool
    #: prime the run cache during set-up, so the timed pass only loads.
    warm: bool

    def workloads(self, seed: int) -> list[Workload]:
        if self.large is None:
            return all_workloads(seed)
        return [large_workload(name, seed=seed) for name in self.large]

    def sampling(self) -> SamplingPlan | None:
        return SamplingPlan() if self.sampled else None

    def cells(self, workloads: list[Workload]) -> int:
        return len(workloads) * len(self.modes)


SCENARIOS = {
    s.name: s for s in (
        Scenario("paper_grid", None, MODEL_ORDER, sampled=False, warm=False),
        Scenario("large_cold_sampled", ("raytrace", "dm"),
                 ("superscalar", "hidisc"), sampled=True, warm=False),
        Scenario("large_warm_sampled", ("raytrace", "dm"),
                 ("superscalar", "hidisc"), sampled=True, warm=True),
    )
}


def prime(workloads: list[Workload], cache: RunCache) -> None:
    """Fill *cache* with every compiled workload the pass will look up."""
    config = MachineConfig()
    for workload in workloads:
        prepare_cached(workload, config, cache)


def run_pass(scenario: Scenario, workloads: list[Workload],
             cache: RunCache) -> tuple[SuiteResult | None, int, str]:
    """Run the scenario's grid once; return the suite (``None`` when it
    raised), the number of cells that completed, and the error text."""
    done = 0

    def on_cell(benchmark: str, mode: str, resumed: bool) -> None:
        nonlocal done
        done += 1

    try:
        suite = run_suite(workloads=workloads, modes=scenario.modes,
                          cache=cache, sampling=scenario.sampling(),
                          on_cell=on_cell)
    except Exception as exc:  # a failing cell is a measured outcome
        return None, done, f"{type(exc).__name__}: {exc}"
    return suite, done, ""


def broken_cells(suite: SuiteResult) -> list[str]:
    """Cells that break a cheap invariant, as ``benchmark/mode: why``."""
    config = suite.config
    problems = []
    for name, bench in suite.benchmarks.items():
        for mode, result in bench.results.items():
            width = sum(getattr(config, core).commit_width
                        for core in MODEL_CORES[mode])
            why = None
            if result.cycles <= 0:
                why = f"{result.cycles} cycles"
            elif result.work_instructions != bench.compiled.work:
                why = (f"work {result.work_instructions} != compiled "
                       f"{bench.compiled.work}")
            elif result.ipc > width:
                why = f"IPC {result.ipc:.3f} above commit width {width}"
            elif not result.cpi_stacks:
                why = "no CPI stack"
            else:
                for core, stack in result.cpi_stacks.items():
                    if sum(stack.values()) != result.cycles:
                        why = (f"{core} CPI stack sums to "
                               f"{sum(stack.values())}, not {result.cycles}")
            if why:
                problems.append(f"{name}/{mode}: {why}")
    return problems


def work(suite: SuiteResult) -> int:
    """Measured-window dynamic instructions summed over every cell."""
    return sum(bench.compiled.work * len(bench.results)
               for bench in suite.benchmarks.values())


def digest(suite: SuiteResult) -> str:
    """Hash of the suite payload without its wall-clock keys."""
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items()
                    if k not in IGNORED_KEYS}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    text = json.dumps(strip(suite.to_payload()), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def model_stats(suite: SuiteResult) -> dict[str, float]:
    """Modelled-design statistics: deterministic for a seed, so a
    perf-only change must leave every one of them identical."""
    speedup = suite.mean_speedup("hidisc")
    reduction = suite.mean_miss_reduction("hidisc")
    return {
        "model.cycles_total": sum(r.cycles for b in suite.benchmarks.values()
                                  for r in b.results.values()),
        "model.hidisc_mean_speedup": speedup,
        "model.hidisc_speedup_err_vs_paper":
            speedup / PAPER.table2_speedup["hidisc"] - 1.0,
        "model.l1_miss_reduction_err_vs_paper":
            reduction / PAPER.mean_miss_reduction - 1.0,
    }
