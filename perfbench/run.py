"""End-to-end benchmark of the HiDISC simulator (see README.md).

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics: set-up samples, then
timed passes of the workload, each in a fresh process, for ``--seconds``
(a pass starts only if the previous one says it will fit; there is always
one).  ``--trace 1`` runs one untraced and one traced pass and reports
the per-layer metrics.  Human-readable lines come first; the last line
of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (grid cells) and ``metrics`` (value and unit by name).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: per-run caches (deleted at exit),
#: Perfetto traces and the cold/warm digest records.
RUNS = ROOT / ".perfbench_runs"

WORKLOADS = ("paper_grid", "large_cold_sampled", "large_warm_sampled")
#: Workloads that run the same cells and so must print the same digest.
TWINS = ("large_cold_sampled", "large_warm_sampled")
#: The workload whose run cache is primed during set-up.
WARM = "large_warm_sampled"

END_TO_END = {
    "wall_s": "s",
    "sim_instr_per_s": "instr/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "workloads.build_s": "s",
    "sim.functional.seq_s": "s",
    "sim.functional.seq_instr_per_s": "instr/s",
    "slicer.compile_s": "s",
    "sim.functional.dec_s": "s",
    "sim.functional.dec_instr_per_s": "instr/s",
    "sim.trace.plans_s": "s",
    "experiments.cache.store_s": "s",
    "experiments.cache.entry_mb": "MB",
    "experiments.cache.load_s": "s",
    "experiments.cache.hit_ratio": "ratio",
    "experiments.checkpoint.store_s": "s",
    "sim.decoupled.replay_s": "s",
    "sim.decoupled.kcycles_per_s": "kcycles/s",
    "sim.sampling.s": "s",
    "sim.sampling.detail_fraction": "ratio",
    "sim.sampling.exact_fallbacks": "count",
    "sim.sampling.max_ci95": "ratio",
    "host.tracing_overhead_s": "s",
    "host.unaccounted_s": "s",
    "host.unaccounted_share": "ratio",
    "cell_error_rate": "ratio",
    "model.cycles_total": "cycles",
    "model.hidisc_mean_speedup": "x",
    "model.hidisc_speedup_err_vs_paper": "ratio",
    "model.l1_miss_reduction_err_vs_paper": "ratio",
}

#: Set-up samples per run (the median is reported).
SETUP_SAMPLES = 5
#: Every run ends within this many seconds (the contract allows 180).
RUN_BUDGET_S = 170.0


class ChildFailed(RuntimeError):
    pass


class Run:
    """One benchmark run: spawns phases, collects and checks results."""

    def __init__(self, workload: str, seed: int, scratch: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.spawned = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, phase: str, cache: Path | None = None,
              *extra: str) -> dict:
        """Run one ``child.py`` phase to completion; return its result."""
        self.spawned += 1
        out = self.scratch / f"{phase}-{self.spawned}.json"
        cmd = [sys.executable, str(HERE / "child.py"),
               "--scenario", self.workload, "--seed", str(self.seed),
               "--phase", phase, "--out", str(out), *extra]
        if cache is not None:
            cmd += ["--cache", str(cache)]
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("HIDISC_")}
        env.update(PYTHONHASHSEED="0", TMPDIR=str(self.scratch))
        launched = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True,
                timeout=max(1.0, self.deadline - launched))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{phase} phase overran the "
                              f"{RUN_BUDGET_S:.0f} s run budget") from None
        if proc.returncode != 0:
            raise ChildFailed(f"{phase} phase exited {proc.returncode}:\n"
                              f"{proc.stdout[-4000:]}")
        result = json.loads(out.read_text())
        result["setup_s"] = result["ready"] - launched
        result["elapsed_s"] = time.monotonic() - launched
        return result

    def count(self, result: dict, label: str) -> None:
        """Account one pass's cells and any failure it reports."""
        self.attempted += result["cells"]
        self.failed += min(result["cells"], result["failed"])
        if result.get("error"):
            self.problems.append(f"{label}: {result['error']}")
        self.problems += [f"{label}: {b}" for b in result.get("broken", [])]

    def compare(self, label: str, a: dict, b: dict) -> None:
        if a.get("digest") != b.get("digest"):
            self.problems.append(f"digest mismatch ({label}): "
                                 f"{a.get('digest')} != {b.get('digest')}")

    def fresh_cache(self) -> Path:
        path = self.scratch / f"cache-{self.spawned}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    # ------------------------------------------------------------------
    def measure(self, seconds: int) -> tuple[dict, list[dict]]:
        """End-to-end metrics (``--trace 0``)."""
        setup = [self.spawn("setup")["setup_s"]
                 for _ in range(SETUP_SAMPLES - 1)]
        warm = self.workload == WARM
        cache = self.fresh_cache()
        prime_s = self.spawn("prime", cache)["work_s"] if warm else 0.0
        passes: list[dict] = []
        start = time.monotonic()
        while True:
            if warm:
                shutil.rmtree(cache / "suites", ignore_errors=True)
            else:
                shutil.rmtree(cache, ignore_errors=True)
            result = self.spawn("run", cache)
            self.count(result, f"pass {len(passes) + 1}")
            passes.append(result)
            setup.append(result["setup_s"])
            if time.monotonic() - start + result["elapsed_s"] > seconds:
                break
        for other in passes[1:]:
            self.compare("repeated pass", passes[0], other)
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "sim_instr_per_s": statistics.median(
                p.get("work", 0) / p["wall_s"] for p in passes),
            "setup_s": statistics.median(setup) + prime_s,
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        }
        return metrics, passes

    def trace(self) -> tuple[dict, list[dict]]:
        """Per-layer metrics (``--trace 1``)."""
        cache = self.fresh_cache()
        passes = []
        if self.workload == WARM:
            # Prime with a whole cold pass: its digest must match.
            passes.append(self.spawn("prime", cache, "--full"))
            self.count(passes[0], "priming cold pass")
            shutil.rmtree(cache / "suites", ignore_errors=True)
            plain = self.spawn("run", cache)
            self.compare("cold vs warm", passes[0], plain)
            shutil.rmtree(cache / "suites", ignore_errors=True)
        else:
            plain = self.spawn("run", cache)
            cache = self.fresh_cache()
        self.count(plain, "untraced pass")
        traced_out = RUNS / "traces" / f"{self.workload}-seed{self.seed}.json"
        traced = self.spawn("run", cache, "--trace-out", str(traced_out))
        self.count(traced, "traced pass")
        self.compare("traced vs untraced", plain, traced)
        metrics = dict(traced.get("layers", {}))
        metrics["host.tracing_overhead_s"] = (traced["wall_s"]
                                              - plain["wall_s"])
        metrics.update(traced.get("model", {}))
        print(f"perfetto trace: {traced_out.relative_to(ROOT)}")
        return metrics, passes + [plain, traced]

    def check_twin_digest(self, digest: str | None) -> None:
        """Cross-check the twin workload's digest for this seed and code.

        Cold and warm passes over the same cells must print the same
        digest; whichever of the two runs second on a seed checks it.
        """
        if digest is None or self.workload not in TWINS:
            return
        record = RUNS / "digests" / f"{source_hash()}-seed{self.seed}.json"
        seen = json.loads(record.read_text()) if record.is_file() else {}
        for twin, other in seen.items():
            if twin != self.workload and other != digest:
                self.problems.append(f"digest mismatch ({twin} printed "
                                     f"{other}, this run {digest})")
        seen[self.workload] = digest
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(seen))


def source_hash() -> str:
    """Identity of the simulator sources, so records never go stale."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}; run this from "
              f"the root of a checkout", file=sys.stderr)
        return 2

    scratch = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, scratch)
    metrics: dict = {}
    passes: list[dict] = []
    try:
        if args.trace:
            metrics, passes = run.trace()
        else:
            metrics, passes = run.measure(args.seconds)
    except ChildFailed as exc:
        run.problems.append(str(exc))
        run.attempted = max(run.attempted, 1)
        run.failed = max(run.failed, 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    digests = {p["digest"] for p in passes if "digest" in p}
    run.check_twin_digest(next(iter(digests)) if len(digests) == 1 else None)
    if args.trace:
        metrics["cell_error_rate"] = run.failed / max(run.attempted, 1)
    units = PER_LAYER if args.trace else END_TO_END

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} pass(es), {run.attempted} cells attempted, "
          f"{run.failed} failed")
    model = next((p["model"] for p in passes if "model" in p), {})
    print(f"  digest {','.join(sorted(digests)) or '-'}  " + "  ".join(
        f"{k}={v!r}" for k, v in model.items()))
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:40s} {metrics[name]:>16.6g} {unit}")
    for problem in run.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
