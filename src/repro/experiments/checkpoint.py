"""Crash-resumable experiment suites: per-cell checkpoints in the run cache.

A full-scale suite is hours of simulation; a crash (OOM kill, machine
reboot, Ctrl-C) used to throw all completed cells away.  This module
checkpoints the grid **after every completed cell**, so ``hidisc suite
--resume`` replays only the missing cells and produces a payload identical
to an uninterrupted run (modulo ``elapsed_seconds``).

Design mirrors :mod:`repro.experiments.cache`:

* **Content-addressed suite keys.**  :func:`suite_key` hashes the package
  version, the machine-config fingerprint, the mode tuple and every
  workload fingerprint — any change in scale, seed, configuration or code
  version lands in a different checkpoint directory, so ``--resume`` can
  never mix cells from incompatible runs.
* **Atomic per-cell stores.**  Each completed :class:`RunResult` is
  pickled to ``<cache>/suites/<key>/<benchmark>__<mode>.pkl`` via
  write-temp-then-rename; a crash mid-store never publishes a torn cell.
* **Corruption tolerance.**  An unreadable or unpicklable cell is deleted
  and reported as missing — the resume recomputes it.  Like the run cache,
  checkpoints accelerate; they are never a correctness dependency.

The simulators are deterministic, so a recomputed cell is bit-identical to
the crashed run's would-have-been result — resuming cannot change any
number in the payload.
"""

from __future__ import annotations

import hashlib
import pickle
from collections.abc import Sequence
from pathlib import Path

from ..config import MachineConfig, SamplingPlan
from ..telemetry import metrics, spans
from ..workloads import Workload
from .cache import (
    ENTRY_SUFFIX,
    SUITES_DIR,
    RunCache,
    config_fingerprint,
    workload_fingerprint,
)
from .ledger import atomic_write

#: Separator between benchmark and mode in cell file names (benchmark
#: names are identifiers, so a double underscore cannot collide).
_CELL_SEP = "__"


def suite_key(config: MachineConfig, workloads: Sequence[Workload],
              modes: Sequence[str],
              sampling: "SamplingPlan | None" = None) -> str:
    """Content-addressed identity of one suite grid.

    *sampling* (a :class:`~repro.config.SamplingPlan`, or ``None`` for
    full-detail runs) is part of the identity: sampled and full results —
    and results from different plans — land in different checkpoint
    directories and can never alias.
    """
    from .. import __version__

    text = "\x1f".join(
        ("hidisc-suite", __version__, config_fingerprint(config),
         ",".join(modes), f"sampling={sampling!r}")
        + tuple(workload_fingerprint(w) for w in workloads)
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class SuiteCheckpoint:
    """Per-cell checkpoint store for one suite grid.

    Construct via :meth:`for_suite` (which derives the directory from the
    run cache and the suite identity) or directly with an explicit root.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.stores = 0
        self.loads = 0
        self.corrupt = 0

    @classmethod
    def for_suite(cls, cache: RunCache, config: MachineConfig,
                  workloads: Sequence[Workload],
                  modes: Sequence[str],
                  sampling: "SamplingPlan | None" = None) -> "SuiteCheckpoint":
        key = suite_key(config, workloads, modes, sampling=sampling)
        return cls(cache.root / SUITES_DIR / key)

    # ------------------------------------------------------------------
    def cell_path(self, benchmark: str, mode: str) -> Path:
        return self.root / f"{benchmark}{_CELL_SEP}{mode}{ENTRY_SUFFIX}"

    def store(self, benchmark: str, mode: str, result) -> None:
        """Atomically persist one completed cell (best-effort, like the
        run cache: an unwritable directory degrades to a no-op)."""
        try:
            with spans.span("checkpoint_store", cat="checkpoint",
                            cell=f"{benchmark}/{mode}"):
                atomic_write(self.cell_path(benchmark, mode),
                             lambda fh: pickle.dump(
                                 result, fh,
                                 protocol=pickle.HIGHEST_PROTOCOL),
                             binary=True)
        except OSError:
            return
        self.stores += 1
        metrics.inc("checkpoint_stores")

    def load(self, benchmark: str, mode: str):
        """Return the checkpointed :class:`RunResult`, or ``None``.

        Unreadable or unpicklable cells are deleted and reported missing
        (the resume recomputes them).
        """
        path = self.cell_path(benchmark, mode)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        try:
            result = pickle.loads(blob)
        except Exception:
            result = None
        if result is None or getattr(result, "benchmark", None) != benchmark:
            self.corrupt += 1
            metrics.inc("checkpoint_corrupt")
            spans.instant("checkpoint_corrupt_cell", cat="checkpoint",
                          cell=f"{benchmark}/{mode}")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.loads += 1
        metrics.inc("checkpoint_replayed")
        spans.instant("checkpoint_replay", cat="checkpoint",
                      cell=f"{benchmark}/{mode}")
        return result

    # ------------------------------------------------------------------
    def cells(self) -> list[Path]:
        """Checkpointed cell files (sorted for determinism)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"*{ENTRY_SUFFIX}"))

    def clear(self) -> int:
        """Delete every cell (after a suite completes); returns count."""
        removed = 0
        for path in self.cells():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        try:
            self.root.rmdir()
        except OSError:
            pass
        return removed
