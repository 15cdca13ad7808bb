"""Campaign execution: one path from a task list to its results.

A figure-scale campaign (six strategy curves x several axis points x
multi-seed replication) is embarrassingly parallel: every run is
independently seeded via ``RandomStreams(config.seed)``, so runs share no
state and can execute in any order — or concurrently — with bit-identical
results.  :class:`CampaignExecutor` takes every campaign down the same
path: content-address each task (:func:`run_key`), serve what the
:class:`~repro.experiments.store.ResultStore` already holds, run the
rest — inline, or on one streaming process pool — and commit the
completions to the store as they arrive.

Campaigns against a store are therefore *resumable and idempotent*: the
executor commits about every :data:`COMMIT_INTERVAL_S` while points
complete, so a campaign killed at any moment (``kill -9`` included) has
lost only the completions since its last commit, and the rerun serves
the rest from the store.  To force a re-run, run without a store or
delete its directory.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import fields, is_dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import SimulationResult, run_simulation
from repro.experiments.store import STORE_FORMAT_VERSION, ResultStore
from repro.sim.rng import sha256

__all__ = [
    "CampaignExecutor",
    "CampaignRunError",
    "env_jobs",
    "run_key",
]

#: Seconds between store commits: the store is committed when a
#: completion arrives this long after the last commit, and when the
#: campaign ends.  A run slower than this is on disk the moment it
#: reaches the parent; a burst of fast ones costs one commit per interval.
COMMIT_INTERVAL_S = 1.0

#: One unit of campaign work.
RunTask = Tuple[SimulationConfig, str, str]

#: One pending unit: ``(key, task)``.
PendingTask = Tuple[str, RunTask]

#: One finished unit: ``(key, task, status, payload)`` — ``status`` is
#: ``"ok"`` (payload = the result) or ``"error"`` (payload = the worker's
#: formatted traceback).
Completion = Tuple[str, RunTask, str, object]


def env_jobs(name: str, default: int = 1) -> int:
    """Parse a worker-count environment variable (``REPRO_JOBS`` etc.).

    Unset or blank means ``default``; anything that is not a positive
    integer raises :class:`ConfigurationError` instead of surfacing later
    as an opaque pool failure.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")
    return value


#: Leaf types ``_plain`` returns without looking further.
_ATOMS = frozenset((int, float, str, bool, type(None)))


def _plain(value):
    """``value`` as :func:`dataclasses.asdict` hands it to ``json.dumps``.

    Dataclasses become dicts and tuples lists, recursively; everything
    else is returned as is.  ``asdict`` deep-copies each leaf on the way,
    which costs most of a warm campaign's time and changes no byte of
    the JSON.
    """
    if type(value) in _ATOMS:
        return value
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def run_key(config: SimulationConfig, spec: str, scenario: str = "standard") -> str:
    """Content address of one run: hash of everything that determines it.

    Every dataclass field of ``config`` (including nested thresholds)
    participates, so any parameter change — seed included — yields a new
    key, while re-constructing an equal config hits the same entry.
    """
    payload = {
        "version": STORE_FORMAT_VERSION,
        "config": _plain(config),
        "spec": spec.strip().lower(),
        "scenario": scenario,
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return sha256(blob.encode("utf-8")).hexdigest()


def execute_one(task: RunTask) -> Tuple[str, object]:
    """Run one simulation; never let a worker exception escape raw.

    Returns ``("ok", result)`` or ``("error", formatted_traceback)``:
    re-raising the original exception across a process boundary would
    require it to pickle, which arbitrary exceptions need not.
    """
    config, spec, scenario = task
    try:
        return "ok", run_simulation(config, spec, scenario)
    except Exception:
        return "error", traceback.format_exc()


def _run_serial(pending: Sequence[PendingTask]) -> Iterator[Completion]:
    """Inline execution, in task order."""
    for key, task in pending:
        status, payload = execute_one(task)
        yield key, task, status, payload


def _run_pool(pending: Sequence[PendingTask], jobs: int) -> Iterator[Completion]:
    """Process-pool fan-out with streaming (``as_completed``) results."""
    # Imported where the pool is created: a serial run never needs them.
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
        futures = {
            pool.submit(execute_one, task): (key, task)
            for key, task in pending
        }
        try:
            for future in as_completed(futures):
                key, task = futures[future]
                status, payload = future.result()
                yield key, task, status, payload
        except BrokenProcessPool as exc:
            # A worker died without reporting (OOM kill, segfault): blame
            # the task whose result raised, which never finished.
            yield key, task, "error", f"worker process died abruptly: {exc}"
        finally:
            for future in futures:
                future.cancel()


class CampaignRunError(SimulationError):
    """One run of a campaign failed; carries enough context to reproduce it.

    The executor raises this instead of letting a worker traceback
    propagate half-decoded (or, worse, letting a dead worker hang the
    pool): it names the ``(spec, scenario)`` point, keeps the exact
    ``config``, and embeds the worker's formatted traceback.  Points that
    completed before the failure are already committed to the result
    store, so a rerun resumes instead of restarting.
    """

    def __init__(
        self,
        spec: str,
        scenario: str,
        config: SimulationConfig,
        worker_traceback: str,
    ) -> None:
        self.spec = spec
        self.scenario = scenario
        self.config = config
        self.worker_traceback = worker_traceback
        super().__init__(
            f"campaign run failed: spec={spec!r} scenario={scenario!r} "
            f"seed={config.seed} — worker traceback:\n{worker_traceback}"
        )


class CampaignExecutor:
    """Run batches of independent simulation tasks, stored and in parallel.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (default) runs inline, more fan the
        pending points out over one process pool.
    store:
        Optional :class:`~repro.experiments.store.ResultStore`.  Points
        it already holds are served from it without simulating; finished
        runs are committed to it as they arrive.  Without one, nothing
        persists and every point runs.
    """

    def __init__(self, jobs: int = 1, store: Optional[ResultStore] = None) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs!r}")
        self.jobs = jobs
        self.store = store
        #: Simulations actually executed (store hits excluded).
        self.runs_executed = 0
        #: Tasks served from the store without simulating.
        self.store_hits = 0

    # ------------------------------------------------------------------
    def run_one(
        self,
        config: SimulationConfig,
        spec: str,
        scenario: str = "standard",
    ) -> SimulationResult:
        """Run (or fetch) a single simulation."""
        return self.run_many([(config, spec, scenario)])[0]

    def run_many(self, tasks: Sequence[RunTask]) -> List[SimulationResult]:
        """Run every task, returning results in task order.

        Identical tasks (same content address) are executed once and
        share their result; store-resident tasks are served without
        simulating.  Parallel execution is bit-identical to serial
        because every run is a pure function of its ``(config, spec,
        scenario)`` triple.
        """
        keys = [run_key(config, spec, scenario) for config, spec, scenario in tasks]
        unique: Dict[str, RunTask] = {}
        for key, task in zip(keys, tasks):
            unique.setdefault(key, task)

        resolved: Dict[str, SimulationResult] = {}
        if self.store is not None:
            resolved = self.store.get_many(unique)
            self.store_hits += len(resolved)
        pending = [(key, task) for key, task in unique.items() if key not in resolved]

        resolved.update(self._execute(pending))
        return [resolved[key] for key in keys]

    # ------------------------------------------------------------------
    def _execute(
        self, pending: Sequence[PendingTask]
    ) -> Dict[str, SimulationResult]:
        """Stream pending tasks through the workers, committing as we go.

        Completed points are committed *before* a later failure can
        raise, so an interrupted campaign keeps everything that finished.
        """
        fresh: Dict[str, SimulationResult] = {}
        if not pending:
            return fresh
        if self.jobs == 1 or len(pending) == 1:
            completions = _run_serial(pending)
        else:
            completions = _run_pool(pending, self.jobs)
        unsaved: List[Tuple[str, SimulationResult]] = []
        committed_at = time.monotonic()
        try:
            for key, task, status, payload in completions:
                if status == "error":
                    config, spec, scenario = task
                    raise CampaignRunError(spec, scenario, config, str(payload))
                result: SimulationResult = payload  # type: ignore[assignment]
                fresh[key] = result
                self.runs_executed += 1
                if self.store is not None:
                    unsaved.append((key, result))
                    now = time.monotonic()
                    if now - committed_at >= COMMIT_INTERVAL_S:
                        self.store.put_many(unsaved)
                        unsaved.clear()
                        committed_at = now
        finally:
            try:
                if unsaved:
                    self.store.put_many(unsaved)
            finally:
                # Leaves the generator's ``with`` now: a pool shuts down
                # here, not whenever the generator is collected.
                completions.close()
        return fresh
