"""One repeat of one workload, in a process of its own.

``run.py`` spawns this file with a JSON job on the command line and reads
one JSON line back.  The job carries only generated inputs (config
keyword arguments, spec, scenario); everything from ``import repro`` on
happens here, so set-up is paid — and timed — the way a ``repro run``
user pays it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from typing import Any, Dict

from clock import CalibratedClock

# ``seams`` (inspect, importlib) and ``traceback`` are imported where they
# are used: modules loaded up here would be ones ``import repro`` no
# longer has to load, and set-up time would read too low.

_INT_METRICS = (
    "transmissions", "messages", "bytes_on_air",
    "queries_issued", "queries_answered", "queries_unanswered",
)
_FLOAT_METRICS = (
    "mean_latency", "mean_hit_latency", "p95_latency",
    "local_answer_ratio", "stale_ratio", "violation_ratio",
    "mean_staleness_age",
)


def digest_of(result) -> Dict[str, Any]:
    """What a run simulated, free of wall-clock and engine-internal counts.

    ``events_processed`` and ``topology_stats`` are left out on purpose:
    coalescing events or reusing more snapshots is a legitimate speed-up
    that must not read as a behaviour change.
    """
    summary = result.summary
    digest: Dict[str, Any] = {name: getattr(summary, name) for name in _INT_METRICS}
    digest.update(
        {name: round(getattr(summary, name), 6) for name in _FLOAT_METRICS}
    )
    digest["counters"] = dict(sorted(summary.counters.items()))
    digest["transmissions_by_type"] = dict(
        sorted(summary.transmissions_by_type.items())
    )
    digest["total_queries"] = result.total_queries
    digest["total_updates"] = result.total_updates
    return digest


def run_job(job: Dict[str, Any]) -> Dict[str, Any]:
    clock = CalibratedClock()
    clock.start()
    try:
        return _measure(job, clock)
    finally:
        clock.stop()


def _measure(job: Dict[str, Any], clock: CalibratedClock) -> Dict[str, Any]:
    traced = job["traced"]
    started, started_wall = clock.now(), clock.wall()
    sys.path.insert(0, job["src"])
    from repro.experiments.config import SimulationConfig
    from repro.experiments.runner import build_simulation

    if traced:
        import repro.obs as obs
    imported, imported_wall = clock.now(), clock.wall()
    if job["import_only"]:
        return {"ok": True, "import_s": imported - started}

    timer = None
    missing = []
    if job["layers"]:
        from seams import LayerTimer, install

        timer = LayerTimer(clock.now)
        missing = install(timer)

    # Installing the shims is the harness's work, not the program's set-up.
    build_started, build_started_wall = clock.now(), clock.wall()
    config = SimulationConfig(**job["config"])
    bus = None
    if traced:
        trace_path = os.path.join(job["workdir"], f"trace-{os.getpid()}.jsonl")
        bus = obs.TraceBus()
        bus.add_sink(obs.JsonlSink(trace_path))
    simulation = build_simulation(config, job["spec"], job["scenario"], trace=bus)
    built, built_wall = clock.now(), clock.wall()

    cpu_started = time.process_time()
    trace_stats: Dict[str, int] = {}
    try:
        result = simulation.run()
        if bus is not None:
            bus.close()
            # Reload from disk: the check covers the export -> import path.
            report = obs.check_events(obs.read_jsonl(trace_path), delta=config.ttp)
            trace_stats = {
                "bytes": os.path.getsize(trace_path),
                "events": getattr(report, "events", 0),
                "reads": getattr(report, "reads_checked", 0),
                "violations": len(getattr(report, "violations", ())),
            }
    finally:
        if bus is not None:
            bus.close()
            if os.path.exists(trace_path):
                os.remove(trace_path)
    finished, finished_wall = clock.now(), clock.wall()
    cpu_s = time.process_time() - cpu_started

    summary = result.summary
    network = getattr(simulation, "network", None)
    delivered = getattr(network, "messages_delivered", 0)
    undeliverable = getattr(network, "messages_undeliverable", 0)
    return {
        "ok": True,
        # Seconds at reference speed ...
        "import_s": imported - started,
        "build_s": built - build_started,
        "run_s": finished - built,
        # ... and as the wall clock saw them.
        "setup_wall_s": imported_wall - started_wall + built_wall - build_started_wall,
        "run_wall_s": finished_wall - built_wall,
        "run_cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest_of(result),
        "events": result.events_processed,
        "core": getattr(result, "core", getattr(network, "core", "unknown")),
        "cpu": _current_cpu(),
        "topology": dict(getattr(result, "topology_stats", {})),
        "network": {
            "messages_sent": getattr(network, "messages_sent", 0),
            "delivered": delivered,
            "undeliverable": undeliverable,
        },
        "model": {
            "transmissions": summary.transmissions,
            "queries_issued": summary.queries_issued,
            "queries_answered": summary.queries_answered,
            "mean_latency_s": summary.mean_latency,
            "stale_ratio": summary.stale_ratio,
        },
        "trace": trace_stats,
        "layers": timer.stats if timer is not None else None,
        "missing_seams": missing,
    }


def _current_cpu() -> int:
    """Which core this process last ran on (field 39 of /proc/self/stat)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            return int(handle.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return -1


def main() -> int:
    job = json.loads(sys.argv[1])
    try:
        outcome = run_job(job)
    except Exception:
        # The boundary of the child: report the failure to the parent,
        # which counts the repeat as failed and keeps going.
        import traceback

        outcome = {"ok": False, "error": traceback.format_exc()}
    print(json.dumps(outcome), flush=True)
    return 0 if outcome["ok"] else 1


if __name__ == "__main__":
    # The measurement is over and reported: leave without tearing down a
    # 10k-host object graph, which costs ~0.3 s a child and measures nothing.
    os._exit(main())
