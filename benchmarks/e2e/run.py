"""The repo's end-to-end benchmark: five workloads, per-layer attribution.

    python3 benchmarks/e2e/run.py [--seed N] [--workload NAME]...
        [--repeats R] [--layers/--no-layers] [--aa] [--smoke] [--out FILE]
        [--seconds S] [--trace {0,1}]          # the benchmark driver's two

This process only generates inputs and spawns children: every repeat is
one fresh ``child.py`` process, one at a time, round-robin over the
workloads, with the ``REPRO_*`` toggles removed from its environment so
the default path is what is measured.  End-to-end metrics come from
repeats with layer timing off; one extra layer-timed child per workload
gives the per-layer numbers.  Times are seconds at reference speed
(``clock.py``).  See README.md beside this file.

The last line printed for each workload is the one-object JSON the
benchmark driver reads (``BENCHMARK.json`` at the repo root).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from seams import SEAMS
from workloads import BY_NAME, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
WORKDIR = HERE / ".work"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 7
#: ``--seed N`` names a panel of this many simulation seeds, ``PANEL * N``
#: onwards; repeat ``i`` runs member ``i % PANEL``.  One simulation seed
#: per ``--seed`` would put the difference in *work* between two worlds
#: into every comparison of two seeds: over simulation seeds 1-10 the
#: quartile spread of ``events_processed`` is 5 % (``paper50-rpcc``) to
#: 17 % (``scale10k-sparse``) of its median.
PANEL = 3
#: Measured repeats per workload.  The issue's R = 5 was raised until two
#: back-to-back sets of this box agree within the 0.10 bounds (``--aa``):
#: at 6, one row in twenty did not; at 12, all do, within 5 %.
#: ``BENCHMARK.json`` passes ``--repeats 6``: every panel member twice, so
#: that each digest is checked against a second run, then ``--seconds``.
DEFAULT_REPEATS = 4 * PANEL
CHILD_TIMEOUT_S = 120.0

#: Toggles that select a non-default path; never inherited by a child.
SCRUBBED_ENV = ("REPRO_SOA", "REPRO_WHEEL", "REPRO_JOBS", "REPRO_BENCH_JOBS")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which it may worsen (end-to-end only).
    bound: Optional[float] = None


#: The four end-to-end metrics with the issue's regression bounds.  They
#: bind the value this harness reports, the median over the repeats of
#: one protocol run, and ``--aa`` holds two such runs to them.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.10),
    Metric("run_s", "s", "lower", 0.10),
    Metric("peak_rss_mb", "MiB", "lower", 0.05),
    # Absolute, not a share of the parent's value: no repeat may fail.
    Metric("failed_share", "ratio", "lower", 0.0),
)

#: What ``BENCHMARK.json`` declares under ``end_to_end``.  Not
#: ``failed_share``: the driver's bounds are shares of the parent's median
#: and its metrics must never be 0, so that one travels as the
#: ``failed``/``attempted`` fields of the driver's JSON line.  And with the
#: driver's own bounds: it also rejects the benchmark when the quartile
#: spread of ten single-workload invocations, each with another seed,
#: exceeds the bound, and on this box that spread is 4-8 % for ``run_s``
#: at the 20 s an invocation that its 57-minute budget leaves (README,
#: "How steady").
DRIVER_END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("run_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.05),
)

_EXTRA_PER_LAYER: Tuple[Metric, ...] = (
    Metric("sim.engine.events", "count", "lower"),
    Metric("sim.engine.us_per_event", "us", "lower"),
    Metric("obs.trace_bytes", "bytes", "lower"),
    Metric("obs.trace_events", "count", "lower"),
    Metric("obs.violations", "count", "lower"),
    Metric("experiments.runner.build.self_s", "s", "lower"),
    Metric("experiments.runner.import_s", "s", "lower"),
    Metric("net.topology.snapshots_built", "count", "lower"),
    Metric("net.topology.incremental_updates", "count", "higher"),
    Metric("net.topology.snapshots_reused", "count", "higher"),
    Metric("net.topology.invalidations", "count", "lower"),
    Metric("net.topology.reuse_ratio", "ratio", "higher"),
    Metric("net.network.messages_sent", "count", "lower"),
    Metric("net.network.delivered_ratio", "ratio", "higher"),
    Metric("model.transmissions", "count", "lower"),
    Metric("model.queries_issued", "count", "higher"),
    Metric("model.queries_answered", "count", "higher"),
    Metric("model.mean_latency_s", "sim_s", "lower"),
    Metric("model.stale_ratio", "ratio", "lower"),
    Metric("layers.unattributed_s", "s", "lower"),
    Metric("layers.overhead_ratio", "ratio", "lower"),
    Metric("layers.missing_seams", "count", "lower"),
    # The untimed repeats as the wall clock saw them, and the speed the
    # calibrated clock scaled them by: raw numbers for the driver's line.
    Metric("host.run_wall_s", "s", "lower"),
    Metric("host.setup_wall_s", "s", "lower"),
    Metric("host.machine_speed", "ratio", "higher"),
)


def per_layer_declared() -> List[Metric]:
    """Every per-layer metric, in the order ``BENCHMARK.json`` lists them."""
    declared: List[Metric] = []
    for seam in SEAMS:
        declared.append(Metric(f"{seam.name}.calls", "count", "lower"))
        declared.append(Metric(f"{seam.name}.self_s", "s", "lower"))
        if seam.per_call:
            declared.append(Metric(f"{seam.name}.ms_per_call", "ms", "lower"))
    declared.extend(_EXTRA_PER_LAYER)
    return declared


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def job_for(workload: Workload, seed: int, smoke: bool) -> Dict[str, Any]:
    return {
        "src": str(SRC),
        "workdir": str(WORKDIR),
        "spec": workload.spec,
        "scenario": workload.scenario,
        "traced": workload.traced,
        "config": workload.config_kwargs(seed, smoke),
        "layers": False,
        "import_only": False,
    }


def spawn(job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one child to completion and return its outcome."""
    env = {key: value for key, value in os.environ.items() if key not in SCRUBBED_ENV}
    # A fixed string-hash seed takes one source of process-to-process
    # timing scatter away; simulated results do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    # Import from bytecode caches, as a user's second run does; the
    # warm-up round writes them.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [sys.executable, str(HERE / "child.py"), json.dumps(job)]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, env=env,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {CHILD_TIMEOUT_S:.0f} s"}
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "error": f"child exit {done.returncode}: {tail[0]}"}


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
def sim_seed(seed: int, repeat: int, members: int = PANEL) -> int:
    """The simulation seed repeat ``repeat`` of ``--seed seed`` runs."""
    return seed * PANEL + repeat % members


def digest_key(workload: Workload, seed: int, smoke: bool) -> str:
    """Key of ``digests.json``; ``seed`` is a simulation seed."""
    return f"{workload.name}|seed={seed}|sim_time={workload.sim_time(smoke):g}"


def load_digests() -> Dict[str, Any]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def measure(
    workloads: Sequence[Workload],
    seed: int,
    *,
    repeats: int = DEFAULT_REPEATS,
    members: int = PANEL,
    seconds: float = 0.0,
    smoke: bool = False,
    layers: bool = True,
    expected: Optional[Dict[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """Run the measurement protocol once; one result per workload.

    ``repeats`` rounds are measured, then ``members`` more at a time while
    they still fit ``seconds`` per workload; round ``i`` runs simulation
    seed :func:`sim_seed` ``(seed, i, members)``, and the layer-timed run
    repeats round 0's.  ``expected`` maps :func:`digest_key` to a
    committed digest (default: ``digests.json``).
    """
    expected = load_digests() if expected is None else expected
    jobs = {
        w.name: [job_for(w, sim_seed(seed, member), smoke) for member in range(members)]
        for w in workloads
    }
    outcomes: Dict[str, List[Dict[str, Any]]] = {w.name: [] for w in workloads}
    layer_outcomes: Dict[str, Dict[str, Any]] = {}
    WORKDIR.mkdir(exist_ok=True)
    try:
        # Discarded warm-up round: compiles the bytecode a fresh checkout
        # lacks and fills the page cache, which no later run pays.
        for workload in workloads:
            spawn({**jobs[workload.name][0], "import_only": True})
        started = time.monotonic()
        rounds = 0

        def measure_round() -> None:
            nonlocal rounds
            for workload in workloads:
                outcomes[workload.name].append(spawn(jobs[workload.name][rounds % members]))
            rounds += 1

        for _ in range(repeats):
            measure_round()
        # Then once more through the panel, while that still fits.
        budget = seconds * len(workloads)
        while (time.monotonic() - started) * (1 + members / rounds) <= budget:
            for _ in range(members):
                measure_round()
        if layers:
            for workload in workloads:
                layer_outcomes[workload.name] = spawn(
                    {**jobs[workload.name][0], "layers": True}
                )
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    return [
        summarise(
            workload, seed, members, smoke, outcomes[workload.name],
            layer_outcomes.get(workload.name), expected,
        )
        for workload in workloads
    ]


def failure_of(
    workload: Workload,
    outcome: Dict[str, Any],
    reference: Optional[Dict[str, Any]],
    expected: Optional[Dict[str, Any]],
    smoke: bool = False,
) -> Optional[str]:
    """Why this repeat counts as failed, or ``None``."""
    if not outcome["ok"]:
        return outcome["error"].strip().splitlines()[-1]
    digest = outcome["digest"]
    if expected is not None and digest != expected:
        return "digest differs from the committed one"
    if reference is not None and digest != reference:
        return "digest disagrees with an earlier repeat of the same simulation seed"
    # Not "a query was answered": the 10k-peer worlds see about one query
    # a simulated second, and one simulation seed in a hundred answers
    # none in 7.5 s.  A smoke run is too short to promise even a message.
    if outcome["events"] <= 0 or (digest["transmissions"] <= 0 and not smoke):
        return "nothing was simulated (no event, or nothing transmitted)"
    if workload.traced:
        trace = outcome["trace"]
        if trace["violations"] > 0:
            return f"checker found {trace['violations']} violation(s)"
        if trace["reads"] <= 0:
            return "trace holds no ReadServed event"
    return None


def end_to_end_of(outcome: Dict[str, Any]) -> Dict[str, float]:
    """One repeat's end-to-end metrics (times at reference speed)."""
    return {
        "setup_s": outcome["import_s"] + outcome["build_s"],
        "run_s": outcome["run_s"],
        "peak_rss_mb": outcome["peak_rss_mb"],
    }


def spread(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarise(
    workload: Workload,
    seed: int,
    members: int,
    smoke: bool,
    outcomes: List[Dict[str, Any]],
    layer_outcome: Optional[Dict[str, Any]],
    expected: Dict[str, Any],
) -> Dict[str, Any]:
    failures: List[str] = []
    good: List[Dict[str, Any]] = []
    # Simulation seed -> the digest its first good repeat produced.
    digests: Dict[int, Dict[str, Any]] = {}
    # Untimed run_s of the simulation seed the layer-timed run repeats.
    layer_seed_run_s: List[float] = []

    def check(outcome: Dict[str, Any], repeat: int) -> Optional[str]:
        member = sim_seed(seed, repeat, members)
        return failure_of(
            workload, outcome, digests.get(member),
            expected.get(digest_key(workload, member, smoke)), smoke,
        )

    for repeat, outcome in enumerate(outcomes):
        reason = check(outcome, repeat)
        if reason is not None:
            failures.append(f"repeat {repeat}: {reason}")
            continue
        digests.setdefault(sim_seed(seed, repeat, members), outcome["digest"])
        good.append(outcome)
        if repeat % members == 0:
            layer_seed_run_s.append(outcome["run_s"])

    end_to_end: Dict[str, Dict[str, Any]] = {}
    detail: Dict[str, float] = {}
    if good:
        samples = [end_to_end_of(outcome) for outcome in good]
        for metric in DRIVER_END_TO_END:
            values = [sample[metric.name] for sample in samples]
            q1, median, q3 = spread(values)
            end_to_end[metric.name] = {
                "value": median, "unit": metric.unit,
                "q1": q1, "q3": q3, "n": len(values),
            }
        run_s = end_to_end["run_s"]["value"]
        detail = {
            "run_wall_s": statistics.median(o["run_wall_s"] for o in good),
            "setup_wall_s": statistics.median(o["setup_wall_s"] for o in good),
            "machine_speed": statistics.median(o["run_s"] / o["run_wall_s"] for o in good),
            "run_cpu_s": statistics.median(o["run_cpu_s"] for o in good),
            "sim_s_per_host_s": workload.simulated_seconds(smoke) / run_s,
            "events_per_s": statistics.median(o["events"] / o["run_s"] for o in good),
        }

    attempted = len(outcomes)
    per_layer: Dict[str, Dict[str, Any]] = {}
    missing: List[str] = []
    layer_run_s = 0.0
    if layer_outcome is not None:
        attempted += 1
        # The shims must be behaviour-neutral: the layer-timed run has to
        # reproduce the untimed digest, or its numbers are thrown away.
        reason = check(layer_outcome, 0)
        if reason is not None:
            failures.append(f"layer-timed run: {reason}")
        elif layer_seed_run_s:
            missing = layer_outcome["missing_seams"]
            layer_run_s = layer_outcome["run_s"]
            per_layer = per_layer_of(
                layer_outcome, statistics.median(layer_seed_run_s), detail
            )

    end_to_end["failed_share"] = {
        "value": len(failures) / attempted, "unit": "ratio", "n": attempted,
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "sim_time": workload.sim_time(smoke),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "end_to_end": end_to_end,
        "detail": detail,
        "per_layer": per_layer,
        "layer_run_s": layer_run_s,
        "missing_seams": missing,
        "digests": {str(member): digest for member, digest in sorted(digests.items())},
        "cpus": sorted({o["cpu"] for o in good}),
        "core": good[0]["core"] if good else "unknown",
    }


def per_layer_of(
    outcome: Dict[str, Any], untimed_run_s: float, untimed: Dict[str, float]
) -> Dict[str, Dict[str, Any]]:
    """Every declared per-layer metric from one layer-timed outcome.

    ``untimed_run_s`` is the median ``run_s`` of the untimed repeats of the
    same simulation seed, ``untimed`` the detail of all untimed repeats.
    A seam that was never called reads 0 calls and 0 s; one whose entry
    points no longer exist reads ``None``.
    """
    run_s = outcome["run_s"]
    values: Dict[str, Optional[float]] = {}
    attributed = 0.0
    for seam in SEAMS:
        calls, self_s = outcome["layers"].get(seam.name, (None, None))
        values[f"{seam.name}.calls"] = calls
        values[f"{seam.name}.self_s"] = self_s
        values[f"{seam.name}.ms_per_call"] = (
            None if calls is None else 1e3 * self_s / calls if calls else 0.0
        )
        attributed += self_s or 0.0

    events = outcome["events"]
    dispatch_s = values["sim.engine.dispatch.self_s"]
    values["sim.engine.events"] = events
    values["sim.engine.us_per_event"] = (
        None if dispatch_s is None else 1e6 * dispatch_s / events
    )
    trace = outcome["trace"]
    values["obs.trace_bytes"] = trace.get("bytes", 0)
    values["obs.trace_events"] = trace.get("events", 0)
    values["obs.violations"] = trace.get("violations", 0)
    values["experiments.runner.build.self_s"] = outcome["build_s"]
    values["experiments.runner.import_s"] = outcome["import_s"]

    topology = outcome["topology"]
    built = topology.get("snapshots_built", 0)
    patched = topology.get("incremental_updates", 0)
    reused = topology.get("snapshots_reused", 0)
    values["net.topology.snapshots_built"] = built
    values["net.topology.incremental_updates"] = patched
    values["net.topology.snapshots_reused"] = reused
    values["net.topology.invalidations"] = topology.get("invalidations", 0)
    refreshes = built + patched + reused
    values["net.topology.reuse_ratio"] = (patched + reused) / refreshes if refreshes else 0.0

    network = outcome["network"]
    offered = network["delivered"] + network["undeliverable"]
    values["net.network.messages_sent"] = network["messages_sent"]
    values["net.network.delivered_ratio"] = network["delivered"] / offered if offered else 0.0
    for name, value in outcome["model"].items():
        values[f"model.{name}"] = value
    values["layers.unattributed_s"] = run_s - attributed
    values["layers.overhead_ratio"] = run_s / untimed_run_s - 1.0
    values["layers.missing_seams"] = len(outcome["missing_seams"])
    values["host.run_wall_s"] = untimed["run_wall_s"]
    values["host.setup_wall_s"] = untimed["setup_wall_s"]
    values["host.machine_speed"] = untimed["machine_speed"]
    return {
        metric.name: {"value": values[metric.name], "unit": metric.unit}
        for metric in per_layer_declared()
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def environment() -> Dict[str, Any]:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }


def contract_line(result: Dict[str, Any], trace: Optional[int]) -> str:
    """The driver's one JSON object for one workload.

    Its values have to be numbers: a seam that no longer exists reads 0
    here, and ``layers.missing_seams`` says how many dotted names are gone.
    """
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace != 1:
        for metric in DRIVER_END_TO_END:
            if metric.name in result["end_to_end"]:
                entry = result["end_to_end"][metric.name]
                metrics[metric.name] = {"value": entry["value"], "unit": entry["unit"]}
    if trace != 0:
        for name, entry in result["per_layer"].items():
            metrics[name] = {"value": entry["value"] or 0, "unit": entry["unit"]}
    return json.dumps({
        "correct": result["failed"] == 0 and bool(metrics),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def _cell(entry: Optional[Dict[str, Any]], width: int, spec: str = "") -> str:
    """One right-aligned table cell: ``-`` not declared, ``null`` unknown."""
    if entry is None:
        return "-".rjust(width)
    value = entry["value"]
    return ("null" if value is None else format(value, spec)).rjust(width)


def format_result(result: Dict[str, Any]) -> str:
    lines = [
        f"== {result['workload']}  seed {result['seed']} "
        f"(simulation seeds {', '.join(result['digests'])})  "
        f"sim_time {result['sim_time']:g} s  core {result['core']}  "
        f"ran on cpu {result['cpus']}  "
        f"failed {result['failed']}/{result['attempted']} =="
    ]
    lines.extend(f"  FAILED {failure}" for failure in result["failures"])
    for name, entry in result["end_to_end"].items():
        quartiles = f"q1 {entry['q1']:.4f}  q3 {entry['q3']:.4f}  " if "q1" in entry else ""
        lines.append(
            f"  {name:<14}{entry['value']:>12.4f} {entry['unit']:<5} "
            f"({quartiles}n {entry['n']})"
        )
    for name, value in result["detail"].items():
        lines.append(f"  . {name:<18}{value:>14.4f}")
    per_layer = result["per_layer"]
    if per_layer:
        run_s = result["layer_run_s"]
        lines.append(f"  layer-timed run_s {run_s:.4f} s; share = self_s / that")
        lines.append(f"  {'seam':<30}{'calls':>10}{'self_s':>10}{'share':>8}{'ms/call':>10}")
        seams = sorted(SEAMS, key=lambda s: -(per_layer[f"{s.name}.self_s"]["value"] or 0.0))
        for seam in seams:
            self_s = per_layer[f"{seam.name}.self_s"]["value"]
            share = {"value": None if self_s is None else self_s / run_s}
            lines.append(
                f"  {seam.name:<30}{_cell(per_layer[f'{seam.name}.calls'], 10)}"
                f"{_cell(per_layer[f'{seam.name}.self_s'], 10, '.4f')}"
                f"{_cell(share, 8, '.1%')}"
                f"{_cell(per_layer.get(f'{seam.name}.ms_per_call'), 10, '.4f')}"
            )
        for metric in _EXTRA_PER_LAYER:
            lines.append(
                f"  {metric.name:<36}{_cell(per_layer[metric.name], 16, '.6g')} {metric.unit}"
            )
    if result["missing_seams"]:
        lines.append(f"  missing_seams: {', '.join(result['missing_seams'])}")
    return "\n".join(lines)


def compare_sets(
    first: List[Dict[str, Any]], second: List[Dict[str, Any]]
) -> Tuple[List[str], bool]:
    """A/A report lines and whether the two sets agree within the bounds."""
    lines = [f"{'workload':<18}{'metric':<14}{'first':>12}{'second':>12}{'differ':>9}{'bound':>8}"]
    agree = True
    for one, two in zip(first, second):
        for metric in END_TO_END:
            if metric.name not in one["end_to_end"] or metric.name not in two["end_to_end"]:
                agree = False
                lines.append(f"{one['workload']:<18}{metric.name:<14} not measured")
                continue
            a = one["end_to_end"][metric.name]["value"]
            b = two["end_to_end"][metric.name]["value"]
            # failed_share is held to 0 in both sets, not to each other.
            differ = max(a, b) if metric.name == "failed_share" else abs(b - a) / a
            verdict = "" if differ <= metric.bound else "  DISAGREE"
            agree = agree and differ <= metric.bound
            lines.append(
                f"{one['workload']:<18}{metric.name:<14}{a:>12.4f}{b:>12.4f}"
                f"{differ:>9.2%}{metric.bound:>8.0%}{verdict}"
            )
        moved = [
            name for name, entry in one["per_layer"].items()
            if entry["unit"] == "count"
            and two["per_layer"].get(name, entry)["value"] != entry["value"]
        ]
        if moved or one["digests"] != two["digests"]:
            agree = False
            lines.append(f"{one['workload']:<18}counts differ: {', '.join(moved) or 'digest'}")
    return lines, agree


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", action="append", choices=sorted(BY_NAME),
                        help="measure only this workload (repeatable; default all five)")
    parser.add_argument("--repeats", type=int, default=None,
                        help=f"measured repeats per workload (default {DEFAULT_REPEATS})")
    parser.add_argument("--layers", action=argparse.BooleanOptionalAction, default=True,
                        help="one extra layer-timed run per workload (default on)")
    parser.add_argument("--aa", action="store_true",
                        help="measure twice and compare the two sets")
    parser.add_argument("--smoke", action="store_true",
                        help="sim_time / 20 and one repeat")
    parser.add_argument("--out", metavar="FILE", help="also write everything as JSON")
    driver = parser.add_argument_group("passed by the benchmark driver (BENCHMARK.json)")
    driver.add_argument("--seconds", type=float, default=0.0,
                        help="after --repeats, keep adding repeats while another "
                             "fits this many seconds per workload")
    driver.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: --no-layers, end-to-end metrics in the JSON line; "
                             "1: --layers, per-layer metrics in the JSON line")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: no simulator source at {SRC}", file=sys.stderr)
        return 2
    workloads = [BY_NAME[name] for name in args.workload] if args.workload else list(WORKLOADS)
    repeats = args.repeats
    if repeats is None:
        repeats = 1 if args.smoke else DEFAULT_REPEATS
    settings = dict(
        repeats=max(1, repeats),
        seconds=args.seconds,
        smoke=args.smoke,
        layers=args.layers if args.trace is None else args.trace == 1,
    )
    if args.trace == 1:
        # The per-layer numbers come from one run: beside it only its own
        # simulation seed is run untimed, twice (its digest, the overhead's base).
        settings.update(repeats=2, members=1, seconds=0.0)
    sets = [measure(workloads, args.seed, **settings) for _ in range(2 if args.aa else 1)]
    results = sets[-1]

    env = environment()
    print("environment: " + "  ".join(f"{key} {value}" for key, value in env.items()))
    for result in results:
        print(format_result(result))
    ok = all(result["failed"] == 0 for batch in sets for result in batch)
    if args.aa:
        lines, agree = compare_sets(*sets)
        print("\n".join(["== A/A: two sets of the same code =="] + lines))
        ok = ok and agree
    if args.out:
        Path(args.out).write_text(json.dumps({"environment": env, "sets": sets}, indent=1))
    for result in results:
        print(contract_line(result, args.trace))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
