"""Command-line interface for the reproduction.

Usage::

    python -m repro --sim-time 900 --seed 3 run rpcc-sc
    python -m repro table1
    python -m repro --sim-time 600 --jobs 4 fig7a --plot --csv fig7a.csv
    python -m repro --sim-time 600 fig9 --ttls 1 3 7
    python -m repro --sim-time 600 --no-store compare
    python -m repro matrix examples/matrix/smoke.toml --jobs 2 --store runs
    python -m repro list

Every command accepts ``--sim-time``/``--warmup``/``--seed`` so the
paper-scale five-hour runs and quick smoke runs use the same entry point.
``--jobs N`` fans independent runs out over N worker processes with
bit-identical results; finished runs land in a content-addressed result
store, one SQLite file in ``results/.store/`` unless ``--store DIR``
moves it, so ``fig8a`` after ``fig7a`` re-reads the shared sweep instead
of re-simulating it.  The store is committed about once a second while a
campaign runs: kill it (``kill -9`` included), rerun the same command,
and only the points that had not been committed simulate again.  Disable
with ``--no-store``; purge by deleting the store directory.  See
EXPERIMENTS.md ("Campaign execution") for the full model.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import CampaignExecutor
from repro.experiments.store import DEFAULT_STORE_DIR, ResultStore, StoreFormatError
from repro.experiments.figures import PANELS, reproduce
from repro.experiments.runner import PLACEMENT_SCENARIOS, STRATEGY_SPECS
from repro.experiments.sweep import Cell, Sweep, aggregate, run_checked
from repro.metrics.report import format_summary, format_table
from repro.scenarios.registry import parse_spec, strategy_specs

__all__ = ["main", "build_parser"]

#: The panels the ``fig9`` command prints together (one TTL sweep); every
#: other panel is a command of its own.
_FIG9 = ("fig9a", "fig9b")


_SPEC_HELP = "strategy spec, e.g. rpcc-sc ('repro list' prints them all)"


def _spec(text: str) -> str:
    """argparse ``type=``: a strategy spec the catalogue resolves."""
    try:
        parse_spec(text)
    except ConfigurationError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return text


def _bound(text: str) -> float:
    """argparse ``type=``: a checker bound in seconds, finite and >= 0."""
    value = float(text)
    if not 0.0 <= value < math.inf:  # NaN fails the chain too
        raise argparse.ArgumentTypeError(
            f"must be finite and >= 0 seconds, got {text!r}"
        )
    return value


def _jobs(text: str) -> int:
    """argparse ``type=``: a worker-process count, an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of RPCC (ICDCS 2005): run simulations "
        "and regenerate the paper's figures.",
    )
    parser.add_argument("--sim-time", type=float, default=1800.0,
                        help="measured window in simulated seconds")
    parser.add_argument("--warmup", type=float, default=600.0,
                        help="warm-up seconds excluded from metrics")
    parser.add_argument("--seed", type=int, default=1, help="root RNG seed")
    parser.add_argument("--jobs", type=_jobs, default=1,
                        help="worker processes for independent runs "
                        "(1 = serial; results are bit-identical either way)")
    parser.add_argument("--store", metavar="DIR", default=DEFAULT_STORE_DIR,
                        help="where finished runs are stored and served "
                        f"from (default {DEFAULT_STORE_DIR}; delete to "
                        "purge; see EXPERIMENTS.md)")
    parser.add_argument("--no-store", action="store_true",
                        help="run without the on-disk result store")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one simulation")
    run_parser.add_argument("spec", type=_spec, help=_SPEC_HELP)
    run_parser.add_argument("--scenario", default="standard",
                            choices=PLACEMENT_SCENARIOS)
    run_parser.add_argument("--profile", metavar="OUT.pstats",
                            help="run under cProfile and write pstats data "
                            "to this path (bypasses the result store)")
    run_parser.add_argument("--profile-sort", default="cumulative",
                            choices=("cumulative", "tottime"),
                            help="ordering of the stderr hot-spot listing "
                            "printed by --profile (default: cumulative; "
                            "tottime surfaces self-time leaf hot spots)")

    trace_parser = sub.add_parser(
        "trace",
        help="run one traced simulation, export the JSONL event trace and "
        "check the consistency invariants (see docs/OBSERVABILITY.md)",
    )
    trace_parser.add_argument("spec", type=_spec, help=_SPEC_HELP)
    trace_parser.add_argument("--scenario", default="standard",
                              choices=PLACEMENT_SCENARIOS)
    trace_parser.add_argument("--out", default="trace.jsonl",
                              help="JSONL trace output path")
    trace_parser.add_argument("--no-check", action="store_true",
                              help="skip the invariant checker replay")
    trace_parser.add_argument("--delta", type=_bound, default=None,
                              help="checker Δ bound in seconds "
                              "(default: the run's TTP)")
    trace_parser.add_argument("--slack", type=_bound, default=1.0,
                              help="checker timing slack in seconds "
                              "(default 1.0)")

    for faulty in (run_parser, trace_parser):
        faulty.add_argument("--loss-rate", type=float, default=0.0,
                            help="uniform per-hop packet loss probability "
                            "(default 0 = lossless)")
        faulty.add_argument("--faults", metavar="PLAN.json",
                            help="deterministic fault plan to inject "
                            "(see docs/ROBUSTNESS.md; bypasses nothing — "
                            "the plan is part of the run key)")
        faulty.add_argument("--controller", metavar="NAME", default=None,
                            help="online control policy adapting protocol "
                            "parameters at run time (see 'repro list'; "
                            "default: no controller)")
        faulty.add_argument("--controller-interval", type=float, default=30.0,
                            help="seconds between controller ticks "
                            "(default 30)")

    sub.add_parser("table1", help="print Table 1")
    sub.add_parser("compare", help="all six strategies at Table-1 defaults")

    for name in PANELS:
        if name in _FIG9:
            continue
        figure_parser = sub.add_parser(name, help=f"reproduce {name}")
        figure_parser.add_argument("--plot", action="store_true",
                                   help="ASCII chart alongside the table")
        figure_parser.add_argument("--csv", metavar="PATH",
                                   help="also write the series to a CSV file")

    fig9_parser = sub.add_parser("fig9", help="reproduce Fig 9 (both panels)")
    fig9_parser.add_argument("--plot", action="store_true")
    fig9_parser.add_argument("--csv", metavar="PREFIX",
                             help="write <PREFIX>a.csv and <PREFIX>b.csv")
    fig9_parser.add_argument("--ttls", type=int, nargs="+")

    all_parser = sub.add_parser(
        "all", help="regenerate every figure and write CSVs to a directory"
    )
    all_parser.add_argument("--out", default="results",
                            help="output directory for the CSV files")

    matrix_parser = sub.add_parser(
        "matrix",
        help="run a declarative experiment matrix "
        "(scenario x strategy x policy x seeds; see docs/SCENARIOS.md)",
    )
    matrix_parser.add_argument("file", metavar="FILE",
                               help="matrix file (.toml or .json)")
    matrix_parser.add_argument("--csv", metavar="PATH",
                               help="also write the aggregate table to a CSV "
                               "file (repr floats; byte-stable across "
                               "serial/parallel/resumed runs)")
    # Campaign-execution flags are global options, but a matrix run is
    # where they matter most — accept them after the subcommand too.
    # SUPPRESS keeps a subparser default from clobbering a value the
    # global parser already set.
    matrix_parser.add_argument("--jobs", type=_jobs, default=argparse.SUPPRESS,
                               help="as the global --jobs")
    matrix_parser.add_argument("--store", metavar="DIR",
                               default=argparse.SUPPRESS,
                               help="as the global --store")
    matrix_parser.add_argument("--no-store", action="store_true",
                               default=argparse.SUPPRESS,
                               help="as the global --no-store")
    matrix_parser.add_argument("--controller", metavar="NAME", default=None,
                               help="online control policy applied to every "
                               "matrix point (base-config override; see "
                               "'repro list')")
    matrix_parser.add_argument("--controller-interval", type=float,
                               default=30.0, help=argparse.SUPPRESS)
    matrix_parser.add_argument("--check-invariants", action="store_true",
                               help="run every point traced and serial, "
                               "replay the consistency invariant checker "
                               "over each event stream, and exit nonzero "
                               "on any violation (bypasses the store)")

    sub.add_parser(
        "list",
        help="list registered scenarios, replacement policies and "
        "strategy specs",
    )
    return parser


def _config(args: argparse.Namespace) -> SimulationConfig:
    extras = {}
    if getattr(args, "loss_rate", 0.0):
        extras["loss_rate"] = args.loss_rate
    if getattr(args, "faults", None):
        from repro.faults import FaultPlan

        extras["faults"] = FaultPlan.load(args.faults)
    if getattr(args, "controller", None):
        extras["controller"] = args.controller
        extras["controller_interval"] = getattr(args, "controller_interval", 30.0)
    return SimulationConfig(
        sim_time=args.sim_time, warmup=args.warmup, seed=args.seed, **extras
    )


def _executor(args: argparse.Namespace) -> CampaignExecutor:
    store = None if args.no_store else ResultStore(args.store)
    return CampaignExecutor(jobs=args.jobs, store=store)


def _report_store(executor: CampaignExecutor) -> None:
    store = executor.store
    # Silent when the executor was bypassed (--profile, --check-invariants).
    if store is not None and (executor.store_hits or executor.runs_executed):
        stats = store.stats
        print(f"store: {executor.store_hits} served, "
              f"{stats['records_appended']} appended in "
              f"{stats['commits']} commits ({store.root}); "
              f"{executor.runs_executed} runs simulated")


def _command_run(
    args: argparse.Namespace, config: SimulationConfig, executor: CampaignExecutor
) -> None:
    if getattr(args, "profile", None):
        result = _run_profiled(
            config, args.spec, args.scenario, args.profile,
            sort=getattr(args, "profile_sort", "cumulative"),
        )
        print(f"profile: pstats data -> {args.profile}")
    else:
        result = executor.run_one(config, args.spec, args.scenario)
    print(format_summary(result.summary, title=f"{args.spec} ({args.scenario})"))
    if result.relay_samples:
        print(f"\nmean relay population: {result.mean_relay_count:.1f}")
    print(f"events processed: {result.events_processed:,} "
          f"in {result.wall_clock_seconds:.1f}s wall clock")
    _print_topology_stats(result)
    _print_fault_stats(result)
    _print_control_decisions(result)


def _print_topology_stats(result) -> None:
    """Topology footer: the refresh counters, and how the rebuilds came
    by their candidate pairs (:class:`repro.net.soa.PairList`) when any
    used it."""
    stats = result.topology_stats
    if not stats:
        return
    line = (f"topology: {stats.get('snapshots_built', 0)} built, "
            f"{stats.get('snapshots_reused', 0)} reused, "
            f"{stats.get('invalidations', 0)} invalidations")
    builds = stats.get("pair_list_builds", 0)
    reuses = stats.get("pair_list_reuses", 0)
    if builds + reuses > 0:
        line += (f" (pair list: {builds} built, {reuses} reused, "
                 f"{stats.get('pair_list_reanchored', 0)} re-anchored)")
    print(line)


def _print_fault_stats(result) -> None:
    """Degradation footer for fault-injected runs (empty dict = silent)."""
    stats = result.summary.fault_stats
    if not stats:
        return
    print("degradation: "
          f"availability {stats.get('availability', 1.0):.3f}, "
          f"stale-serve rate in partition "
          f"{stats.get('stale_serve_rate_in_partition', 0.0):.3f} "
          f"({stats.get('reads_in_partition', 0):.0f} reads over "
          f"{stats.get('partition_seconds', 0.0):.0f}s partitioned), "
          f"mean time-to-reconverge "
          f"{stats.get('mean_time_to_reconverge', 0.0):.1f}s "
          f"over {stats.get('heals_observed', 0):.0f} heals")


def _print_control_decisions(result) -> None:
    """Controller footer: one line per applied decision (empty = silent)."""
    decisions = result.control_decisions
    if not decisions:
        return
    print(f"controller: {len(decisions)} decision(s) applied")
    for decision in decisions:
        knobs = ", ".join(
            f"{knob}={value:g}"
            for knob, value in sorted(decision["applied"].items())
        )
        if decision.get("modes"):
            extra = f"; {decision['modes']} item mode(s)"
        else:
            extra = ""
        print(f"  t={decision['time']:.0f}s [{decision['reason']}] "
              f"{knobs}{extra}")


def _run_profiled(
    config: SimulationConfig,
    spec: str,
    scenario: str,
    out_path: str,
    sort: str = "cumulative",
):
    """Run one simulation under cProfile; dump pstats data to ``out_path``.

    Only the simulation loop is profiled (not argument parsing or module
    import), and the run always executes — serving a stored result would
    profile nothing.  The 15 largest functions by ``sort`` order go to
    stderr so the hot spots are visible without opening the pstats file
    (and without polluting the stdout summary).
    """
    import cProfile
    import pstats

    from repro.experiments.runner import build_simulation

    simulation = build_simulation(config, spec, scenario)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = simulation.run()
    finally:
        profiler.disable()
    profiler.dump_stats(out_path)
    stats = pstats.Stats(profiler, stream=sys.stderr)
    stats.sort_stats(sort).print_stats(15)
    return result


def _run_traced(config: SimulationConfig, spec: str, scenario: str, out_path: str):
    """Run one simulation with a JSONL trace sink attached."""
    from repro.experiments.runner import build_simulation
    from repro.obs import JsonlSink, TraceBus

    bus = TraceBus()
    sink = bus.add_sink(JsonlSink(out_path))
    try:
        result = build_simulation(config, spec, scenario, trace=bus).run()
    finally:
        bus.close()
    return result, sink.events_written


def _command_trace(args: argparse.Namespace, config: SimulationConfig) -> int:
    from repro.obs import InvariantChecker
    from repro.obs.events import iter_jsonl

    result, events_written = _run_traced(config, args.spec, args.scenario, args.out)
    print(format_summary(result.summary, title=f"{args.spec} ({args.scenario})"))
    print(f"\ntrace: {events_written} events -> {args.out}")
    _print_fault_stats(result)
    _print_control_decisions(result)
    if args.no_check:
        return 0
    # Reload from disk: the check exercises the full export -> import path.
    delta = args.delta if args.delta is not None else config.ttp
    checker = InvariantChecker(delta=delta, slack=args.slack)
    checker.feed_all(iter_jsonl(args.out))
    report = checker.finish()
    print()
    print(report.format())
    return 0 if report.ok else 1


def _command_table1(config: SimulationConfig) -> None:
    rows = config.table1_rows()
    print(format_table(("Parameter", "Description", "Value"), rows,
                       title="Table 1. Simulation Parameters"))


def _command_compare(config: SimulationConfig, executor: CampaignExecutor) -> None:
    results = executor.run_many([(config, spec, "standard") for spec in STRATEGY_SPECS])
    rows = []
    for spec, result in zip(STRATEGY_SPECS, results):
        summary = result.summary
        rows.append((
            spec,
            summary.transmissions,
            round(summary.mean_latency, 2),
            f"{summary.queries_answered}/{summary.queries_issued}",
            round(summary.stale_ratio, 3),
            round(summary.violation_ratio, 3),
        ))
    print(format_table(
        ("strategy", "tx", "latency(s)", "answered", "stale", "violations"),
        rows, title="strategy comparison",
    ))


def _command_figures(
    args: argparse.Namespace, config: SimulationConfig, executor: CampaignExecutor
) -> None:
    """``fig7a``…``fig8c``, ``fig9`` and ``all``: one batch each."""
    values = None
    if args.command == "all":
        names = tuple(PANELS)
    elif args.command == "fig9":
        names = _FIG9
        if args.ttls is not None:
            values = [float(ttl) for ttl in args.ttls]
    else:
        names = (args.command,)
    figures, _ = reproduce(names, config, executor, values)
    for name in names:
        figure, panel = figures[name], PANELS[name]
        print(figure.format())
        if getattr(args, "plot", False):
            print()
            print(figure.plot(log_y=panel.log_y))
        if args.command == "all":
            # The listing's layout: a blank line parts a sweep panel's
            # table from its "wrote" line, none parts a Fig 9 one.
            if not panel.references:
                print()
            target = os.path.join(args.out, f"{name}.csv")
        elif args.command == "fig9":
            target = args.csv and f"{args.csv}{name[-1]}.csv"
        else:
            target = args.csv
        if target:
            figure.save_csv(target)
            print(f"wrote {target}")
        if len(names) > 1:
            print()


def _matrix_metrics(summary) -> Dict[str, float]:
    """One run's numbers in the matrix aggregate, in column order."""
    issued = summary.queries_issued
    return {
        "transmissions": float(summary.transmissions),
        "mean_latency": summary.mean_latency,
        "answered_ratio": summary.queries_answered / issued if issued else 0.0,
        "stale_ratio": summary.stale_ratio,
        "violation_ratio": summary.violation_ratio,
    }


def _command_matrix(
    args: argparse.Namespace, sweep: Sweep, cells: List[Cell], executor: CampaignExecutor
) -> int:
    from repro.scenarios.matrix import AGGREGATE_COLUMNS, matrix_csv

    print(f"matrix {args.file}: {sweep.size} cells, "
          f"{len(cells)} unique points")
    check = getattr(args, "check_invariants", False)
    reports = []
    if check:
        results, reports = run_checked(cells)
    else:
        results = executor.run_many([cell.task for cell in cells])
    violations = 0
    for cell, report in zip(cells, reports):
        if not report.ok:
            violations += len(report.violations)
            print(f"INVARIANT VIOLATIONS at {cell.values['scenario']}/{cell.spec}/"
                  f"{cell.values['replacement_policy']}/seed{cell.values['seed']}:")
            print(report.format())
    groups = aggregate(
        cells, [_matrix_metrics(result.summary) for result in results],
        by=("scenario", "spec", "replacement_policy"),
    )
    rows = [group.key + (group.size, *group.mean.values()) for group in groups]
    display = [[round(v, 3) if isinstance(v, float) else v for v in row] for row in rows]
    print(format_table(AGGREGATE_COLUMNS, display, title="matrix aggregate"))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            handle.write(matrix_csv(rows))
        print(f"wrote {args.csv}")
    if check:
        status = "OK" if violations == 0 else f"{violations} violation(s)"
        print(f"invariants: {status} across {len(cells)} points")
        return 1 if violations else 0
    return 0


def _command_list() -> None:
    from repro.scenarios.registry import CONTROLLERS, POLICIES, SCENARIOS

    print("scenarios:")
    for name in SCENARIOS.names():
        spec = SCENARIOS.get(name)
        print(f"  {name:<18} {spec.description}")
    print("replacement policies:")
    for name in POLICIES.names():
        print(f"  {name}")
    print("control policies:")
    for name in CONTROLLERS.names():
        print(f"  {name}")
    print("strategy specs:")
    for spec in strategy_specs():
        print(f"  {spec}")


def _output_paths(args: argparse.Namespace) -> List[str]:
    """The files the command writes, as named on the command line."""
    if args.command == "trace":
        return [args.out]
    if args.command == "fig9":
        return [f"{args.csv}{panel[-1]}.csv" for panel in _FIG9] if args.csv else []
    path = getattr(args, "csv", None) or getattr(args, "profile", None)
    return [path] if path else []


def _levels_to_create(path: str) -> List[str]:
    """The directories ``os.makedirs(path)`` would create, deepest first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def _cannot_write(path: str, reason: str) -> int:
    print(f"repro: error: cannot write {path}: {reason}", file=sys.stderr)
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        _command_list()
        return 0
    try:
        config = _config(args)
        for ttl in getattr(args, "ttls", None) or ():  # every Fig 9 point, before any runs
            config.with_overrides(ttl_rpcc=ttl)
        if args.command == "matrix":  # every name in the file resolves, or exit 2
            from repro.scenarios.matrix import load_matrix

            sweep = load_matrix(args.file, config)  # its errors begin with the path
            try:
                cells = sweep.cells()
            except ConfigurationError as error:
                raise ConfigurationError(f"{args.file}: {error}") from None
    except ConfigurationError as error:
        parser.error(str(error))
    if args.command == "table1":
        _command_table1(config)
        return 0
    outputs = _output_paths(args)
    for path in outputs:  # a missing directory fails before anything runs
        if not os.path.isdir(os.path.dirname(path) or os.curdir):
            return _cannot_write(path, os.strerror(errno.ENOENT))
    created = _levels_to_create(args.out) if args.command == "all" else []
    finished = False
    try:
        if args.command == "all":  # so does an --out that cannot be a directory
            try:
                os.makedirs(args.out, exist_ok=True)
            except OSError as error:
                return _cannot_write(args.out, error.strerror)
        if args.command == "trace":
            return _command_trace(args, config)
        executor = _executor(args)
        code = 0
        if args.command == "run":
            _command_run(args, config, executor)
        elif args.command == "compare":
            _command_compare(config, executor)
        elif args.command == "matrix":
            code = _command_matrix(args, sweep, cells, executor)
        else:
            _command_figures(args, config, executor)
        finished = True
    except OSError as error:
        if error.filename not in outputs:
            raise
        return _cannot_write(error.filename, error.strerror)
    except StoreFormatError as error:  # raised inside run_many, before any output
        print(f"repro: error: {error}", file=sys.stderr)
        return 1
    finally:
        if not finished:  # an error leaves no directory it made behind
            for level in created:
                try:
                    os.rmdir(level)
                except OSError:  # something was written there after all
                    break
    _report_store(executor)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
