"""The layer seams, and the shims that time them from outside the program.

A seam is a public entry point of one layer, named by dotted path.  For
the layer-timed run the harness replaces each with a shim that reads the
clock on the way in and out and keeps, per seam, a call count and the
**self time**: the span minus the spans of seams called inside it.  A
dotted name that no longer resolves is reported as missing, not raised:
the ROADMAP's collapse of the dual paths will delete some of these.

``moves``/``on`` record the prediction made before measuring: which
end-to-end metric a seam's self time should move, on which workload.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple


@dataclass(frozen=True)
class Seam:
    #: Metric prefix: ``<name>.calls``, ``<name>.self_s``, ``<name>.ms_per_call``.
    name: str
    #: Dotted paths timed under this name (several classes, one layer job).
    targets: Tuple[str, ...]
    moves: str
    on: str
    #: One call is one unit of work, so ``ms_per_call`` means something.
    per_call: bool = True


_BULK = "repro.mobility.bulk."
_TOPOLOGY = "repro.net.topology.TopologySnapshot."

SEAMS: Tuple[Seam, ...] = (
    Seam("mobility.sample",
         tuple(f"{_BULK}{kind}Kernel.sample"
               for kind in ("Stationary", "Waypoint", "Walk", "Piecewise", "Fallback")),
         "run_s", "scale10k-walk"),
    Seam("net.soa.ledger_refresh", ("repro.net.soa.SoAPositionLedger.refresh",),
         "run_s", "scale10k-walk, paper50-*"),
    Seam("net.soa.build_csr", ("repro.net.soa.build_csr",),
         "run_s", "scale10k-walk; <= 1 call on scale10k-sparse and paper50-*"),
    Seam("net.soa.bfs", ("repro.net.soa.bfs_from_csr",), "run_s", "scale10k-walk"),
    Seam("net.topology.current", ("repro.net.topology.TopologyService.current",),
         "run_s", "paper50-* (self time holds the scalar snapshot build)"),
    Seam("net.topology.from_delta", (_TOPOLOGY + "from_delta",),
         "run_s", "scale10k-sparse; 0 calls elsewhere"),
    Seam("net.topology.bfs_levels", (_TOPOLOGY + "bfs_levels",),
         "run_s", "scale10k-sparse, paper50-pull"),
    Seam("net.topology.shortest_path", (_TOPOLOGY + "shortest_path",),
         "run_s", "paper50-rpcc"),
    Seam("net.topology.hop_distance", (_TOPOLOGY + "hop_distance",),
         "run_s", "paper50-rpcc"),
    Seam("net.routing.find_route",
         ("repro.net.routing.ShortestPathRouter.find_route",
          "repro.net.routing.CachingRouter.find_route"),
         "run_s", "paper50-rpcc (self ~ 0: parent of shortest_path)"),
    Seam("net.network.unicast", ("repro.net.network.Network.unicast",),
         "run_s", "paper50-rpcc"),
    Seam("net.network.flood", ("repro.net.network.Network.flood",),
         "run_s", "paper50-pull"),
    # Self time = arming every host's start-up timers before the first
    # event, and assembling the result after the last.
    Seam("experiments.runner.run", ("repro.experiments.runner.Simulation.run",),
         "run_s", "scale10k-* (10k hosts to arm)", per_call=False),
    # Self time = the run loop plus every timer-fired callback that no
    # other seam covers; outside-in timing cannot split those further.
    Seam("sim.engine.dispatch", ("repro.sim.engine.Simulator.run_until",),
         "run_s", "paper50-*", per_call=False),
    Seam("consistency.deliver", ("repro.peers.host.MobileHost.deliver",),
         "run_s", "paper50-*"),
    Seam("consistency.local_query", ("repro.consistency.base.BaseAgent.local_query",),
         "run_s", "paper50-*"),
    Seam("metrics.record",
         ("repro.metrics.collector.MetricsCollector.record_transmissions",),
         "run_s", "all (a fence, not a target)"),
    Seam("metrics.summary", ("repro.metrics.collector.MetricsCollector.summary",),
         "run_s", "all (a fence, not a target)"),
    Seam("obs.emit", ("repro.obs.bus.TraceBus.emit",),
         "run_s", "trace50 only; 0 calls elsewhere"),
    Seam("obs.sink", ("repro.obs.sinks.JsonlSink.on_event",),
         "run_s", "trace50 only"),
    Seam("obs.read", ("repro.obs.read_jsonl",), "run_s", "trace50 only"),
    Seam("obs.check", ("repro.obs.check_events",), "run_s", "trace50 only"),
)


class LayerTimer:
    """Per-seam call counts and self times, nested calls subtracted."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        # One slot per open span: the time its child spans have covered.
        self._open: List[List[float]] = []
        self.stats: Dict[str, List[float]] = {}

    def wrap(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        """``func`` timed under ``name``; results and exceptions pass through."""
        stat = self.stats.setdefault(name, [0, 0.0])
        clock = self._clock
        open_spans = self._open

        @functools.wraps(func)
        def shim(*args, **kwargs):
            covered = [0.0]
            open_spans.append(covered)
            started = clock()
            try:
                return func(*args, **kwargs)
            finally:
                span = clock() - started
                open_spans.pop()
                stat[0] += 1
                stat[1] += span - covered[0]
                if open_spans:
                    open_spans[-1][0] += span

        return shim


def resolve(dotted: str) -> Tuple[Any, str]:
    """``(owner, attribute)`` for a dotted path; ``LookupError`` if it is gone."""
    parts = dotted.split(".")
    owner = None
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        break
    if owner is None:
        raise LookupError(dotted)
    try:
        for part in parts[cut:-1]:
            owner = getattr(owner, part)
        inspect.getattr_static(owner, parts[-1])
    except AttributeError:
        raise LookupError(dotted) from None
    return owner, parts[-1]


def install(timer: LayerTimer, seams: Tuple[Seam, ...] = SEAMS) -> List[str]:
    """Replace every seam target with its shim; return the names not found.

    A seam none of whose targets resolves gets no entry in ``timer.stats``:
    its metrics are unknown, which is not the same as never called.
    """
    missing: List[str] = []
    for seam in seams:
        for dotted in seam.targets:
            try:
                owner, attribute = resolve(dotted)
            except LookupError:
                missing.append(dotted)
                continue
            raw = inspect.getattr_static(owner, attribute)
            if isinstance(raw, (classmethod, staticmethod)):
                shim = type(raw)(timer.wrap(seam.name, raw.__func__))
            else:
                shim = timer.wrap(seam.name, raw)
            setattr(owner, attribute, shim)
    return missing
