"""Workload drivers: wire arrival processes to hosts.

* :class:`UpdateWorkload` — every source host updates its master copy with
  exponentially distributed intervals (``I_Update``, Table 1: 2 min).
* :class:`QueryWorkload` — every host issues queries with exponentially
  distributed intervals (``I_Query``, Table 1: 20 s), choosing the target
  item via an access pattern and the consistency level via a mix.

Each workload's streams ride one :class:`~repro.sim.timers.ArrivalClock`
(``docs/decisions/18-one-clock-per-process-kind.md``): a host's stream
is the clock's member and carries the host, so what differs per host is
the stream alone.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.consistency.base import ConsistencyStrategy
from repro.peers.host import MobileHost
from repro.sim.rng import RandomStreams
from repro.sim.timers import ArrivalClock
from repro.workload.access import AccessPattern
from repro.workload.arrivals import ExponentialProcess
from repro.workload.mix import LevelMix

__all__ = ["UpdateWorkload", "QueryWorkload"]


def _start(processes: List[ExponentialProcess], callback: Callable) -> None:
    """Arm ``processes``, in order, on one arrival clock."""
    if processes:
        ArrivalClock(processes[0].host.sim, callback).start(processes)


def _update(process: ExponentialProcess) -> None:
    process.host.update_master()


class UpdateWorkload:
    """Independent update stream per source host."""

    def __init__(
        self,
        hosts: Iterable[MobileHost],
        streams: RandomStreams,
        mean_interval: float = 120.0,
    ) -> None:
        self._processes: List[ExponentialProcess] = []
        for host in hosts:
            if host.source_item is None:
                continue
            self._processes.append(
                ExponentialProcess(
                    streams.parked(f"update/{host.node_id}"), mean_interval, host
                )
            )
        self._started = False

    def start(self) -> None:
        """Begin every host's update stream.  Idempotent."""
        if not self._started:
            self._started = True
            _start(self._processes, _update)

    @property
    def total_updates(self) -> int:
        """Updates generated so far across all hosts."""
        return sum(process.arrivals for process in self._processes)


class QueryWorkload:
    """Independent query stream per host.

    Queries at offline hosts are still issued (a user can ask their own
    device anything); the agent answers them from local state only.
    """

    def __init__(
        self,
        hosts: Iterable[MobileHost],
        streams: RandomStreams,
        strategy: ConsistencyStrategy,
        access: AccessPattern,
        mix: LevelMix,
        mean_interval: float = 20.0,
        restrict_to_items: Optional[List[int]] = None,
    ) -> None:
        self._processes: List[ExponentialProcess] = []
        self._strategy = strategy
        self._access = access
        self._mix = mix
        self._restrict = restrict_to_items
        for host in hosts:
            self._processes.append(
                ExponentialProcess(
                    streams.parked(f"query/{host.node_id}"), mean_interval, host
                )
            )
        self._started = False

    def _issue(self, process: ExponentialProcess) -> None:
        # A query draws from its host's own stream.
        host: MobileHost = process.host
        rng = process.stream
        if self._restrict is not None:
            candidates = [i for i in self._restrict if i != host.node_id]
            if not candidates:
                return
            item_id = candidates[rng.randrange(len(candidates))]
        else:
            item_id = self._access.choose(rng, host.node_id)
        level = self._mix.choose(rng)
        agent = self._strategy.agent_for(host.node_id)
        agent.local_query(item_id, level)

    def start(self) -> None:
        """Begin every host's query stream.  Idempotent."""
        if not self._started:
            self._started = True
            _start(self._processes, self._issue)

    @property
    def total_queries(self) -> int:
        """Queries issued so far across all hosts."""
        return sum(process.arrivals for process in self._processes)
