"""Workload drivers: wire arrival processes to hosts.

* :class:`UpdateWorkload` — every source host updates its master copy with
  exponentially distributed intervals (``I_Update``, Table 1: 2 min).
* :class:`QueryWorkload` — every host issues queries with exponentially
  distributed intervals (``I_Query``, Table 1: 20 s), choosing the target
  item via an access pattern and the consistency level via a mix.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, List, Optional

from repro.consistency.base import ConsistencyStrategy
from repro.peers.host import MobileHost
from repro.sim.rng import RandomStreams
from repro.workload.access import AccessPattern
from repro.workload.arrivals import ExponentialProcess
from repro.workload.mix import LevelMix

__all__ = ["UpdateWorkload", "QueryWorkload"]


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
            process = ExponentialProcess(
                host.sim,
                streams.parked(f"update/{host.node_id}"),
                mean_interval,
                host.update_master,
            )
            self._processes.append(process)

    def start(self) -> None:
        """Begin every host's update stream."""
        for process in self._processes:
            process.start()

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
        # One bound method shared by every host; what differs per host
        # is two bound arguments, not a function object with its cells.
        issue = self._issue
        for host in hosts:
            process = ExponentialProcess(
                host.sim, streams.parked(f"query/{host.node_id}"), mean_interval, None
            )
            # The callback draws from the process's own stream.
            process._callback = partial(issue, host, process)
            self._processes.append(process)

    def _issue(self, host: MobileHost, process: ExponentialProcess) -> None:
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
        """Begin every host's query stream."""
        for process in self._processes:
            process.start()

    @property
    def total_queries(self) -> int:
        """Queries issued so far across all hosts."""
        return sum(process.arrivals for process in self._processes)
