"""Strategy/agent framework shared by push, pull and RPCC.

A *strategy* owns run-global state and builds one *agent* per mobile host;
the agent handles that host's queries and protocol messages.

Query model (Section 3 of the paper): the system "has an independent
mechanism ... for locating the nearest cache node to access the data
copy", so a query never dead-ends.  Concretely:

* if the querying host holds the item (or sources it), its own agent runs
  the consistency check — a *local* query;
* otherwise the query is forwarded as a ``QueryRequest`` to the nearest
  holder, whose agent runs the consistency check on *its* copy and sends
  back a ``QueryReply`` with the validated content — a *remote* query.
  The client installs the returned copy (cooperative caching) and closes
  the latency record.

The consistency check itself is the strategy hook
:meth:`BaseAgent.validate_hit`; it receives a :class:`QueryJob` that knows
how to deliver the answer (close the local record, or reply over the
network), so strategies are agnostic to where the query came from.
"""

from __future__ import annotations

import abc
import math
import operator
from typing import Callable, ClassVar, Dict, Mapping, Optional, Set

from repro.cache.catalog import Catalog
from repro.cache.discovery import Discovery
from repro.cache.item import CachedCopy, MasterCopy
from repro.consistency.levels import ConsistencyLevel
from repro.consistency.messages import (
    QueryReply,
    QueryRequest,
    next_request_id,
)
from repro.errors import ProtocolError
from repro.metrics.collector import MetricsCollector
from repro.metrics.latency import QueryRecord
from repro.net.message import Message
from repro.net.network import Network
from repro.obs.events import (
    CacheHit,
    CacheMiss,
    QueryIssued,
    ReadServed,
    SourceUpdate,
)
from repro.peers.host import MobileHost
from repro.sim.engine import EventHandle
from repro.sim.rng import derive_seed

__all__ = [
    "StrategyContext",
    "ConsistencyStrategy",
    "BaseAgent",
    "QueryJob",
    "LocalJob",
    "RemoteJob",
    "PendingQuery",
    "RetryBackoff",
    "BACKOFF_CAP",
    "BACKOFF_JITTER",
]


#: Upper bound, in seconds, on an un-jittered retry wait.  Unmeasured.
BACKOFF_CAP = 60.0
#: Half-width of the relative jitter on a retry wait: 0.1 puts the final
#: wait in ``[0.9x, 1.1x]`` of the un-jittered ladder.  Unmeasured.
BACKOFF_JITTER = 0.1


class RetryBackoff:
    """Capped exponential backoff with deterministic, seeded jitter.

    ``delay(base, attempt, key)`` grows the base wait by ``factor`` per
    attempt up to :data:`BACKOFF_CAP`, then perturbs it by up to
    ``±BACKOFF_JITTER`` — the perturbation is a pure hash of ``(seed,
    key, attempt)``, not a draw from a shared RNG stream, so a retry's
    wait never depends on how many *other* retries happened first.  That
    keeps fault-injected runs replayable and, because the jitter keys on
    stable protocol identity (node/item) rather than process-global
    request counters, keeps latency distributions comparable across
    trace replays.

    Parameters
    ----------
    factor:
        Multiplicative growth per attempt (``>= 1``); the controller
        moves it during a run.
    seed:
        Run seed the jitter hash is derived from.
    """

    __slots__ = ("factor", "seed")

    _JITTER_BITS = 24  # hash-fraction resolution; plenty for a ±10% wobble

    def __init__(self, factor: float, seed: int) -> None:
        if not factor >= 1.0:
            raise ProtocolError(f"backoff factor must be >= 1, got {factor!r}")
        self.factor = float(factor)
        self.seed = int(seed)

    def delay(self, base: float, attempt: int, key: str) -> float:
        """Wait before retry number ``attempt`` (1 = the first try)."""
        try:
            raw = min(BACKOFF_CAP, base * self.factor ** max(0, attempt - 1))
        except OverflowError:
            # factor ** attempt left float range: the cap won long ago.
            raw = BACKOFF_CAP if base > 0 else 0.0
        bucket = derive_seed(self.seed, f"backoff/{key}/{attempt}")
        unit = (bucket % (1 << self._JITTER_BITS)) / float(1 << self._JITTER_BITS)
        return raw * (1.0 + BACKOFF_JITTER * (2.0 * unit - 1.0))


class StrategyContext:
    """Shared plumbing handed to a strategy: network, catalog, metrics.

    Parameters
    ----------
    network:
        The simulated network (provides the clock via ``network.sim``).
    catalog:
        Global registry of master copies.
    discovery:
        Nearest-copy oracle.
    metrics:
        Run metrics sink.
    delta:
        The Δ bound (seconds) used when auditing delta-consistency reads.
    max_fetch_attempts:
        Distinct holders tried before a remote query is abandoned.
    cache_on_read:
        When ``True`` a client installs the copy returned by a remote
        query into its own cache.  Default ``False``: the paper assumes an
        *independent* replica-placement mechanism, and read-driven churn
        would constantly evict items out from under their relay roles.
    backoff:
        Optional :class:`RetryBackoff` applied to remote-query retry
        waits.  ``None`` (the default) keeps the historical fixed wait —
        and with it, bit-identical fault-free behaviour.
    """

    def __init__(
        self,
        network: Network,
        catalog: Catalog,
        discovery: Discovery,
        metrics: MetricsCollector,
        delta: float = 240.0,
        max_fetch_attempts: int = 3,
        cache_on_read: bool = False,
        backoff: Optional[RetryBackoff] = None,
    ) -> None:
        self.network = network
        self.catalog = catalog
        self.discovery = discovery
        self.metrics = metrics
        self.delta = float(delta)
        self.max_fetch_attempts = int(max_fetch_attempts)
        self.cache_on_read = bool(cache_on_read)
        self.backoff = backoff

    @property
    def sim(self):
        """The event kernel behind the network."""
        return self.network.sim

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.network.sim.now


# ----------------------------------------------------------------------
# Query jobs: how an answer gets delivered
# ----------------------------------------------------------------------
class QueryJob(abc.ABC):
    """A query under consistency validation at some agent."""

    # Empty slots here keep the concrete jobs (which declare their own
    # ``__slots__``) free of a per-instance ``__dict__``.
    __slots__ = ()

    item_id: int
    level: ConsistencyLevel

    @abc.abstractmethod
    def deliver(
        self,
        agent: "BaseAgent",
        version: int,
        served_locally: bool,
        fallback: bool = False,
        remote: bool = False,
    ) -> None:
        """Hand the validated answer back to whoever asked."""


class LocalJob(QueryJob):
    """A query issued at this very host: closing it updates the metrics."""

    __slots__ = ("record", "item_id", "level")

    def __init__(self, record: QueryRecord, level: ConsistencyLevel) -> None:
        self.record = record
        self.item_id = record.item_id
        self.level = level

    def deliver(
        self,
        agent: "BaseAgent",
        version: int,
        served_locally: bool,
        fallback: bool = False,
        remote: bool = False,
    ) -> None:
        metrics = agent.context.metrics
        metrics.latency.close(self.record.query_id, agent.now, version, served_locally)
        audit = metrics.staleness.record_read(
            self.item_id, version, agent.now, self.level.label, agent.context.delta
        )
        if metrics.degradation is not None:
            metrics.degradation.on_read(agent.now, audit.staleness_age > 0)
        trace = agent.context.sim.trace
        if trace.enabled:
            trace.emit(
                ReadServed(
                    time=agent.now,
                    node=agent.node_id,
                    item=self.item_id,
                    version=version,
                    level=self.level.label,
                    query_id=self.record.query_id,
                    served_locally=served_locally,
                    remote=remote,
                    fallback=fallback,
                    cache_hit=self.record.cache_hit,
                    latency=agent.now - self.record.issued_at,
                    staleness_age=audit.staleness_age,
                )
            )


class RemoteJob(QueryJob):
    """A query forwarded from another host: answering sends a reply."""

    __slots__ = ("requester", "request_id", "item_id", "level")

    def __init__(
        self, requester: int, request_id: int, item_id: int, level: ConsistencyLevel
    ) -> None:
        self.requester = requester
        self.request_id = request_id
        self.item_id = item_id
        self.level = level

    def deliver(
        self,
        agent: "BaseAgent",
        version: int,
        served_locally: bool,
        fallback: bool = False,
        remote: bool = False,
    ) -> None:
        master = agent.context.catalog.master(self.item_id)
        reply = QueryReply(
            sender=agent.node_id,
            item_id=self.item_id,
            version=version,
            request_id=self.request_id,
            content_size=master.content_size,
            fallback=fallback,
        )
        agent.send(self.requester, reply)


class PendingQuery:
    """A query whose answer is in flight (poll, remote request, or wait)."""

    __slots__ = ("job", "timeout_handle", "tried_holders", "attempts", "stage")

    def __init__(self, job: QueryJob) -> None:
        self.job = job
        self.timeout_handle: Optional[EventHandle] = None
        self.tried_holders: Set[int] = set()
        self.attempts = 0
        self.stage: Optional[str] = None

    @property
    def item_id(self) -> int:
        """Item the pending query targets."""
        return self.job.item_id

    @property
    def level(self) -> ConsistencyLevel:
        """Requested consistency level."""
        return self.job.level

    def cancel_timeout(self) -> None:
        """Disarm any pending timeout event."""
        if self.timeout_handle is not None:
            self.timeout_handle.cancel()
            self.timeout_handle = None


class ConsistencyStrategy(abc.ABC):
    """Run-global strategy object: builds agents, starts global timers."""

    name: str = "abstract"

    def __init__(self, context: StrategyContext) -> None:
        self.context = context
        self.agents: Dict[int, "BaseAgent"] = {}

    @abc.abstractmethod
    def make_agent(self, host: MobileHost) -> "BaseAgent":
        """Create and register the per-host agent."""

    def start(self) -> None:
        """Start run-global timers; called once before the run."""

    # ------------------------------------------------------------------
    # Online-control actuation seam (see repro.control)
    # ------------------------------------------------------------------
    def control_knobs(self) -> Dict[str, float]:
        """Tunable parameters this strategy exposes to the online controller.

        The mapping is the control policy's *baseline*: knob name mapped
        to the value the strategy currently runs with.  Subclasses extend
        it with the knobs they own (``ttn``, ``ttr``, ``ttp``,
        ``poll_timeout``, ``relay_boost``); the base contributes
        ``backoff_factor`` when a retry backoff is wired.
        """
        knobs: Dict[str, float] = {}
        if self.context.backoff is not None:
            knobs["backoff_factor"] = self.context.backoff.factor
        return knobs

    def apply_control(self, decision) -> Dict[str, float]:
        """Apply a :class:`~repro.control.policies.ControlDecision`.

        This is the only sanctioned run-time mutation point for protocol
        parameters: strategies change the values their *future* timers,
        windows and polls read — in-flight state (armed timeouts, open
        TTR/TTP windows, queued polls) is never touched, so every
        already-made freshness promise stays exactly as made.  Returns
        the knobs actually changed (name mapped to the new value); knob
        names a strategy does not own are ignored, so one decision can
        span strategies.
        """
        applied: Dict[str, float] = {}
        backoff = self.context.backoff
        if backoff is not None:
            factor = self._knob_target(decision, "backoff_factor", backoff.factor)
            if factor is not None:
                backoff.factor = factor
                applied["backoff_factor"] = factor
        return applied

    @staticmethod
    def _knob_target(decision, knob: str, current: float) -> Optional[float]:
        """The value ``decision`` moves ``knob`` to, or ``None`` to leave it.

        ``None`` when the decision does not name the knob, repeats its
        current value, or asks for a value no timer can run with: every
        knob must be finite and positive, ``backoff_factor`` at least 1.
        """
        value = decision.knobs.get(knob)
        if value is None:
            return None
        value = float(value)
        usable = value >= 1.0 if knob == "backoff_factor" else value > 0
        if not (usable and math.isfinite(value)) or value == current:
            return None
        return value

    @abc.abstractmethod
    def remote_query_timeout(self) -> float:
        """How long a client waits for a holder's reply before retrying.

        Must exceed the worst-case holder-side validation wait: push
        waits for the next invalidation report, pull and RPCC for their
        full poll ladder.
        """

    def agent_for(self, node_id: int) -> "BaseAgent":
        """Look up the agent attached to host ``node_id``."""
        try:
            return self.agents[node_id]
        except KeyError:
            raise ProtocolError(f"no agent registered for node {node_id!r}") from None


class BaseAgent(abc.ABC):
    """Per-host protocol endpoint with the shared query machinery."""

    # One agent per host: the shipped agents declare their state as
    # slots.  A subclass that declares none simply keeps its ``__dict__``.
    __slots__ = ("strategy", "context", "host", "node_id", "_pending_remote")

    #: Message type -> name of its handler method (dotted: a method of a
    #: per-agent part).  A strategy extends the inherited mapping; a type
    #: with no entry, itself or inherited, gets ``handle_protocol_message``.
    HANDLERS: ClassVar[Mapping[type, str]] = {
        QueryRequest: "_handle_query_request",
        QueryReply: "_handle_query_reply",
    }
    # Exact type -> resolved function, filled on first sight: one memo per
    # agent class (a subclass may override a handler by name), none per agent.
    _dispatch: ClassVar[Dict[type, Callable[["BaseAgent", Message], None]]] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._dispatch = {}

    def __init__(self, strategy: ConsistencyStrategy, host: MobileHost) -> None:
        self.strategy = strategy
        self.context = strategy.context
        self.host = host
        self.node_id: int = host.node_id
        self._pending_remote: Dict[int, PendingQuery] = {}
        strategy.agents[host.node_id] = self

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.context.now

    def send(self, target: int, message: Message) -> bool:
        """Unicast ``message`` to ``target``; returns route availability."""
        return self.context.network.unicast(self.node_id, target, message)

    def flood(self, message: Message, ttl: int) -> int:
        """TTL-limited flood of ``message``; returns nodes reached."""
        return self.context.network.flood(self.node_id, message, ttl)

    # ------------------------------------------------------------------
    # Query entry point
    # ------------------------------------------------------------------
    def local_query(self, item_id: int, level: ConsistencyLevel) -> QueryRecord:
        """Serve a query issued at this host for ``item_id``."""
        metrics = self.context.metrics
        record = metrics.latency.open(self.node_id, item_id, level.label, self.now)
        # Every local query accesses this node's cache (hit or miss), so it
        # counts towards N_a of eq 4.2.1.
        self.host.tracker.record_access()
        trace = self.context.sim.trace
        if trace.enabled:
            trace.emit(
                QueryIssued(
                    time=self.now,
                    node=self.node_id,
                    item=item_id,
                    level=level.label,
                    query_id=record.query_id,
                )
            )
        job = LocalJob(record, level)
        if not self.host.online:
            self._answer_offline(job)
            return record
        master = self.context.catalog.master(item_id)
        if master.source_id == self.node_id:
            # Source hosts always hold the newest version (Section 3).
            if trace.enabled:
                trace.emit(
                    CacheHit(
                        time=self.now,
                        node=self.node_id,
                        item=item_id,
                        version=master.version,
                    )
                )
            self.answer(job, master.version, served_locally=True)
            return record
        copy = self.host.store.get(item_id, self.now)
        if copy is not None:
            record.cache_hit = True
            if trace.enabled:
                trace.emit(
                    CacheHit(
                        time=self.now,
                        node=self.node_id,
                        item=item_id,
                        version=copy.version,
                    )
                )
            self.validate_hit(copy, level, job)
        else:
            # Discovery sends the query to the nearest holder.
            if trace.enabled:
                trace.emit(CacheMiss(time=self.now, node=self.node_id, item=item_id))
            self._start_remote_query(PendingQuery(job))
        return record

    def _answer_offline(self, job: LocalJob) -> None:
        master = self.context.catalog.master(job.item_id)
        if master.source_id == self.node_id:
            self.answer(job, master.version, served_locally=True)
            return
        copy = self.host.store.peek(job.item_id)
        if copy is None:
            self.context.metrics.bump("query_offline_unanswerable")
            return
        self.context.metrics.bump("query_answered_offline")
        job.record.cache_hit = True
        # An offline host cannot validate; this serve is a fallback.
        self.answer(job, copy.version, served_locally=True, fallback=True)

    @abc.abstractmethod
    def validate_hit(
        self, copy: CachedCopy, level: ConsistencyLevel, job: QueryJob
    ) -> None:
        """Strategy-specific consistency check for a held copy."""

    def answer(
        self,
        job: QueryJob,
        version: int,
        served_locally: bool = False,
        fallback: bool = False,
        remote: bool = False,
    ) -> None:
        """Deliver the answer through the job.

        ``fallback`` marks answers served without the level's validation
        completing; ``remote`` marks answers that came back from another
        holder's copy.  Both flow into the ``read_served`` trace event.
        """
        job.deliver(self, version, served_locally, fallback, remote)

    # ------------------------------------------------------------------
    # Remote queries (client side)
    # ------------------------------------------------------------------
    def _start_remote_query(self, pending: PendingQuery) -> None:
        pending.attempts += 1
        if pending.attempts > self.context.max_fetch_attempts:
            self.context.metrics.bump("query_abandoned")
            return
        snapshot = self.context.network.snapshot()
        target = self.context.discovery.nearest_holder(
            snapshot, self.node_id, pending.item_id, exclude=pending.tried_holders
        )
        if target is None or target == self.node_id:
            self.context.metrics.bump("query_no_holder")
            return
        pending.tried_holders.add(target)
        request_id = next_request_id()
        self._pending_remote[request_id] = pending
        request = QueryRequest(
            sender=self.node_id,
            item_id=pending.item_id,
            request_id=request_id,
            level_label=pending.level.label,
        )
        sent = self.send(target, request)
        timeout = self.strategy.remote_query_timeout()
        if not sent:
            # No route right now: try another holder after a short pause.
            timeout = min(1.0, timeout)
        backoff = self.context.backoff
        if backoff is not None:
            # Applied after the no-route shortening so that repeated
            # route failures (a partition, say) back off exponentially
            # instead of hammering the dead route once a second.
            timeout = backoff.delay(
                timeout, pending.attempts, f"{self.node_id}/{pending.item_id}"
            )
        pending.timeout_handle = self.context.sim.schedule(
            timeout, self._remote_query_timeout, request_id
        )

    def _remote_query_timeout(self, request_id: int) -> None:
        pending = self._pending_remote.pop(request_id, None)
        if pending is None:
            return
        self.context.metrics.bump("query_retry")
        self._start_remote_query(pending)

    def _handle_query_request(self, message: QueryRequest) -> None:
        """Holder side: validate our copy and reply through a RemoteJob."""
        level = ConsistencyLevel(
            {"strong": ConsistencyLevel.STRONG, "delta": ConsistencyLevel.DELTA}.get(
                message.level_label, ConsistencyLevel.WEAK
            )
        )
        job = RemoteJob(message.sender, message.request_id, message.item_id, level)
        self.host.tracker.record_access()
        master = self.host.source_item
        if master is not None and master.item_id == message.item_id:
            self.answer(job, master.version)
            return
        copy = self.host.store.get(message.item_id, self.now)
        if copy is None:
            # Evicted since discovery looked: stay silent, the client's
            # timeout will try the next holder.
            self.context.metrics.bump("remote_query_no_copy")
            return
        self.validate_hit(copy, level, job)

    def _handle_query_reply(self, message: QueryReply) -> None:
        """Client side: close the record and cache the returned copy."""
        pending = self._pending_remote.pop(message.request_id, None)
        if pending is None:
            return  # late duplicate (a retry already succeeded)
        pending.cancel_timeout()
        if self.context.cache_on_read:
            copy = CachedCopy(
                message.item_id, message.version, message.content_size, self.now
            )
            evicted = self.host.store.put(copy)
            if evicted is not None:
                self.on_copy_evicted(evicted)
            self.on_copy_installed(copy)
        self.answer(
            pending.job, message.version, fallback=message.fallback, remote=True
        )

    def on_copy_installed(self, copy: CachedCopy) -> None:
        """Hook: a fresh copy just entered the local store."""

    def on_copy_evicted(self, item_id: int) -> None:
        """Hook: replacement evicted ``item_id`` from the local store."""

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        """Route an incoming network message: one lookup by exact type."""
        try:
            handler = self._dispatch[type(message)]
        except KeyError:
            handler = self._resolve_handler(type(message))
        handler(self, message)

    @classmethod
    def _resolve_handler(cls, message_type: type):
        """Memoise the handler of ``message_type``: the :attr:`HANDLERS` entry
        of the first class on its MRO that has one (a subclass inherits)."""
        name = next(
            (cls.HANDLERS[base] for base in message_type.__mro__ if base in cls.HANDLERS),
            "handle_protocol_message",
        )
        if "." in name:
            method_of = operator.attrgetter(name)
            handler = lambda agent, message: method_of(agent)(message)  # noqa: E731
        else:
            handler = getattr(cls, name)
        cls._dispatch[message_type] = handler
        return handler

    @abc.abstractmethod
    def handle_protocol_message(self, message: Message) -> None:
        """Handle a message no :attr:`HANDLERS` entry matches."""

    # ------------------------------------------------------------------
    # Host lifecycle hooks (default no-ops)
    # ------------------------------------------------------------------
    def on_reconnect(self) -> None:
        """The host just came back online."""

    def on_disconnect(self) -> None:
        """The host just went offline."""

    def on_local_update(self, master: MasterCopy) -> None:
        """This host just updated its master copy."""
        self.context.metrics.staleness.record_update(
            master.item_id, master.version, self.now
        )
        trace = self.context.sim.trace
        if trace.enabled:
            trace.emit(
                SourceUpdate(
                    time=self.now,
                    node=self.node_id,
                    item=master.item_id,
                    version=master.version,
                )
            )

    def on_period_closed(self) -> None:
        """A coefficient period just rolled over."""
