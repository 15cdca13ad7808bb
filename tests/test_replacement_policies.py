"""Behavioural and property tests for the new replacement policies.

The three PR-8 policies (ttl-value, size-utility, lru-k) ride behind the
uniform :class:`~repro.cache.replacement.CachePolicy` interface; these
tests pin the properties the catalog relies on: LRU-K degenerates to
exact LRU at K=1, the utility policy never thrashes a just-admitted
copy, and the TTL-aware policy sends lapsed copies out first.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.item import CachedCopy
from repro.cache.replacement import (
    LRUKPolicy,
    LRUPolicy,
    SizeUtilityPolicy,
    TTLValuePolicy,
    make_policy,
    policy_factory,
)
from repro.cache.store import CacheStore
from repro.errors import CacheError

# A workload step: (item id, is_get).  Puts insert a fresh copy; gets
# touch it if resident.  Timestamps strictly increase one per step.
_ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=9), st.booleans()),
    max_size=80,
)


def _drive(store: CacheStore, ops):
    """Replay an op sequence; returns the eviction sequence."""
    evictions = []
    now = 0.0
    for item, is_get in ops:
        now += 1.0
        if is_get:
            store.get(item, now)
        else:
            evicted = store.put(CachedCopy(item, 0, 1024 + item, now))
            evictions.append(evicted)
    return evictions


class TestLRUK:
    @given(_ops)
    def test_k1_is_exactly_lru(self, ops):
        lru = CacheStore(3, policy=LRUPolicy())
        lruk = CacheStore(3, policy=LRUKPolicy(k=1))
        assert _drive(lru, ops) == _drive(lruk, ops)
        assert sorted(lru.item_ids) == sorted(lruk.item_ids)

    def test_k2_prefers_single_access_items(self):
        # Items 1 and 2 each get a second access; item 3 never does, so
        # its backward-2 distance is -inf and it is the K=2 victim even
        # though it is the most recently used copy.
        store = CacheStore(3, policy=LRUKPolicy(k=2))
        for item, t in ((1, 1.0), (2, 2.0), (3, 3.0)):
            store.put(CachedCopy(item, 0, 1024, t))
        store.get(1, 4.0)
        store.get(2, 5.0)
        store.get(3, 6.0)  # only its first re-access: history len 2 now
        store.get(1, 7.0)
        assert store.put(CachedCopy(4, 0, 1024, 8.0)) == 2

    def test_history_capped_and_cleared(self):
        policy = LRUKPolicy(k=2)
        store = CacheStore(2, policy=policy)
        store.put(CachedCopy(1, 0, 1024, 1.0))
        for t in range(2, 8):
            store.get(1, float(t))
        assert len(policy._history[1]) == 2
        store.discard(1)
        assert 1 not in policy._history

    def test_k_validated(self):
        with pytest.raises(CacheError):
            LRUKPolicy(k=0)


class TestSizeUtility:
    @given(_ops)
    def test_never_evicts_the_just_admitted_copy(self, ops):
        store = CacheStore(3, policy=SizeUtilityPolicy())
        last_admitted = None
        now = 0.0
        for item, is_get in ops:
            now += 1.0
            if is_get:
                store.get(item, now)
                continue
            evicted = store.put(CachedCopy(item, 0, 1024 + 512 * item, now))
            if evicted is not None and last_admitted in store:
                assert evicted != last_admitted
            last_admitted = item

    def test_large_cold_copy_goes_first(self):
        store = CacheStore(3, policy=SizeUtilityPolicy())
        store.put(CachedCopy(1, 0, 100, 1.0))
        store.put(CachedCopy(2, 0, 100_000, 2.0))  # big, never accessed
        store.put(CachedCopy(3, 0, 100, 3.0))
        store.get(1, 4.0)
        assert store.put(CachedCopy(4, 0, 100, 5.0)) == 2

    def test_sole_resident_is_still_evictable(self):
        store = CacheStore(1, policy=SizeUtilityPolicy())
        store.put(CachedCopy(1, 0, 100, 1.0))
        assert store.put(CachedCopy(2, 0, 100, 2.0)) == 1


class TestTTLValue:
    def test_lapsed_copies_go_first(self):
        # Item 1 is popular but fetched long ago (freshness lapsed =>
        # value 0); item 2 is unpopular but fresh.  1 is the victim.
        store = CacheStore(2, policy=TTLValuePolicy(ttl=10.0))
        store.put(CachedCopy(1, 0, 1024, 0.0))
        store.put(CachedCopy(2, 0, 1024, 95.0))
        for t in (1.0, 2.0, 3.0):
            store.get(1, t)
        store.get(1, 99.0)  # recent touch does not refresh fetched_at
        assert store.put(CachedCopy(3, 0, 1024, 100.0)) == 1

    def test_among_fresh_popularity_wins(self):
        store = CacheStore(2, policy=TTLValuePolicy(ttl=1000.0))
        store.put(CachedCopy(1, 0, 1024, 0.0))
        store.put(CachedCopy(2, 0, 1024, 1.0))
        store.get(1, 2.0)
        assert store.put(CachedCopy(3, 0, 1024, 3.0)) == 2

    def test_clock_wiring(self):
        ticks = [50.0]
        policy = TTLValuePolicy(ttl=10.0, clock=lambda: ticks[0])
        store = CacheStore(2, policy=policy)
        store.put(CachedCopy(1, 0, 1024, 45.0))  # fresh until 55
        store.put(CachedCopy(2, 0, 1024, 30.0))  # lapsed at 40
        assert store.put(CachedCopy(3, 0, 1024, 50.0)) == 2

    def test_ttl_validated(self):
        with pytest.raises(CacheError):
            TTLValuePolicy(ttl=0.0)


class TestMakePolicy:
    def test_context_is_filtered_per_constructor(self):
        clock = lambda: 7.0
        ttl = make_policy("ttl-value", ttl=60.0, clock=clock, k=5)
        assert ttl.ttl == 60.0 and ttl.clock is clock
        lruk = make_policy("lru-k", ttl=60.0, clock=clock, k=3)
        assert lruk.k == 3
        # Stateless policies ignore the whole context.
        assert isinstance(make_policy("lru", ttl=60.0, clock=clock), LRUPolicy)

    def test_signature_is_resolved_once_per_factory(self, monkeypatch):
        """World set-up builds one policy per host: 10 000 hosts must not
        mean 10 000 ``inspect.signature`` calls (each one compiles
        ``object.__init__``'s text signature for ``__init__``-less
        policies)."""
        from repro.cache import replacement

        resolved = []
        real_signature = replacement.inspect.signature

        def counting_signature(factory):
            resolved.append(factory)
            return real_signature(factory)

        monkeypatch.setattr(replacement.inspect, "signature", counting_signature)
        replacement._accepted_parameters.cache_clear()
        clock = lambda: 7.0
        for _ in range(10_000):
            policy = make_policy("lru", ttl=60.0, clock=clock)
        assert isinstance(policy, LRUPolicy)
        assert resolved == [LRUPolicy]

        # The memo keeps the per-constructor filtering of all six policies.
        ttl = make_policy("ttl-value", ttl=60.0, clock=clock, k=5)
        assert ttl.ttl == 60.0 and ttl.clock is clock
        assert make_policy("lru-k", ttl=60.0, clock=clock, k=4).k == 4
        for name in ("lfu", "fifo", "size-utility"):
            assert make_policy(name, ttl=60.0, clock=clock, k=4).name == name
        assert len(resolved) == 6
        make_policy("ttl-value", ttl=30.0, clock=clock)
        assert len(resolved) == 6

    def test_unknown_policy_is_cache_error(self):
        with pytest.raises(CacheError, match="ttl-value"):
            make_policy("arc")
        with pytest.raises(CacheError, match="ttl-value"):
            policy_factory("arc")

    def test_factory_resolves_once_and_builds_fresh_instances(self, monkeypatch):
        """What a world builder does: one resolution, one call per host."""
        from repro.cache import replacement

        lookups = []
        real_get = replacement.POLICIES.get
        monkeypatch.setattr(
            replacement.POLICIES, "get",
            lambda name: lookups.append(name) or real_get(name),
        )
        clock = lambda: 7.0
        new_policy = policy_factory("lru-k", ttl=60.0, clock=clock, k=3)
        policies = [new_policy() for _ in range(100)]
        assert lookups == ["lru-k"]
        assert len({id(policy) for policy in policies}) == 100
        assert all(type(p) is LRUKPolicy and p.k == 3 for p in policies)
        # Stateful policies keep per-store history: nothing is shared.
        assert policies[0]._history is not policies[1]._history
        ttl = policy_factory("ttl-value", ttl=60.0, clock=clock, k=3)()
        assert ttl.ttl == 60.0 and ttl.clock is clock

    def test_policies_run_end_to_end(self):
        """Every registered policy drives a full (tiny) simulation."""
        from repro.cache.replacement import POLICIES
        from repro.experiments.config import SimulationConfig
        from repro.experiments.runner import run_simulation

        for name in POLICIES.names():
            config = SimulationConfig(
                n_peers=8, sim_time=20.0, warmup=0.0, cache_num=2,
                replacement_policy=name,
            )
            result = run_simulation(config, "pull")
            assert result.summary.queries_issued > 0, name
