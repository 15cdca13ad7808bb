"""Unit tests for data items and the bounded cache store."""

import pytest

from repro.cache.item import CachedCopy, MasterCopy
from repro.cache.replacement import FIFOPolicy, LFUPolicy, LRUPolicy, policy_factory
from repro.cache.store import CacheStore
from repro.errors import CacheCapacityError, CacheError, UnknownItemError


class TestMasterCopy:
    def test_version_starts_at_zero(self):
        assert MasterCopy(1, 1).version == 0

    def test_update_increments_version(self):
        master = MasterCopy(1, 1)
        assert master.update(now=5.0) == 1
        assert master.update(now=9.0) == 2
        assert master.updated_at == 9.0
        assert master.update_count == 2

    def test_content_size_validated(self):
        with pytest.raises(UnknownItemError):
            MasterCopy(1, 1, content_size=0)


class TestCachedCopy:
    def test_refresh_advances_version(self):
        copy = CachedCopy(1, 2, 100, now=0.0)
        copy.refresh(5, now=10.0)
        assert copy.version == 5
        assert copy.fetched_at == 10.0

    def test_refresh_rejects_downgrade(self):
        copy = CachedCopy(1, 5, 100, now=0.0)
        with pytest.raises(UnknownItemError):
            copy.refresh(3, now=1.0)

    def test_refresh_same_version_allowed(self):
        copy = CachedCopy(1, 5, 100, now=0.0)
        copy.refresh(5, now=1.0)
        assert copy.version == 5

    def test_touch_updates_access_stats(self):
        copy = CachedCopy(1, 0, 100, now=0.0)
        copy.touch(3.0)
        copy.touch(7.0)
        assert copy.access_count == 2
        assert copy.last_access == 7.0


def copy_of(item_id, now=0.0, version=0):
    return CachedCopy(item_id, version, 100, now)


class TestCacheStore:
    def test_capacity_validated(self):
        with pytest.raises(CacheCapacityError):
            CacheStore(0)

    def test_put_and_get(self):
        store = CacheStore(2)
        store.put(copy_of(1))
        assert store.get(1, now=1.0) is not None
        assert 1 in store
        assert len(store) == 1

    def test_get_records_hit_and_miss(self):
        store = CacheStore(2)
        store.put(copy_of(1))
        store.get(1, now=1.0)
        store.get(2, now=1.0)
        assert store.hits == 1
        assert store.misses == 1
        assert store.hit_ratio == pytest.approx(0.5)

    def test_hit_ratio_empty(self):
        assert CacheStore(1).hit_ratio == 0.0

    def test_peek_does_not_touch(self):
        store = CacheStore(2)
        store.put(copy_of(1))
        store.peek(1)
        assert store.hits == 0
        assert store.peek(1).access_count == 0

    def test_eviction_at_capacity(self):
        store = CacheStore(2)
        store.put(copy_of(1, now=0.0))
        store.put(copy_of(2, now=1.0))
        store.get(1, now=2.0)  # make 2 the LRU victim
        evicted = store.put(copy_of(3, now=3.0))
        assert evicted == 2
        assert store.evictions == 1
        assert sorted(store.item_ids) == [1, 3]

    def test_reinsert_existing_replaces_without_eviction(self):
        store = CacheStore(1)
        store.put(copy_of(1, version=0))
        evicted = store.put(copy_of(1, version=3))
        assert evicted is None
        assert store.peek(1).version == 3

    def test_discard(self):
        store = CacheStore(2)
        store.put(copy_of(1))
        assert store.discard(1)
        assert not store.discard(1)
        assert 1 not in store

    def test_membership_callbacks(self):
        inserted, evicted = [], []
        store = CacheStore(1, on_insert=inserted.append, on_evict=evicted.append)
        store.put(copy_of(1))
        store.put(copy_of(2))
        store.discard(2)
        assert inserted == [1, 2]
        assert evicted == [1, 2]

    def test_iterates_item_ids_without_copying(self):
        store = CacheStore(3)
        for item in (3, 1, 2):
            store.put(copy_of(item))
        assert list(store) == store.item_ids == [3, 1, 2]
        # item_ids is a snapshot a loop may mutate under; iteration is live.
        for item_id in store.item_ids:
            store.discard(item_id)
        assert list(store) == []

    def test_full_property(self):
        store = CacheStore(1)
        assert not store.full
        store.put(copy_of(1))
        assert store.full


class TestReplacementPolicies:
    def build(self, policy):
        store = CacheStore(3, policy=policy)
        store.put(copy_of(1, now=0.0))
        store.put(copy_of(2, now=1.0))
        store.put(copy_of(3, now=2.0))
        return store

    def test_lru_evicts_least_recent(self):
        store = self.build(LRUPolicy())
        store.get(1, now=10.0)
        store.get(2, now=11.0)
        assert store.put(copy_of(4, now=12.0)) == 3

    def test_lfu_evicts_least_frequent(self):
        store = self.build(LFUPolicy())
        store.get(1, now=10.0)
        store.get(1, now=11.0)
        store.get(2, now=12.0)
        assert store.put(copy_of(4, now=13.0)) == 3

    def test_fifo_evicts_oldest_insert(self):
        store = self.build(FIFOPolicy())
        store.get(1, now=10.0)  # access does not save it under FIFO
        assert store.put(copy_of(4, now=11.0)) == 1

    def test_policy_factory_by_name(self):
        assert isinstance(policy_factory("lru")(), LRUPolicy)
        assert isinstance(policy_factory("LFU")(), LFUPolicy)
        assert isinstance(policy_factory("fifo")(), FIFOPolicy)

    def test_policy_factory_unknown(self):
        with pytest.raises(CacheError):
            policy_factory("random")()
