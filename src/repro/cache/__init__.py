"""Cooperative-caching substrate: items, stores, directory, discovery."""

from repro.cache.catalog import Catalog
from repro.cache.directory import CacheDirectory
from repro.cache.discovery import Discovery
from repro.cache.item import CachedCopy, MasterCopy
from repro.cache.placement import random_placement, single_item_placement
from repro.cache.replacement import (
    FIFOPolicy,
    LFUPolicy,
    LRUPolicy,
    ReplacementPolicy,
)
from repro.cache.store import CacheStore

__all__ = [
    "MasterCopy",
    "CachedCopy",
    "CacheStore",
    "Catalog",
    "CacheDirectory",
    "Discovery",
    "ReplacementPolicy",
    "LRUPolicy",
    "LFUPolicy",
    "FIFOPolicy",
    "random_placement",
    "single_item_placement",
]
