"""Workload generation: arrivals, access patterns, level mixes, drivers."""

from repro.workload.access import AccessPattern, UniformAccess, ZipfAccess
from repro.workload.arrivals import ExponentialProcess
from repro.workload.drivers import QueryWorkload, UpdateWorkload
from repro.workload.mix import LevelMix

__all__ = [
    "ExponentialProcess",
    "AccessPattern",
    "UniformAccess",
    "ZipfAccess",
    "LevelMix",
    "QueryWorkload",
    "UpdateWorkload",
]
