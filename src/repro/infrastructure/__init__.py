"""Infrastructure-based wireless baseline (the paper's Fig 1 world).

The related-work substrate: a one-hop MSS cell plus the classical
Timestamp invalidation-report scheme [Bar94], making the paper's argument
about why single-cell schemes do not transfer to MANETs executable.
"""

from repro.infrastructure.mss import CellClient, MSSCell
from repro.infrastructure.timestamp_ir import (
    InvalidationReport,
    TimestampScheme,
    TSClient,
)

__all__ = [
    "MSSCell",
    "CellClient",
    "TimestampScheme",
    "TSClient",
    "InvalidationReport",
]
