"""Windowed time series: how a quantity evolved over the run.

Scalar end-of-run summaries hide transients — the relay-overlay bootstrap,
a partition healing, a bursty update phase.  A :class:`TimeSeries`
collects timestamped samples and buckets them into fixed windows for
convergence plots and steady-state checks (used by the warm-up
calibration in DESIGN.md and the ``repro.viz`` charts).
"""

from __future__ import annotations

import bisect
import math
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["TimeSeries"]


class TimeSeries:
    """Timestamped scalar samples with windowed aggregation."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def record(self, time: float, value: float) -> None:
        """Append one sample; times must be non-decreasing."""
        if self._times and time < self._times[-1]:
            raise ConfigurationError(
                f"samples must be time-ordered: {time} after {self._times[-1]}"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> List[float]:
        """Sample timestamps (copy)."""
        return list(self._times)

    @property
    def values(self) -> List[float]:
        """Sample values (copy)."""
        return list(self._values)

    def last(self) -> Optional[Tuple[float, float]]:
        """Most recent ``(time, value)`` sample, or ``None`` when empty."""
        if not self._times:
            return None
        return self._times[-1], self._values[-1]

    def between(self, start: float, end: float) -> List[float]:
        """Values of samples with ``start <= time < end``."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        return self._values[lo:hi]

    def bucketed(
        self, width: float, reducer: str = "mean"
    ) -> List[Tuple[float, float]]:
        """Aggregate samples into windows of ``width`` seconds.

        Returns ``(bucket_start, aggregate)`` pairs for every non-empty
        bucket.  ``reducer``: ``"mean"``, ``"sum"``, ``"max"``, ``"min"``
        or ``"count"``.
        """
        if width <= 0:
            raise ConfigurationError(f"bucket width must be positive, got {width!r}")
        reducers = {
            "mean": lambda values: math.fsum(values) / len(values),  # statistics.fmean
            "sum": sum,
            "max": max,
            "min": min,
            "count": len,
        }
        try:
            fold = reducers[reducer]
        except KeyError:
            raise ConfigurationError(
                f"unknown reducer {reducer!r}; choose from {sorted(reducers)}"
            ) from None
        if not self._times:
            return []
        buckets: List[Tuple[float, float]] = []
        start = (self._times[0] // width) * width
        end = self._times[-1]
        while start <= end:
            values = self.between(start, start + width)
            if values:
                buckets.append((start, float(fold(values))))
            start += width
        return buckets

    def rate_per_second(self, width: float) -> List[Tuple[float, float]]:
        """Event rate per window: ``count / width`` for each bucket."""
        return [
            (start, count / width)
            for start, count in self.bucketed(width, reducer="count")
        ]
