"""Service metrics: counters plus bounded latency windows.

Everything ``GET /v1/stats`` reports is aggregated here.  Wait and run
times keep the most recent ``window`` samples (a ring buffer) so the
percentiles track current behaviour instead of averaging over the whole
process lifetime; with the default window the memory cost is a few KiB.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Any, Dict, Optional

__all__ = ["LatencyWindow", "ServeMetrics"]


class LatencyWindow:
    """Ring buffer of recent durations with nearest-rank percentiles."""

    def __init__(self, window: int = 512):
        self._samples: deque = deque(maxlen=window)
        self.count = 0  # lifetime total, survives window eviction

    def add(self, seconds: float) -> None:
        self._samples.append(float(seconds))
        self.count += 1

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile over the window; None when empty."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = max(math.ceil(p / 100.0 * len(ordered)), 1)
        return ordered[rank - 1]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "p50_s": self.percentile(50),
            "p99_s": self.percentile(99),
            "max_s": max(self._samples) if self._samples else None,
        }


class ServeMetrics:
    """Counters for the admission ladder and HTTP front door."""

    def __init__(self, window: int = 512, clock=time.monotonic):
        self._clock = clock
        self._started = clock()
        # Admission ladder: every accepted record lands in exactly one
        # of cache_hits / coalesced / misses (miss = new execution).
        self.submitted = 0  # records accepted (any rung)
        self.cache_hits = 0
        self.coalesced = 0
        self.misses = 0
        self.rejected = 0  # 429s
        # Execution outcomes (per execution, not per record).
        self.completed = 0
        self.failed = 0
        # HTTP front door.
        self.requests = 0
        self.http_errors = 0
        self.wait = LatencyWindow(window)  # enqueue → dispatch
        self.run = LatencyWindow(window)  # dispatch → completion

    def snapshot(self) -> Dict[str, Any]:
        return {
            "uptime_s": self._clock() - self._started,
            "submitted": self.submitted,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "misses": self.misses,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "requests": self.requests,
            "http_errors": self.http_errors,
            "wait": self.wait.snapshot(),
            "run": self.run.snapshot(),
        }
