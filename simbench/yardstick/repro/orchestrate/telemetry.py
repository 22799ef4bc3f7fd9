"""Campaign telemetry: a JSONL event stream plus a live TTY summary.

Every scheduler/campaign event is appended as one JSON object per line
(``{"ts": ..., "type": ..., ...payload}``) so external tools can tail a
running campaign.  When attached to a terminal, a single status line is
redrawn in place::

    jobs 37/96 run=4 fail=1 cache=12 | 1.8M ev/s | eta 41s

Aggregation (events per second per worker, ETA) happens here, off the
workers' hot path — workers only report raw counters.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
from typing import Any, Dict, Optional, TextIO, Union

__all__ = ["Telemetry"]

PathLike = Union[str, pathlib.Path]


class Telemetry:
    """Collect campaign events; optionally persist and display them."""

    def __init__(
        self,
        jsonl_path: Optional[PathLike] = None,
        stream: Optional[TextIO] = None,
        live: Optional[bool] = None,
        clock=time.time,
        min_redraw_s: float = 0.1,
        flush_every: int = 1,
    ):
        self._clock = clock
        self._fh: Optional[TextIO] = None
        # External tailers (``repro serve``'s /events endpoint, `tail -f`)
        # only see an event once it reaches the file, so the sink is
        # flushed every ``flush_every`` lines — 1 (the default) means
        # after every event; 0 defers to the io buffer / close().
        self._flush_every = max(int(flush_every), 0)
        self._lines_since_flush = 0
        if jsonl_path is not None:
            path = pathlib.Path(jsonl_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = path.open("a")
        self._stream = stream if stream is not None else sys.stderr
        self._live = live if live is not None else self._stream.isatty()
        self._min_redraw_s = min_redraw_s
        self._last_redraw = 0.0
        self._dirty_line = False

        self._started = time.monotonic()
        self.counts: Dict[str, int] = {
            "total": 0, "running": 0, "done": 0, "failed": 0,
            "cache_hits": 0, "retries": 0, "crashes": 0, "timeouts": 0,
        }
        self.events_total = 0
        self.sim_seconds_total = 0.0
        self.per_worker: Dict[int, Dict[str, float]] = {}

    # -- event intake ------------------------------------------------------

    def emit(self, type: str, **payload: Any) -> None:
        self._update(type, payload)
        if self._fh is not None:
            record = {"ts": self._clock(), "type": type}
            record.update(payload)
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._lines_since_flush += 1
            if self._flush_every and self._lines_since_flush >= self._flush_every:
                self._fh.flush()
                self._lines_since_flush = 0
        if self._live:
            self._redraw()

    def _update(self, type: str, payload: Dict[str, Any]) -> None:
        c = self.counts
        if type == "campaign_start":
            c["total"] = int(payload.get("total", 0))
            self._started = time.monotonic()
        elif type == "job_start":
            c["running"] += 1
        elif type == "job_done":
            c["running"] = max(0, c["running"] - 1)
            c["done"] += 1
            events = int(payload.get("events", 0))
            duration = float(payload.get("duration_s", 0.0))
            self.events_total += events
            self.sim_seconds_total += duration
            pid = payload.get("worker_pid")
            if pid is not None:
                w = self.per_worker.setdefault(int(pid), {"events": 0.0, "busy_s": 0.0, "jobs": 0.0})
                w["events"] += events
                w["busy_s"] += duration
                w["jobs"] += 1
        elif type == "job_failed":
            c["running"] = max(0, c["running"] - 1)
            c["failed"] += 1
        elif type == "job_retry":
            c["running"] = max(0, c["running"] - 1)
            c["retries"] += 1
        elif type == "cache_hit":
            c["cache_hits"] += 1
        elif type == "worker_crash":
            c["crashes"] += 1
        elif type == "job_timeout":
            c["timeouts"] += 1

    # -- display -----------------------------------------------------------

    def _format_rate(self, per_second: float) -> str:
        if per_second >= 1e6:
            return f"{per_second / 1e6:.1f}M"
        if per_second >= 1e3:
            return f"{per_second / 1e3:.1f}k"
        return f"{per_second:.0f}"

    def status_line(self) -> str:
        c = self.counts
        finished = c["done"] + c["failed"] + c["cache_hits"]
        elapsed = max(time.monotonic() - self._started, 1e-9)
        rate = self.events_total / elapsed
        executed = c["done"] + c["failed"]
        remaining = max(c["total"] - finished, 0)
        if executed and remaining:
            eta = f"{remaining * (elapsed / executed):.0f}s"
        else:
            eta = "-" if remaining else "0s"
        return (
            f"jobs {finished}/{c['total']} run={c['running']} fail={c['failed']} "
            f"cache={c['cache_hits']} | {self._format_rate(rate)} ev/s | eta {eta}"
        )

    def _redraw(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_redraw < self._min_redraw_s:
            return
        self._last_redraw = now
        self._stream.write("\r\x1b[K" + self.status_line())
        self._stream.flush()
        self._dirty_line = True

    # -- summary / lifecycle ----------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Aggregate campaign statistics (also emitted as ``campaign_end``)."""
        elapsed = time.monotonic() - self._started
        per_worker = {
            str(pid): {
                "jobs": int(w["jobs"]),
                "events": int(w["events"]),
                "events_per_second": (w["events"] / w["busy_s"]) if w["busy_s"] else 0.0,
            }
            for pid, w in sorted(self.per_worker.items())
        }
        return {
            "wall_clock_s": elapsed,
            "jobs": dict(self.counts),
            "events_total": self.events_total,
            "events_per_second": self.events_total / elapsed if elapsed > 0 else 0.0,
            "sim_busy_s": self.sim_seconds_total,
            "per_worker": per_worker,
        }

    def close(self) -> None:
        if self._live and self._dirty_line:
            self._redraw(force=True)
            self._stream.write("\n")
            self._stream.flush()
            self._dirty_line = False
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
