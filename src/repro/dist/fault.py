"""Fault handling for shard groups: heartbeats, detection, retry.

A shard worker proves liveness two ways: its process is alive, and a
daemon thread inside it stamps ``time.monotonic()`` into a per-shard
slot of a shared heartbeat array every ``interval`` seconds (the stamp
survives a busy compute loop because it comes from a separate thread).
The parent-side :class:`HeartbeatMonitor` scans both signals, exports
``dist.heartbeat_age{shard=i}`` / ``dist.shards_alive`` gauges, and —
when it can take the group's dispatch lock without contending with a
live dispatch — respawns dead shards proactively. Deaths discovered
*during* a dispatch are handled synchronously by the group's bounded
retry loop, whose schedule :class:`RetryPolicy` defines. A respawned
shard needs nothing else: its metrics and spans come home on the
replies of its own control pipe, like every shard's.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..observe import metrics as _metrics


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff.

    ``max_retries`` counts re-dispatches after the first attempt; the
    sleep before retry *n* (1-based) is ``backoff_s * 2**(n - 1)``.
    """

    max_retries: int = 3
    backoff_s: float = 0.05

    def delay(self, attempt: int) -> float:
        return self.backoff_s * (2 ** max(attempt - 1, 0))


class HeartbeatMonitor(threading.Thread):
    """Background scanner over a :class:`~repro.dist.group.ShardGroup`.

    Runs as a daemon so a parent that never calls ``close()`` still
    exits; the group's finalizer stops it explicitly on clean paths.
    """

    def __init__(self, group, interval_s: float):
        super().__init__(name="dist-heartbeat", daemon=True)
        self.group = group
        self.interval_s = interval_s
        # Not named ``_stop``: that would shadow Thread._stop, which
        # threading._after_fork calls in forked children.
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self.interval_s):
            try:
                self.group._heartbeat_scan()
            except Exception:  # pragma: no cover - scan must never kill
                _metrics.inc("dist.heartbeat_scan_errors")

    def stop(self) -> None:
        """Stop scanning and wait for the thread, so a closed group
        leaves no thread behind (unless called from the scan itself)."""
        self._stop_event.set()
        if self.is_alive() and self is not threading.current_thread():
            self.join(timeout=2.0)
