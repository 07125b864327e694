"""Opt-in thread-stack sampling profiler with collapsed-stack output.

A daemon thread wakes at a fixed interval, snapshots every Python
thread's frame via :func:`sys._current_frames`, and folds each stack
into a ``module:function`` frame chain — the collapsed-stack format
flamegraph tooling consumes directly (``frame;frame;frame count``).
Aggregation happens in memory (one dict entry per distinct stack, not
per sample), and the counts are flushed atomically to a ``.stacks``
file at a coarser period, so a process that dies leaves a partial
profile behind.

Pure-Python sampling can't see inside a C kernel while it holds the
CPU, but the ctypes backend releases the GIL — samples taken during a
C SpMV land on the dispatching Python frame, which is exactly the
attribution granularity the serve tier wants (which matrix/batch is
burning time, not which unrolled MAC).

This is opt-in (``ServeClient(profile_dir=...)`` /
``serve --profile-dir DIR``): the default request path pays nothing.
The sampler is process-wide, so ``DIR`` holds one file,
``serve-parent.stacks``, sorted and already in the format
``flamegraph.pl`` and speedscope read: it is the flamegraph input as
it stands.
"""

from __future__ import annotations

import sys
import threading

from ..._util import write_text_atomic

__all__ = [
    "StackSampler",
    "render_collapsed",
    "start_sampler",
    "stop_sampler",
]

#: Frames from these modules are the sampler observing itself — skipped.
_SELF_MODULES = (__name__,)


def _fold(frame) -> str:
    """Fold a frame chain into ``mod:fn;mod:fn;...`` (root first)."""
    parts: list[str] = []
    while frame is not None:
        code = frame.f_code
        mod = frame.f_globals.get("__name__", "?")
        parts.append(f"{mod}:{code.co_name}")
        frame = frame.f_back
    return ";".join(reversed(parts))


class StackSampler(threading.Thread):
    """Daemon thread sampling all Python stacks into collapsed counts.

    Parameters
    ----------
    path : str | None
        Destination ``.stacks`` file; counts flush there atomically
        every ``flush_interval_s``. None keeps the profile in memory
        only (tests, ad-hoc use via :meth:`counts`).
    interval_s : float
        Sampling period. 5 ms default — coarse enough to stay under a
        percent of overhead, fine enough that millisecond kernels show.
    """

    def __init__(self, path: str | None = None, *,
                 interval_s: float = 0.005,
                 flush_interval_s: float = 1.0):
        super().__init__(name="repro-stack-sampler", daemon=True)
        self.path = path
        self.interval_s = interval_s
        self.flush_interval_s = flush_interval_s
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._halt = threading.Event()
        self.samples = 0

    def run(self) -> None:  # pragma: no cover - timing loop
        since_flush = 0.0
        while not self._halt.wait(self.interval_s):
            self._sample_once()
            since_flush += self.interval_s
            if self.path and since_flush >= self.flush_interval_s:
                self.flush()
                since_flush = 0.0

    def _sample_once(self) -> None:
        me = threading.get_ident()
        frames = sys._current_frames()
        with self._lock:
            for tid, frame in frames.items():
                if tid == me:
                    continue
                stack = _fold(frame)
                if not stack:
                    continue
                self._counts[stack] = self._counts.get(stack, 0) + 1
            self.samples += 1

    def counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def flush(self) -> None:
        """Atomically write current counts to ``self.path``."""
        if not self.path:
            return
        try:
            write_text_atomic(self.path, render_collapsed(self.counts()))
        except OSError:  # pragma: no cover - disk-full etc.
            pass

    def stop(self) -> None:
        self._halt.set()
        if self.is_alive():
            self.join(timeout=2.0)
        self.flush()


def render_collapsed(counts: dict[str, int]) -> str:
    """Collapsed-stack text: one ``stack count`` line, sorted for
    deterministic diffs."""
    lines = [f"{stack} {count}" for stack, count in sorted(counts.items())]
    return "\n".join(lines) + ("\n" if lines else "")


_ACTIVE: StackSampler | None = None
_ACTIVE_LOCK = threading.Lock()


def start_sampler(path: str | None = None, *,
                  interval_s: float = 0.005) -> StackSampler:
    """Start (or return) the process-wide sampler."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        if _ACTIVE is not None and _ACTIVE.is_alive():
            return _ACTIVE
        sampler = StackSampler(path, interval_s=interval_s)
        sampler.start()
        _ACTIVE = sampler
        return sampler


def stop_sampler() -> None:
    """Stop the process-wide sampler and flush its profile."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        sampler, _ACTIVE = _ACTIVE, None
    if sampler is not None:
        sampler.stop()
