"""Clean-exit guard: nothing the benchmark started may outlive it.

An earlier attempt at this benchmark was rejected for leaving a
process running, so the runner proves the opposite before it exits on
*every* path — normal return, exception, SIGTERM, deadline:

* no child process of this pid (``/proc`` scan, zombies reaped first);
* no live non-daemon thread other than main;
* no ``/dev/shm/repro-*`` segment that was not there at start;
* no listening TCP socket among this process's descriptors.

:meth:`Guard.sweep` reports all four and SIGKILLs surviving children.
A per-workload deadline (``setitimer``) and SIGTERM both raise
:class:`Interrupted` in the main thread, so teardown runs through the
ordinary ``finally`` blocks; if teardown itself then stalls past
:data:`GRACE_S`, the second alarm kills every child, unlinks new shm
segments and leaves through ``os._exit``.
"""

from __future__ import annotations

import glob
import os
import signal
import sys
import threading

#: Seconds teardown may take after an interrupt before the hard exit.
GRACE_S = 10.0
EXIT_DEADLINE = 124
EXIT_SIGTERM = 128 + signal.SIGTERM
SHM_PATTERN = "/dev/shm/repro-*"


class Interrupted(BaseException):
    """Deadline or SIGTERM. A ``BaseException`` so the program's own
    ``except Exception`` fences cannot swallow it."""

    def __init__(self, reason: str, code: int):
        super().__init__(reason)
        self.code = code


def child_pids() -> list[int]:
    """Direct children of this process, from /proc."""
    pid = os.getpid()
    out = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process exited while we were looking
        if int(fields[1]) == pid:          # field 4 of stat: ppid
            out.append(int(stat.split("/")[2]))
    return sorted(out)


def _reap() -> None:
    """Collect children that already exited, so only live ones count."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def kill_children() -> list[int]:
    """SIGKILL and reap every direct child; returns the pids killed."""
    killed = []
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            continue
        killed.append(pid)
    return killed


def nondaemon_threads() -> list[str]:
    main = threading.main_thread()
    return [t.name for t in threading.enumerate()
            if t is not main and not t.daemon and t.is_alive()]


def listening_ports() -> list[int]:
    """Local ports of TCP sockets this process holds in LISTEN state."""
    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(target[len("socket:["):-1])
    ports = []
    for table in ("/proc/self/net/tcp", "/proc/self/net/tcp6"):
        try:
            with open(table) as f:
                rows = f.read().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            cols = row.split()
            if cols[3] == "0A" and cols[9] in inodes:   # st == LISTEN
                ports.append(int(cols[1].rsplit(":", 1)[1], 16))
    return sorted(ports)


class Guard:
    """Owns the signal handlers, the deadline and the final sweep."""

    def __init__(self):
        self._shm_at_start = set(glob.glob(SHM_PATTERN))
        self._interrupted = False
        self._previous: dict[int, object] = {}

    def __enter__(self) -> "Guard":
        for signum in (signal.SIGTERM, signal.SIGALRM):
            self._previous[signum] = signal.signal(signum, self._on_signal)
        return self

    def __exit__(self, *exc) -> None:
        self.disarm()
        for signum, handler in self._previous.items():
            signal.signal(signum, handler)

    # ----------------------------------------------------------- timers
    def arm(self, deadline_s: float) -> None:
        """(Re)start the deadline clock for the next workload."""
        signal.setitimer(signal.ITIMER_REAL, deadline_s)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def _on_signal(self, signum, frame) -> None:
        if self._interrupted:
            self.hard_exit(EXIT_DEADLINE if signum == signal.SIGALRM
                           else EXIT_SIGTERM)
        self._interrupted = True
        signal.setitimer(signal.ITIMER_REAL, GRACE_S)
        if signum == signal.SIGALRM:
            raise Interrupted("workload deadline exceeded", EXIT_DEADLINE)
        raise Interrupted("SIGTERM", EXIT_SIGTERM)

    # ------------------------------------------------------------ sweep
    def new_shm_segments(self) -> list[str]:
        return sorted(set(glob.glob(SHM_PATTERN)) - self._shm_at_start)

    def sweep(self) -> list[str]:
        """Everything still alive that should not be, as messages;
        surviving children are killed. Empty list: clean exit."""
        self.disarm()
        _reap()
        leaks = []
        killed = kill_children()
        if killed:
            leaks.append(f"child processes left running (killed): {killed}")
        threads = nondaemon_threads()
        if threads:
            leaks.append(f"non-daemon threads still alive: {threads}")
        segments = self.new_shm_segments()
        if segments:
            leaks.append(f"shared-memory segments left behind: {segments}")
        ports = listening_ports()
        if ports:
            leaks.append(f"listening sockets left open on ports: {ports}")
        return leaks

    def hard_exit(self, code: int) -> None:
        """Teardown stalled: kill, unlink, leave without ``finally``."""
        killed = kill_children()
        for path in self.new_shm_segments():
            try:
                os.unlink(path)
            except OSError:
                pass
        print(f"e2e guard: teardown stalled; killed children {killed}, "
              f"hard exit {code}", file=sys.stderr, flush=True)
        os._exit(code)
