"""The untraced run: fresh set-ups, warm-up, measured blocks.

Phases for one workload (closed loop, one generator thread, in this
process; nothing here forks):

1. generate inputs (untimed, reported as ``matrices.generate_s``);
2. one untimed priming set-up — fills the on-disk C-kernel cache and
   the in-process kernel loader, so the timed set-ups below measure
   what a user's second start costs, not a compiler run;
3. :data:`N_SETUPS` timed fresh set-ups, each ending in its first
   verified result; the last one is kept and driven;
4. a warm-up of one block length that also verifies the first result
   for every pool vector;
5. :data:`N_BLOCKS` measured blocks of ``seconds / N_BLOCKS`` each;
6. teardown in ``finally``.

Oracle checks run outside every timed region: set-up results after
the set-up clock stops, the last result of each block after the
block's wall time is taken.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from . import stats
from .inputs import POOL, Inputs
from .workloads import Stack, Workload, http_bodies

N_BLOCKS = 8
N_SETUPS = 3


@dataclass
class Tally:
    """Requests attempted and failed (exception or oracle miss)."""

    attempted: int = 0
    failed: int = 0

    def attempt(self, workload: Workload, stack: Stack, i: int) -> list:
        """One closed-loop step; an exception fails every request the
        step would have issued and the loop carries on."""
        self.attempted += workload.requests_per_step
        try:
            return workload.step(stack, i)
        except Exception:  # noqa: BLE001 - counted, reported, non-zero exit
            self.failed += workload.requests_per_step
            traceback.print_exc(file=sys.stderr)
            return []

    def verify(self, workload: Workload, inputs: Inputs,
               completed: list) -> int:
        """Check results against the oracle; returns how many missed."""
        missed = 0
        for _, j, raw in completed:
            try:
                ok = inputs.correct(j, workload.decode(raw))
            except Exception:  # noqa: BLE001 - an undecodable result
                ok = False
            missed += not ok
        self.failed += missed
        return missed


@dataclass
class Measured:
    """What one untraced run observed."""

    blocks: list[tuple[int, float]] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    setups_s: list[float] = field(default_factory=list)

    def metrics(self) -> dict[str, float]:
        lat_ms = [s * 1e3 for s in self.latencies_s]
        return {
            "spmv_per_s": stats.block_throughput(self.blocks),
            "latency_p50_ms": stats.percentile(lat_ms, 50.0),
            "latency_p90_ms": stats.percentile(lat_ms, 90.0),
            "setup_s": statistics.median(self.setups_s),
        }


def fresh_setup(workload: Workload, inputs: Inputs, bodies, tally: Tally
                ) -> tuple[Stack, float]:
    """Construct the stack, tune or register, first result in hand —
    timed — then verify that result off the clock."""
    t0 = time.perf_counter()
    stack = Stack(inputs, bodies)
    try:
        first = tally.attempt(workload, stack, 0)
        elapsed = time.perf_counter() - t0
        tally.verify(workload, inputs, first)
    except BaseException:
        stack.close()
        raise
    return stack, elapsed


def drive(workload: Workload, stack: Stack, inputs: Inputs,
          seconds: float, tally: Tally, measured: Measured) -> None:
    """Warm-up, then the measured blocks."""
    block_s = seconds / N_BLOCKS
    i = 0
    seen: set[int] = set()
    t_stop = time.perf_counter() + block_s
    # The cap on i ends the warm-up even if every request fails.
    while time.perf_counter() < t_stop or (len(seen) < POOL
                                           and i < 4 * POOL):
        for done in tally.attempt(workload, stack, i):
            if done[1] not in seen:
                seen.add(done[1])
                tally.verify(workload, inputs, [done])
        i += 1
    for _ in range(N_BLOCKS):
        completed = 0
        last = None
        t0 = time.perf_counter()
        t_stop = t0 + block_s
        while True:
            results = tally.attempt(workload, stack, i)
            i += 1
            for done in results:
                measured.latencies_s.append(done[0])
                last = done
            completed += len(results)
            now = time.perf_counter()
            if now >= t_stop:
                break
        wall = now - t0
        if last is not None:
            completed -= tally.verify(workload, inputs, [last])
        measured.blocks.append((completed, wall))


def run_untraced(workload: Workload, inputs: Inputs, seconds: float,
                 tally: Tally) -> tuple[Measured, dict]:
    """All phases for one workload; returns the measurements and the
    plan/backend facts for the provenance block."""
    bodies = http_bodies(inputs) if workload.needs_bodies else ()
    measured = Measured()
    fresh_setup(workload, inputs, bodies, tally)[0].close()   # priming
    stack = None
    try:
        for _ in range(N_SETUPS):
            if stack is not None:
                stack.close()
            stack, elapsed = fresh_setup(workload, inputs, bodies, tally)
            measured.setups_s.append(elapsed)
        drive(workload, stack, inputs, seconds, tally, measured)
        facts = stack.describe()
    finally:
        if stack is not None:
            stack.close()
    return measured, facts
