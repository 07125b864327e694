"""Bottleneck composition: plan + machine + parallel config → runtime.

The execution-time model is deliberately simple and auditable:

* **memory time** — modeled DRAM traffic over the sustained bandwidth of
  the active configuration (:mod:`.memory`), inflated by thread load
  imbalance;
* **compute time** — per-core kernel cycles (:mod:`.cpu`) on the
  critical core, plus TLB penalties;
* **composition** — overlapped (``max``) when the architecture can hide
  memory behind computation (out-of-order, software prefetch into L1,
  or DMA double buffering), serial (``+``) otherwise — the in-order
  no-prefetch case that crushes single-thread Niagara;
* **cache residency** — when the full working set fits the aggregate
  LLC of the active cores, bandwidth is re-evaluated at LLC latency
  (Clovertown's superlinear Economics case).
"""

from __future__ import annotations

import numpy as np

import time

from .._util import VALUE_BYTES
from ..errors import SimulationError
from ..machines.model import Machine, PlacementPolicy
from ..observe import metrics as _metrics
from .bottleneck import bottleneck_shares
from ..observe.trace import span as _span
from .cpu import KernelVariant, kernel_cycles, optimized_variant
from .events import SimResult
from .memory import cache_resident_bandwidth, sustained_bandwidth
from .tlb import tlb_penalty_seconds
from .traffic import PlanProfile, plan_traffic, profile_from_matrix


def _active_llc_bytes(
    machine: Machine, sockets: int, cores_per_socket: int
) -> int:
    """Aggregate LLC capacity reachable by the active cores."""
    llc = machine.last_level_cache
    if llc is None:
        return 0
    instances_per_socket = -(-cores_per_socket // llc.shared_by_cores)
    return instances_per_socket * llc.size_bytes * sockets


def simulate_plan(
    machine: Machine,
    plan: PlanProfile,
    *,
    sockets: int | None = None,
    cores_per_socket: int | None = None,
    threads_per_core: int = 1,
    policy: PlacementPolicy = PlacementPolicy.NUMA_AWARE,
    sw_prefetch: bool = True,
    variant: KernelVariant | None = None,
    write_allocate: bool = True,
) -> SimResult:
    """Simulate one SpMV pass of a planned matrix.

    The plan's thread count must equal the active hardware thread count
    (use :meth:`PlanProfile.retarget_threads` when sweeping configs).
    """
    sockets = machine.sockets if sockets is None else sockets
    cores = (
        machine.cores_per_socket if cores_per_socket is None
        else cores_per_socket
    )
    n_threads = sockets * cores * threads_per_core
    if plan.n_threads != n_threads:
        raise SimulationError(
            f"plan has {plan.n_threads} threads but the configuration "
            f"activates {n_threads}; retarget the plan first"
        )
    if variant is None:
        variant = optimized_variant(machine.core)

    # ------------------------------------------------------------ memory
    phase_t0 = time.perf_counter()
    with _span("sim.memory", machine=machine.name, threads=n_threads):
        traffic, per_thread_traffic = plan_traffic(
            plan, machine, write_allocate=write_allocate
        )
        bw = sustained_bandwidth(
            machine, sockets=sockets, cores_per_socket=cores,
            threads_per_core=threads_per_core, policy=policy,
            sw_prefetch=sw_prefetch,
        )
    bandwidth = bw.sustained_bw
    m, n = plan.shape
    working_set = plan.matrix_bytes + VALUE_BYTES * (m + n)
    llc_bytes = _active_llc_bytes(machine, sockets, cores)
    # Graded residency: over repeated SpMV passes (the paper times many
    # iterations) a fraction h of the working set stays in the LLC and
    # streams at LLC speed; the remainder comes from DRAM. h=1 is full
    # residency, small h leaves bandwidth at the DRAM value. This is
    # the mechanism behind Clovertown's superlinear Economics scaling.
    hit_frac = min(1.0, llc_bytes / working_set) if llc_bytes else 0.0
    cache_resident = hit_frac >= 1.0
    if hit_frac > 0.5:
        llc_bw = cache_resident_bandwidth(
            machine, sockets=sockets, cores_per_socket=cores,
            threads_per_core=threads_per_core,
        )
        if llc_bw > 0:
            blended = 1.0 / (
                (1.0 - hit_frac) / bandwidth + hit_frac / llc_bw
            )
            bandwidth = max(bandwidth, blended)
    mean_load = float(per_thread_traffic.mean()) if n_threads else 0.0
    imbalance = (
        float(per_thread_traffic.max()) / mean_load
        if mean_load > 0 else 1.0
    )
    memory_time = traffic.total / bandwidth * imbalance if bandwidth else 0.0
    phase_t1 = time.perf_counter()

    # ----------------------------------------------------------- compute
    with _span("sim.compute", machine=machine.name,
               n_blocks=len(plan.blocks)):
        clock = machine.core.clock_hz
        per_thread_cycles = np.zeros(n_threads, dtype=np.float64)
        per_thread_tlb = np.zeros(n_threads, dtype=np.float64)
        for b in plan.blocks:
            costs = kernel_cycles(
                machine.core,
                format_name=b.format_name, r=b.r, c=b.c, ntiles=b.ntiles,
                nnz_stored=b.nnz_stored, n_segments=b.n_segments,
                variant=variant,
            )
            per_thread_cycles[b.thread] += costs.total_cycles
            per_thread_tlb[b.thread] += tlb_penalty_seconds(
                machine.tlb, b.pages_touched, b.x_accesses, clock,
                window_page_pairs=b.x_window_page_pairs,
                n_windows=b.n_windows,
            )
        # Threads on one core share its issue bandwidth: core time is
        # the sum of its threads' cycles.
        per_core_cycles = per_thread_cycles.reshape(
            -1, threads_per_core
        ).sum(axis=1)
        per_core_tlb = per_thread_tlb.reshape(-1, threads_per_core).sum(
            axis=1
        )
        compute_time = float(per_core_cycles.max()) / clock + float(
            per_core_tlb.max()
        )
    phase_t2 = time.perf_counter()

    # ------------------------------------------------------- composition
    core = machine.core
    can_overlap = (
        core.out_of_order
        or machine.mem.dma
        or (sw_prefetch and machine.mem.sw_prefetch_target == "L1")
        # CMT: other threads' compute hides this thread's misses once
        # more than one thread shares the core.
        or threads_per_core > 1
    )
    if can_overlap:
        time_s = max(compute_time, memory_time)
    else:
        time_s = compute_time + memory_time
    if time_s <= 0:
        time_s = 1e-12
    nnz_logical = plan.nnz_logical
    gflops = 2.0 * nnz_logical / time_s / 1e9
    if memory_time >= compute_time:
        bottleneck = "memory" if bw.bottleneck == "dram" else "latency"
    else:
        bottleneck = "compute"
    shares = bottleneck_shares(
        compute_time, memory_time,
        "latency" if bw.bottleneck == "latency" else "memory",
    )
    _metrics.inc("sim.runs", machine=machine.name)
    _metrics.inc("sim.bottleneck", kind=bottleneck)
    return SimResult(
        machine_name=machine.name,
        time_s=time_s,
        gflops=gflops,
        traffic=traffic,
        sustained_gbs=traffic.total / time_s / 1e9,
        compute_time_s=compute_time,
        memory_time_s=memory_time,
        bottleneck=bottleneck,
        cache_resident=cache_resident,
        sockets=sockets,
        cores_per_socket=cores,
        threads_per_core=threads_per_core,
        imbalance=imbalance,
        extras={
            "bw_model": bw,
            "attribution": {
                "memory_share": shares.memory,
                "compute_share": shares.compute,
                "latency_share": shares.latency,
                "overlapped": can_overlap,
                "hit_frac": hit_frac,
            },
            "phase_seconds": {
                "memory_model": phase_t1 - phase_t0,
                "compute_model": phase_t2 - phase_t1,
            },
        },
    )


def simulate_spmv(
    machine: Machine,
    matrix,
    *,
    n_threads: int = 1,
    **kwargs,
) -> SimResult:
    """Convenience wrapper: profile a materialized matrix, then simulate.

    ``n_threads`` blocks are distributed round-robin; for the paper's
    nnz-balanced partitioning use the planner in :mod:`repro.core`.
    """
    plan = profile_from_matrix(matrix, machine, n_threads=n_threads)
    # Derive a configuration that matches n_threads on this machine.
    cores_needed = -(-n_threads // machine.core.hw_threads)
    sockets = min(machine.sockets, -(-cores_needed // machine.cores_per_socket))
    cores_per_socket = min(machine.cores_per_socket,
                           -(-cores_needed // sockets))
    threads_per_core = -(-n_threads // (sockets * cores_per_socket))
    total = sockets * cores_per_socket * threads_per_core
    if total != n_threads:
        plan = plan.retarget_threads(total)
    return simulate_plan(
        machine, plan, sockets=sockets, cores_per_socket=cores_per_socket,
        threads_per_core=threads_per_core, **kwargs,
    )
