"""Architectural performance simulator.

This package is the substitution substrate for the paper's 2007
hardware: it predicts SpMV execution time on a
:class:`~repro.machines.model.Machine` from the exact data-structure
traffic of an optimization plan and a small set of calibrated
architectural parameters (documented in each machine module).

Components
----------
* :mod:`repro.simulator.memory` — sustained-bandwidth model
  (Little's-law demand per core, socket ceilings, NUMA/coherency
  aggregation). Reproduces Table 4.
* :mod:`repro.simulator.cache` — exact set-associative LRU cache
  simulator (validation and ablations).
* :mod:`repro.simulator.cache_analytic` — fast analytic source/
  destination-vector traffic model used by the executor.
* :mod:`repro.simulator.tlb` — page working-set / TLB miss model.
* :mod:`repro.simulator.cpu` — instruction-throughput model (loop
  overhead, branch misses, SIMD, in-order stalls, Cell DP stalls).
* :mod:`repro.simulator.traffic` — per-plan memory traffic accounting.
* :mod:`repro.simulator.executor` — bottleneck composition into a
  simulated runtime and effective Gflop/s.
* :mod:`repro.simulator.bottleneck` — memory/compute/latency time
  shares per simulation, aggregated into per-(machine, matrix) tables.
"""

from .bottleneck import (
    AttributionRecord,
    BottleneckAttribution,
    BottleneckShares,
    attribute,
    bottleneck_shares,
)
from .cache import CacheSim, simulate_access_stream
from .cache_analytic import vector_traffic
from .cpu import KernelCosts, kernel_cycles
from .events import SimResult, TrafficBreakdown
from .executor import simulate_plan, simulate_spmv
from .memory import BandwidthReport, sustained_bandwidth
from .tlb import tlb_misses
from .traffic import BlockProfile, PlanProfile

__all__ = [
    "AttributionRecord",
    "BandwidthReport",
    "BlockProfile",
    "BottleneckAttribution",
    "BottleneckShares",
    "CacheSim",
    "KernelCosts",
    "PlanProfile",
    "SimResult",
    "TrafficBreakdown",
    "attribute",
    "bottleneck_shares",
    "kernel_cycles",
    "simulate_access_stream",
    "simulate_plan",
    "simulate_spmv",
    "sustained_bandwidth",
    "tlb_misses",
    "vector_traffic",
]
