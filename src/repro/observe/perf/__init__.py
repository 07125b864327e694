"""Live roofline observability: measured ceilings, attribution, watchdog.

The paper's whole argument is a roofline argument — every machine's
SpMV rate is ``min(peak flops, intensity × sustained bandwidth)`` —
but the serve tier historically reported only wall-clock spans and SLO
buckets: *how long* a kernel ran, never *how close to the hardware
bound*. This package closes that loop, live:

* :mod:`.ceilings` — STREAM-style bandwidth and peak-FLOP
  microbenchmarks, measured once per host and cached in a
  version-stamped JSON envelope keyed on a host fingerprint, so the
  service knows its *real* roofline instead of the paper's modeled
  2007 machines.
* :mod:`.attribution` — every kernel invocation (engine, threaded
  tier, serve batches, dist shards) computes achieved GFLOP/s and
  effective GB/s from the plan's flop/byte counts and tags it with the
  roofline fraction vs the measured ceiling; the ``perf.*`` histograms
  are fixed-bucket, so shard children's observations merge into the
  parent's ``/metrics`` when they ride home on the shard's replies.
* :mod:`.watchdog` — per-(matrix, plan, backend) EWMA baselines of
  GFLOP/s with a robust deviation band; sustained drops count on
  ``perf.regressions``, arm force-sampling for the offending matrix,
  and surface at ``GET /v1/debug/perf``.
* :mod:`.sampler` — an opt-in thread-stack sampling profiler writing
  one collapsed-stack file, ``serve-parent.stacks``, that flamegraph
  tools read as it is.
"""

from .attribution import (
    KernelCounts,
    PerfAttributor,
    PerfSample,
    configure,
    observe_kernel,
    sample_kernel,
)
from .ceilings import (
    CEILINGS_VERSION,
    MachineCeilings,
    default_cache_path,
    get_ceilings,
    host_fingerprint,
    load_ceilings,
    measure_ceilings,
    save_ceilings,
)
from .sampler import (
    StackSampler,
    render_collapsed,
    start_sampler,
    stop_sampler,
)
from .watchdog import PerfWatchdog, RegressionEvent

__all__ = [
    "CEILINGS_VERSION",
    "KernelCounts",
    "MachineCeilings",
    "PerfAttributor",
    "PerfSample",
    "PerfWatchdog",
    "RegressionEvent",
    "StackSampler",
    "configure",
    "default_cache_path",
    "get_ceilings",
    "host_fingerprint",
    "load_ceilings",
    "measure_ceilings",
    "observe_kernel",
    "render_collapsed",
    "sample_kernel",
    "save_ceilings",
    "start_sampler",
    "stop_sampler",
]
