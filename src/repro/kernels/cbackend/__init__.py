"""Runtime-compiled C kernel backend.

The paper's code generator emitted specialized C per (format, r×c,
index width) variant; this package is that generator plus the runtime
around it: codegen → one-shot compile into an on-disk cache → ctypes
load → load-time validation against the reference kernel → dispatch
through one generated runner that walks a matrix's bound program in a
single C call, its row panels on a persistent pthread team
(:mod:`repro.kernels.cbackend.program`).

Public surface::

    from repro.kernels.cbackend import (
        c_backend_available,   # can compiled kernels run here?
        spmv_c, spmm_c,        # drop-in twins of matrix.spmv / spmm
        get_c_kernel,          # compile+load+validate one variant
        get_best_c_kernel,     # walk the ISA ladder for a variant
        compiler_capabilities, # probed ISA features of the host cc
    )

Set ``REPRO_DISABLE_CC=1`` to force the pure-NumPy fallback path;
``REPRO_CC_CAPS`` overrides the probed capability set (e.g.
``REPRO_CC_CAPS=scalar`` forces the scalar emitters).
"""

from .build import (
    CAPABILITIES,
    CBackendUnavailable,
    CFLAGS,
    build_flags,
    build_variant,
    cache_dir,
    cache_stats,
    cc_disabled,
    compiler_available,
    compiler_capabilities,
    find_compiler,
    object_path,
    purge_cache,
)
from .codegen import (
    C_FORMATS,
    ISA_PREFERENCE,
    PREFETCH_DISTANCE,
    SUPPORTED_ISAS,
    Variant,
    c_kernel_source,
)
from .dispatch import (
    c_backend_available,
    spmm_c,
    spmv_c,
)
from .loader import (
    VALIDATION_RTOL,
    CKernel,
    get_best_c_kernel,
    get_c_kernel,
    loaded_variants,
    reset_for_tests,
)

__all__ = [
    "CAPABILITIES",
    "CBackendUnavailable",
    "CFLAGS",
    "CKernel",
    "C_FORMATS",
    "ISA_PREFERENCE",
    "PREFETCH_DISTANCE",
    "SUPPORTED_ISAS",
    "VALIDATION_RTOL",
    "Variant",
    "build_flags",
    "build_variant",
    "c_backend_available",
    "c_kernel_source",
    "cache_dir",
    "cache_stats",
    "cc_disabled",
    "compiler_available",
    "compiler_capabilities",
    "find_compiler",
    "get_best_c_kernel",
    "get_c_kernel",
    "loaded_variants",
    "object_path",
    "purge_cache",
    "reset_for_tests",
    "spmm_c",
    "spmv_c",
]
