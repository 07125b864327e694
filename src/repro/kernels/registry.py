"""Backend selection: which implementation substrate runs a multiply.

``numpy``
    The pure-NumPy kernels (always available, bit-stable default).
``c``
    The runtime-compiled kernels in :mod:`repro.kernels.cbackend`;
    raises when no C compiler is present.
``auto``
    ``c`` when a compiler is available, silently ``numpy`` otherwise.

The C kernels match the reference to ≤1e-12 but are **not**
bit-identical to NumPy (different summation order), so ``numpy``
remains the default everywhere and the compiled path is opt-in.
"""

from __future__ import annotations

import time

from ..errors import KernelError

#: Valid backend selectors, in documentation order.
BACKENDS = ("numpy", "c", "auto")


def resolve_backend(backend: str) -> str:
    """Resolve a backend selector to a concrete backend.

    ``auto`` becomes ``c`` when the compiled backend can run here and
    ``numpy`` otherwise; explicit ``c`` raises
    :class:`~repro.kernels.cbackend.build.CBackendUnavailable` when it
    cannot.
    """
    from .cbackend import CBackendUnavailable, c_backend_available

    if backend not in BACKENDS:
        raise KernelError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "auto":
        return "c" if c_backend_available() else "numpy"
    if backend == "c" and not c_backend_available():
        raise CBackendUnavailable(
            "backend 'c' requested but no C compiler is available "
            "(REPRO_DISABLE_CC set, or no cc/gcc/clang on PATH)"
        )
    return backend


def spmv_backend(matrix, x, y=None, *, backend: str = "numpy"):
    """``y ← y + A·x`` on the selected backend.

    Every call is roofline-attributed: wall time plus the matrix's
    flop/byte counts feed the ``perf.*`` histograms (see
    :mod:`repro.observe.perf.attribution`), so engine, serve, and dist
    fallback paths all report achieved GFLOP/s without their own
    instrumentation.
    """
    from ..observe import metrics as _metrics
    from ..observe.perf.attribution import observe_kernel

    resolved = resolve_backend(backend)
    t0 = time.perf_counter()
    if resolved == "c":
        from .cbackend import spmv_c

        out = spmv_c(matrix, x, y)
    else:
        # The compiled path announces its ISA pick once per variant in
        # get_best_c_kernel; the NumPy substrate is its own "ISA".
        _metrics.inc("kernels.variant_selected", isa="numpy")
        out = matrix.spmv(x, y)
    observe_kernel(matrix, time.perf_counter() - t0, backend=resolved)
    return out


def spmm_backend(matrix, x, y=None, *, backend: str = "numpy"):
    """``Y ← Y + A·X`` on the selected backend (roofline-attributed,
    like :func:`spmv_backend`)."""
    from ..formats.multivector import spmm
    from ..observe import metrics as _metrics
    from ..observe.perf.attribution import observe_kernel

    resolved = resolve_backend(backend)
    k = x.shape[1] if getattr(x, "ndim", 1) == 2 else 1
    t0 = time.perf_counter()
    if resolved == "c":
        from .cbackend import spmm_c

        out = spmm_c(matrix, x, y)
    else:
        _metrics.inc("kernels.variant_selected", isa="numpy")
        out = spmm(matrix, x, y)
    observe_kernel(matrix, time.perf_counter() - t0, k=k,
                   backend=resolved)
    return out
