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
from ..formats.multivector import spmm
from ..observe import metrics as _metrics
from ..observe.perf.attribution import observe_kernel
from .cbackend import (
    CBackendUnavailable,
    c_backend_available,
    spmm_c,
    spmv_c,
)

#: Valid backend selectors, in documentation order.
BACKENDS = ("numpy", "c", "auto")


def _check_selector(backend: str) -> None:
    if backend not in BACKENDS:
        raise KernelError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )


def resolve_backend(backend: str) -> str:
    """Resolve a backend selector to a concrete backend.

    ``auto`` becomes ``c`` when the compiled backend can run here and
    ``numpy`` otherwise; explicit ``c`` raises
    :class:`~repro.kernels.cbackend.build.CBackendUnavailable` when it
    cannot.
    """
    _check_selector(backend)
    if backend == "numpy":
        return backend
    if c_backend_available():
        return "c"
    if backend == "c":
        raise CBackendUnavailable(
            "backend 'c' requested but no C compiler is available "
            "(REPRO_DISABLE_CC set, or no cc/gcc/clang on PATH)"
        )
    return "numpy"


def _numpy_spmv(matrix, x, y):
    return matrix.spmv(x, y)


def _run(backend: str, compiled, numpy_kernel, matrix, x, y):
    """One multiply on the selected backend → ``(result, resolved)``.

    The compiled entry points check availability themselves, against
    the matrix's bound program and before touching ``y`` — so that is
    the one check a call makes, and ``auto`` degrades on its failure
    instead of asking the same question first.
    """
    _check_selector(backend)
    if backend != "numpy":
        try:
            return compiled(matrix, x, y), "c"
        except CBackendUnavailable:
            if backend == "c":
                raise
    # The compiled path announces its ISA pick once per variant in
    # get_best_c_kernel; the NumPy substrate is its own "ISA".
    _metrics.inc("kernels.variant_selected", isa="numpy")
    return numpy_kernel(matrix, x, y), "numpy"


def spmv_backend(matrix, x, y=None, *, backend: str = "numpy"):
    """``y ← y + A·x`` on the selected backend.

    Every call is roofline-attributed: wall time plus the matrix's
    flop/byte counts feed the ``perf.*`` histograms (see
    :mod:`repro.observe.perf.attribution`), so engine, serve, and dist
    fallback paths all report achieved GFLOP/s without their own
    instrumentation.
    """
    t0 = time.perf_counter()
    out, resolved = _run(backend, spmv_c, _numpy_spmv, matrix, x, y)
    observe_kernel(matrix, time.perf_counter() - t0, backend=resolved)
    return out


def spmm_backend(matrix, x, y=None, *, backend: str = "numpy"):
    """``Y ← Y + A·X`` on the selected backend (roofline-attributed,
    like :func:`spmv_backend`)."""
    k = x.shape[1] if getattr(x, "ndim", 1) == 2 else 1
    t0 = time.perf_counter()
    out, resolved = _run(backend, spmm_c, spmm, matrix, x, y)
    observe_kernel(matrix, time.perf_counter() - t0, k=k,
                   backend=resolved)
    return out
