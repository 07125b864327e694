"""Kernel registry: name → SpMV callable, plus backend selection.

A thin dispatch layer so benchmarks and the engine can enumerate and
select kernels uniformly. Each kernel takes ``(matrix, x, y=None)`` and
returns ``y ← y + A·x``.

Orthogonal to the *kernel* choice is the *backend* choice — which
implementation substrate executes the multiply:

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
from typing import Callable

import numpy as np

from ..errors import KernelError

KernelFn = Callable[..., np.ndarray]

#: Valid backend selectors, in documentation order.
BACKENDS = ("numpy", "c", "auto")

_REGISTRY: dict[str, KernelFn] = {}


def register_kernel(name: str, fn: KernelFn | None = None):
    """Register a kernel under ``name`` (usable as a decorator)."""
    if fn is None:
        def deco(f: KernelFn) -> KernelFn:
            register_kernel(name, f)
            return f
        return deco
    if name in _REGISTRY:
        raise KernelError(f"kernel {name!r} already registered")
    _REGISTRY[name] = fn
    return fn


def get_kernel(name: str) -> KernelFn:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KernelError(
            f"unknown kernel {name!r}; available: {available_kernels()}"
        ) from None


def available_kernels() -> list[str]:
    return sorted(_REGISTRY)


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# Built-in kernels
# ----------------------------------------------------------------------
def _format_spmv(matrix, x, y=None):
    return matrix.spmv(x, y)


register_kernel("format_numpy", _format_spmv)


def _format_c(matrix, x, y=None):
    from .cbackend import spmv_c

    return spmv_c(matrix, x, y)


register_kernel("format_c", _format_c)


def _generated(matrix, x, y=None):
    from .generator import spmv_generated

    return spmv_generated(matrix, x, y)


register_kernel("generated_unrolled", _generated)


def _reference(matrix, x, y=None):
    from .reference import spmv_reference

    return spmv_reference(matrix.to_coo(), x, y)


register_kernel("reference", _reference)


def _segmented_scan(matrix, x, y=None, n_parts: int = 1):
    from ..formats.csr import CSRMatrix
    from ..parallel.scan import segmented_scan_spmv

    if not isinstance(matrix, CSRMatrix):
        from ..formats.convert import coo_to_csr

        matrix = coo_to_csr(matrix.to_coo())
    return segmented_scan_spmv(matrix, x, y, n_parts=n_parts)


register_kernel("segmented_scan", _segmented_scan)
