"""SpMV kernels.

The paper drove its optimization search with "a Perl-based code
generator that produces the SpMV kernel, using the subset of
optimizations appropriate for each underlying system". The analogue
here is :mod:`repro.kernels.cbackend`: it emits C specialized per
(format, r×c tile, index width, ISA rung), compiles it at runtime and
dispatches it GIL-free — select it with ``backend="c"`` /
``backend="auto"`` through :func:`spmv_backend` and friends; the
default ``backend="numpy"`` runs each format's own NumPy ``spmv``.
:mod:`repro.kernels.reference` holds the obviously-correct
implementations everything is validated against.
"""

from .reference import spmv_dense_reference, spmv_reference
from .registry import (
    BACKENDS,
    resolve_backend,
    spmm_backend,
    spmv_backend,
)

__all__ = [
    "BACKENDS",
    "resolve_backend",
    "spmm_backend",
    "spmv_backend",
    "spmv_dense_reference",
    "spmv_reference",
]
