"""Load compiled kernels via ctypes and validate before dispatch.

``ctypes.CDLL`` releases the GIL for the duration of every foreign
call, so a loaded kernel runs truly concurrently with other Python
threads — the property :mod:`repro.parallel.threaded` builds on.

Every kernel is probed at load time: a randomized matrix (deterministic
per variant, with deliberately empty rows) is pushed through both
compiled entries — ``repro_spmv``, and the fused ``repro_spmm`` at a
column count below one chunk and at one past it — and compared against
:func:`repro.kernels.reference.spmv_reference` to 1e-12 relative
tolerance. A kernel that fails either probe never becomes eligible for
dispatch — a miscompiled object degrades to the NumPy path instead of
corrupting results.

Variant selection is *empirical*, in the paper's search-based spirit:
every ISA rung the compiler's probed capabilities support is built and
validated, then the survivors race on a deterministic mid-size probe
matrix and the fastest wins — a static preference order cannot know
that e.g. software prefetch loses to the hardware prefetchers on a
given host. The winner is cached per (format, tile, width) for the
process and recorded once under ``kernels.variant_selected{isa=}``;
scalar is the guaranteed floor (and the only candidate under
``REPRO_CC_CAPS=scalar``, so degraded builds skip the race entirely).
"""

from __future__ import annotations

import ctypes
import os
import threading
import time
import zlib
from dataclasses import dataclass

import numpy as np

from ...errors import KernelError
from ...formats.base import IndexWidth
from ...formats.convert import coo_to_csr, to_bcoo, to_bcsr
from ...formats.coo import COOMatrix
from ...formats.sellcs import to_sellcs
from ...observe import metrics as _metrics
from ..reference import spmv_reference
from . import build
from .build import CBackendUnavailable, build_variant, \
    compiler_capabilities
from .codegen import ISA_PREFERENCE, SPMM_CHUNK, Variant
from .program import BoundProgram

#: Probe-validation tolerance (matches the test-suite parity bound).
VALIDATION_RTOL = 1e-12

_lock = threading.Lock()
_loaded: dict[Variant, "CKernel"] = {}
_broken: dict[Variant, str] = {}
#: (fmt, r, c, width) -> best-ISA kernel resolved for this process.
_best: dict[tuple, "CKernel"] = {}
#: Bumped by :func:`reset_for_tests`; part of :func:`bind_token`.
_generation = 0

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p


@dataclass(frozen=True)
class CKernel:
    """One loaded, validated kernel: raw ctypes entry points."""

    variant: Variant
    spmv: object                 #: ctypes function (format-specific)
    spmm: object                 #: fused multi-vector entry (all formats)
    path: str                    #: shared object on disk

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CKernel {self.variant.name} @ {self.path}>"


def _bind(variant: Variant, path: str) -> CKernel:
    lib = ctypes.CDLL(path)
    if variant.fmt in ("csr", "bcsr"):        # ..., x, y, lo, hi
        args = [_PTR] * 5 + [_I64] * 2
    elif variant.fmt == "sellcs":
        # The permutation round-trip runs inside the kernel: +perm
        # pointer, un-permuted y, and the real row count.
        args = [_PTR] * 6 + [_I64] * 3
    else:                                     # bcoo: ..., x, y, ntiles
        args = [_PTR] * 5 + [_I64]
    spmv, spmm = lib.repro_spmv, lib.repro_spmm
    spmv.restype = spmm.restype = None
    spmv.argtypes = args
    # The fused SpMM adds the column count k among the trailing int64s.
    spmm.argtypes = args + [_I64]
    return CKernel(variant=variant, spmv=spmv, spmm=spmm, path=path)


def _probe_matrix(seed: int) -> COOMatrix:
    """Random COO probe with empty rows and at least one dense-ish row."""
    rng = np.random.default_rng(seed)
    m, n = 23, 19
    nnz = 60
    row = rng.integers(0, m, size=nnz)
    row[row == 3] = 4          # row 3 stays empty on purpose
    col = rng.integers(0, n, size=nnz)
    val = rng.standard_normal(nnz)
    return COOMatrix((m, n), row, col, val)


def _probe_seed(variant: Variant) -> int:
    """The variant's validation seed: the same in every process (a
    ``hash()`` of a str is salted per process), so a validation
    failure can be reproduced from the variant name alone."""
    return zlib.crc32(variant.name.encode()) % (2 ** 31)


def _in_format(coo: COOMatrix, fmt: str, r: int, c: int,
               index_width: IndexWidth, sigma: int | None = None):
    """``coo`` converted to the storage a ``(fmt, r, c)`` variant runs."""
    if fmt == "csr":
        return coo_to_csr(coo, index_width=index_width)
    if fmt == "sellcs":
        return to_sellcs(coo, chunk=r, sigma=sigma,
                         index_width=index_width)
    conv = to_bcsr if fmt == "bcsr" else to_bcoo
    return conv(coo, r, c, index_width=index_width)


def _pinned(matrix, kernel: CKernel) -> BoundProgram:
    """``matrix`` bound to exactly ``kernel``, whatever the race said."""
    return BoundProgram(matrix, lambda leaf: kernel)


def _check(variant: Variant, entry: str, got: np.ndarray,
           expected: np.ndarray) -> None:
    err = np.abs(got - expected)
    bound = VALIDATION_RTOL * np.maximum(np.abs(expected), 1.0)
    if not np.all(err <= bound):
        raise KernelError(
            f"compiled kernel {variant.name} failed load-time "
            f"validation of {entry} (max abs err {float(err.max()):.3e})"
        )


def _validate(variant: Variant, kernel: CKernel) -> None:
    """Compare both compiled entries with the trusted reference."""
    seed = _probe_seed(variant)
    coo = _probe_matrix(seed)
    # sellcs: σ = nrows is a full sort, so the probe exercises a
    # non-trivial permutation round-trip through the scatter.
    mat = _in_format(coo, variant.fmt, variant.r, variant.c,
                     variant.index_width, sigma=coo.nrows)
    program = _pinned(mat, kernel)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(coo.ncols)
    y0 = rng.standard_normal(coo.nrows)
    _check(variant, "spmv", program.spmv(x, y0.copy()),
           spmv_reference(coo, x, y0.copy()))
    # k = 3 runs only the narrow chunks that cover k mod SPMM_CHUNK
    # (a vector pair and one column); SPMM_CHUNK + 1 runs a full chunk
    # and then one column.
    for k in (3, SPMM_CHUNK + 1):
        xk = rng.standard_normal((coo.ncols, k))
        yk = rng.standard_normal((coo.nrows, k))
        expected = yk.copy()
        for j in range(k):
            spmv_reference(coo, xk[:, j], expected[:, j])
        _check(variant, f"spmm (k={k})", program.spmm(xk, yk), expected)


def get_c_kernel(fmt: str, r: int, c: int, index_width: IndexWidth,
                 isa: str = "scalar") -> CKernel:
    """Compile/load/validate (all cached) the kernel for one variant.

    Raises :class:`CBackendUnavailable` when no compiler is present,
    :class:`KernelError` when the build or validation fails (the
    variant is then blacklisted for the process).
    """
    variant = Variant(fmt, int(r), int(c), IndexWidth(index_width), isa)
    hit = _loaded.get(variant)
    if hit is not None:
        return hit
    with _lock:
        hit = _loaded.get(variant)
        if hit is not None:
            return hit
        if variant in _broken:
            raise KernelError(_broken[variant])
        path = build_variant(variant)   # CBackendUnavailable passes up
        _metrics.inc("c_backend.loads", fmt=variant.fmt)
        kernel = _bind(variant, path)
        try:
            _validate(variant, kernel)
        except KernelError as exc:
            _broken[variant] = str(exc)
            _metrics.inc("c_backend.validation_failures",
                         fmt=variant.fmt)
            raise
        _metrics.inc("c_backend.kernels_validated", fmt=variant.fmt)
        _loaded[variant] = kernel
        return kernel


#: Timed-race probe: big enough that the gather pattern leaves cache
#: and the per-row overhead shows, small enough to keep first-call
#: latency in the low milliseconds.
_RACE_ROWS = 20_000
_RACE_NNZ = 160_000
_RACE_REPS = 5


def _race_matrix(fmt: str, r: int, c: int, index_width: IndexWidth):
    """Deterministic mid-size matrix in the candidate's own format."""
    rng = np.random.default_rng(0x5EED)
    m = n = _RACE_ROWS                 # fits 16-bit indices
    coo = COOMatrix(
        (m, n), rng.integers(0, m, _RACE_NNZ),
        rng.integers(0, n, _RACE_NNZ),
        rng.standard_normal(_RACE_NNZ),
    )
    return _in_format(coo, fmt, r, c, index_width)


def _race(candidates: list[CKernel], fmt: str, r: int, c: int,
          index_width: IndexWidth) -> CKernel:
    """Fastest candidate on the probe matrix (best-of-N timing)."""
    mat = _race_matrix(fmt, r, c, index_width)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(mat.ncols)
    y = np.zeros(mat.nrows)
    best_kernel, best_t = candidates[0], float("inf")
    for kernel in candidates:
        program = _pinned(mat, kernel)
        program.spmv(x, y)                         # warm code + data
        t = float("inf")
        for _ in range(_RACE_REPS):
            t0 = time.perf_counter()
            program.spmv(x, y)
            t = min(t, time.perf_counter() - t0)
        _metrics.gauge("c_backend.race_seconds", t,
                       variant=kernel.variant.name)
        if t < best_t:
            best_kernel, best_t = kernel, t
    return best_kernel


def get_best_c_kernel(fmt: str, r: int, c: int,
                      index_width: IndexWidth) -> CKernel:
    """Fastest validated kernel this host supports for a variant.

    Builds every ISA rung in
    :data:`~repro.kernels.cbackend.codegen.ISA_PREFERENCE` the
    compiler's probed capabilities allow (skipping rungs whose build or
    validation failed — scalar is the guaranteed floor), then times the
    survivors head-to-head on a deterministic probe matrix and keeps
    the winner. Selection is cached per (fmt, tile, width) and
    announced once under ``kernels.variant_selected{isa=}``; per-rung
    race times land on ``c_backend.race_seconds{variant=}``.
    """
    key = (fmt, int(r), int(c), int(IndexWidth(index_width)))
    hit = _best.get(key)
    if hit is not None:
        return hit
    caps = compiler_capabilities()
    last_exc: KernelError | None = None
    candidates: list[CKernel] = []
    for isa in ISA_PREFERENCE.get(fmt, ("scalar",)):
        if isa != "scalar" and isa not in caps:
            continue
        try:
            candidates.append(get_c_kernel(fmt, r, c, index_width,
                                           isa=isa))
        except CBackendUnavailable:
            raise
        except KernelError as exc:
            last_exc = exc
    if not candidates:
        raise last_exc or KernelError(
            f"no buildable ISA level for {fmt} {r}x{c}"
        )
    kernel = candidates[0] if len(candidates) == 1 \
        else _race(candidates, fmt, r, c, index_width)
    with _lock:
        _best[key] = kernel
    _metrics.inc("kernels.variant_selected", isa=kernel.variant.isa)
    return kernel


def loaded_variants() -> list[Variant]:
    """Variants validated and dispatchable in this process."""
    with _lock:
        return sorted(_loaded, key=lambda v: v.name)


def bind_token() -> tuple:
    """What a bound program's kernel choices depend on: the loader
    generation and the three environment knobs that decide whether and
    which kernels build. A program bound under a different token is
    stale."""
    env = os.environ.get
    return (_generation, env("REPRO_DISABLE_CC"), env("REPRO_CC"),
            env("REPRO_CC_CAPS"))


def reset_for_tests() -> None:
    """Drop in-process kernel state (tests toggling env knobs)."""
    global _generation

    with _lock:
        _generation += 1
        _loaded.clear()
        _broken.clear()
        _best.clear()
        build._compiler_cache.clear()
        build._caps_cache.clear()
        build._native_cache.clear()
