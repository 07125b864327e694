"""Runtime-compiled C backend: parity sweep, fallback, integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import KernelError
from repro.formats import COOMatrix, IndexWidth, coo_to_csr, to_bcoo, to_bcsr
from repro.kernels import (
    BACKENDS,
    resolve_backend,
    spmm_backend,
    spmv_backend,
)
from repro.kernels.cbackend import (
    CBackendUnavailable,
    Variant,
    c_backend_available,
    c_kernel_source,
    get_c_kernel,
    reset_for_tests,
    spmm_c,
    spmv_c,
)
from repro.kernels.reference import spmv_reference
from tests.conftest import random_coo

needs_cc = pytest.mark.skipif(
    not c_backend_available(),
    reason="C backend unavailable (no compiler or REPRO_DISABLE_CC)",
)

PARITY_RTOL = 1e-12


def _coo_with_empty_rows(seed: int) -> COOMatrix:
    """Random matrix with guaranteed empty rows and a dense-ish row."""
    rng = np.random.default_rng(seed)
    m, n = 41, 37
    nnz = 180
    row = rng.integers(0, m, size=nnz)
    row[(row == 7) | (row == 8)] = 9        # rows 7 and 8 stay empty
    col = rng.integers(0, n, size=nnz)
    val = rng.standard_normal(nnz)
    return COOMatrix((m, n), row, col, val)


def _assert_parity(got: np.ndarray, expected: np.ndarray) -> None:
    bound = PARITY_RTOL * np.maximum(np.abs(expected), 1.0)
    assert np.all(np.abs(got - expected) <= bound)


# ----------------------------------------------------------------------
# Parity sweep (the issue's acceptance matrix)
# ----------------------------------------------------------------------
@needs_cc
class TestParitySweep:
    @pytest.mark.parametrize("index_width",
                             [IndexWidth.I16, IndexWidth.I32])
    def test_csr(self, index_width):
        coo = _coo_with_empty_rows(3)
        csr = coo_to_csr(coo, index_width=index_width)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(coo.ncols)
        y0 = rng.standard_normal(coo.nrows)
        _assert_parity(spmv_c(csr, x, y0.copy()),
                       spmv_reference(coo, x, y0.copy()))

    @pytest.mark.parametrize("fmt", ["bcsr", "bcoo"])
    @pytest.mark.parametrize("index_width",
                             [IndexWidth.I16, IndexWidth.I32])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    def test_blocked(self, fmt, r, c, index_width):
        coo = _coo_with_empty_rows(r * 16 + c)
        conv = to_bcsr if fmt == "bcsr" else to_bcoo
        mat = conv(coo, r, c, index_width=index_width)
        rng = np.random.default_rng(r * 4 + c)
        x = rng.standard_normal(coo.ncols)
        y0 = rng.standard_normal(coo.nrows)
        _assert_parity(spmv_c(mat, x, y0.copy()),
                       spmv_reference(coo, x, y0.copy()))

    def test_zero_nnz(self):
        coo = COOMatrix((9, 7), np.array([], dtype=np.int64),
                        np.array([], dtype=np.int64),
                        np.array([], dtype=np.float64))
        csr = coo_to_csr(coo)
        y0 = np.random.default_rng(0).standard_normal(9)
        got = spmv_c(csr, np.ones(7), y0.copy())
        np.testing.assert_array_equal(got, y0)

    def test_spmm_matches_numpy_spmm(self):
        from repro.formats.multivector import spmm

        coo = _coo_with_empty_rows(11)
        csr = coo_to_csr(coo)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((coo.ncols, 5))
        _assert_parity(spmm_c(csr, x), spmm(csr, x))

    def test_strided_y_view(self):
        """Writing into a non-contiguous destination must not corrupt
        neighbouring columns (the kernels need contiguous buffers)."""
        coo = _coo_with_empty_rows(13)
        csr = coo_to_csr(coo)
        x = np.random.default_rng(14).standard_normal(coo.ncols)
        block = np.zeros((coo.nrows, 3))
        spmv_c(csr, x, block[:, 1])
        _assert_parity(block[:, 1], spmv_reference(coo, x))
        assert not block[:, 0].any() and not block[:, 2].any()

    def test_cache_blocked_dispatch(self):
        from repro.core import SpmvEngine
        from repro.machines import get_machine

        coo = random_coo(300, 300, 0.03, seed=17)
        tuned = SpmvEngine(get_machine("AMD X2")).tune(coo)
        x = np.random.default_rng(18).standard_normal(coo.ncols)
        _assert_parity(spmv_c(tuned.matrix, x), spmv_reference(coo, x))


# ----------------------------------------------------------------------
# Build pipeline and load-time validation
# ----------------------------------------------------------------------
class TestBuildPipeline:
    def test_source_is_specialized(self):
        src = c_kernel_source(Variant("bcsr", 2, 3, IndexWidth.I16))
        assert "uint16_t" in src
        assert "b[5] * xs[2]" in src           # last MAC of a 2x3 tile
        assert "for" not in src.split("t < hi")[1].split("}")[0]

    def test_csr_variant_rejects_tiles(self):
        with pytest.raises(KernelError):
            Variant("csr", 2, 2, IndexWidth.I32)

    def test_unknown_format_rejected(self):
        with pytest.raises(KernelError):
            Variant("gcsr", 1, 1, IndexWidth.I32)

    def test_probe_seed_is_the_same_in_every_process(self):
        """crc32 of the variant name, not the per-process-salted
        ``hash()``: a validation failure reproduces from the name."""
        from repro.kernels.cbackend.loader import _probe_seed

        assert _probe_seed(Variant("csr", 1, 1, IndexWidth.I32)) \
            == 1886133984
        assert _probe_seed(
            Variant("bcoo", 2, 2, IndexWidth.I16, "prefetch")
        ) == 1781058254

    @needs_cc
    def test_object_cached_on_disk(self):
        import os

        from repro.kernels.cbackend import object_path

        get_c_kernel("csr", 1, 1, IndexWidth.I32)
        assert os.path.exists(
            object_path(Variant("csr", 1, 1, IndexWidth.I32))
        )

    @needs_cc
    def test_kernel_cached_in_process(self):
        k1 = get_c_kernel("csr", 1, 1, IndexWidth.I32)
        k2 = get_c_kernel("csr", 1, 1, IndexWidth.I32)
        assert k1 is k2


# ----------------------------------------------------------------------
# Fallback semantics with the compiler disabled
# ----------------------------------------------------------------------
class TestDisabledFallback:
    @pytest.fixture(autouse=True)
    def _disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_CC", "1")
        reset_for_tests()
        yield
        monkeypatch.delenv("REPRO_DISABLE_CC", raising=False)
        reset_for_tests()

    def test_unavailable(self):
        assert not c_backend_available()

    def test_spmv_c_raises(self):
        csr = coo_to_csr(random_coo(10, 10, 0.2, seed=1))
        with pytest.raises(CBackendUnavailable):
            spmv_c(csr, np.ones(10))

    def test_resolve_auto_degrades(self):
        assert resolve_backend("auto") == "numpy"

    def test_resolve_c_raises(self):
        with pytest.raises(CBackendUnavailable):
            resolve_backend("c")

    def test_auto_backend_is_bitwise_numpy(self):
        coo = random_coo(50, 50, 0.1, seed=2)
        csr = coo_to_csr(coo)
        x = np.random.default_rng(3).standard_normal(50)
        np.testing.assert_array_equal(
            spmv_backend(csr, x, backend="auto"), csr.spmv(x)
        )

    def test_threaded_spmv_degrades_serial(self):
        from repro.parallel import threaded_spmv

        coo = random_coo(60, 60, 0.1, seed=4)
        csr = coo_to_csr(coo)
        x = np.random.default_rng(5).standard_normal(60)
        np.testing.assert_array_equal(
            threaded_spmv(csr, x, n_threads=4, min_nnz_per_thread=1),
            csr.spmv(x),
        )


# ----------------------------------------------------------------------
# Backend selection layer
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_backends_tuple(self):
        assert BACKENDS == ("numpy", "c", "auto")

    def test_unknown_backend_rejected(self):
        with pytest.raises(KernelError):
            resolve_backend("fortran")

    def test_numpy_backend_is_bitwise(self):
        coo = random_coo(40, 40, 0.1, seed=6)
        csr = coo_to_csr(coo)
        x = np.random.default_rng(7).standard_normal(40)
        np.testing.assert_array_equal(
            spmv_backend(csr, x, backend="numpy"), csr.spmv(x)
        )

    @needs_cc
    def test_c_backend_parity(self):
        coo = random_coo(40, 40, 0.1, seed=8)
        csr = coo_to_csr(coo)
        x = np.random.default_rng(9).standard_normal(40)
        _assert_parity(spmv_backend(csr, x, backend="c"),
                       spmv_reference(coo, x))

    @needs_cc
    def test_spmm_backend_parity(self):
        from repro.formats.multivector import spmm

        coo = random_coo(40, 40, 0.1, seed=10)
        csr = coo_to_csr(coo)
        x = np.random.default_rng(11).standard_normal((40, 3))
        _assert_parity(spmm_backend(csr, x, backend="c"), spmm(csr, x))


# ----------------------------------------------------------------------
# Plan / engine integration
# ----------------------------------------------------------------------
class TestPlanBackend:
    def test_default_backend_numpy(self):
        from repro.core import SpmvEngine
        from repro.machines import get_machine

        coo = random_coo(50, 50, 0.1, seed=12)
        plan = SpmvEngine(get_machine("AMD X2")).plan(coo)
        assert plan.backend == "numpy"

    def test_roundtrip_preserves_backend(self):
        from repro.core import SpmvEngine
        from repro.core.plan import SpmvPlan
        from repro.machines import get_machine

        coo = random_coo(50, 50, 0.1, seed=13)
        plan = SpmvEngine(get_machine("AMD X2")).plan(coo)
        d = plan.to_dict()
        assert d["backend"] == "numpy"
        assert SpmvPlan.from_dict(d).backend == "numpy"
        d.pop("backend")                 # pre-backend serialized plans
        assert SpmvPlan.from_dict(d).backend == "numpy"

    @needs_cc
    def test_tuned_c_backend_executes(self):
        from repro.core import SpmvEngine
        from repro.machines import get_machine

        coo = random_coo(80, 80, 0.1, seed=14)
        tuned = SpmvEngine(get_machine("AMD X2")).tune(coo, backend="c")
        assert tuned.plan.backend == "c"
        x = np.random.default_rng(15).standard_normal(80)
        _assert_parity(tuned(x), spmv_reference(coo, x))


# ----------------------------------------------------------------------
# Threaded execution path
# ----------------------------------------------------------------------
@needs_cc
class TestThreaded:
    def test_spmv_parity(self):
        from repro.parallel import threaded_spmv

        coo = random_coo(120, 90, 0.1, seed=16)
        csr = coo_to_csr(coo)
        x = np.random.default_rng(17).standard_normal(90)
        got = threaded_spmv(csr, x, n_threads=4, min_nnz_per_thread=1)
        _assert_parity(got, spmv_reference(coo, x))
