"""Bound kernel programs: one marshalling per matrix, pointers straight
into the caller's vectors, scratch only where a tile grid overhangs."""

from __future__ import annotations

import dataclasses
import gc
import os
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.formats import (
    CacheBlock,
    CacheBlockedMatrix,
    COOMatrix,
    IndexWidth,
    coo_to_csr,
    to_bcoo,
    to_bcsr,
    to_gcsr,
    to_sellcs,
)
from repro.kernels import spmv_backend
from repro.kernels.cbackend import (
    CBackendUnavailable,
    c_backend_available,
    dispatch,
    reset_for_tests,
    spmm_c,
    spmv_c,
)
from repro.kernels.reference import spmv_reference
from repro.observe.metrics import get_registry
from tests.conftest import random_coo

pytestmark = pytest.mark.skipif(
    not c_backend_available(),
    reason="C backend unavailable (no compiler or REPRO_DISABLE_CC)",
)

#: (format, tile) pairs: every compiled leaf format, the register-
#: blocked ones with a square, a wide and a tall tile.
LEAVES = [("csr", 1, 1), ("sellcs", 4, 1)] + [
    (fmt, r, c) for fmt in ("bcsr", "bcoo")
    for r, c in ((2, 2), (1, 2), (4, 1))
]
#: Where a 48x40 matrix is cut into 2x2 cache blocks. 24/20 keep every
#: block a whole number of 2x2, 1x2 and 4x1 tiles; 23 and 19 do not.
EXTENTS = {"aligned": (24, 20), "ragged-row": (23, 20),
           "ragged-col": (24, 19), "ragged-both": (23, 19)}
SHAPE = (48, 40)


def _leaf(coo: COOMatrix, fmt: str, r: int, c: int,
          width: IndexWidth = IndexWidth.I32):
    if fmt == "csr":
        return coo_to_csr(coo, index_width=width)
    if fmt == "sellcs":
        return to_sellcs(coo, chunk=r, index_width=width)
    if fmt == "gcsr":
        return to_gcsr(coo)
    conv = to_bcsr if fmt == "bcsr" else to_bcoo
    return conv(coo, r, c, index_width=width)


def _grid(coo: COOMatrix, row_cuts, col_cuts, leaf) -> CacheBlockedMatrix:
    """``coo`` cut into cache blocks at the given row/column cuts,
    block (i, j) stored as ``leaf(local_coo, i, j)``."""
    rows = [0, *row_cuts, coo.nrows]
    cols = [0, *col_cuts, coo.ncols]
    blocks = []
    for i, (r0, r1) in enumerate(zip(rows, rows[1:])):
        for j, (c0, c1) in enumerate(zip(cols, cols[1:])):
            blocks.append(CacheBlock(
                r0, r1, c0, c1, leaf(coo.submatrix(r0, r1, c0, c1), i, j)))
    return CacheBlockedMatrix(coo.shape, blocks)


def _assert_close(got, expected):
    bound = 1e-12 * np.maximum(np.abs(expected), 1.0)
    assert np.all(np.abs(got - expected) <= bound)


# ----------------------------------------------------------------------
# (i) parity over format x width x extents x tile x strides x k
# ----------------------------------------------------------------------
@pytest.mark.parametrize("extent", list(EXTENTS))
@pytest.mark.parametrize("width", [IndexWidth.I16, IndexWidth.I32])
@pytest.mark.parametrize("fmt,r,c", LEAVES)
class TestParity:
    def _case(self, fmt, r, c, width, extent):
        coo = random_coo(*SHAPE, 0.15, seed=7 * r + c)
        rc, cc = EXTENTS[extent]
        mat = _grid(coo, [rc], [cc],
                    lambda sub, i, j: _leaf(sub, fmt, r, c, width))
        return coo, mat

    def test_spmv(self, fmt, r, c, width, extent):
        coo, mat = self._case(fmt, r, c, width, extent)
        rng = np.random.default_rng(1)
        # Non-contiguous x and y, caller-supplied non-zero y.
        x = rng.standard_normal((coo.ncols, 2))[:, 0]
        y = rng.standard_normal((coo.nrows, 3))[:, 1]
        expected = spmv_reference(coo, x.copy(), y.copy())
        assert spmv_c(mat, x, y) is y
        _assert_close(y, expected)
        # ... and the same matrix again on contiguous vectors.
        xc, y0 = x.copy(), rng.standard_normal(coo.nrows)
        _assert_close(spmv_c(mat, xc, y0.copy()),
                      spmv_reference(coo, xc, y0.copy()))

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_spmm(self, fmt, r, c, width, extent, k):
        coo, mat = self._case(fmt, r, c, width, extent)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((coo.ncols, k))
        y0 = rng.standard_normal((coo.nrows, k))
        expected = np.column_stack([
            spmv_reference(coo, x[:, j].copy(), y0[:, j].copy())
            for j in range(k)])
        _assert_close(spmm_c(mat, x, y0.copy()), expected)
        # Fortran-ordered X and Y: neither has contiguous rows.
        yf = np.asfortranarray(y0)
        assert spmm_c(mat, np.asfortranarray(x), yf) is yf
        _assert_close(yf, expected)


def test_bare_leaf_runs_the_same_program():
    """An un-blocked matrix is a one-step program, overhang included."""
    coo = random_coo(23, 19, 0.2, seed=3)
    x = np.random.default_rng(4).standard_normal(19)
    for fmt, r, c in LEAVES:
        _assert_close(spmv_c(_leaf(coo, fmt, r, c), x),
                      spmv_reference(coo, x))


def test_mixed_plan_counts_every_block_once():
    """CSR + BCOO + an unspecialized GCSR block: the totals read as if
    each block had bumped its own counter."""
    coo = random_coo(*SHAPE, 0.15, seed=5)
    kinds = {(0, 0): ("csr", 1, 1), (0, 1): ("bcoo", 2, 2),
             (1, 0): ("gcsr", 1, 1), (1, 1): ("bcoo", 2, 2)}
    mat = _grid(coo, [24], [20],
                lambda sub, i, j: _leaf(sub, *kinds[i, j]))
    x = np.random.default_rng(6).standard_normal(coo.ncols)
    reg = get_registry()
    before = {k: reg.counter(k[0], fmt=k[1]) for k in (
        ("c_backend.calls", "csr"), ("c_backend.calls", "bcoo"),
        ("c_backend.fallbacks", "gcsr"), ("c_backend.calls", "csr_spmm"),
        ("c_backend.calls", "bcoo_spmm"),
        ("c_backend.fallbacks", "gcsr_spmm"))}
    _assert_close(spmv_c(mat, x), spmv_reference(coo, x))
    xk = np.random.default_rng(7).standard_normal((coo.ncols, 3))
    got = spmm_c(mat, xk)
    for j in range(3):
        _assert_close(got[:, j], spmv_reference(coo, xk[:, j].copy()))
    grown = {k: reg.counter(k[0], fmt=k[1]) - v
             for k, v in before.items()}
    assert grown == {
        ("c_backend.calls", "csr"): 1, ("c_backend.calls", "bcoo"): 2,
        ("c_backend.fallbacks", "gcsr"): 1,
        ("c_backend.calls", "csr_spmm"): 1,
        ("c_backend.calls", "bcoo_spmm"): 2,
        ("c_backend.fallbacks", "gcsr_spmm"): 1}


# ----------------------------------------------------------------------
# (ii) nothing outside a block's extent reaches a padding zero
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fmt,r,c", [
    (fmt, r, c) for fmt, r, c in LEAVES if fmt in ("bcsr", "bcoo")])
class TestNoLeakThroughPadding:
    def test_x_one_column_outside_a_ragged_block(self, fmt, r, c, bad):
        """A lone block over columns [0, 19) of 40: x[19] is nobody's."""
        coo = random_coo(*SHAPE, 0.15, seed=8)
        sub = coo.submatrix(0, 23, 0, 19)
        mat = CacheBlockedMatrix(
            SHAPE, [CacheBlock(0, 23, 0, 19, _leaf(sub, fmt, r, c))])
        x = np.random.default_rng(9).standard_normal(40)
        x[19] = bad
        got = spmv_c(mat, x)
        assert np.isfinite(got).all()
        _assert_close(got, mat.spmv(x))

    def test_x_row_outside_a_ragged_block_spmm(self, fmt, r, c, bad):
        """The fused SpMM's ``(x_pad, k)`` scratch: row 19 of X is
        nobody's, in every column."""
        coo = random_coo(*SHAPE, 0.15, seed=27)
        sub = coo.submatrix(0, 23, 0, 19)
        mat = CacheBlockedMatrix(
            SHAPE, [CacheBlock(0, 23, 0, 19, _leaf(sub, fmt, r, c))])
        x = np.random.default_rng(28).standard_normal((40, 9))
        x[19] = bad
        got = spmm_c(mat, x)
        assert np.isfinite(got).all()
        for j in range(9):
            _assert_close(got[:, j], mat.spmv(x[:, j]))

    def test_neighbouring_blocks_keep_numpys_nan_pattern(
            self, fmt, r, c, bad):
        coo = random_coo(*SHAPE, 0.15, seed=10)
        mat = _grid(coo, [23], [19],
                    lambda sub, i, j: _leaf(sub, fmt, r, c))
        x = np.random.default_rng(11).standard_normal(40)
        x[19] = bad         # first column of the right-hand blocks
        x[18] = -bad        # last column of the left-hand blocks
        got, expected = spmv_c(mat, x), mat.spmv(x)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(expected))
        np.testing.assert_array_equal(np.isinf(got), np.isinf(expected))
        ok = np.isfinite(expected)
        assert ok.any()
        _assert_close(got[ok], expected[ok])

    def test_padding_rows_never_reach_y(self, fmt, r, c, bad):
        """Rows [0, 23) with 4x1 tiles: the 24th tile row is padding,
        and 0 * inf in it must not land on y[23]."""
        coo = random_coo(*SHAPE, 0.15, seed=12)
        sub = coo.submatrix(0, 23, 0, 40)
        mat = CacheBlockedMatrix(
            SHAPE, [CacheBlock(0, 23, 0, 40, _leaf(sub, fmt, r, c))])
        x = np.random.default_rng(13).standard_normal(40)
        x[sub.col[sub.row == 22][0]] = bad
        y0 = np.random.default_rng(14).standard_normal(48)
        got, expected = spmv_c(mat, x, y0.copy()), mat.spmv(x, y0.copy())
        np.testing.assert_array_equal(got[23:], y0[23:])
        np.testing.assert_array_equal(np.isnan(got), np.isnan(expected))
        np.testing.assert_array_equal(np.isinf(got), np.isinf(expected))


# ----------------------------------------------------------------------
# (iii) views in the middle of bigger arrays: nothing else is touched
# ----------------------------------------------------------------------
@pytest.mark.parametrize("extent", ["aligned", "ragged-both"])
@pytest.mark.parametrize("fmt,r,c", LEAVES)
def test_sentinels_around_x_and_y_survive(fmt, r, c, extent):
    coo = random_coo(*SHAPE, 0.15, seed=15)
    rc, cc = EXTENTS[extent]
    mat = _grid(coo, [rc], [cc], lambda sub, i, j: _leaf(sub, fmt, r, c))
    rng = np.random.default_rng(16)
    # NaN around x poisons y if read; y's guards are finite so that an
    # untouched one still compares equal.
    xbig = np.full(coo.ncols + 16, np.nan)
    xbig[8:-8] = rng.standard_normal(coo.ncols)
    ybig = np.full(coo.nrows + 16, 12345.678)
    y0 = rng.standard_normal(coo.nrows)
    ybig[8:-8] = y0
    spmv_c(mat, xbig[8:-8], ybig[8:-8])
    _assert_close(ybig[8:-8],
                  spmv_reference(coo, xbig[8:-8].copy(), y0.copy()))
    assert np.all(ybig[:8] == 12345.678) and np.all(ybig[-8:] == 12345.678)
    assert np.isnan(xbig[:8]).all() and np.isnan(xbig[-8:]).all()
    xk = np.full((coo.ncols + 4, 2), np.nan)
    xk[2:-2] = rng.standard_normal((coo.ncols, 2))
    yk = np.full((coo.nrows + 4, 2), 12345.678)
    yk[2:-2] = 0.0
    spmm_c(mat, xk[2:-2], yk[2:-2])
    for j in range(2):
        _assert_close(yk[2:-2, j], spmv_reference(coo, xk[2:-2, j].copy()))
    assert np.all(yk[:2] == 12345.678) and np.all(yk[-2:] == 12345.678)


# ----------------------------------------------------------------------
# (iv) one shared matrix, many threads
# ----------------------------------------------------------------------
def test_concurrent_calls_are_bit_identical_to_serial():
    coo = random_coo(*SHAPE, 0.2, seed=17)
    # Ragged 4x1 BCOO leaves: every call needs its own scratch.
    mat = _grid(coo, [23], [19], lambda sub, i, j: _leaf(sub, "bcoo", 4, 1))
    rng = np.random.default_rng(18)
    xs = [rng.standard_normal(coo.ncols) for _ in range(4)]
    serial = [spmv_c(mat, x) for x in xs]
    mismatches: list[int] = []

    def worker(i: int) -> None:
        for _ in range(200):
            if not np.array_equal(spmv_c(mat, xs[i]), serial[i]):
                mismatches.append(i)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not mismatches


# ----------------------------------------------------------------------
# (v) per-call work does not grow with the block count
# ----------------------------------------------------------------------
def test_steady_state_call_does_no_per_block_python_work(monkeypatch):
    from repro.core import SpmvEngine
    from repro.machines import get_machine

    coo = random_coo(256, 256, 0.05, seed=19)
    tuned = SpmvEngine(get_machine("AMD X2")).tune(
        random_coo(40, 40, 0.1, seed=20), backend="c")
    x = np.random.default_rng(21).standard_normal(256)
    expected = spmv_reference(coo, x)
    calls = {"best": 0, "zeros": 0, "contig": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def bcoo_calls():
        return get_registry().counter("c_backend.calls", fmt="bcoo")

    per_plan = {}
    for n in (8, 16):                       # 64 and 256 aligned blocks
        cuts = list(range(256 // n, 256, 256 // n))
        op = dataclasses.replace(tuned, matrix=_grid(
            coo, cuts, cuts, lambda sub, i, j: _leaf(sub, "bcoo", 2, 2)))
        assert op.matrix.n_blocks == n * n
        _assert_close(op(x), expected)                  # binds
        with monkeypatch.context() as m:
            m.setattr(dispatch, "get_best_c_kernel",
                      counting("best", dispatch.get_best_c_kernel))
            m.setattr(np, "zeros", counting("zeros", np.zeros))
            m.setattr(np, "ascontiguousarray",
                      counting("contig", np.ascontiguousarray))
            calls.update(best=0, zeros=0, contig=0)
            before = bcoo_calls()
            got = op(x)
            per_plan[n * n] = dict(calls)
        assert bcoo_calls() - before == n * n
        _assert_close(got, expected)
    assert per_plan[64]["best"] == per_plan[256]["best"] == 0
    assert per_plan[64] == per_plan[256]


# ----------------------------------------------------------------------
# (vi) a program never outlives the kernels it was resolved against
# ----------------------------------------------------------------------
class TestRebinding:
    @pytest.fixture(autouse=True)
    def _clean_loader(self):
        yield
        reset_for_tests()

    def _case(self):
        coo = random_coo(60, 50, 0.1, seed=22)
        x = np.random.default_rng(23).standard_normal(50)
        return coo_to_csr(coo), x, spmv_reference(coo, x)

    def test_reset_for_tests_rebinds(self):
        csr, x, expected = self._case()
        spmv_c(csr, x)
        first = csr._c_program
        spmv_c(csr, x)
        assert csr._c_program is first
        reset_for_tests()
        _assert_close(spmv_c(csr, x), expected)
        assert csr._c_program is not first
        assert csr._c_program.leaves[0].kernel \
            is not first.leaves[0].kernel

    def test_disable_cc_toggle(self, monkeypatch):
        csr, x, expected = self._case()
        spmv_c(csr, x)
        first = csr._c_program
        monkeypatch.setenv("REPRO_DISABLE_CC", "1")
        with pytest.raises(CBackendUnavailable):
            spmv_c(csr, x)
        with pytest.raises(CBackendUnavailable):
            spmv_backend(csr, x, backend="c")
        np.testing.assert_array_equal(
            spmv_backend(csr, x, backend="auto"), csr.spmv(x))
        monkeypatch.delenv("REPRO_DISABLE_CC")
        _assert_close(spmv_c(csr, x), expected)
        assert csr._c_program.token == first.token

    def test_caps_change_rebinds(self, monkeypatch):
        csr, x, expected = self._case()
        spmv_c(csr, x)
        first = csr._c_program
        # "" and "scalar" both mean the scalar-only ladder; pick the
        # one this CI leg is not already running under.
        monkeypatch.setenv(
            "REPRO_CC_CAPS",
            "" if os.environ.get("REPRO_CC_CAPS") == "scalar" else "scalar")
        _assert_close(spmv_c(csr, x), expected)
        assert csr._c_program is not first


# ----------------------------------------------------------------------
# (vii) the program owns what its pointers point into
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fmt,r,c", LEAVES)
def test_program_keeps_its_arrays_alive(fmt, r, c):
    coo = random_coo(200, 150, 0.05, seed=24)
    mat = _leaf(coo, fmt, r, c)
    x = np.random.default_rng(25).standard_normal(150)
    expected = spmv_c(mat, x).copy()
    for name, value in list(vars(mat).items()):
        if isinstance(value, np.ndarray):
            setattr(mat, name, None)
    gc.collect()
    churn = [np.full(n, np.nan) for n in (150, 200, 1000, 4000) * 8]
    np.testing.assert_array_equal(spmv_c(mat, x), expected)
    del churn


def test_bound_matrix_still_pickles():
    coo = random_coo(30, 30, 0.1, seed=26)
    csr = coo_to_csr(coo)
    x = np.ones(30)
    y = spmv_c(csr, x)
    clone = pickle.loads(pickle.dumps(csr))
    assert "_c_program" not in vars(clone)
    np.testing.assert_array_equal(spmv_c(clone, x), y)


# ----------------------------------------------------------------------
# (viii) the fused SpMM: one sweep for k columns, each column exactly
# the leaf's own compiled SpMV
# ----------------------------------------------------------------------
#: A 48x48 matrix cut at 24 is a whole number of tiles for every tile
#: edge in 1..4; a cut at 23/19 overhangs all but 1x1 (scratch path).
SPMM_CUTS = {"aligned": (24, 24), "ragged": (23, 19)}
SPMM_KS = (2, 3, 8, 9)


def _x_layouts(x: np.ndarray):
    """``x`` as C-order, Fortran-order and column-strided arrays."""
    strided = np.zeros((x.shape[0], 2 * x.shape[1]))
    strided[:, ::2] = x
    return {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x),
            "strided": strided[:, ::2]}


@pytest.mark.parametrize("width", [IndexWidth.I16, IndexWidth.I32])
@pytest.mark.parametrize("r,c", [(r, c) for r in range(1, 5)
                                 for c in range(1, 5)])
@pytest.mark.parametrize("fmt", ["bcsr", "bcoo"])
def test_blocked_spmm_grid(fmt, r, c, width):
    """tile x width x extent x k x X layout: every column within 1e-12
    of the reference and bit-identical to the same program's SpMV."""
    coo = random_coo(48, 48, 0.15, seed=4 * r + c)
    rng = np.random.default_rng(r * c)
    for extent, (rc, cc) in SPMM_CUTS.items():
        mat = _grid(coo, [rc], [cc],
                    lambda sub, i, j: _leaf(sub, fmt, r, c, width))
        for k in SPMM_KS:
            x = rng.standard_normal((48, k))
            y0 = rng.standard_normal((48, k))
            expected = y0.copy()
            for j in range(k):
                spmv_reference(coo, x[:, j], expected[:, j])
            lone = np.column_stack([spmv_c(mat, x[:, j], y0[:, j].copy())
                                    for j in range(k)])
            for layout, xl in _x_layouts(x).items():
                got = spmm_c(mat, xl, y0.copy())
                _assert_close(got, expected)
                assert np.array_equal(got, lone), (extent, k, layout)


def _rungs():
    from repro.kernels.cbackend import compiler_capabilities

    caps = compiler_capabilities()
    return [isa for isa in ("scalar", "prefetch")
            if isa == "scalar" or isa in caps]


@pytest.mark.parametrize("fmt,r,c", [("csr", 1, 1), ("bcsr", 2, 2),
                                     ("bcsr", 1, 2), ("bcoo", 2, 2),
                                     ("bcoo", 4, 1)])
def test_spmm_columns_are_the_spmv_bits(monkeypatch, fmt, r, c):
    """On the scalar and prefetch rungs, column j of ``spmm_c`` is
    ``spmv_c`` of column j, to the last bit."""
    from repro.kernels.cbackend import get_c_kernel

    coo = random_coo(*SHAPE, 0.2, seed=29)
    x = np.random.default_rng(30).standard_normal((40, 9))
    for isa in _rungs():
        kernel = get_c_kernel(fmt, r, c, IndexWidth.I32, isa=isa)
        monkeypatch.setattr(dispatch, "_best_kernel", lambda leaf: kernel)
        mat = _grid(coo, [23], [19], lambda sub, i, j: _leaf(sub, fmt, r, c))
        for k in SPMM_KS:
            got = spmm_c(mat, x[:, :k])
            for j in range(k):
                assert np.array_equal(got[:, j], spmv_c(mat, x[:, j])), \
                    (isa, k, j)


def test_broken_spmm_is_blacklisted_like_a_broken_spmv(monkeypatch):
    """A kernel whose fused entry computes nothing fails load-time
    validation: the variant is blacklisted and SpMM runs on NumPy."""
    from repro.formats.multivector import spmm as np_spmm
    from repro.kernels.cbackend import loader

    real_bind = loader._bind

    def broken(variant, path):
        return dataclasses.replace(real_bind(variant, path),
                                   spmm=lambda *args: None)

    coo = random_coo(30, 30, 0.2, seed=31)
    mat = _leaf(coo, "bcsr", 2, 2)
    x = np.random.default_rng(32).standard_normal((30, 4))
    reg = get_registry()
    failed = reg.counter("c_backend.validation_failures", fmt="bcsr")
    fallbacks = reg.counter("c_backend.fallbacks", fmt="bcsr_spmm")
    reset_for_tests()
    try:
        with monkeypatch.context() as m:
            m.setattr(loader, "_bind", broken)
            got = spmm_c(mat, x)
    finally:
        reset_for_tests()
    assert reg.counter("c_backend.validation_failures", fmt="bcsr") \
        > failed
    assert reg.counter("c_backend.fallbacks", fmt="bcsr_spmm") \
        == fallbacks + 1
    np.testing.assert_array_equal(got, np_spmm(mat, x))
