"""Kernel registry and generated-kernel tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import KernelError
from repro.formats import coo_to_csr, to_bcoo, to_bcsr
from repro.kernels import (
    available_kernels,
    generate_kernel_source,
    get_kernel,
    register_kernel,
)
from repro.kernels.generator import get_generated_kernel, spmv_generated
from repro.kernels.reference import spmv_dense_reference, spmv_reference
from tests.conftest import random_coo


class TestReference:
    def test_loop_matches_dense(self, rng):
        coo = random_coo(30, 25, 0.1, seed=1)
        x = rng.standard_normal(25)
        np.testing.assert_allclose(
            spmv_reference(coo, x), spmv_dense_reference(coo, x),
            rtol=1e-12,
        )

    def test_shape_check(self, rng):
        coo = random_coo(10, 10, 0.1, seed=2)
        with pytest.raises(ValueError):
            spmv_reference(coo, np.ones(11))


class TestGenerator:
    @pytest.mark.parametrize("fmt", ["bcsr", "bcoo"])
    @pytest.mark.parametrize("r,c", [(1, 1), (2, 2), (4, 4), (1, 4), (4, 1)])
    def test_generated_matches_native(self, rng, fmt, r, c):
        coo = random_coo(64, 48, 0.08, seed=r * 10 + c)
        mat = to_bcsr(coo, r, c) if fmt == "bcsr" else to_bcoo(coo, r, c)
        x = rng.standard_normal(48)
        np.testing.assert_allclose(
            spmv_generated(mat, x), mat.spmv(x), rtol=1e-12
        )

    def test_source_is_unrolled(self):
        src = generate_kernel_source("bcsr", 4, 2)
        # Four explicit tile-row lines, each with two product terms.
        assert src.count("contrib[:, ") == 4
        assert "blocks[:, 3, 1]" in src
        assert "einsum" not in src

    def test_kernel_cached(self):
        a = get_generated_kernel("bcsr", 2, 2)
        b = get_generated_kernel("bcsr", 2, 2)
        assert a is b

    def test_bad_format(self):
        with pytest.raises(KernelError):
            generate_kernel_source("csr", 1, 1)

    def test_bad_shape(self):
        with pytest.raises(KernelError):
            generate_kernel_source("bcsr", 0, 2)

    def test_generated_rejects_other_formats(self, rng):
        coo = random_coo(10, 10, 0.2, seed=3)
        with pytest.raises(KernelError):
            spmv_generated(coo_to_csr(coo), np.ones(10))

    def test_accumulates(self, rng):
        coo = random_coo(32, 32, 0.1, seed=4)
        mat = to_bcsr(coo, 2, 2)
        x = rng.standard_normal(32)
        y0 = rng.standard_normal(32)
        got = spmv_generated(mat, x, y0.copy())
        np.testing.assert_allclose(got, y0 + coo.toarray() @ x, rtol=1e-12)


class TestRegistry:
    def test_builtins_present(self):
        names = available_kernels()
        for k in ["format_numpy", "generated_unrolled", "reference",
                  "segmented_scan"]:
            assert k in names

    def test_dispatch(self, rng):
        coo = random_coo(20, 20, 0.2, seed=5)
        csr = coo_to_csr(coo)
        x = rng.standard_normal(20)
        expected = coo.toarray() @ x
        for name in ["format_numpy", "reference", "segmented_scan"]:
            np.testing.assert_allclose(
                get_kernel(name)(csr, x), expected, rtol=1e-12
            )

    def test_unknown_kernel(self):
        with pytest.raises(KernelError):
            get_kernel("turbo")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(KernelError):
            register_kernel("format_numpy", lambda m, x, y=None: x)

    def test_decorator_form(self):
        @register_kernel("test_only_kernel")
        def k(matrix, x, y=None):
            return matrix.spmv(x, y)

        assert get_kernel("test_only_kernel") is k
