"""Reference-kernel tests."""

from __future__ import annotations

import numpy as np
import pytest

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
