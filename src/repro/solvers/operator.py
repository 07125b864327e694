"""A matrix held elsewhere, as a solver-ready linear operator.

The serve, dist and cluster tiers all address a registered matrix as
``owner.spmv(fingerprint, x)``; :class:`FingerprintOperator` binds one
``(owner, fingerprint)`` pair to the ``spmv(x, y=None)`` / ``shape`` /
``__call__`` surface the solvers in this package accept, so CG and
PageRank run against any tier unchanged.
"""

from __future__ import annotations

import numpy as np


class FingerprintOperator:
    """``y ← y + A·x`` computed by whichever tier owns the matrix."""

    def __init__(self, owner, fingerprint: str, shape: tuple[int, int]):
        self._owner = owner
        self.fingerprint = fingerprint
        self._shape = tuple(shape)

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nrows(self) -> int:
        return self._shape[0]

    @property
    def ncols(self) -> int:
        return self._shape[1]

    def spmv(self, x: np.ndarray,
             y: np.ndarray | None = None) -> np.ndarray:
        result = self._owner.spmv(self.fingerprint, x)
        if y is None:
            return result
        y += result
        return y

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.spmv(x)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<FingerprintOperator {self.nrows}x{self.ncols} "
                f"fingerprint={self.fingerprint}>")
