"""Shared fixtures: small random matrices with controlled structure."""

from __future__ import annotations

import glob
import threading
import time

import numpy as np
import pytest

from repro.formats import COOMatrix


@pytest.fixture(scope="session", autouse=True)
def no_shm_leaks():
    """The dist tier owns POSIX shared-memory segments named after this
    process; every one must be unlinked by the time the suite ends."""
    from repro.dist.shm import SEGMENT_PREFIX

    pattern = f"/dev/shm/{SEGMENT_PREFIX}-*"
    yield
    leaked = glob.glob(pattern)
    assert not leaked, f"leaked shared-memory segments: {leaked}"


def random_coo(
    m: int, n: int, density: float, seed: int, *, blocky: bool = False
) -> COOMatrix:
    """A random COO matrix; ``blocky=True`` clusters entries in 2x2 tiles
    so register blocking has something to find."""
    rng = np.random.default_rng(seed)
    nnz = max(1, int(m * n * density))
    if blocky:
        nb = max(1, nnz // 4)
        br = rng.integers(0, max(1, m // 2), size=nb)
        bc = rng.integers(0, max(1, n // 2), size=nb)
        r = (br[:, None] * 2 + np.array([0, 0, 1, 1])[None, :]).ravel()
        c = (bc[:, None] * 2 + np.array([0, 1, 0, 1])[None, :]).ravel()
        r = np.minimum(r, m - 1)
        c = np.minimum(c, n - 1)
    else:
        r = rng.integers(0, m, size=nnz)
        c = rng.integers(0, n, size=nnz)
    v = rng.standard_normal(len(r))
    return COOMatrix((m, n), r, c, v)


_INF, _NAN = float("inf"), float("nan")

#: The JSON spmv routes' non-finite contract on :data:`NONFINITE_COO`,
#: as ``(x, expected y)`` parameters. ``x`` goes out through the stdlib
#: as ``NaN``/``Infinity`` tokens.
NONFINITE_SPMV = [
    # The tokens sit in columns no entry reads, so y is finite.
    pytest.param([1.0, 2.0, 3.0, _NAN, _INF], [1.0, -2.0, 6.0, 0.0, 0.0],
                 id="x-tokens"),
    pytest.param([_INF, _INF, _NAN, 1.0, -_INF],
                 [_INF, -_INF, _NAN, 0.0, 0.0], id="y-tokens"),
]
NONFINITE_COO = COOMatrix((5, 5), [0, 1, 2], [0, 1, 2], [1.0, -1.0, 2.0])


def assert_same_floats(decoded: list, expected: list) -> None:
    """``decoded`` holds floats only (a ``null`` would read as None)
    and equals ``expected``, NaN where ``expected`` has NaN."""
    got = np.asarray(decoded)
    assert got.dtype == np.float64, decoded
    np.testing.assert_array_equal(got, expected)


def register_racing(registry, coo: COOMatrix, n: int = 4) -> list:
    """``n`` threads call ``registry.register(coo)`` at once; returns
    what each got back. A barrier inside planning holds every thread
    until all have passed the registry's existence check, so the
    check-then-admit race happens on every run, not only under load."""
    planning = threading.Barrier(n)
    real_plan = registry.engine.plan

    def plan(*args, **kwargs):
        try:
            planning.wait(timeout=2.0)
        except threading.BrokenBarrierError:
            pass    # registrations were serialized: also race-free
        return real_plan(*args, **kwargs)

    registry.engine.plan = plan
    got: list = [None] * n

    def run(i: int) -> None:
        got[i] = registry.register(coo)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    assert not any(t.is_alive() for t in threads)
    return got


class KernelSeam:
    """The serve scheduler's two kernel entry points, wrapped.

    Once :meth:`watch` names a structure, every batch that runs on it
    is recorded in ``calls`` as ``(thread name, width)`` and sets
    ``entered``; it can raise ``error`` instead of computing, sleep
    ``delay_s`` first, or (``hold=True``) wait for :meth:`release`.
    Every other structure runs untouched."""

    def __init__(self, spmv, spmm):
        self._spmv, self._spmm = spmv, spmm
        self.lock = threading.Lock()
        self.calls: list[tuple[str, int]] = []
        self.entered = threading.Event()
        self._gate = threading.Event()
        self._matrix = None
        self._delay_s = 0.0
        self._error: BaseException | None = None

    def watch(self, matrix, *, hold: bool = False, delay_s: float = 0.0,
              error: BaseException | None = None) -> "KernelSeam":
        self._matrix, self._delay_s, self._error = matrix, delay_s, error
        if not hold:
            self._gate.set()
        return self

    def release(self) -> None:
        self._gate.set()

    def _enter(self, matrix, k: int) -> None:
        if matrix is not self._matrix:
            return
        with self.lock:
            self.calls.append((threading.current_thread().name, k))
        self.entered.set()
        if self._error is not None:
            raise self._error
        time.sleep(self._delay_s)
        assert self._gate.wait(30.0), "gate never opened"

    def spmv(self, matrix, x, y=None, *, backend="numpy"):
        self._enter(matrix, 1)
        return self._spmv(matrix, x, y, backend=backend)

    def spmm(self, matrix, x, y=None, *, backend="numpy"):
        self._enter(matrix, x.shape[1])
        return self._spmm(matrix, x, y, backend=backend)


@pytest.fixture
def kernel_seam(monkeypatch):
    """A :class:`KernelSeam` patched into ``repro.serve.scheduler`` —
    the one place a served batch calls a kernel."""
    from repro.serve import scheduler

    seam = KernelSeam(scheduler.spmv_backend, scheduler.spmm_backend)
    monkeypatch.setattr(scheduler, "spmv_backend", seam.spmv)
    monkeypatch.setattr(scheduler, "spmm_backend", seam.spmm)
    yield seam
    seam.release()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(params=[(1, 1, 0.05), (37, 23, 0.1), (100, 100, 0.02),
                        (64, 256, 0.03), (200, 50, 0.08)])
def small_coo(request):
    m, n, d = request.param
    return random_coo(m, n, d, seed=m * 1000 + n)


@pytest.fixture
def blocky_coo():
    return random_coo(128, 128, 0.05, seed=7, blocky=True)
