"""The runner's thread team: a multi-panel program runs its row panels
on up to ``n_threads`` threads in one C call, bit-identical to one
thread, never shares scratch between calls, never waits behind another
matrix, costs nothing while idle and survives a fork."""

from __future__ import annotations

import os
import sys
import threading
import time

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
from repro.kernels.cbackend import (
    build,
    c_backend_available,
    reset_for_tests,
    spmm_c,
    spmv_c,
)
from repro.kernels.cbackend.codegen import PROGRAM_HEADER
from repro.kernels.cbackend.dispatch import program_for
from repro.kernels.cbackend.program import runner, team_limit
from repro.kernels.reference import spmv_reference
from repro.observe.metrics import get_registry
from tests.conftest import random_coo

pytestmark = pytest.mark.skipif(
    not c_backend_available(),
    reason="C backend unavailable (no compiler or REPRO_DISABLE_CC)",
)

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="needs os.fork")

SHAPE = (48, 40)
#: Four row panels and two column blocks; 11/23/35 and 19 are not
#: multiples of 2 or 4, so 2x2, 4x1 and 1x2 tiles overhang rows and
#: columns alike (the scratch path).
ROW_CUTS, COL_CUTS = (11, 23, 35), (19,)
KS = (1, 2, 3, 8, 9)


def _leaf(coo: COOMatrix, fmt: str, r: int = 1, c: int = 1):
    if fmt == "csr":
        return coo_to_csr(coo, index_width=IndexWidth.I16)
    if fmt == "sellcs":
        return to_sellcs(coo, chunk=r)
    if fmt == "gcsr":
        return to_gcsr(coo)
    conv = to_bcsr if fmt == "bcsr" else to_bcoo
    return conv(coo, r, c)


#: Leaf kinds: every compiled format, the register-blocked ones
#: overhanging rows and columns (2x2), rows only (4x1), columns only
#: (1x2), and a cache-blocked mix of all four formats.
KINDS = {
    "csr": lambda i, j: ("csr",),
    "sellcs": lambda i, j: ("sellcs", 4),
    "bcsr-2x2": lambda i, j: ("bcsr", 2, 2),
    "bcsr-4x1": lambda i, j: ("bcsr", 4, 1),
    "bcsr-1x2": lambda i, j: ("bcsr", 1, 2),
    "bcoo-2x2": lambda i, j: ("bcoo", 2, 2),
    "mixed": lambda i, j: [("csr",), ("sellcs", 4), ("bcsr", 2, 2),
                           ("bcoo", 4, 1)][(i + 2 * j) % 4],
}


def _grid(coo: COOMatrix, kind, n_threads: int = 1,
          row_cuts=ROW_CUTS, col_cuts=COL_CUTS) -> CacheBlockedMatrix:
    rows = [0, *row_cuts, coo.nrows]
    cols = [0, *col_cuts, coo.ncols]
    blocks = [
        CacheBlock(r0, r1, c0, c1,
                   _leaf(coo.submatrix(r0, r1, c0, c1), *kind(i, j)))
        for i, (r0, r1) in enumerate(zip(rows, rows[1:]))
        for j, (c0, c1) in enumerate(zip(cols, cols[1:]))]
    matrix = CacheBlockedMatrix(coo.shape, blocks)
    matrix.n_threads = n_threads
    return matrix


def _busy() -> float:
    return get_registry().counter("c_backend.team_busy")


# ----------------------------------------------------------------------
# bit-identity: every team width, every format, SpMV and SpMM
# ----------------------------------------------------------------------
@pytest.mark.parametrize("width", [1, 2, 4])
@pytest.mark.parametrize("kind", list(KINDS))
def test_team_is_bit_identical_to_serial(kind, width):
    coo = random_coo(*SHAPE, 0.2, seed=3)
    serial = _grid(coo, KINDS[kind])
    team = _grid(coo, KINDS[kind], n_threads=width)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(coo.ncols)
    y0 = rng.standard_normal(coo.nrows)
    expected = spmv_c(serial, x, y0.copy())
    np.testing.assert_allclose(expected, spmv_reference(coo, x, y0.copy()),
                               rtol=1e-12, atol=1e-12)
    assert np.array_equal(spmv_c(team, x, y0.copy()), expected)
    assert program_for(serial).table.width == 1
    assert program_for(team).table.width == min(width, team_limit(), 4)
    for k in KS:
        xk = rng.standard_normal((coo.ncols, k))
        yk = rng.standard_normal((coo.nrows, k))
        assert np.array_equal(spmm_c(team, xk, yk.copy()),
                              spmm_c(serial, xk, yk.copy())), k


def test_serial_when_the_pthread_probe_fails(monkeypatch):
    """No ``-pthread``: a runner without a team, every program one
    serial C call, the same bits."""
    coo = random_coo(*SHAPE, 0.2, seed=5)
    x = np.random.default_rng(6).standard_normal(coo.ncols)
    expected = spmv_c(_grid(coo, KINDS["mixed"]), x)
    reset_for_tests()
    try:
        monkeypatch.setattr(build, "_probe_threads", lambda cc: False)
        assert build.thread_flags() == ()
        assert not runner().repro_team_capable() and team_limit() == 1
        team = _grid(coo, KINDS["mixed"], n_threads=4)
        busy = _busy()
        assert np.array_equal(spmv_c(team, x), expected)
        program = program_for(team)
        assert program.table is not None and program.table.width == 1
        assert _busy() == busy
    finally:
        monkeypatch.undo()
        reset_for_tests()


def test_numpy_leaf_runs_serially():
    """A GCSR block keeps a Python step of its own; the program around
    it runs serially and every block is still counted."""
    coo = random_coo(*SHAPE, 0.2, seed=7)
    kind = lambda i, j: ("gcsr",) if (i, j) == (1, 1) else ("csr",)
    mat = _grid(coo, kind, n_threads=4)
    x = np.random.default_rng(8).standard_normal(coo.ncols)
    reg = get_registry()
    fallbacks = reg.counter("c_backend.fallbacks", fmt="gcsr")
    calls = reg.counter("c_backend.calls", fmt="csr")
    np.testing.assert_allclose(spmv_c(mat, x), spmv_reference(coo, x),
                               rtol=1e-12, atol=1e-12)
    assert program_for(mat).table is None
    assert reg.counter("c_backend.fallbacks", fmt="gcsr") == fallbacks + 1
    assert reg.counter("c_backend.calls", fmt="csr") == calls + 7


# ----------------------------------------------------------------------
# concurrency: a busy team, shared scratch, the serve tier
# ----------------------------------------------------------------------
def _race(work, n_threads: int, seconds: float = 20.0) -> list:
    """Run ``work(i, stop)`` on ``n_threads`` threads at once under a
    tiny switch interval; returns the exceptions they raised."""
    errors: list[BaseException] = []
    stop = threading.Event()

    def run(i: int) -> None:
        try:
            work(i, stop)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(n_threads)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=seconds)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    return errors


def test_busy_team_runs_the_other_matrix_serially():
    """Two callers, two multi-panel matrices: both stay bit-identical,
    and the one that finds the team busy runs serially at once."""
    if team_limit() < 2:
        pytest.skip("needs two CPUs for a thread team")
    cases = []
    for seed in (9, 10):
        coo = random_coo(400, 300, 0.05, seed=seed)
        x = np.random.default_rng(seed).standard_normal(coo.ncols)
        cuts = tuple(range(50, 400, 50))
        serial = _grid(coo, KINDS["mixed"], 1, cuts, (150,))
        cases.append((_grid(coo, KINDS["mixed"], 4, cuts, (150,)), x,
                      spmv_c(serial, x)))
    busy = _busy()

    def work(i: int, stop: threading.Event) -> None:
        mat, x, expected = cases[i]
        for _ in range(3000):
            assert np.array_equal(spmv_c(mat, x), expected)
            if _busy() > busy or stop.is_set():
                break
        stop.set()

    assert not _race(work, 2)
    assert _busy() > busy


@pytest.mark.parametrize("k", [0, 8])
def test_concurrent_calls_never_share_scratch(k):
    """Threads calling one padded multi-panel matrix at once (SpMV for
    ``k=0``, the fused SpMM otherwise) all get the serial bits."""
    coo = random_coo(*SHAPE, 0.2, seed=11)
    mat = _grid(coo, KINDS["bcoo-2x2"], n_threads=4)
    serial = _grid(coo, KINDS["bcoo-2x2"])
    scratch = PROGRAM_HEADER.index("scratch")
    assert program_for(mat).table.words[scratch] > 0
    rng = np.random.default_rng(12)
    shape = (coo.ncols,) if k == 0 else (coo.ncols, k)
    xs = [rng.standard_normal(shape) for _ in range(4)]
    call = spmv_c if k == 0 else spmm_c
    expected = [call(serial, x) for x in xs]

    def work(i: int, stop: threading.Event) -> None:
        for _ in range(300):
            assert np.array_equal(call(mat, xs[i]), expected[i])

    assert not _race(work, 4)


def test_serve_stress_leaves_no_count_behind():
    """Eight threads mixing ``spmv`` and ``submit`` over two served
    multi-panel matrices: every answer has the serial bits, and no
    scheduler count or team claim is left behind."""
    from repro.serve.client import ServeClient

    client = ServeClient("AMD X2", backend="c", n_threads=4, max_batch=4,
                         flush_deadline_s=0.0005)
    try:
        cases = []
        for seed in (13, 14):
            coo = random_coo(300, 300, 0.05, seed=seed)
            entry = client.register(coo)
            serial = CacheBlockedMatrix(entry.matrix.shape,
                                        entry.matrix.blocks)
            x = np.random.default_rng(seed).standard_normal(300)
            cases.append((entry.fingerprint, x, spmv_c(serial, x)))

        def work(i: int, stop: threading.Event) -> None:
            for j in range(30):
                fp, x, expected = cases[(i + j) % 2]
                if (i + j) % 3 == 0:
                    got = client.submit(fp, x).result(timeout=10)
                else:
                    got = client.spmv(fp, x)
                assert np.array_equal(got, expected)

        assert not _race(work, 8)
        sched = client.scheduler
        sched.drain(timeout=5)
        assert sched._busy == {} and sched._n_inflight == 0
        if team_limit() > 1:
            mat = client.registry.get(cases[0][0]).matrix
            assert program_for(mat).table.width > 1
            busy = _busy()
            spmv_c(mat, cases[0][1])
            assert _busy() == busy       # the team was free again
    finally:
        client.close()


# ----------------------------------------------------------------------
# an idle team costs nothing; a forked child never waits on it
# ----------------------------------------------------------------------
def test_parked_team_uses_no_cpu():
    coo = random_coo(*SHAPE, 0.2, seed=15)
    mat = _grid(coo, KINDS["csr"], n_threads=4)
    x = np.ones(coo.ncols)
    spmv_c(mat, x)
    t0 = time.process_time()
    time.sleep(0.5)
    assert time.process_time() - t0 < 0.020


@needs_fork
def test_forked_child_runs_without_the_parents_team():
    coo = random_coo(400, 300, 0.05, seed=16)
    cuts = tuple(range(50, 400, 50))
    mat = _grid(coo, KINDS["mixed"], 4, cuts, (150,))
    x = np.random.default_rng(17).standard_normal(coo.ncols)
    expected = spmv_c(_grid(coo, KINDS["mixed"], 1, cuts, (150,)), x)
    assert np.array_equal(spmv_c(mat, x), expected)   # parent's team
    pid = os.fork()
    if pid == 0:                                       # pragma: no cover
        code = 3
        try:
            ok = all(np.array_equal(spmv_c(mat, x), expected)
                     for _ in range(20))
            code = 0 if ok else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("forked child hung on the parent's thread team")
        time.sleep(0.01)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert np.array_equal(spmv_c(mat, x), expected)   # parent unharmed


# ----------------------------------------------------------------------
# threaded_spmv: its slabs are table entries run on the team
# ----------------------------------------------------------------------
def test_threaded_spmv_reports_every_slot():
    """One call on the team: the serial bits, one ``threaded.calls``,
    one ``threaded.worker_seconds`` sample and one sampled
    ``threaded.worker`` span per slot, parented onto ``threaded.spmv``,
    their row ranges tiling the matrix."""
    from repro.observe import context, trace
    from repro.parallel import threaded_spmv

    csr = coo_to_csr(random_coo(400, 300, 0.05, seed=18))
    x = np.random.default_rng(19).standard_normal(300)
    reg = get_registry()
    calls = reg.counter("threaded.calls")
    samples = reg.histogram("threaded.worker_seconds").count
    busy = _busy()
    spans: list = []
    sink = trace.get_span_sink()
    trace.set_span_sink(spans.append)
    try:
        with context.use(context.new_trace(sampled=True)):
            y = threaded_spmv(csr, x, n_threads=4, min_nnz_per_thread=1)
    finally:
        trace.set_span_sink(sink)
    assert np.array_equal(y, spmv_c(csr, x))
    width = 1 if _busy() > busy else min(4, team_limit())
    assert reg.counter("threaded.calls") == calls + 1
    assert reg.histogram("threaded.worker_seconds").count \
        == samples + width
    (parent,) = [s for s in spans if s.name == "threaded.spmv"]
    workers = sorted((s for s in spans if s.name == "threaded.worker"),
                     key=lambda s: s.args["worker"])
    assert [s.args["worker"] for s in workers] == list(range(width))
    assert all(s.parent_id == parent.span_id for s in workers)
    rows = [tuple(s.args["rows"]) for s in workers]
    assert rows[0][0] == 0 and rows[-1][1] == 400
    assert all(a[1] == b[0] for a, b in zip(rows, rows[1:]))
