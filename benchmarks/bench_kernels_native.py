"""Native wall-clock kernel benchmarks (real time, this host).

Unlike the table/figure benches (which regenerate the paper's simulated
results), these measure the library's actual kernels with
pytest-benchmark: format comparison, index widths, the segmented scan,
and the compiled C backend vs NumPy.

Run directly (``python benchmarks/bench_kernels_native.py --json
BENCH_10.json``) for the CI perf snapshot: a NumPy-vs-C comparison on
the FEM-Cant case with a parity check against ``spmv_reference`` and
an optional ``--min-speedup`` gate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats import IndexWidth, coo_to_csr, to_bcoo, to_bcsr, \
    to_sellcs
from repro.kernels.cbackend import c_backend_available, spmv_c
from repro.matrices import generate
from repro.parallel.scan import segmented_scan_spmv

SCALE = 0.25

needs_cc = pytest.mark.skipif(
    not c_backend_available(),
    reason="C backend unavailable (no compiler or REPRO_DISABLE_CC)",
)


@pytest.fixture(scope="module")
def fem():
    coo = generate("FEM-Cant", scale=SCALE, seed=0)
    x = np.random.default_rng(0).standard_normal(coo.ncols)
    return coo, x


def test_native_csr(benchmark, fem):
    coo, x = fem
    csr = coo_to_csr(coo)
    y = benchmark(csr.spmv, x)
    assert np.isfinite(y).all()


def test_native_csr16(benchmark, fem):
    coo, x = fem
    csr = coo_to_csr(coo, index_width=IndexWidth.I16)
    benchmark(csr.spmv, x)


def test_native_bcsr_2x2(benchmark, fem):
    coo, x = fem
    b = to_bcsr(coo, 2, 2)
    benchmark(b.spmv, x)


def test_native_bcoo_2x2(benchmark, fem):
    coo, x = fem
    b = to_bcoo(coo, 2, 2)
    benchmark(b.spmv, x)


def test_native_segmented_scan(benchmark, fem):
    coo, x = fem
    csr = coo_to_csr(coo)
    benchmark(segmented_scan_spmv, csr, x, n_parts=4)


@needs_cc
def test_native_csr_cbackend(benchmark, fem):
    coo, x = fem
    csr = coo_to_csr(coo)
    y = benchmark(spmv_c, csr, x)
    assert np.isfinite(y).all()


@needs_cc
def test_native_csr16_cbackend(benchmark, fem):
    coo, x = fem
    csr = coo_to_csr(coo, index_width=IndexWidth.I16)
    benchmark(spmv_c, csr, x)


@needs_cc
def test_native_bcsr_2x2_cbackend(benchmark, fem):
    coo, x = fem
    b = to_bcsr(coo, 2, 2)
    benchmark(spmv_c, b, x)


@pytest.fixture(scope="module")
def shortrow():
    coo = generate("Webbase", scale=SCALE, seed=0)
    x = np.random.default_rng(0).standard_normal(coo.ncols)
    return coo, x


def test_native_sellcs_numpy(benchmark, shortrow):
    coo, x = shortrow
    s = to_sellcs(coo, chunk=8, sigma=coo.nrows)
    benchmark(s.spmv, x)


@needs_cc
def test_native_sellcs_cbackend(benchmark, shortrow):
    coo, x = shortrow
    s = to_sellcs(coo, chunk=8, sigma=coo.nrows)
    benchmark(spmv_c, s, x)


@needs_cc
def test_native_csr_cbackend_shortrow(benchmark, shortrow):
    coo, x = shortrow
    csr = coo_to_csr(coo)
    benchmark(spmv_c, csr, x)


@needs_cc
def test_native_threaded_cbackend(benchmark, fem):
    import os

    from repro.parallel import threaded_spmv

    coo, x = fem
    csr = coo_to_csr(coo)
    n = min(4, os.cpu_count() or 1)
    benchmark(threaded_spmv, csr, x, n_threads=n)


def test_native_results_agree(fem):
    coo, x = fem
    expected = coo_to_csr(coo).spmv(x)
    b = to_bcsr(coo, 2, 2)
    np.testing.assert_allclose(b.spmv(x), expected, rtol=1e-10)
    if c_backend_available():
        np.testing.assert_allclose(spmv_c(coo_to_csr(coo), x),
                                   expected, rtol=1e-10)


# ----------------------------------------------------------------------
# CI perf snapshot: ``python benchmarks/bench_kernels_native.py``
# ----------------------------------------------------------------------
def _clock(fn, iters: int) -> float:
    """Best-of-``iters`` wall time (the usual noise-robust estimator:
    the minimum is the run least disturbed by the machine)."""
    import time

    fn()
    best = float("inf")
    for _ in range(iters):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


#: The tuned register-blocked tile for FEM-Cant (the generator emits
#: perfect 2x2 blocks — fill 1.0 — so this is what the sweep picks).
TUNED_TILE = (2, 2)

#: Short-row suite case: power-law web-link rows, mean ~2.7 nnz/row —
#: where CSR drowns in per-row loop overhead and SELL-C-σ shines.
SHORT_ROW_CASE = "Webbase"
SELLCS_CHUNK = 8


def _snapshot(iters: int) -> dict:
    """Time NumPy vs compiled SpMV on the FEM-Cant case (plain CSR,
    plus the tuned register-blocked config)
    and the short-row SELL-C-σ-vs-scalar-CSR comparison, verifying
    every compiled result against the per-entry reference kernel."""
    from repro.kernels.reference import spmv_reference

    coo = generate("FEM-Cant", scale=SCALE, seed=0)
    csr = coo_to_csr(coo)
    x = np.random.default_rng(0).standard_normal(coo.ncols)

    expected = spmv_reference(coo, x)
    bound = 1e-12 * np.maximum(np.abs(expected), 1.0)
    t_numpy = _clock(lambda: csr.spmv(x), iters)
    assert np.all(np.abs(csr.spmv(x) - expected) <= bound)
    result = {
        "case": "FEM-Cant",
        "scale": SCALE,
        "nnz": int(coo.nnz_logical),
        "iters": iters,
        "c_backend_available": c_backend_available(),
        "numpy_ms": t_numpy * 1e3,
        "numpy_gflops": 2.0 * coo.nnz_logical / t_numpy / 1e9,
    }
    if not c_backend_available():
        return result
    t_c = _clock(lambda: spmv_c(csr, x), iters)
    assert np.all(np.abs(spmv_c(csr, x) - expected) <= bound), \
        "compiled CSR kernel diverged from spmv_reference"
    result.update(
        c_ms=t_c * 1e3,
        c_gflops=2.0 * coo.nnz_logical / t_c / 1e9,
        speedup=t_numpy / t_c,
    )
    # Tuned config: register-blocked BCSR halves the index stream on
    # FEM-Cant's natural 2x2 blocks (the paper's Table 2 blocking win).
    bcsr = to_bcsr(coo, *TUNED_TILE)
    t_tuned = _clock(lambda: spmv_c(bcsr, x), iters)
    assert np.all(np.abs(spmv_c(bcsr, x) - expected) <= bound), \
        "compiled BCSR kernel diverged from spmv_reference"
    result.update(
        tuned_format=f"bcsr{TUNED_TILE[0]}x{TUNED_TILE[1]}",
        tuned_fill=bcsr.nnz_logical / bcsr.nnz_stored,
        tuned_ms=t_tuned * 1e3,
        tuned_gflops=2.0 * coo.nnz_logical / t_tuned / 1e9,
        tuned_speedup=t_numpy / t_tuned,
    )
    result["short_row"] = _short_row_snapshot(iters)
    return result


def _short_row_snapshot(iters: int) -> dict:
    """SELL-C-σ (best ISA, full-σ sort) vs *scalar* compiled CSR on the
    short-row case — the v2 format's raison d'être."""
    from repro.formats import to_sellcs
    from repro.kernels.cbackend.loader import get_best_c_kernel, \
        get_c_kernel
    from repro.kernels.cbackend.program import BoundProgram
    from repro.kernels.reference import spmv_reference

    coo = generate(SHORT_ROW_CASE, scale=SCALE, seed=0)
    csr = coo_to_csr(coo)
    # σ = nrows: a full-matrix sort. Webbase's row lengths are power-
    # law distributed and its x accesses have no locality to preserve,
    # so the global sort maximizes fill at no gather cost.
    sell = to_sellcs(coo, chunk=SELLCS_CHUNK, sigma=coo.nrows)
    x = np.random.default_rng(1).standard_normal(coo.ncols)
    expected = spmv_reference(coo, x)
    bound = 1e-12 * np.maximum(np.abs(expected), 1.0)
    k_scalar = get_c_kernel("csr", 1, 1, csr.index_width, isa="scalar")
    k_sell = get_best_c_kernel("sellcs", SELLCS_CHUNK, 1,
                               sell.index_width)
    # Pinned rungs, not the raced best: scalar CSR is the baseline.
    p_csr = BoundProgram(csr, lambda leaf: k_scalar)
    p_sell = BoundProgram(sell, lambda leaf: k_sell)
    t_csr = _clock(lambda: p_csr.spmv(x, np.zeros(coo.nrows)), iters)
    t_sell = _clock(lambda: p_sell.spmv(x, np.zeros(coo.nrows)), iters)
    got = p_sell.spmv(x, np.zeros(coo.nrows))
    assert np.all(np.abs(got - expected) <= bound), \
        "compiled SELL-C-σ kernel diverged from spmv_reference"
    return {
        "case": SHORT_ROW_CASE,
        "scale": SCALE,
        "nnz": int(coo.nnz_logical),
        "chunk": SELLCS_CHUNK,
        "sigma": int(coo.nrows),
        "fill": sell.nnz_logical / sell.nnz_stored,
        "csr_scalar_ms": t_csr * 1e3,
        "sellcs_isa": k_sell.variant.isa,
        "sellcs_ms": t_sell * 1e3,
        "sellcs_speedup": t_csr / t_sell,
    }


def _diff_baseline(snap: dict, path: str, ratio: float) -> list[str]:
    """Compare a fresh snapshot against the committed baseline.

    Absolute wall times are not portable across hosts, so the diff is
    over the *hardware-normalized* figure: the C-vs-NumPy speedup,
    which divides out memory bandwidth. A regression is only flagged
    when the speedup falls below ``baseline / ratio`` (generous by
    design — CI runners are noisy), or when the benchmark shape (case,
    scale, nnz) silently drifted from what the baseline measured."""
    import json

    with open(path) as f:
        base = json.load(f)
    problems = []
    for key in ("case", "scale", "nnz"):
        if snap.get(key) != base.get(key):
            problems.append(
                f"benchmark shape drifted: {key} is {snap.get(key)!r}, "
                f"baseline has {base.get(key)!r} — regenerate "
                f"{path} in the same change"
            )
    base_sr, snap_sr = base.get("short_row"), snap.get("short_row")
    if base_sr and snap_sr:
        for key in ("case", "scale", "nnz", "chunk", "sigma"):
            if snap_sr.get(key) != base_sr.get(key):
                problems.append(
                    f"short-row shape drifted: {key} is "
                    f"{snap_sr.get(key)!r}, baseline has "
                    f"{base_sr.get(key)!r} — regenerate {path}"
                )

    def check(label: str, fresh: dict, committed: dict, key: str):
        if key not in committed:
            return
        if key not in fresh:
            problems.append(
                f"baseline has {label} but this run could not "
                "build the C backend"
            )
            return
        floor = committed[key] / ratio
        if fresh[key] < floor:
            problems.append(
                f"{label} {fresh[key]:.2f}x regressed below "
                f"{floor:.2f}x (baseline {committed[key]:.2f}x "
                f"/ tolerance {ratio:.1f})"
            )
        else:
            print(f"baseline diff ok: {label} {fresh[key]:.2f}x vs "
                  f"committed {committed[key]:.2f}x "
                  f"(floor {floor:.2f}x)")

    check("speedup", snap, base, "speedup")
    check("tuned_speedup", snap, base, "tuned_speedup")
    if base_sr:
        check("sellcs_speedup", snap_sr or {}, base_sr,
              "sellcs_speedup")
    return problems


def main(argv: list[str] | None = None) -> int:
    import argparse
    import json
    import sys

    ap = argparse.ArgumentParser(
        description="NumPy-vs-C SpMV perf snapshot (CI artifact)"
    )
    ap.add_argument("--json", metavar="FILE", default=None,
                    help="write the snapshot to FILE")
    ap.add_argument("--iters", type=int, default=50)
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="fail unless C beats NumPy by this factor")
    ap.add_argument("--min-tuned-speedup", type=float, default=None,
                    help="fail unless the tuned (register-blocked) "
                         "config beats NumPy by this factor")
    ap.add_argument("--min-sellcs-speedup", type=float, default=None,
                    help="fail unless SELL-C-σ beats scalar-C CSR by "
                         "this factor on the short-row case")
    ap.add_argument("--baseline", metavar="FILE", default=None,
                    help="diff against a committed snapshot "
                         "(hardware-normalized speedup comparison)")
    ap.add_argument("--baseline-ratio", type=float, default=2.0,
                    help="tolerated speedup shrink factor vs the "
                         "baseline (default 2.0)")
    args = ap.parse_args(argv)
    snap = _snapshot(args.iters)
    print(json.dumps(snap, indent=2))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(snap, f, indent=2)
    gates = (
        ("speedup", args.min_speedup, snap.get("speedup")),
        ("tuned_speedup", args.min_tuned_speedup,
         snap.get("tuned_speedup")),
        ("sellcs_speedup", args.min_sellcs_speedup,
         (snap.get("short_row") or {}).get("sellcs_speedup")),
    )
    for label, gate, value in gates:
        if gate is None:
            continue
        if value is None:
            print(f"C backend unavailable: cannot enforce "
                  f"--min-{label.replace('_', '-')}", file=sys.stderr)
            return 1
        if value < gate:
            print(f"{label} {value:.2f}x is below the {gate:.2f}x "
                  f"gate", file=sys.stderr)
            return 1
    if args.baseline is not None:
        problems = _diff_baseline(snap, args.baseline,
                                  args.baseline_ratio)
        for p in problems:
            print(p, file=sys.stderr)
        if problems:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
