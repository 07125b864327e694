"""C code generator: specialized SpMV kernels, one source per variant.

The paper's Perl generator emitted a dedicated, fully unrolled, branch-
free C kernel for every (format, r×c, index width) combination; this is
the same generator in Python, grown into a two-level emitter:

* the **scalar** emitter (the v1 baseline and guaranteed fallback) —
  unrolled tiles, pointer arithmetic, exact index types,
  ``restrict``-qualified pointers, software-pipelined accumulators;
* the **v2 ISA emitters**, selected per variant by ``Variant.isa``:
  ``simd`` wraps the reducible loops in ``#pragma omp simd`` (built
  with ``-fopenmp-simd``), ``prefetch`` interleaves
  ``__builtin_prefetch`` for the matrix stream and the gathered source
  vector — the paper's Table 2 SIMDization and software-prefetch
  optimizations, finally expressible now that we generate C. Which ISA
  levels actually build is decided by the capability probes in
  :mod:`repro.kernels.cbackend.build`; dispatch races the surviving
  :data:`ISA_PREFERENCE` candidates and keeps the fastest.

Formats: CSR, register-blocked BCSR/BCOO, and (v2) **SELL-C-σ** —
sorted sliced ELLPACK (:mod:`repro.formats.sellcs`), whose column-major
slices make the C-lane loop trivially vectorizable.

CSR, BCSR and SELL-C-σ kernels take a ``[r0, r1)`` row/slice range
so disjoint slabs of one shared destination vector can run
concurrently (:func:`repro.parallel.threaded.threaded_spmv`). All four
formats export a fused multi-vector ``repro_spmm`` entry point — the
paper's multiple-vector optimization: the matrix streams once per chunk
of :data:`SPMM_CHUNK` right-hand sides. The CSR, BCSR and BCOO fused
kernels repeat each column's arithmetic in the scalar ``repro_spmv``
order, so on the scalar and ``prefetch`` rungs column j of the fused
result is bit-identical to the same variant's SpMV of column j.

:func:`runner_source` is the one translation unit that is not a
kernel: the program runner that walks a bound program's packed leaf
table in one call and owns the thread team that runs its row panels
(layout: :data:`PROGRAM_HEADER`, :data:`TABLE_FIELDS`).

Floating-point contraction is disabled at build time
(``-ffp-contract=off``), so results are reproducible across hosts with
and without FMA units; scalar and ``prefetch`` variants accumulate in
the same order (prefetches are hints, not arithmetic), while ``simd``
reductions may reassociate — all match :func:`repro.kernels.reference.
spmv_reference` to well below the 1e-12 validation tolerance but are
*not* bit-identical to the NumPy kernels (whose pairwise reductions
associate additions differently).
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass

from ...errors import KernelError
from ...formats.base import IndexWidth

#: Formats the C backend can specialize.
C_FORMATS = ("csr", "bcsr", "bcoo", "sellcs")

#: ISA levels the generator can emit, per format.
SUPPORTED_ISAS: dict[str, tuple[str, ...]] = {
    "csr": ("scalar", "simd", "prefetch"),
    "bcsr": ("scalar", "prefetch"),
    "bcoo": ("scalar", "prefetch"),
    "sellcs": ("scalar", "simd"),
}

#: Candidate order per format for the selection race — every
#: capability-supported level builds and the fastest on a timed probe
#: wins (see :func:`repro.kernels.cbackend.loader.get_best_c_kernel`).
ISA_PREFERENCE: dict[str, tuple[str, ...]] = {
    "csr": ("prefetch", "simd", "scalar"),
    "bcsr": ("prefetch", "scalar"),
    "bcoo": ("prefetch", "scalar"),
    "sellcs": ("simd", "scalar"),
}

#: Software-prefetch distance in elements (~2 cache lines of values).
PREFETCH_DISTANCE = 16

_PREAMBLE = """\
/* repro generated kernel: {fmt} {r}x{c}, {bits}-bit indices, {isa}.
 * Auto-generated by repro.kernels.cbackend.codegen — do not edit. */
#include <stdint.h>

typedef {idx_t} idx_t;
"""

_CSR_SPMV = """
void repro_spmv(const int64_t *restrict indptr,
                const idx_t *restrict col,
                const double *restrict val,
                const double *restrict x,
                double *restrict y,
                int64_t r0, int64_t r1)
{
    for (int64_t i = r0; i < r1; ++i) {
        const int64_t lo = indptr[i];
        const int64_t n = indptr[i + 1] - lo;
        const idx_t *restrict cp = col + lo;
        const double *restrict vp = val + lo;
        /* Software-pipelined four-way accumulators (the paper's
         * pipelining/unrolling code optimization for CSR). */
        double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
        int64_t k = 0;
        for (; k + 4 <= n; k += 4) {
            a0 += vp[k]     * x[cp[k]];
            a1 += vp[k + 1] * x[cp[k + 1]];
            a2 += vp[k + 2] * x[cp[k + 2]];
            a3 += vp[k + 3] * x[cp[k + 3]];
        }
        for (; k < n; ++k)
            a0 += vp[k] * x[cp[k]];
        y[i] += (a0 + a1) + (a2 + a3);
    }
}
"""

_CSR_SPMV_SIMD = """
void repro_spmv(const int64_t *restrict indptr,
                const idx_t *restrict col,
                const double *restrict val,
                const double *restrict x,
                double *restrict y,
                int64_t r0, int64_t r1)
{
    for (int64_t i = r0; i < r1; ++i) {
        const int64_t lo = indptr[i];
        const int64_t n = indptr[i + 1] - lo;
        const idx_t *restrict cp = col + lo;
        const double *restrict vp = val + lo;
        double acc = 0.0;
        /* Vector-lane reduction over the row (SIMDization): the
         * gather x[cp[k]] vectorizes on any ISA with gather support
         * and stays a fast scalar pipeline elsewhere. */
        #pragma omp simd reduction(+:acc)
        for (int64_t k = 0; k < n; ++k)
            acc += vp[k] * x[cp[k]];
        y[i] += acc;
    }
}
"""

_CSR_SPMV_PF = """
void repro_spmv(const int64_t *restrict indptr,
                const idx_t *restrict col,
                const double *restrict val,
                const double *restrict x,
                double *restrict y,
                int64_t r0, int64_t r1)
{
    for (int64_t i = r0; i < r1; ++i) {
        const int64_t lo = indptr[i];
        const int64_t n = indptr[i + 1] - lo;
        const idx_t *restrict cp = col + lo;
        const double *restrict vp = val + lo;
        double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
        int64_t k = 0;
        for (; k + 4 <= n; k += 4) {
            /* Stream the matrix arrays {pf} elements ahead, and pull
             * the source-vector line the prefetched column points at
             * (the paper's software-prefetch optimization). Prefetch
             * is a hint: the accumulation order is identical to the
             * scalar kernel, so results are bit-identical to it. */
            __builtin_prefetch(vp + k + {pf}, 0, 0);
            __builtin_prefetch(cp + k + {pf}, 0, 0);
            if (k + {pf} < n)
                __builtin_prefetch(x + cp[k + {pf}], 0, 1);
            a0 += vp[k]     * x[cp[k]];
            a1 += vp[k + 1] * x[cp[k + 1]];
            a2 += vp[k + 2] * x[cp[k + 2]];
            a3 += vp[k + 3] * x[cp[k + 3]];
        }
        for (; k < n; ++k)
            a0 += vp[k] * x[cp[k]];
        y[i] += (a0 + a1) + (a2 + a3);
    }
}
"""

#: Columns of X the fused SpMM keeps in registers at once: every
#: ``repro_spmm`` walks X in chunks of this many columns while ``k``
#: allows, held as ``SPMM_CHUNK // SPMM_VEC`` named ``vec_t``
#: accumulators per row, then in ``SPMM_VEC``-wide chunks, then one
#: column — so any ``k`` runs straight-line code with no runtime-width
#: inner loop.
SPMM_CHUNK = 8
#: Doubles per ``vec_t``: the SSE2 / NEON width every rung can count on
#: without ISA flags. A GNU C vector wider than the hardware is lowered
#: through the stack, which would undo the point of the chunk.
SPMM_VEC = 2

_SPMM_PREAMBLE = """
/* Fused SpMM: X is (ncols, k) and Y (nrows, k), row-major. Columns go
 * in chunks, {W} wide while k allows, then {V} wide, then one, and the
 * matrix streams once per chunk. Each column repeats repro_spmv's
 * arithmetic in its exact order (vec_t lanes are independent columns,
 * never summed together), so column j of Y is bit-identical to
 * repro_spmv on column j of X. vec_t holds {V} doubles; VEC and ONE
 * access {V} or one double at any double's address. */
typedef double vec_t __attribute__((vector_size({V} * sizeof(double)),
                                    aligned(sizeof(double)), may_alias));
#define VEC(p) (*(vec_t *)(p))
#define ONE(p) (*(double *)(p))
"""

_CSR_SPMM = """
void repro_spmm(const int64_t *restrict indptr,
                const idx_t *restrict col,
                const double *restrict val,
                const double *restrict x,
                double *restrict y,
                int64_t r0, int64_t r1, int64_t k)
{
    for (int64_t i = r0; i < r1; ++i) {
        const int64_t lo = indptr[i];
        const int64_t n = indptr[i + 1] - lo;
        const idx_t *restrict cp = col + lo;
        const double *restrict vp = val + lo;
        double *restrict yr = y + i * k;
        int64_t j0 = 0;
{chunks}
    }
}
"""

#: One chunk of row i: the scalar kernel's four-way accumulators, one
#: lane per column.
_CSR_CHUNK = """\
{decl}
int64_t e = 0;
for (; e + 4 <= n; e += 4) {
{pf}    const double *restrict x0 = x + (int64_t)cp[e] * k + j0;
    const double *restrict x1 = x + (int64_t)cp[e + 1] * k + j0;
    const double *restrict x2 = x + (int64_t)cp[e + 2] * k + j0;
    const double *restrict x3 = x + (int64_t)cp[e + 3] * k + j0;
{macs4}
}
for (; e < n; ++e) {
    const double *restrict x0 = x + (int64_t)cp[e] * k + j0;
{macs1}
}
{store}
"""

_CSR_CHUNK_PF = """\
    __builtin_prefetch(vp + e + {pf}, 0, 0);
    __builtin_prefetch(cp + e + {pf}, 0, 0);
    if (e + {pf} < n)
        __builtin_prefetch(x + (int64_t)cp[e + {pf}] * k + j0, 0, 1);
"""

_BCSR_SPMV = """
void repro_spmv(const int64_t *restrict browptr,
                const idx_t *restrict bcol,
                const double *restrict blocks,
                const double *restrict x,
                double *restrict y,
                int64_t br0, int64_t br1)
{
    /* x padded to n_bcols*{c} entries, y padded to n_brows*{r}. */
    for (int64_t bi = br0; bi < br1; ++bi) {
        const int64_t lo = browptr[bi], hi = browptr[bi + 1];
{acc_decl}
        for (int64_t t = lo; t < hi; ++t) {
            const double *restrict b = blocks + t * {rc};
            const double *restrict xs = x + (int64_t)bcol[t] * {c};
{tile_pf}{macs}
        }
        double *restrict yr = y + bi * {r};
{acc_store}
    }
}
"""

_BCSR_SPMM = """
void repro_spmm(const int64_t *restrict browptr,
                const idx_t *restrict bcol,
                const double *restrict blocks,
                const double *restrict x,
                double *restrict y,
                int64_t br0, int64_t br1, int64_t k)
{
    /* X padded to n_bcols*{c} rows, Y to n_brows*{r}. */
    for (int64_t bi = br0; bi < br1; ++bi) {
        const int64_t lo = browptr[bi], hi = browptr[bi + 1];
        double *restrict yr = y + bi * {r} * k;
        int64_t j0 = 0;
{chunks}
    }
}
"""

#: One chunk of tile row bi: acc{i}_* is repro_spmv's acc{i}, one lane
#: per column, added to y once.
_BCSR_CHUNK = """\
{decl}
for (int64_t t = lo; t < hi; ++t) {
    const double *restrict b = blocks + t * {rc};
    const double *restrict xs = x + (int64_t)bcol[t] * {c} * k + j0;
{pf}{loads}
{macs}
}
{store}
"""

_BCOO_SPMV = """
void repro_spmv(const idx_t *restrict brow,
                const idx_t *restrict bcol,
                const double *restrict blocks,
                const double *restrict x,
                double *restrict y,
                int64_t ntiles)
{
    /* x padded to n_bcols*{c} entries, y padded to n_brows*{r}. */
    for (int64_t t = 0; t < ntiles; ++t) {
        const double *restrict b = blocks + t * {rc};
        const double *restrict xs = x + (int64_t)bcol[t] * {c};
        double *restrict yr = y + (int64_t)brow[t] * {r};
{tile_pf}{macs}
    }
}
"""

_BCOO_SPMM = """
void repro_spmm(const idx_t *restrict brow,
                const idx_t *restrict bcol,
                const double *restrict blocks,
                const double *restrict x,
                double *restrict y,
                int64_t ntiles, int64_t k)
{
    /* X padded to n_bcols*{c} rows, Y to n_brows*{r}; per column the
     * sums repro_spmv adds straight into y. */
    for (int64_t t = 0; t < ntiles; ++t) {
        const double *restrict b = blocks + t * {rc};
        const double *restrict xs = x + (int64_t)bcol[t] * {c} * k;
        double *restrict yr = y + (int64_t)brow[t] * {r} * k;
{tile_pf}        int64_t j0 = 0;
{chunks}
    }
}
"""

_SELLCS_SPMV = """
void repro_spmv(const int64_t *restrict sptr,
                const idx_t *restrict col,
                const double *restrict val,
                const int64_t *restrict perm,
                const double *restrict x,
                double *restrict y,
                int64_t s0, int64_t s1, int64_t nrows)
{
    /* SELL-{C}-σ: slice s holds {C} permuted rows padded to the
     * slice's max row length w, stored lane-major (element j of lane
     * i at sptr[s] + j*{C} + i), so the i-loop is a unit-stride
     * vector operation. The permutation round-trip happens here, not
     * in Python: lane i of slice s is original row perm[s*{C} + i].
     * acc seeds from the gathered y so each lane's additions run
     * oldest-first in storage order — the exact sequence of the
     * per-entry reference kernel — and scatters back once per slice.
     * Lanes past nrows (final-slice padding) never touch y. */
    for (int64_t s = s0; s < s1; ++s) {
        const int64_t lo = sptr[s];
        const int64_t w = (sptr[s + 1] - lo) / {C};
        const idx_t *restrict cp = col + lo;
        const double *restrict vp = val + lo;
        const int64_t base = s * {C};
        const int64_t nl = (nrows - base < {C}) ? nrows - base : {C};
        double acc[{C}];
        for (int64_t i = 0; i < nl; ++i)
            acc[i] = y[perm[base + i]];
        for (int64_t i = nl; i < {C}; ++i)
            acc[i] = 0.0;
        for (int64_t j = 0; j < w; ++j) {
            const idx_t *restrict cj = cp + j * {C};
            const double *restrict vj = vp + j * {C};
{lane_pragma}            for (int64_t i = 0; i < {C}; ++i)
                acc[i] += vj[i] * x[cj[i]];
        }
        for (int64_t i = 0; i < nl; ++i)
            y[perm[base + i]] = acc[i];
    }
}
"""

_SELLCS_SPMM = """
void repro_spmm(const int64_t *restrict sptr,
                const idx_t *restrict col,
                const double *restrict val,
                const int64_t *restrict perm,
                const double *restrict x,
                double *restrict y,
                int64_t s0, int64_t s1, int64_t nvec, int64_t nrows)
{
    /* X is (ncols, nvec) row-major; Y is the caller's un-permuted
     * (nrows, nvec) destination — lane i of slice s accumulates
     * directly into row perm[s*{C} + i], in the same j order as the
     * gather/compute/scatter convention (identical arithmetic, no
     * intermediate buffer). Padding lanes are skipped. */
    for (int64_t s = s0; s < s1; ++s) {
        const int64_t lo = sptr[s];
        const int64_t w = (sptr[s + 1] - lo) / {C};
        const int64_t base = s * {C};
        const int64_t nl = (nrows - base < {C}) ? nrows - base : {C};
        for (int64_t j = 0; j < w; ++j) {
            const idx_t *restrict cj = col + lo + j * {C};
            const double *restrict vj = val + lo + j * {C};
            for (int64_t i = 0; i < nl; ++i) {
                const double v = vj[i];
                const double *restrict xs = x + (int64_t)cj[i] * nvec;
                double *restrict yr = y + perm[base + i] * nvec;
{lane_pragma}                for (int64_t q = 0; q < nvec; ++q)
                    yr[q] += v * xs[q];
            }
        }
    }
}
"""


@dataclass(frozen=True)
class Variant:
    """One specialized kernel identity: (format, tile, width, ISA)."""

    fmt: str
    r: int
    c: int
    index_width: IndexWidth
    isa: str = "scalar"

    def __post_init__(self):
        if self.fmt not in C_FORMATS:
            raise KernelError(
                f"C backend supports {C_FORMATS}, not {self.fmt!r}"
            )
        if self.fmt == "csr" and (self.r, self.c) != (1, 1):
            raise KernelError("csr variants are always 1x1")
        if self.fmt == "sellcs" and self.c != 1:
            raise KernelError(
                "sellcs variants encode the chunk height as r and "
                "require c == 1"
            )
        if self.r < 1 or self.c < 1:
            raise KernelError(f"bad tile shape {self.r}x{self.c}")
        if self.isa not in SUPPORTED_ISAS[self.fmt]:
            raise KernelError(
                f"{self.fmt} kernels support ISA levels "
                f"{SUPPORTED_ISAS[self.fmt]}, not {self.isa!r}"
            )

    @property
    def bits(self) -> int:
        return 8 * int(self.index_width)

    @property
    def name(self) -> str:
        """Stable human-readable variant id, e.g. ``bcsr_2x4_i16`` or
        ``csr_1x1_i32_simd`` (scalar keeps the v1 names)."""
        base = f"{self.fmt}_{self.r}x{self.c}_i{self.bits}"
        if self.isa == "scalar":
            return base
        suffix = {"simd": "simd", "prefetch": "pf"}[self.isa]
        return f"{base}_{suffix}"


def _unrolled_macs(r: int, c: int, target: str, x: str = "xs[{j}]",
                   indent: int = 12) -> str:
    """The fully unrolled r×c tile multiply-accumulate block: row ``i``
    is ``target`` ``b[i,0]·x_0 + … + b[i,c−1]·x_{c−1}``, left to right."""
    lines = []
    for i in range(r):
        terms = " + ".join(
            f"b[{i * c + j}] * {x.format(j=j)}" for j in range(c)
        )
        lines.append(f"{' ' * indent}{target.format(i=i)} {terms};")
    return "\n".join(lines)


def _tile_prefetch(indent: int, end: str, x_row: str) -> str:
    """Prefetch the next tile's values and the x row it gathers from."""
    pad = " " * indent
    return (
        f"{pad}if (t + 1 < {end}) {{\n"
        f"{pad}    __builtin_prefetch(blocks + (t + 1) * {{rc}}, 0, 0);\n"
        f"{pad}    __builtin_prefetch(x + (int64_t)bcol[t + 1] * {x_row}, "
        f"0, 1);\n"
        f"{pad}}}\n"
    )


class _Chunk:
    """One column-chunk width of a fused SpMM: ``width`` columns held in
    ``ctype`` values read and written through the ``at`` macro."""

    def __init__(self, width: int, ctype: str, at: str, step: int):
        self.width, self.ctype, self.at = width, ctype, at
        #: ``(p, o)``: value index and its first column in the chunk.
        self.lanes = [(p, p * step) for p in range(width // step)]

    def each(self, line: str) -> str:
        """``line`` once per value, ``{p}``/``{o}`` filled in."""
        return "\n".join(line.replace("{p}", str(p)).replace("{o}", str(o))
                         for p, o in self.lanes)

    def decl(self, names: list[str]) -> str:
        """Zeroed accumulators ``{name}_{p}``, one line per name."""
        return "\n".join(
            f"{self.ctype} " + ", ".join(
                f"{name}_{p} = {{0.0}}" for p, _ in self.lanes) + ";"
            for name in names)


_CHUNKS = (_Chunk(SPMM_CHUNK, "vec_t", "VEC", SPMM_VEC),
           _Chunk(SPMM_VEC, "vec_t", "VEC", SPMM_VEC),
           _Chunk(1, "double", "ONE", 1))


def _chunk_loops(body, indent: int) -> str:
    """``body(chunk)`` inside one loop per chunk width, widest first;
    the one-column loop runs at most once."""
    loops = []
    for ch in _CHUNKS:
        inner = textwrap.indent(body(ch), "    ")
        loops.append(f"for (; j0 + {ch.width} <= k; j0 += {ch.width}) {{\n"
                     f"{inner}}}")
    return textwrap.indent("\n".join(loops), " " * indent)


def _csr_source(variant: Variant) -> str:
    spmv = {"scalar": _CSR_SPMV, "simd": _CSR_SPMV_SIMD,
            "prefetch": _CSR_SPMV_PF}[variant.isa]
    pf = _CSR_CHUNK_PF if variant.isa == "prefetch" else ""

    def body(ch: _Chunk) -> str:
        at = ch.at
        return (_CSR_CHUNK
                .replace("{decl}", ch.decl(["a0", "a1", "a2", "a3"]))
                .replace("{pf}", pf)
                .replace("{macs4}", "\n".join(ch.each(
                    f"    a{a}_{{p}} += vp[e + {a}] * {at}(x{a} + {{o}});")
                    for a in range(4)))
                .replace("{macs1}", ch.each(
                    f"    a0_{{p}} += vp[e] * {at}(x0 + {{o}});"))
                .replace("{store}", ch.each(
                    f"{at}(yr + j0 + {{o}}) += (a0_{{p}} + a1_{{p}}) + "
                    f"(a2_{{p}} + a3_{{p}});")))

    spmm = _CSR_SPMM.replace("{chunks}", _chunk_loops(body, 8))
    return (spmv + _SPMM_PREAMBLE + spmm).replace(
        "{pf}", str(PREFETCH_DISTANCE))


def _sellcs_source(variant: Variant) -> str:
    pragma = "#pragma omp simd\n" if variant.isa == "simd" else ""
    spmv = _SELLCS_SPMV.replace(
        "{lane_pragma}",
        ("            " + pragma) if pragma else "",
    )
    spmm = _SELLCS_SPMM.replace(
        "{lane_pragma}",
        ("                " + pragma) if pragma else "",
    )
    return (spmv + spmm).replace("{C}", str(variant.r))


def _x_loads(ch: _Chunk, c: int, offset: str) -> str:
    """``x{j}_*``: the chunk's slice of x row ``j`` of the tile, at
    ``xs`` plus ``offset`` columns."""
    return "\n".join(ch.each(
        f"const {ch.ctype} x{j}_{{p}} = "
        f"{ch.at}(xs + {j} * k{offset} + {{o}});")
        for j in range(c))


def _bcsr_source(variant: Variant) -> str:
    r, c, pf = variant.r, variant.c, variant.isa == "prefetch"
    spmv = _BCSR_SPMV.replace("{acc_decl}", "\n".join(
        f"        double acc{i} = 0.0;" for i in range(r)))
    spmv = spmv.replace("{tile_pf}", _tile_prefetch(12, "hi", "{c}")
                        if pf else "")
    spmv = spmv.replace("{macs}", _unrolled_macs(r, c, "acc{i} +="))
    spmv = spmv.replace("{acc_store}", "\n".join(
        f"        yr[{i}] += acc{i};" for i in range(r)))

    def body(ch: _Chunk) -> str:
        return (_BCSR_CHUNK
                .replace("{decl}", ch.decl([f"acc{i}" for i in range(r)]))
                .replace("{pf}", _tile_prefetch(4, "hi", "{c} * k + j0")
                         if pf else "")
                .replace("{loads}", textwrap.indent(
                    _x_loads(ch, c, ""), "    "))
                .replace("{macs}", "\n".join(
                    _unrolled_macs(r, c, f"acc{{i}}_{p} +=", f"x{{j}}_{p}",
                                   indent=4) for p, _ in ch.lanes))
                .replace("{store}", "\n".join(ch.each(
                    f"{ch.at}(yr + {i} * k + j0 + {{o}}) += acc{i}_{{p}};")
                    for i in range(r))))

    spmm = _BCSR_SPMM.replace("{chunks}", _chunk_loops(body, 8))
    return spmv + _SPMM_PREAMBLE + spmm


def _bcoo_source(variant: Variant) -> str:
    r, c, pf = variant.r, variant.c, variant.isa == "prefetch"
    spmv = _BCOO_SPMV.replace("{tile_pf}", _tile_prefetch(8, "ntiles", "{c}")
                              if pf else "")
    spmv = spmv.replace("{macs}", _unrolled_macs(r, c, "yr[{i}] +=",
                                                 indent=8))

    def body(ch: _Chunk) -> str:
        return _x_loads(ch, c, " + j0") + "\n" + "\n".join(
            _unrolled_macs(r, c, f"{ch.at}(yr + {{i}} * k + j0 + {o}) +=",
                           f"x{{j}}_{p}", indent=0)
            for p, o in ch.lanes) + "\n"

    spmm = _BCOO_SPMM.replace(
        "{tile_pf}", _tile_prefetch(8, "ntiles", "{c} * k") if pf else "")
    spmm = spmm.replace("{chunks}", _chunk_loops(body, 8))
    return spmv + _SPMM_PREAMBLE + spmm


def c_kernel_source(variant: Variant) -> str:
    """Return the complete C translation unit for one variant."""
    idx_t = "uint16_t" if variant.index_width is IndexWidth.I16 \
        else "uint32_t"
    src = _PREAMBLE.format(
        fmt=variant.fmt, r=variant.r, c=variant.c,
        bits=variant.bits, idx_t=idx_t, isa=variant.isa,
    )
    body = {"csr": _csr_source, "sellcs": _sellcs_source,
            "bcsr": _bcsr_source, "bcoo": _bcoo_source}[variant.fmt](variant)
    r, c = variant.r, variant.c
    body = body.replace("{rc}", str(r * c)).replace("{W}", str(SPMM_CHUNK))
    body = body.replace("{V}", str(SPMM_VEC))
    body = body.replace("{r}", str(r)).replace("{c}", str(c))
    return src + body


# ----------------------------------------------------------------------
# The program runner: one C call walks a bound program's leaf table
# ----------------------------------------------------------------------
#: Leading int64 words of a packed program (see
#: :mod:`repro.kernels.cbackend.program`): row-panel count, thread-team
#: width, scratch rows per vector column, and the word offset of the
#: leaf table. The panel bounds (entry indices, ``panels + 1`` words)
#: follow the header, then each team slot's first panel (``width + 1``
#: words).
PROGRAM_HEADER = ("panels", "width", "scratch", "table")

#: int64 words of one leaf-table entry: the kernel kind, the SpMV and
#: fused-SpMM function addresses, up to four matrix-array addresses,
#: the ``[lo, hi)`` unit range (BCOO: ``hi`` tiles), SELL-C-σ's row
#: count, the x/y offsets in vector rows, the x/y scratch offsets in
#: rows (-1: none), and the leaf's column and row extents.
TABLE_FIELDS = ("kind", "spmv", "spmm", "a0", "a1", "a2", "a3", "lo", "hi",
                "post", "x", "y", "xs", "ys", "cols", "rows")

#: ``kind`` values: a ranged three-array kernel (csr, bcsr), SELL-C-σ
#: (four arrays plus a row count), BCOO (three arrays, a tile count).
KIND_RANGED, KIND_SELLCS, KIND_COUNT = 0, 1, 2

_RUNNER = r"""
#define _GNU_SOURCE
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#ifdef REPRO_TEAM
#include <pthread.h>
#include <signal.h>
#include <time.h>
#endif

typedef void (*fn6)(const void *, const void *, const void *,
                    const double *, double *, int64_t);
typedef void (*fn7)(const void *, const void *, const void *,
                    const double *, double *, int64_t, int64_t);
typedef void (*fn8)(const void *, const void *, const void *,
                    const double *, double *, int64_t, int64_t, int64_t);
typedef void (*fn9)(const void *, const void *, const void *, const void *,
                    const double *, double *, int64_t, int64_t, int64_t);
typedef void (*fn10)(const void *, const void *, const void *,
                     const void *, const double *, double *, int64_t,
                     int64_t, int64_t, int64_t);

#define PTR(v) ((const void *)(intptr_t)(v))
#define FN(type, v) ((type)(intptr_t)(v))

/* One call's arguments, shared by every slot that runs part of it. */
typedef struct {
    const int64_t *prog;
    const double *x;
    double *y;
    double *scratch;
    int64_t k;          /* vector columns (1 for SpMV) */
    int mm;             /* 1: the fused SpMM entries */
} job_t;

/* One leaf: through scratch where its tile grid overhangs (the x
 * segment copied in, the y segment zero since the call began), then
 * the y scratch added onto the caller's rows. */
static void run_entry(const int64_t *e, const job_t *job)
{
    const int64_t k = job->k;
    const double *xp = job->x + e[F_X] * k;
    double *yp = job->y + e[F_Y] * k;
    double *out = yp;
    if (e[F_XS] >= 0) {
        double *s = job->scratch + e[F_XS] * k;
        memcpy(s, xp, (size_t)(e[F_COLS] * k) * sizeof(double));
        xp = s;
    }
    if (e[F_YS] >= 0)
        out = job->scratch + e[F_YS] * k;
    const int64_t fn = e[job->mm ? F_SPMM : F_SPMV];
    switch (e[F_KIND]) {
    case KIND_RANGED:
        if (job->mm)
            FN(fn8, fn)(PTR(e[F_A0]), PTR(e[F_A1]), PTR(e[F_A2]), xp, out,
                      e[F_LO], e[F_HI], k);
        else
            FN(fn7, fn)(PTR(e[F_A0]), PTR(e[F_A1]), PTR(e[F_A2]), xp, out,
                      e[F_LO], e[F_HI]);
        break;
    case KIND_SELLCS:
        if (job->mm)
            FN(fn10, fn)(PTR(e[F_A0]), PTR(e[F_A1]), PTR(e[F_A2]),
                       PTR(e[F_A3]), xp, out, e[F_LO], e[F_HI], k,
                       e[F_POST]);
        else
            FN(fn9, fn)(PTR(e[F_A0]), PTR(e[F_A1]), PTR(e[F_A2]),
                      PTR(e[F_A3]), xp, out, e[F_LO], e[F_HI], e[F_POST]);
        break;
    default:
        if (job->mm)
            FN(fn7, fn)(PTR(e[F_A0]), PTR(e[F_A1]), PTR(e[F_A2]), xp, out,
                      e[F_HI], k);
        else
            FN(fn6, fn)(PTR(e[F_A0]), PTR(e[F_A1]), PTR(e[F_A2]), xp, out,
                      e[F_HI]);
    }
    if (out != yp) {
        const int64_t n = e[F_ROWS] * k;
        for (int64_t i = 0; i < n; ++i)
            yp[i] += out[i];
    }
}

/* Panels [p0, p1): their entries in table order. */
static void run_panels(const job_t *job, int64_t p0, int64_t p1)
{
    const int64_t *prog = job->prog;
    const int64_t *bounds = prog + HEADER;
    const int64_t *table = prog + prog[H_TABLE];
    for (int64_t i = bounds[p0]; i < bounds[p1]; ++i)
        run_entry(table + i * ENTRY, job);
}

#ifdef REPRO_TEAM
/* The thread team: created once per process, grown on demand up to
 * the widest program run so far, parked on a condition variable
 * between calls. The caller is slot 0; a caller that finds the team
 * busy runs serially instead of waiting behind another call. */
#define TEAM_MAX 256
static pthread_mutex_t team_lock = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t team_wake = PTHREAD_COND_INITIALIZER;
static pthread_cond_t team_done = PTHREAD_COND_INITIALIZER;
static pthread_once_t team_once = PTHREAD_ONCE_INIT;
static int team_busy;          /* claimed by one caller (atomic) */
static int team_size = 1;      /* slots, the caller's included */
static uint64_t team_gen;      /* bumped once per team call */
static uint64_t team_born[TEAM_MAX];
static int team_width, team_pending;
static const job_t *team_job;

static double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* One team slot's share: its static run of panels. */
static void run_slot(const job_t *job, int slot)
{
    const int64_t *prog = job->prog;
    const int64_t *first = prog + HEADER + prog[H_PANELS] + 1;
    run_panels(job, first[slot], first[slot + 1]);
}

static void *team_worker(void *arg)
{
    const int slot = (int)(intptr_t)arg;
    uint64_t seen = team_born[slot];
    pthread_mutex_lock(&team_lock);
    for (;;) {
        while (team_gen == seen)
            pthread_cond_wait(&team_wake, &team_lock);
        seen = team_gen;
        if (slot >= team_width)
            continue;
        const job_t *job = team_job;
        pthread_mutex_unlock(&team_lock);
        run_slot(job, slot);
        pthread_mutex_lock(&team_lock);
        if (__atomic_sub_fetch(&team_pending, 1, __ATOMIC_RELEASE) == 0)
            pthread_cond_signal(&team_done);
    }
    return NULL;
}

/* fork() copies this state but not the workers: the child starts
 * with no team, and builds its own on its first multi-panel call. */
static void team_prepare(void) { pthread_mutex_lock(&team_lock); }
static void team_parent(void) { pthread_mutex_unlock(&team_lock); }
static void team_child(void)
{
    pthread_mutex_init(&team_lock, NULL);
    pthread_cond_init(&team_wake, NULL);
    pthread_cond_init(&team_done, NULL);
    team_busy = 0;
    team_size = 1;
    team_pending = 0;
}
static void team_register(void)
{
    pthread_atfork(team_prepare, team_parent, team_child);
}

/* Claim the team and make sure it has ``width`` slots; 0 when it is
 * busy or cannot grow (the caller then runs serially). */
static int team_claim(int width)
{
    if (width > TEAM_MAX
        || __atomic_exchange_n(&team_busy, 1, __ATOMIC_ACQUIRE))
        return 0;
    pthread_once(&team_once, team_register);
    if (team_size < width) {
        pthread_attr_t attr;
        sigset_t all, old;
        pthread_attr_init(&attr);
        pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
        /* Workers take no signals: they stay the interpreter's. */
        sigfillset(&all);
        pthread_sigmask(SIG_SETMASK, &all, &old);
        pthread_mutex_lock(&team_lock);
        for (; team_size < width; ++team_size) {
            pthread_t tid;
            team_born[team_size] = team_gen;
            if (pthread_create(&tid, &attr, team_worker,
                               (void *)(intptr_t)team_size) != 0)
                break;
        }
        pthread_mutex_unlock(&team_lock);
        pthread_sigmask(SIG_SETMASK, &old, NULL);
        pthread_attr_destroy(&attr);
    }
    if (team_size < width) {
        __atomic_store_n(&team_busy, 0, __ATOMIC_RELEASE);
        return 0;
    }
    return 1;
}

static void team_run(const job_t *job, int width)
{
    pthread_mutex_lock(&team_lock);
    team_job = job;
    team_width = width;
    team_pending = width - 1;
    ++team_gen;
    pthread_cond_broadcast(&team_wake);
    pthread_mutex_unlock(&team_lock);
    run_slot(job, 0);
    /* The other slots' shares end about when this one does: poll for
     * up to 20 us before sleeping, so the hand-back needs no wake-up. */
    const double until = now() + 20e-6;
    while (__atomic_load_n(&team_pending, __ATOMIC_ACQUIRE) > 0
           && now() < until)
        ;
    pthread_mutex_lock(&team_lock);
    while (team_pending > 0)
        pthread_cond_wait(&team_done, &team_lock);
    pthread_mutex_unlock(&team_lock);
    __atomic_store_n(&team_busy, 0, __ATOMIC_RELEASE);
}
#endif

/* The whole program on the team, or serially in this thread; returns
 * the slots that ran it (1: serially), or -1 when scratch could not
 * be allocated. */
static int run_program(const int64_t *prog, const double *x, double *y,
                       int64_t k, int mm)
{
    job_t job = {prog, x, y, NULL, k, mm};
    int used = 1;
    if (prog[H_SCRATCH] > 0) {
        /* +1: a k = 0 call still gets a real (unused) buffer. */
        job.scratch = calloc((size_t)(prog[H_SCRATCH] * k) + 1,
                             sizeof(double));
        if (job.scratch == NULL)
            return -1;
    }
#ifdef REPRO_TEAM
    const int width = (int)prog[H_WIDTH];
    if (width > 1 && team_claim(width)) {
        team_run(&job, width);
        used = width;
    } else
#endif
        run_panels(&job, 0, prog[H_PANELS]);
    free(job.scratch);
    return used;
}

int repro_run_spmv(const int64_t *prog, const double *x, double *y)
{
    return run_program(prog, x, y, 1, 0);
}

int repro_run_spmm(const int64_t *prog, const double *x, double *y,
                   int64_t k)
{
    return run_program(prog, x, y, k, 1);
}

int repro_team_capable(void)
{
#ifdef REPRO_TEAM
    return 1;
#else
    return 0;
#endif
}
"""


def runner_source() -> str:
    """The C translation unit of the program runner. It builds with
    ``-DREPRO_TEAM -pthread`` where the compiler supports threads and
    runs every program serially without them."""
    words = {**{f"H_{n}": i for i, n in enumerate(PROGRAM_HEADER)},
             **{f"F_{n}": i for i, n in enumerate(TABLE_FIELDS)},
             "HEADER": len(PROGRAM_HEADER), "ENTRY": len(TABLE_FIELDS),
             "KIND_RANGED": KIND_RANGED, "KIND_SELLCS": KIND_SELLCS}
    return ("/* repro generated program runner.\n * Auto-generated by "
            "repro.kernels.cbackend.codegen — do not edit. */\n"
            + "".join(f"#define {k.upper()} {v}\n" for k, v in words.items())
            + _RUNNER)
