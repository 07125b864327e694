"""Provenance block: the conditions a number was measured under.

Printed with every output so two numbers are never compared across
different hosts, compilers, seeds, plans or ISA rungs unknowingly.
Nothing here forks: the git commit is read from ``.git`` by hand (the
driver's checkout has none — it reads ``unknown``) and the compiler
identity comes from the probe the program already ran and cached.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy
import scipy

import repro
from repro.errors import KernelError
from repro.formats.blocked import CacheBlockedMatrix
from repro.kernels.cbackend import find_compiler, get_best_c_kernel

from .run import ROOT


def git_commit() -> str:
    """HEAD's commit id without running git; ``unknown`` outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def cache_sizes() -> dict[str, str]:
    """``{"L1 Data": "48K", "L2 Unified": "2048K", ...}`` for cpu0."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def cache_bytes(size: str) -> int:
    """``"2048K"`` → bytes."""
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if size and size[-1] in units:
        return int(size[:-1]) * units[size[-1]]
    return int(size)


def isa_rungs(matrix, backend: str) -> list[str]:
    """The compiled variant (format, tile, index width, ISA rung) each
    distinct block format of ``matrix`` dispatches to in this process.
    The rung is the winner of a timed race at first use, so it can
    differ between runs of the same code on the same host."""
    if backend != "c":
        return [backend]
    blocks = ([b.matrix for b in matrix.blocks]
              if isinstance(matrix, CacheBlockedMatrix) else [matrix])
    names = set()
    for m in blocks:
        fmt = m.format_name
        if fmt == "csr":
            key = (fmt, 1, 1, m.index_width)
        elif fmt == "sellcs":
            key = (fmt, m.chunk, 1, m.index_width)
        elif fmt in ("bcsr", "bcoo"):
            key = (fmt, m.r, m.c, m.index_width)
        else:
            names.add(f"{fmt}:numpy")
            continue
        try:
            names.add(get_best_c_kernel(*key).variant.name)
        except KernelError:
            names.add(f"{fmt}:numpy")
    return sorted(names)


def host() -> dict:
    """The part of the block that does not depend on the workload."""
    cc = find_compiler()
    return {
        "git_commit": git_commit(),
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "cc": cc[1] if cc is not None else "none",
    }
