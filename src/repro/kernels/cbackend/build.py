"""Runtime build pipeline: C source → cached shared object.

Each variant compiles once with the system C compiler into a shared
object cached on disk. The cache key folds together the generated
source, the compiler identity (``cc --version`` first line plus any
user-supplied flags), the full flag set (base + user + ISA), and
``repro.__version__`` — touching the generator, switching compilers or
flags, or upgrading the library all invalidate stale objects
automatically.

Capability probing (codegen v2)
-------------------------------
SIMD and software-prefetch variants only build when the compiler
demonstrably supports what they need. :func:`compiler_capabilities`
compiles two tiny probe programs once per compiler identity:

* ``simd`` — ``#pragma omp simd reduction`` under ``-fopenmp-simd``;
* ``prefetch`` — ``__builtin_prefetch``.

A compiler that fails a probe simply never gets asked to build the
corresponding variants; the scalar emitter is the guaranteed fallback.
A third probe, :func:`thread_flags`, links a small pthread program: the
program runner (:func:`build_runner`) gets its thread team only where
it passes, and runs every program serially otherwise.

Environment knobs
-----------------
``REPRO_DISABLE_CC``
    Any non-empty value other than ``0`` disables the backend entirely
    (used by CI to prove the pure-NumPy fallback path).
``REPRO_CC``
    Compiler command to use (default: first of ``cc``, ``gcc``,
    ``clang`` on ``PATH``). May embed extra flags, e.g.
    ``REPRO_CC='cc -fno-tree-vectorize'`` — the flags join every build
    and the cache key.
``REPRO_CC_CAPS``
    Capability override, bypassing the probes: a comma/space-separated
    subset of ``simd,prefetch``. ``scalar``, ``none``, or an empty
    value force the scalar-only ladder (the CI degraded-build leg).
``REPRO_CKERNEL_CACHE``
    Cache directory (default ``~/.cache/repro/ckernels``).

Concurrency: compiles run under a process-wide lock and the finished
object lands via an atomic ``os.replace``, so concurrent processes
racing on a cold cache at worst compile the same variant twice — never
load a half-written object.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile
import threading

from ...errors import KernelError
from ...observe import metrics as _metrics
from .codegen import Variant, c_kernel_source, runner_source

#: Flag set baked into every build (and into the cache key).
#: ``-ffp-contract=off`` keeps results identical across FMA and
#: non-FMA hosts; the kernels are memory-bound, so it costs nothing.
CFLAGS = ("-O3", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off",
          "-fno-math-errno")

#: Capabilities the probes can detect (superset of what any one
#: compiler reports).
CAPABILITIES = ("simd", "prefetch")

_COMPILER_CANDIDATES = ("cc", "gcc", "clang")

_lock = threading.Lock()
_compiler_cache: dict[str, tuple[str, str] | None] = {}
#: (probe or object name, compiler identity) -> what the probe found,
#: or where the object was built.
_per_compiler: dict[tuple[str, str], object] = {}


class CBackendUnavailable(KernelError):
    """The C backend cannot run here (no compiler, or disabled)."""


def cc_disabled() -> bool:
    """True when ``REPRO_DISABLE_CC`` switches the backend off."""
    return os.environ.get("REPRO_DISABLE_CC", "0") not in ("", "0")


def compiler_extra_flags() -> tuple[str, ...]:
    """Flags embedded in ``REPRO_CC`` after the executable itself."""
    env = os.environ.get("REPRO_CC")
    if not env:
        return ()
    return tuple(shlex.split(env)[1:])


def find_compiler() -> tuple[str, str] | None:
    """Locate the system compiler: ``(executable, identity line)``.

    Returns None when no compiler is usable or the backend is disabled.
    The identity probe (one ``--version`` run per executable) is cached
    for the life of the process. When ``REPRO_CC`` embeds extra flags,
    they fold into the identity so the object cache distinguishes
    flag sets.
    """
    if cc_disabled():
        return None
    env = os.environ.get("REPRO_CC")
    if env:
        parts = shlex.split(env)
        names = [parts[0]] if parts else []
        extra = " ".join(parts[1:])
    else:
        names = list(_COMPILER_CANDIDATES)
        extra = ""
    for name in names:
        cached = _compiler_cache.get(name, False)
        if cached is not False:
            if cached is not None:
                return cached
            continue
        path = shutil.which(name)
        if path is None:
            _compiler_cache[name] = None
            continue
        try:
            out = subprocess.run(
                [path, "--version"], capture_output=True, text=True,
                timeout=30,
            )
            ident = (out.stdout or out.stderr).splitlines()[0].strip() \
                if (out.stdout or out.stderr) else path
            if out.returncode != 0:
                _compiler_cache[name] = None
                continue
        except (OSError, subprocess.TimeoutExpired, IndexError):
            _compiler_cache[name] = None
            continue
        if extra:
            ident = f"{ident} [{extra}]"
        _compiler_cache[name] = (path, ident)
        return path, ident
    return None


def compiler_available() -> bool:
    return find_compiler() is not None


# ----------------------------------------------------------------------
# Capability probes
# ----------------------------------------------------------------------
#: capability -> (probe translation unit, extra flags the probe and any
#: kernel using the capability must build with).
_CAP_PROBES: dict[str, tuple[str, tuple[str, ...]]] = {
    "simd": (
        "double repro_probe(const double *a, const double *b, int n)\n"
        "{\n"
        "    double s = 0.0;\n"
        "    #pragma omp simd reduction(+:s)\n"
        "    for (int i = 0; i < n; ++i)\n"
        "        s += a[i] * b[i];\n"
        "    return s;\n"
        "}\n",
        ("-fopenmp-simd",),
    ),
    "prefetch": (
        "void repro_probe(const double *p)\n"
        "{\n"
        "    __builtin_prefetch(p, 0, 1);\n"
        "}\n",
        (),
    ),
}


def _compiles(cc_path: str, source: str, flags: tuple[str, ...]) -> bool:
    """Does ``source`` build under ``flags`` (plus ``REPRO_CC``'s)?"""
    tmpdir = tempfile.mkdtemp(prefix="repro_ccprobe_")
    src = os.path.join(tmpdir, "probe.c")
    try:
        with open(src, "w") as f:
            f.write(source)
        proc = subprocess.run(
            [cc_path, *compiler_extra_flags(), *flags, src,
             "-o", os.path.join(tmpdir, "probe.o")],
            capture_output=True, text=True, timeout=30,
        )
        return proc.returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        return False
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _probed(name: str, probe, absent):
    """``probe(cc_path)`` for the active compiler, run once per compiler
    identity; ``absent`` when there is no compiler."""
    cc = find_compiler()
    if cc is None:
        return absent
    key = (name, cc[1])
    if key not in _per_compiler:
        _per_compiler[key] = probe(cc[0])
    return _per_compiler[key]


def compiler_capabilities() -> frozenset[str]:
    """ISA capabilities of the active compiler (probed once, cached).

    ``REPRO_CC_CAPS`` overrides the probes entirely; ``scalar``/
    ``none``/empty mean "no capabilities" (scalar-only ladder).
    Always the empty set when the backend is disabled or absent.
    """
    override = os.environ.get("REPRO_CC_CAPS")
    if override is not None:
        tokens = {t.strip() for t in override.replace(",", " ").split()}
        return frozenset(tokens & set(CAPABILITIES))

    def probe(cc_path: str) -> frozenset[str]:
        caps = frozenset(cap for cap, (source, flags) in _CAP_PROBES.items()
                         if _compiles(cc_path, source, (*flags, "-c")))
        for cap in CAPABILITIES:
            _metrics.gauge("c_backend.capability",
                           1.0 if cap in caps else 0.0, cap=cap)
        return caps

    return _probed("caps", probe, frozenset())


def native_arch_flags() -> tuple[str, ...]:
    """Host-tuning flag the compiler accepts, probed once per compiler.

    ``#pragma omp simd`` without a vector ISA targets baseline SSE2
    (no hardware gather), so the vectorized rungs also build with
    ``-march=native`` (or ``-mcpu=native`` on targets that spell it
    that way). A compiler that rejects both gets no host tuning. The
    scalar rung never uses these flags — it stays the portable,
    bit-stable floor.
    """
    return _probed("native", lambda cc_path: next(
        ((flag,) for flag in ("-march=native", "-mcpu=native")
         if _compiles(cc_path, "int repro_probe(int a) { return a; }\n",
                      (flag, "-Werror", "-c"))), ()), ())


_THREADS_PROBE = """\
#include <pthread.h>
static void *repro_probe_run(void *arg) { return arg; }
int repro_probe(void)
{
    pthread_t tid;
    if (pthread_create(&tid, NULL, repro_probe_run, NULL) != 0)
        return -1;
    return pthread_join(tid, NULL);
}
"""


def _probe_threads(cc_path: str) -> bool:
    """Does a shared object that starts a pthread build and link?"""
    return _compiles(cc_path, _THREADS_PROBE, (*CFLAGS, "-pthread"))


def thread_flags() -> tuple[str, ...]:
    """Flags that give the program runner its thread team, probed once
    per compiler: ``-pthread`` plus the ``REPRO_TEAM`` switch, or
    nothing (every program then runs serially)."""
    return _probed("threads", lambda cc_path: (
        ("-DREPRO_TEAM", "-pthread") if _probe_threads(cc_path) else ()), ())


def isa_build_flags(isa: str) -> tuple[str, ...]:
    """Extra flags an ISA level needs, or raise when unsupported here.

    ``simd`` needs the ``simd`` capability and builds with
    ``-fopenmp-simd`` plus the probed host-tuning flag (hardware
    gather/wide vectors for the lane loops); ``prefetch`` needs the
    ``prefetch`` capability (and picks up the simd flags
    opportunistically so mixed pragma/prefetch kernels vectorize where
    possible). ``scalar`` always builds with the portable base flags
    only.
    """
    if isa == "scalar":
        return ()
    caps = compiler_capabilities()
    if isa == "simd":
        if "simd" not in caps:
            raise KernelError(
                "compiler lacks the 'simd' capability "
                "(#pragma omp simd under -fopenmp-simd)"
            )
        return (*_CAP_PROBES["simd"][1], *native_arch_flags())
    if isa == "prefetch":
        if "prefetch" not in caps:
            raise KernelError(
                "compiler lacks the 'prefetch' capability "
                "(__builtin_prefetch)"
            )
        if "simd" in caps:
            return (*_CAP_PROBES["simd"][1], *native_arch_flags())
        return ()
    raise KernelError(f"unknown ISA level {isa!r}")


def build_flags(variant: Variant) -> tuple[str, ...]:
    """Complete flag set one variant builds with (base + env + ISA)."""
    return (*CFLAGS, *compiler_extra_flags(),
            *isa_build_flags(variant.isa))


def cache_dir() -> str:
    """On-disk shared-object cache directory (created on demand)."""
    root = os.environ.get("REPRO_CKERNEL_CACHE")
    if not root:
        root = os.path.join(
            os.path.expanduser("~"), ".cache", "repro", "ckernels"
        )
    return root


def _host_cpu_id() -> str:
    """Best-effort host CPU identity, for ``-march=native`` cache keys.

    An object tuned for this host's CPU must not be picked up by a
    different host sharing the cache directory (e.g. an NFS home), so
    the CPU model folds into the key whenever host tuning is active.
    """
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.machine() or "unknown-cpu"


def object_key(source: str, compiler_id: str,
               flags: tuple[str, ...]) -> str:
    """Content hash identifying one compiled object."""
    from ... import __version__

    parts = [source, compiler_id, " ".join(flags), __version__]
    if any(f.endswith("=native") for f in flags):
        parts.append(_host_cpu_id())
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _require_compiler() -> tuple[str, str]:
    cc = find_compiler()
    if cc is None:
        raise CBackendUnavailable(
            "no C compiler available (REPRO_DISABLE_CC set, or no "
            "cc/gcc/clang on PATH)"
        )
    return cc


def object_path(variant: Variant, *, compiler_id: str | None = None,
                source: str | None = None) -> str:
    """Cache path a variant's shared object lives at (existing or not)."""
    if source is None:
        source = c_kernel_source(variant)
    if compiler_id is None:
        compiler_id = _require_compiler()[1]
    key = object_key(source, compiler_id, build_flags(variant))
    return os.path.join(cache_dir(), f"{variant.name}_{key}.so")


def build_variant(variant: Variant) -> str:
    """Compile (or fetch from cache) one variant; returns the .so path.

    Raises :class:`CBackendUnavailable` when no compiler is present and
    :class:`KernelError` when compilation itself fails or the variant's
    ISA level is beyond this compiler's probed capabilities.
    """
    cc_path, cc_id = _require_compiler()
    flags = build_flags(variant)   # raises on missing ISA capability
    source = c_kernel_source(variant)
    out_path = object_path(variant, compiler_id=cc_id, source=source)
    return _compile(cc_path, variant.name, source, flags, out_path,
                    variant.isa)


def build_runner() -> str:
    """Compile (or fetch from the disk cache) the program runner, once
    per compiler; returns the .so path. Built with :func:`thread_flags`,
    so it has a thread team exactly where the compiler links pthreads."""
    cc_path, cc_id = _require_compiler()
    key = ("runner", cc_id)
    if key not in _per_compiler:
        flags = (*CFLAGS, *compiler_extra_flags(), *thread_flags())
        source = runner_source()
        out_path = os.path.join(
            cache_dir(), f"runner_{object_key(source, cc_id, flags)}.so")
        _per_compiler[key] = _compile(cc_path, "runner", source, flags,
                                      out_path, "runner")
    return _per_compiler[key]


def _compile(cc_path: str, name: str, source: str,
             flags: tuple[str, ...], out_path: str, label: str) -> str:
    """``source`` built with ``flags`` into ``out_path``, unless the
    cache already holds it; counted under ``isa=label``."""
    if os.path.exists(out_path):
        _metrics.inc("c_backend.cache_hits", isa=label)
        return out_path
    with _lock:
        if os.path.exists(out_path):  # lost the race inside the process
            _metrics.inc("c_backend.cache_hits", isa=label)
            return out_path
        os.makedirs(cache_dir(), exist_ok=True)
        fd, tmp_so = tempfile.mkstemp(
            suffix=".so.tmp", prefix=name + "_", dir=cache_dir(),
        )
        os.close(fd)
        src_path = tmp_so + ".c"
        try:
            with open(src_path, "w") as f:
                f.write(source)
            proc = subprocess.run(
                [cc_path, *flags, src_path, "-o", tmp_so],
                capture_output=True, text=True, timeout=120,
            )
            if proc.returncode != 0:
                raise KernelError(
                    f"C compilation of {name} failed "
                    f"({cc_path}): {proc.stderr.strip()[:2000]}"
                )
            os.replace(tmp_so, out_path)   # atomic publish
            _metrics.inc("c_backend.compiles", isa=label)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise KernelError(
                f"C compilation of {name} failed: {exc}"
            ) from exc
        finally:
            for path in (src_path, tmp_so):
                try:
                    os.unlink(path)
                except OSError:
                    pass
    return out_path


# ----------------------------------------------------------------------
# Cache maintenance (the `repro kernels` CLI surface)
# ----------------------------------------------------------------------
def cache_stats() -> dict:
    """Objects and bytes resident in the on-disk kernel cache."""
    root = cache_dir()
    objects = 0
    total = 0
    try:
        for name in os.listdir(root):
            if name.endswith(".so"):
                objects += 1
                try:
                    total += os.path.getsize(os.path.join(root, name))
                except OSError:
                    pass
    except OSError:
        pass
    return {"dir": root, "objects": objects, "bytes": total}


def purge_cache() -> int:
    """Delete every cached object (and stray temp files); returns the
    number of files removed. Loaded kernels keep working — the mapped
    objects stay alive until process exit."""
    root = cache_dir()
    removed = 0
    try:
        names = os.listdir(root)
    except OSError:
        return 0
    for name in names:
        if name.endswith((".so", ".so.tmp", ".c")):
            try:
                os.unlink(os.path.join(root, name))
                removed += 1
            except OSError:
                pass
    return removed
