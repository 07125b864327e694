"""Command-line interface: ``python -m repro <command>``.

Commands
--------
machines            Table 1: the evaluated machine models.
suite [--scale]     Table 3: generate the matrix suite, print structure.
tune MATRIX         Tune one matrix for one machine and simulate it.
sweep MATRIX        The Figure 1 ladder for one matrix on one machine.
compare MATRIX      All five machines on one matrix (mini Figure 2a).
stats MATRIX        Bottleneck-attribution table over the sweep ladder.
info FILE           Structure report for a MatrixMarket/.npz file.
validate            Analytic-vs-exact cache traffic validation sweep.
serve               Long-running batched SpMV HTTP service.
trace TRACE_ID      Fetch one request's merged span tree (HTTP →
                    scheduler → worker, and router → node on a
                    cluster) from a running server and render it as an ASCII tree;
                    ``--slow`` lists recent SLO outliers instead.
plan-cache          Inspect or clear the on-disk tuned-plan cache
                    (its tuned envelopes are the autoplan training
                    set, so ``clear`` drops that too).
autoplan            Learned plan selection: ``train`` a model from a
                    plan-cache directory, ``predict`` a plan for one
                    matrix, or print the stratified-holdout accuracy
                    ``report``.
cluster             Multi-node serving tier: run a ``node`` (``serve``
                    under the cluster's defaults: binary wire + HTTP
                    on one free port) or a ``router`` (consistent-hash
                    placement, replica failover).
kernels             List compiled C kernel variants and cache status.

Every command accepts ``--trace FILE`` (JSONL spans, load with
:func:`repro.observe.read_trace`) and ``--trace-chrome FILE`` (Chrome
trace-event JSON, open in ``about://tracing`` or Perfetto). Both run
the command under one sampled root trace
(:func:`repro.observe.recording`) and write, at exit, every trace its
hub holds: the command's own tree, and for ``serve`` / ``cluster`` the
sampled request traces too.

``serve`` and ``cluster node`` are one handler over one flag
declaration, differing in the ``--port`` default and the banner.
Nothing here times anything: the one benchmark is ``benchmarks/e2e``.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .analysis import format_table
from .analysis.report import format_bar_chart
from .core import Role, SpmvEngine, role_point
from .errors import ClusterError, ServeError
from .machines import all_machines, get_machine, machine_names
from .matrices import (
    compute_stats,
    generate,
    load_matrix,
    load_matrix_market,
    suite_table,
)


def _cmd_machines(args) -> int:
    rows = []
    for m in all_machines():
        d = m.describe()
        rows.append([
            d["name"],
            f"{d['sockets']}x{d['cores_per_socket']}x"
            f"{d['threads_per_core']}",
            d["clock_ghz"], d["dp_gflops_system"], d["dram_gbs"],
            d["flop_byte"], d["llc_mb_total"], d["watts_system"],
        ])
    print(format_table(
        ["machine", "SxCxT", "GHz", "GF/s", "GB/s", "F:B", "LLC MB",
         "W"],
        rows, title="Evaluated machine models (paper Table 1)",
        float_fmt="{:.2f}",
    ))
    return 0


def _cmd_suite(args) -> int:
    rows = [
        [r["name"], r["rows"], r["cols"], r["nnz"],
         round(r["nnz_per_row"], 1), r["notes"]]
        for r in suite_table(scale=args.scale)
    ]
    print(format_table(
        ["matrix", "rows", "cols", "nnz", "nnz/row", "origin"], rows,
        title=f"Matrix suite at scale {args.scale} (paper Table 3)",
    ))
    return 0


def _load_or_generate(args):
    if args.matrix.endswith((".mtx", ".mtx.gz", ".npz")):
        if args.matrix.endswith(".npz"):
            return load_matrix(args.matrix)
        return load_matrix_market(args.matrix)
    return generate(args.matrix, scale=args.scale, seed=args.seed)


def _cmd_tune(args) -> int:
    coo = _load_or_generate(args)
    engine = SpmvEngine(get_machine(args.machine))
    threads = args.threads or engine.machine.n_cores
    plan = engine.plan(coo, n_threads=threads)
    res = engine.simulate(plan)
    d = plan.describe()
    print(f"matrix    : {args.matrix} "
          f"({coo.nrows}x{coo.ncols}, {coo.nnz_logical:,} nnz)")
    print(f"machine   : {args.machine}, {threads} threads")
    print(f"blocks    : {d['n_blocks']} ({d['block_formats']})")
    print(f"footprint : {d['footprint_bytes'] / 1e6:.2f} MB "
          f"(naive: {16 * coo.nnz_logical / 1e6:.2f} MB)")
    print(f"simulated : {res.gflops:.3f} Gflop/s, "
          f"{res.sustained_gbs:.2f} GB/s, {res.bottleneck}-bound")
    return 0


def _cmd_sweep(args) -> int:
    coo = _load_or_generate(args)
    results = SpmvEngine(get_machine(args.machine)).simulate_ladder(coo)
    print(format_bar_chart(
        list(results), [r.gflops for r in results.values()],
        unit=" GF/s",
        title=f"{args.matrix} on {args.machine} (Figure 1 ladder)",
    ))
    return 0


def _cmd_compare(args) -> int:
    coo = _load_or_generate(args)
    labels, values = [], []
    for name in machine_names():
        machine = get_machine(name)
        point = role_point(machine, Role.SYSTEM)
        res = SpmvEngine(machine).simulate_ladder(coo, [point])
        labels.append(name)
        values.append(res[point.label].gflops)
    print(format_bar_chart(
        labels, values, unit=" GF/s",
        title=f"{args.matrix}: full-system simulated performance",
    ))
    return 0


def _cmd_stats(args) -> int:
    """Bottleneck attribution over the Figure-1 ladder of one matrix:
    where does modeled time go (memory vs compute vs latency), per
    configuration — plus the engine's own counters for the run."""
    from .observe.metrics import get_registry
    from .simulator.bottleneck import BottleneckAttribution

    coo = _load_or_generate(args)
    att = BottleneckAttribution()
    engine = SpmvEngine(get_machine(args.machine))
    for label, res in engine.simulate_ladder(coo).items():
        att.add(res, matrix=args.matrix, label=label)
    print(att.table(
        group_by=("label",),
        title=f"{args.matrix} on {args.machine}: bottleneck attribution "
              f"(time shares of modeled work)",
    ))
    print()
    print("engine counters")
    print(get_registry().render())
    return 0


def _cmd_info(args) -> int:
    if args.file.endswith(".npz"):
        coo = load_matrix(args.file)
    else:
        coo = load_matrix_market(args.file)
    s = compute_stats(coo)
    rows = [
        ["shape", f"{s.nrows} x {s.ncols}"],
        ["nonzeros", f"{s.nnz:,}"],
        ["nnz/row", f"{s.nnz_per_row_mean:.2f} "
                    f"(min {s.nnz_per_row_min}, max {s.nnz_per_row_max})"],
        ["empty rows", s.empty_rows],
        ["density", f"{s.density:.2e}"],
        ["diag spread", f"{s.diag_spread:.3f}"],
        ["best block", f"{s.best_block()} "
                       f"(fill {s.block_fill[s.best_block()]:.2f})"],
    ]
    print(format_table(["property", "value"], rows, title=args.file))
    return 0


def _cmd_figures(args) -> int:
    """Render one machine's Figure 1 panel from the paper snapshot."""
    import json
    import os

    from .analysis.figures import render_figure1_panel

    if not os.path.exists(args.snapshot):
        print(f"no paper snapshot at {args.snapshot}; run "
              f"`python benchmarks/paper.py` first", file=sys.stderr)
        return 1
    with open(args.snapshot) as f:
        data = json.load(f)["figure1"][args.machine]
    columns = list(dict.fromkeys(k for bars in data.values() for k in bars))
    print(render_figure1_panel(args.machine, data, columns))
    return 0


def _cmd_validate(args) -> int:
    from .analysis.validation import validation_sweep
    from .formats import coo_to_csr

    cache = get_machine(args.machine).last_level_cache
    if cache is None:
        print("local-store machine: nothing to validate", file=sys.stderr)
        return 1
    mats = {
        name: coo_to_csr(generate(name, scale=args.scale, seed=0))
        for name in ["FEM-Har", "Econom", "Epidem", "Circuit"]
    }
    pts = validation_sweep(mats, cache)
    rows = [[p.label, p.exact_x_bytes / 1e6, p.model_x_bytes / 1e6,
             p.ratio] for p in pts]
    print(format_table(
        ["matrix", "exact x MB", "model x MB", "model/exact"], rows,
        title=f"source-vector traffic: analytic model vs exact "
              f"{args.machine} LLC simulation",
    ))
    return 0


def _run_forever(banner: str, address: str, closer) -> int:
    """Block until Ctrl-C or SIGTERM, then run ``closer``."""
    import signal
    import threading

    # The READY line is the spawn contract: parents (the smoke
    # test, operators' scripts) parse it to learn the bound port.
    print(f"READY {address}", flush=True)
    print(banner, file=sys.stderr)
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *a: stop.set())
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    finally:
        closer()
    return 0


def _cmd_serve(args) -> int:
    """``repro serve`` and ``repro cluster node``: one service on one
    port; only the ``--port`` default and the banner differ."""
    from .serve import ServeClient, start_server, stop_server

    try:
        client = ServeClient(
            machine=args.machine,
            n_threads=args.threads,
            plan_cache_dir=args.plan_cache,
            capacity_bytes=(
                int(args.capacity_mb * 1e6) if args.capacity_mb else None
            ),
            max_batch=args.max_batch,
            flush_deadline_s=args.flush_deadline_ms / 1e3,
            max_queue=args.max_queue,
            n_workers=args.workers,
            backend=args.backend,
            trace_sample_rate=args.trace_sample_rate,
            slo_ms=args.slo_ms,
            plan_mode=args.plan_mode,
            perf_watch=args.perf_watch,
            profile_dir=args.profile_dir,
        )
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    httpd = start_server(client, host=args.host, port=args.port)

    def _close() -> None:
        print("draining in-flight batches ...", file=sys.stderr)
        stop_server(httpd)
        client.close()

    if args.command == "cluster":
        banner = f"cluster node at {httpd.address} (Ctrl-C stops)"
    else:
        banner = (f"serving SpMV for {args.machine!r} at "
                  f"http://{args.host}:{httpd.port} "
                  f"(plan cache: {args.plan_cache or 'off'}; "
                  f"Ctrl-C drains)")
    return _run_forever(banner, httpd.address, _close)


def _cmd_cluster(args) -> int:
    """Multi-node serving: run a node or a router."""
    if args.action == "node":
        return _cmd_serve(args)

    from .cluster.router import RetryPolicy, start_router

    nodes = [n.strip() for n in (args.nodes or "").split(",")
             if n.strip()]
    if not nodes:
        print("error: router needs --nodes host:port[,host:port...]",
              file=sys.stderr)
        return 2
    router = start_router(
        nodes,
        replication=args.replication,
        host=args.host, port=args.port,
        retry=RetryPolicy(max_retries=args.max_retries),
        health_interval_s=args.health_interval_ms / 1e3,
    )
    return _run_forever(
        f"cluster router at {router.address} (Ctrl-C stops)",
        router.address, router.close)


def _cmd_perf(args) -> int:
    """Roofline observability: measure/show host ceilings, or fetch a
    running server's perf report."""
    import json as _json

    if args.action == "ceilings":
        from .observe.perf import get_ceilings, host_fingerprint

        ceilings = get_ceilings(args.cache, remeasure=args.measure)
        if args.json:
            print(_json.dumps({"host": host_fingerprint(),
                               "ceilings": ceilings.to_json()},
                              indent=2))
            return 0
        print(f"host: {host_fingerprint()['cpu']} "
              f"({ceilings.n_cores} cores)")
        print(f"  copy   {ceilings.copy_gbs_single:8.2f} GB/s single"
              f"  {ceilings.copy_gbs_all:8.2f} GB/s all-core")
        print(f"  triad  {ceilings.triad_gbs_single:8.2f} GB/s single"
              f"  {ceilings.triad_gbs_all:8.2f} GB/s all-core")
        print(f"  peak   {ceilings.peak_gflops_single:8.2f} GF/s single"
              f"  {ceilings.peak_gflops_all:8.2f} GF/s all-core")
        for be, rate in sorted(ceilings.spmv_probe_gflops.items()):
            print(f"  spmv probe [{be}] {rate:.3f} GF/s")
        return 0

    # report
    from .cluster.client import http_fetch

    url = args.url.rstrip("/") + "/v1/debug/perf"
    try:
        report = http_fetch(url, timeout_s=args.timeout)
    except ClusterError as exc:
        print(f"error: cannot fetch {url}: {exc.__cause__}",
              file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(report, indent=2))
        return 0
    print(f"perf_watch: {report.get('perf_watch')}")
    ceilings = report.get("ceilings")
    if ceilings:
        print(f"ceilings: {ceilings['n_cores']} cores, sustained "
              f"{max(ceilings['copy_gbs_all'], ceilings['triad_gbs_all'], ceilings['copy_gbs_single'], ceilings['triad_gbs_single']):.2f} GB/s")
    print(f"regressions: {report.get('regressions', 0)}")
    for row in report.get("bottom_fractions", []):
        print(f"  low  {row['roofline_fraction']:6.3f}  "
              f"{row['fingerprint']}")
    for row in report.get("top_fractions", []):
        print(f"  high {row['roofline_fraction']:6.3f}  "
              f"{row['fingerprint']}")
    for ev in report.get("events", []):
        print(f"  regression {ev['fingerprint']} [{ev['key']}]: "
              f"{ev['baseline_gflops']:.3f} -> "
              f"{ev['observed_gflops']:.3f} GF/s")
    return 0


def _render_span_tree(nodes: list, indent: str = "") -> list[str]:
    lines = []
    for i, nd in enumerate(nodes):
        last = i == len(nodes) - 1
        branch = "`- " if last else "|- "
        extras = " ".join(
            f"{k}={v}" for k, v in sorted(nd.get("args", {}).items())
            if v not in ("", None, [])
        )
        lines.append(
            f"{indent}{branch}{nd['name']}  "
            f"{nd.get('dur_us', 0.0) / 1e3:.3f} ms  "
            f"pid={nd.get('pid', '?')}"
            + (f"  [{extras}]" if extras else "")
        )
        lines.extend(_render_span_tree(
            nd.get("children", []),
            indent + ("   " if last else "|  "),
        ))
    return lines


def _cmd_trace(args) -> int:
    """Fetch and render a merged span tree (or the slow-request list)
    from a running ``repro serve`` instance."""
    import json as _json

    from .cluster.client import http_fetch

    base = args.url.rstrip("/")
    if args.slow:
        url = f"{base}/v1/debug/slow"
    elif args.trace_id:
        url = f"{base}/v1/debug/trace/{args.trace_id}"
    else:
        print("need a TRACE_ID (or --slow)", file=sys.stderr)
        return 2
    try:
        body = http_fetch(url, timeout_s=args.timeout, who="server")
    except ClusterError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(body, indent=2))
        return 0
    if args.slow:
        slow = body.get("slow", [])
        if not slow:
            print("(no slow requests recorded)")
            return 0
        rows = [
            [s["trace_id"] or "-", s["op"], s["fingerprint"],
             s["total_ms"], s["threshold_ms"],
             " ".join(f"{k}={v}" for k, v in s["phases_ms"].items())]
            for s in slow
        ]
        print(format_table(
            ["trace", "op", "matrix", "ms", "slo ms", "phases (ms)"],
            rows, title=f"recent SLO outliers at {base}",
        ))
        return 0
    spans = body.get("spans", [])
    print(f"trace {body.get('trace_id', args.trace_id)}")
    for line in _render_span_tree(spans):
        print(line)
    return 0


def _cmd_kernels(args) -> int:
    """Compiled-variant inventory: cache status per (fmt, tile, width,
    ISA), this compiler's probed capabilities, and cache statistics."""
    import os

    from .formats.base import IndexWidth
    from .formats.bcsr import POWER_OF_TWO_BLOCKS
    from .formats.sellcs import DEFAULT_CHUNK
    from .kernels.cbackend import (
        SUPPORTED_ISAS,
        Variant,
        c_backend_available,
        cache_dir,
        cache_stats,
        compiler_capabilities,
        find_compiler,
        get_c_kernel,
        loaded_variants,
        object_path,
        purge_cache,
    )

    if args.purge:
        stats = cache_stats()
        removed = purge_cache()
        print(f"purged {removed} cached object(s) "
              f"({stats['bytes']:,} bytes) from {stats['dir']}")
        return 0
    if not c_backend_available():
        print("C backend unavailable (REPRO_DISABLE_CC set, or no "
              "cc/gcc/clang on PATH); NumPy fallback is active",
              file=sys.stderr)
        return 1
    caps = compiler_capabilities()
    bases = [("csr", 1, 1), ("sellcs", DEFAULT_CHUNK, 1)]
    for fmt in ("bcsr", "bcoo"):
        bases.extend((fmt, r, c) for r, c in POWER_OF_TWO_BLOCKS)
    variants = []
    for fmt, r, c in bases:
        for w in (IndexWidth.I16, IndexWidth.I32):
            for isa in SUPPORTED_ISAS[fmt]:
                variants.append(Variant(fmt, r, c, w, isa))
    if args.warm:
        for v in variants:
            if v.isa == "scalar" or v.isa in caps:
                get_c_kernel(v.fmt, v.r, v.c, v.index_width, isa=v.isa)
    loaded = {v.name for v in loaded_variants()}
    rows = []
    for v in variants:
        capable = v.isa == "scalar" or v.isa in caps
        # object_path refuses uncapable ISAs (their build flags don't
        # exist on this compiler), so only resolve it when capable.
        path = object_path(v) if capable else ""
        compiled = capable and os.path.exists(path)
        status = ("validated" if v.name in loaded
                  else "compiled" if compiled
                  else "-" if capable else "uncapable")
        rows.append([
            v.fmt, f"{v.r}x{v.c}", v.bits, v.isa,
            "yes" if capable else "no", status,
            os.path.basename(path) if compiled else "-",
        ])
    cc = find_compiler()
    print(format_table(
        ["format", "tile", "idx bits", "isa", "capable", "status",
         "cached object"],
        rows,
        title=f"C kernel variants — compiler: {cc[1] if cc else 'none'} "
              f"— capabilities: {', '.join(caps) or 'scalar only'}",
    ))
    stats = cache_stats()
    print(f"\ncache {cache_dir()}: {stats['objects']} object(s), "
          f"{stats['bytes']:,} bytes")
    return 0


def _cmd_plan_cache(args) -> int:
    from .serve import PlanCache

    cache = PlanCache(args.dir)
    if args.action == "clear":
        print(f"removed {cache.clear()} cached plan(s) from {args.dir}")
        return 0
    entries = cache.entries()
    if not entries:
        print(f"(no cached plans in {args.dir})")
        return 0
    rows = [
        [e["machine"], e["fingerprint"], e["model_version"],
         e["n_blocks"], e["n_threads"],
         "yes" if e["fresh"] else "STALE", e["bytes"]]
        for e in entries
    ]
    print(format_table(
        ["machine", "fingerprint", "version", "blocks", "threads",
         "fresh", "bytes"],
        rows, title=f"tuned-plan cache at {args.dir}",
    ))
    return 0


def _cmd_autoplan(args) -> int:
    import json as _json
    import os

    from .autoplan import PlanModel, holdout_report, train_model
    from .autoplan.predictor import MODEL_FILENAME

    if not args.dir:
        print(f"autoplan {args.action} needs --dir (a plan-cache "
              f"directory)", file=sys.stderr)
        return 2
    model_path = os.path.join(args.dir, MODEL_FILENAME)

    if args.action in ("train", "report"):
        from .serve import PlanCache

        samples = PlanCache(args.dir).samples()

    if args.action == "train":
        if not samples:
            print(f"no tuned plans to train on in {args.dir}",
                  file=sys.stderr)
            return 1
        model = train_model(samples, k=args.k)
        path = model.save(model_path)
        labels = sorted({s.label for s in samples})
        print(f"trained on {len(samples)} sample(s), "
              f"{len(labels)} class(es) {labels}")
        print(f"model artifact: {path}")
        return 0

    if args.action == "report":
        report = holdout_report(
            samples, holdout_frac=args.holdout, seed=args.seed, k=args.k,
        )
        if args.json:
            print(_json.dumps(report, indent=2))
            return 0
        rows = [[k, report[k]] for k in
                ("n_samples", "n_train", "n_test",
                 "top1_label_accuracy", "format_accuracy")]
        for label, st in report["per_label"].items():
            rows.append([f"  {label}",
                         f"{st['accuracy']:.2f} (n={st['n']})"
                         if st["accuracy"] is not None else "-"])
        print(format_table(
            ["metric", "value"], rows,
            title=f"autoplan holdout report ({args.dir})",
        ))
        return 0

    # predict
    model = PlanModel.load(model_path)
    if model is None:
        print(f"no loadable model at {model_path} "
              f"(missing, corrupt, or version-stale)", file=sys.stderr)
        return 1
    from .autoplan import extract_features
    from .autoplan.sweep import config_for_label, dominant_format

    coo = _load_or_generate(args)
    fv = extract_features(coo)
    label, confidence = model.predict(fv.values)
    decision = ("predict" if confidence >= args.threshold
                else "fallback to sweep")
    engine = SpmvEngine(get_machine(args.machine))
    threads = args.threads or engine.machine.n_cores
    plan = engine.plan(
        coo, n_threads=threads,
        config=config_for_label(engine.machine, label, threads),
    )
    print(f"matrix     : {args.matrix} "
          f"({coo.nrows}x{coo.ncols}, {coo.nnz_logical:,} nnz)")
    print(f"prediction : {label} (confidence {confidence:.2f}, "
          f"threshold {args.threshold:.2f} -> {decision})")
    print(f"plan       : {dominant_format(plan)} dominant, "
          f"{plan.describe()['n_blocks']} block(s), "
          f"{threads} thread(s) on {args.machine}")
    return 0


def _add_server_flags(sp, *, port: int) -> None:
    """The flags of ``repro serve`` and ``repro cluster node``."""
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=port,
                    help="0 picks a free port (printed on the READY "
                         "line)")
    sp.add_argument("--machine", default="AMD X2",
                    choices=machine_names())
    sp.add_argument("--threads", type=int, default=None,
                    help="plan thread count (default: machine cores)")
    sp.add_argument("--plan-cache", metavar="DIR", default=None,
                    help="persist tuned plans under DIR")
    sp.add_argument("--capacity-mb", type=float, default=None,
                    help="registry footprint bound (LRU eviction)")
    sp.add_argument("--max-batch", type=int, default=8,
                    help="max requests coalesced into one SpMM")
    sp.add_argument("--flush-deadline-ms", type=float, default=2.0,
                    help="max wait before a partial batch dispatches")
    sp.add_argument("--max-queue", type=int, default=1024,
                    help="admission bound (full queue answers 429)")
    sp.add_argument("--workers", type=int, default=None,
                    help="worker threads (default: machine cores)")
    sp.add_argument("--backend", choices=["numpy", "c", "auto"],
                    default="numpy",
                    help="execution backend (c = runtime-compiled "
                         "kernels; auto falls back to numpy without "
                         "a compiler)")
    sp.add_argument("--trace-sample-rate", type=float, default=0.0,
                    help="fraction of requests recording full span "
                         "trees (0 disables; outliers force-sample "
                         "regardless)")
    sp.add_argument("--slo-ms", type=float, default=None,
                    help="explicit latency SLO; slower requests are "
                         "sampled and listed at /v1/debug/slow")
    sp.add_argument("--plan-mode",
                    choices=["heuristic", "auto", "tune"],
                    default="heuristic",
                    help="cold-registration planning: heuristic "
                         "(one-pass), auto (learned model, sweep "
                         "fallback; needs --plan-cache, which holds "
                         "the model), tune (always sweep)")
    sp.add_argument("--perf-watch", action="store_true",
                    help="roofline attribution + regression watchdog "
                         "(measures host ceilings on first run, "
                         "cached; see /v1/debug/perf)")
    sp.add_argument("--profile-dir", metavar="DIR", default=None,
                    help="opt-in stack sampling profiler: writes "
                         "DIR/serve-parent.stacks, collapsed stacks "
                         "that flamegraph.pl or speedscope read as is")


def build_parser() -> argparse.ArgumentParser:
    # Tracing flags are shared by every subcommand (argparse "global"
    # options placed before the subcommand do not survive subparser
    # parsing, so the flags live on each subparser via `parents` —
    # SUPPRESS keeps an unset subcommand flag from clobbering one given
    # before the subcommand).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--trace", metavar="FILE", default=argparse.SUPPRESS,
        help="write JSONL spans of this run to FILE",
    )
    common.add_argument(
        "--trace-chrome", metavar="FILE", default=argparse.SUPPRESS,
        help="write a Chrome about://tracing JSON trace to FILE",
    )
    p = argparse.ArgumentParser(
        prog="repro",
        description="SC'07 multicore SpMV optimization — reproduction",
    )
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("--trace", metavar="FILE", default=None,
                   help=argparse.SUPPRESS)
    p.add_argument("--trace-chrome", metavar="FILE", default=None,
                   help=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("machines", help="print the machine models",
                   parents=[common])

    sp = sub.add_parser("suite", help="generate and describe the suite",
                        parents=[common])
    sp.add_argument("--scale", type=float, default=0.05)

    for name, helptext in [("tune", "tune one matrix"),
                           ("sweep", "optimization ladder"),
                           ("compare", "all machines"),
                           ("stats", "bottleneck attribution table")]:
        sp = sub.add_parser(name, help=helptext, parents=[common])
        sp.add_argument("matrix",
                        help="suite name, .mtx file, or .npz file")
        sp.add_argument("--machine", default="AMD X2",
                        choices=machine_names())
        sp.add_argument("--scale", type=float, default=0.1)
        sp.add_argument("--seed", type=int, default=0)
        if name == "tune":
            sp.add_argument("--threads", type=int, default=None)

    sp = sub.add_parser("info", help="describe a matrix file",
                        parents=[common])
    sp.add_argument("file")

    sp = sub.add_parser("validate",
                        help="traffic model vs exact cache simulation",
                        parents=[common])
    sp.add_argument("--machine", default="AMD X2",
                    choices=machine_names())
    sp.add_argument("--scale", type=float, default=0.02)

    sp = sub.add_parser("figures",
                        help="render a Figure 1 panel of the paper "
                             "snapshot as ASCII",
                        parents=[common])
    sp.add_argument("snapshot", nargs="?",
                    default="benchmarks/snapshots/PAPER.json",
                    help="written by benchmarks/paper.py")
    sp.add_argument("--machine", default="AMD X2", choices=machine_names())

    sp = sub.add_parser("serve", help="run the batched SpMV service",
                        parents=[common])
    _add_server_flags(sp, port=8377)

    sp = sub.add_parser(
        "trace",
        help="fetch a merged span tree from a running server",
        parents=[common],
    )
    sp.add_argument("trace_id", nargs="?", default=None,
                    help="trace id (from X-Repro-Trace or "
                         "/v1/debug/slow)")
    sp.add_argument("--url", default="http://127.0.0.1:8377",
                    help="base URL of the repro serve instance")
    sp.add_argument("--slow", action="store_true",
                    help="list recent SLO outliers instead")
    sp.add_argument("--json", action="store_true",
                    help="print the raw JSON response")
    sp.add_argument("--timeout", type=float, default=5.0)

    sp = sub.add_parser(
        "cluster",
        help="multi-node serving: node / router",
        parents=[common],
    )
    sp.add_argument("action", choices=["node", "router"])
    _add_server_flags(sp, port=0)
    sp.add_argument("--nodes", default=None,
                    help="router: comma-separated node addresses "
                         "(host:port,host:port,...)")
    sp.add_argument("--replication", type=int, default=2,
                    help="router: replicas per matrix")
    sp.add_argument("--max-retries", type=int, default=3,
                    help="router: bounded failover retries")
    sp.add_argument("--health-interval-ms", type=float, default=500.0,
                    help="router: node health-probe period")

    sp = sub.add_parser(
        "kernels",
        help="list compiled C kernel variants and cache status",
        parents=[common],
    )
    sp.add_argument("--warm", action="store_true",
                    help="compile + validate every variant first")
    sp.add_argument("--purge", action="store_true",
                    help="delete every cached kernel object and exit")

    sp = sub.add_parser("plan-cache",
                        help="inspect or clear the tuned-plan store",
                        parents=[common])
    sp.add_argument("action", choices=["inspect", "clear"])
    sp.add_argument("--dir", required=True,
                    help="plan cache directory (serve --plan-cache)")

    sp = sub.add_parser(
        "perf",
        help="roofline observability: ceilings / report",
        parents=[common],
    )
    sp.add_argument("action", choices=["ceilings", "report"])
    sp.add_argument("--measure", action="store_true",
                    help="ceilings: force a re-measurement even when "
                         "a valid cache exists")
    sp.add_argument("--cache", default=None,
                    help="ceilings cache path (default "
                         "~/.cache/repro/ceilings.json or "
                         "REPRO_CEILINGS_CACHE)")
    sp.add_argument("--url", default="http://127.0.0.1:8377",
                    help="report: base URL of the repro serve "
                         "instance")
    sp.add_argument("--timeout", type=float, default=5.0)
    sp.add_argument("--json", action="store_true",
                    help="print raw JSON")

    sp = sub.add_parser(
        "autoplan",
        help="learned plan selection: train / predict / report",
        parents=[common],
    )
    sp.add_argument("action", choices=["train", "predict", "report"])
    sp.add_argument("matrix", nargs="?", default=None,
                    help="predict: suite name, .mtx file, or .npz file")
    sp.add_argument("--dir", default=None,
                    help="plan cache directory (serve --plan-cache): "
                         "its tuned plans are the training set, and "
                         "the model is saved beside them")
    sp.add_argument("--machine", default="AMD X2",
                    choices=machine_names())
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--scale", type=float, default=0.1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--k", type=int, default=5,
                    help="k-NN neighborhood size")
    sp.add_argument("--holdout", type=float, default=0.25,
                    help="report: holdout fraction")
    sp.add_argument("--threshold", type=float, default=0.6,
                    help="predict: confidence below this falls back")
    sp.add_argument("--json", action="store_true",
                    help="report: print raw JSON")
    return p


_COMMANDS = {
    "machines": _cmd_machines,
    "suite": _cmd_suite,
    "tune": _cmd_tune,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "stats": _cmd_stats,
    "info": _cmd_info,
    "validate": _cmd_validate,
    "figures": _cmd_figures,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "plan-cache": _cmd_plan_cache,
    "autoplan": _cmd_autoplan,
    "perf": _cmd_perf,
    "cluster": _cmd_cluster,
    "kernels": _cmd_kernels,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    chrome_path = getattr(args, "trace_chrome", None)
    if not (trace_path or chrome_path):
        return _COMMANDS[args.command](args)

    import json

    from .observe.hub import recording
    from .observe.trace import encode_chrome, encode_jsonl

    try:
        with recording(f"repro.{args.command}") as events:
            return _COMMANDS[args.command](args)
    finally:
        if trace_path:
            with open(trace_path, "w") as f:
                f.write(encode_jsonl(events))
            print(f"wrote {len(events)} spans to {trace_path}",
                  file=sys.stderr)
        if chrome_path:
            with open(chrome_path, "w") as f:
                json.dump(encode_chrome(events), f)
            print(f"wrote {len(events)} spans to {chrome_path} "
                  f"(open in about://tracing)", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
