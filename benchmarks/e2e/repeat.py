"""``--repeat-check N``: evidence that the bounds in BENCHMARK.json hold.

Runs two sets, A and B, of N untraced runs per workload, interleaved
in time (run k of A, run k of B, run k+1 of A, …) because host
contention on a shared machine is correlated over tens of seconds and
two sets measured one after the other would each see a different
host. Run k of either set uses ``--seed S+k``, so with N = 10 this is
the acceptance procedure itself, twice over. Every run is its own
process, started one at a time, exactly as the driver starts them.

For every (workload, metric) the table gives both set medians, how
much worse B reads than A, each set's spread (inter-quartile distance
over median) and the bound. A violation — exit code 1 — is a set
median that differs from the other by more than the bound in either
direction, or, for every metric but ``setup_s`` and once a set has
:data:`MIN_RUNS_FOR_SPREAD` runs, a spread wider than the bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from . import spec, stats
from .guard import Guard, Interrupted
from .provenance import host
from .run import HERE

RUN = HERE / "run.py"
#: The contract's limit on one run, build included.
RUN_TIMEOUT_S = 900.0
#: Below this many runs per set the quartiles are (nearly) the extremes
#: and the spread is printed but not held against the bound.
MIN_RUNS_FOR_SPREAD = 8


def one_run(workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in a fresh process; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def compare(declared: dict, values: dict) -> tuple[list[dict], bool]:
    """Table rows for ``values[set][(workload, metric)] -> [readings]``
    and whether every row is inside its bound."""
    rows, ok = [], True
    for workload in sorted({w for w, _ in values["A"]}):
        for metric in declared["end_to_end"]:
            key = (workload, metric["name"])
            a, b = values["A"][key], values["B"][key]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = stats.worsening(med_a, med_b, metric["better"])
            spreads = ([stats.relative_iqr(v) for v in (a, b)]
                       if len(a) >= 2 else [0.0, 0.0])
            gated_spread = max(spreads) if (
                metric["name"] != "setup_s"
                and len(a) >= MIN_RUNS_FOR_SPREAD) else 0.0
            inside = (abs(worse) <= metric["bound"]
                      and gated_spread <= metric["bound"])
            ok = ok and inside
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "median_a": med_a,
                "median_b": med_b, "b_worse_by": worse,
                "spread_a": spreads[0], "spread_b": spreads[1],
                "bound": metric["bound"], "ok": inside})
    return rows, ok


def print_table(rows: list[dict]) -> None:
    print("| workload | metric | unit | median A | median B | B worse by "
          "| spread A | spread B | bound | ok |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for r in rows:
        print(f"| {r['workload']} | {r['metric']} | {r['unit']} "
              f"| {r['median_a']:.4g} | {r['median_b']:.4g} "
              f"| {r['b_worse_by']:+.1%} | {r['spread_a']:.1%} "
              f"| {r['spread_b']:.1%} | {r['bound']:.0%} "
              f"| {'yes' if r['ok'] else 'NO'} |")


def repeat_check(n: int, *, seed: int, seconds: float,
                 workload: str | None = None) -> int:
    declared = spec.load()
    workloads = [workload] if workload else \
        [w["name"] for w in declared["workloads"]]
    values: dict = {"A": {}, "B": {}}
    attempted = failed = 0
    t_start = time.time()
    with Guard() as guard:
        try:
            for k in range(n):
                for label in ("A", "B"):
                    for w in workloads:
                        result = one_run(w, seed + k, seconds)
                        attempted += result["attempted"]
                        failed += result["failed"]
                        for name, m in result["metrics"].items():
                            values[label].setdefault(
                                (w, name), []).append(m["value"])
                    print(f"# set {label} run {k + 1}/{n} done "
                          f"({time.time() - t_start:.0f} s)", flush=True)
        except Interrupted as exc:
            print(f"e2e: interrupted: {exc}", file=sys.stderr)
            guard.sweep()
            return exc.code
        leaks = guard.sweep()
    rows, ok = compare(declared, values)
    print("# provenance " + json.dumps(dict(
        host(), seeds=[seed, seed + n - 1], seconds=seconds,
        runs_per_set=n)))
    print("# readings " + json.dumps({
        label: {f"{w}.{name}": v for (w, name), v in readings.items()}
        for label, readings in values.items()}))
    print(f"# requests attempted {attempted}, failed {failed}")
    print_table(rows)
    for leak in leaks:
        print(f"e2e guard: {leak}", file=sys.stderr)
    return 0 if ok and not failed and not leaks else 1
