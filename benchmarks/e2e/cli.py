"""Command line: run workloads, print every metric, leave nothing behind.

::

    python3 benchmarks/e2e/run.py                       # all six, untraced
    python3 benchmarks/e2e/run.py --workload lib_fem    # one
    python3 benchmarks/e2e/run.py --workload http_json --trace 1
    python3 benchmarks/e2e/run.py --layers              # traced + extras
    python3 benchmarks/e2e/run.py --repeat-check 10     # noise evidence

The last line of standard output is one JSON object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — the four
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``. It is printed only after the
clean-exit guard has found nothing left running; a failed request or
a leak makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import dataclass, field

from . import layers, spec, stats
from .guard import Guard, Interrupted
from .inputs import POOL, RTOL, SCALE, make_inputs
from .provenance import host
from .runner import N_BLOCKS, N_SETUPS, Tally, run_untraced
from .workloads import BACKEND, BY_NAME, MACHINE, WORKLOADS, Workload

EXIT_FAILED_REQUESTS = 1
EXIT_LEAK = 70

#: Wall seconds one workload may take beyond its measured phase before
#: it is over budget (input generation, four set-ups, teardown); the
#: deadline that aborts the run is three budgets.
SETUP_ALLOWANCE_S = 18.0


@dataclass
class Outcome:
    """Everything one workload's run produced."""

    workload: str
    traced: bool
    metrics: dict[str, tuple[float, str]]
    tally: Tally
    provenance: dict
    #: Printed, never gated: p99, sample counts, ladder, extras.
    notes: list[str] = field(default_factory=list)

    def final(self) -> dict:
        return {
            "correct": self.tally.failed == 0,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }


def run_workload(workload: Workload, *, seed: int, seconds: float,
                 traced: bool, extras: bool = False,
                 scale: float = SCALE) -> Outcome:
    """Generate inputs from the seed, run one pass, collect the facts."""
    inputs = make_inputs(workload.matrix, seed, scale=scale)
    tally = Tally()
    provenance = dict(
        host(), workload=workload.name, seed=seed, seconds=seconds,
        traced=traced, machine=MACHINE, backend_requested=BACKEND,
        matrix={"name": inputs.matrix, "scale": scale,
                "shape": list(inputs.coo.shape),
                "nnz": inputs.coo.nnz_logical},
        inputs_fingerprint=inputs.fingerprint,
        load={"loop": "closed", "generators": 1, "pool": POOL,
              "oracle_rtol": RTOL},
    )
    notes = [f"matrices.generate_s {inputs.generate_s:.4f} s"]
    if traced:
        provenance["block_plan"] = {
            "ladder_share": layers.LADDER_SHARE, "chunk": layers.CHUNK,
            "probe": "p50 of round-robin calls"}
        span_path = layers.OUT_DIR / (
            f"spans-{workload.name}-seed{seed}.jsonl")
        values, ladder, facts = layers.run_traced(
            workload, inputs, seconds, tally, extras=extras,
            span_path=span_path, header=provenance)
        units = spec.units("per_layer")
        if extras:
            units.update(layers.EXTRAS)
        notes += _ladder_notes(ladder)
        notes.append(layers.triad_note())
        notes.append(f"spans written to {span_path}")
    else:
        provenance["block_plan"] = {
            "priming_setups": 1, "timed_setups": N_SETUPS,
            "warmup_s": seconds / N_BLOCKS, "blocks": N_BLOCKS,
            "block_s": seconds / N_BLOCKS}
        measured, facts = run_untraced(workload, inputs, seconds, tally)
        values = measured.metrics()
        units = spec.units("end_to_end")
        notes += _latency_notes(measured.latencies_s)
        notes.append("setup_s samples " + " ".join(
            f"{s:.4f}" for s in measured.setups_s))
    provenance["plans"] = facts
    if set(values) != set(units):
        raise RuntimeError(
            f"measured and declared metrics differ: "
            f"{sorted(set(values) ^ set(units))}")
    metrics = {name: (float(values[name]), unit)
               for name, unit in units.items()}
    return Outcome(workload.name, traced, metrics, tally, provenance, notes)


def _latency_notes(latencies_s: list[float]) -> list[str]:
    n = len(latencies_s)
    p99 = stats.percentile([s * 1e3 for s in latencies_s], 99.0)
    top = stats.highest_supported_percentile(n)
    return [
        f"samples {n} count",
        f"latency_p99_ms {p99:.4f} ms (not gated; "
        f"{stats.samples_beyond(n, 99.0)} samples beyond)",
        f"highest percentile with >= {stats.MIN_SAMPLES_BEYOND} samples "
        f"beyond it: " + ("none" if top is None else f"p{top:g}"),
    ]


def _ladder_notes(ladder: dict) -> list[str]:
    notes = [f"ladder: {ladder['iterations']} traced iterations, "
             f"outermost first; self = p50 minus the rung below"]
    for rung in ladder["rungs"]:
        notes.append(
            f"  {rung['name']:<24} layer {rung['layer']:<17} "
            f"p50 {rung['p50_ms']:9.4f} ms  self {rung['self_ms']:9.4f} ms")
    total = sum(r["self_ms"] for r in ladder["rungs"])
    notes.append(f"  self times sum to {total:.4f} ms; outer rung "
                 f"{ladder['outer_ms']:.4f} ms; untraced p50 "
                 f"{ladder['plain_p50_ms']:.4f} ms")
    return notes


def report(outcome: Outcome) -> None:
    """Every metric by name with its unit, then the ungated notes."""
    w = outcome.workload
    print(f"== {w} ({'traced' if outcome.traced else 'untraced'}) ==")
    print(f"{w} provenance {json.dumps(outcome.provenance)}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{w} {name} {value:.6g} {unit}")
    print(f"{w} attempted {outcome.tally.attempted} "
          f"failed {outcome.tally.failed}")
    for note in outcome.notes:
        print(f"{w} # {note}")
    sys.stdout.flush()


def combined(outcomes: list[Outcome]) -> dict:
    """The final line: one workload's result as is; several workloads'
    merged, metric names prefixed with the workload."""
    if len(outcomes) == 1:
        return outcomes[0].final()
    finals = [(o.workload, o.final()) for o in outcomes]
    return {
        "correct": all(f["correct"] for _, f in finals),
        "attempted": sum(f["attempted"] for _, f in finals),
        "failed": sum(f["failed"] for _, f in finals),
        "metrics": {f"{w}.{name}": m for w, f in finals
                    for name, m in f["metrics"].items()},
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(BY_NAME), default=None,
                    help="run one workload (default: all six)")
    ap.add_argument("--seed", type=int, default=0,
                    help="feeds matrices.generate and the x-vector RNG, "
                         "nothing else (default 0)")
    ap.add_argument("--seconds", type=float, default=12.0,
                    help="length of the measured phase (default 12)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the traced pass (ladder + per-layer probes)")
    ap.add_argument("--layers", action="store_true",
                    help="--trace 1 plus the probes that fork or map "
                         "/dev/shm (dist.*, cluster.shm_roundtrip_ms)")
    ap.add_argument("--repeat-check", type=int, metavar="N", default=0,
                    help="two interleaved sets of N untraced runs per "
                         "workload; table of medians, spreads and bounds")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None, *, scale: float = SCALE) -> int:
    """``scale`` is not a flag: the workloads are defined at one scale,
    and only the self-tests shrink the matrices."""
    args = parse_args(argv)
    if args.repeat_check:
        from .repeat import repeat_check

        return repeat_check(args.repeat_check, seed=args.seed,
                            seconds=args.seconds, workload=args.workload)
    selected = [BY_NAME[args.workload]] if args.workload else WORKLOADS
    traced = bool(args.trace or args.layers)
    outcomes: list[Outcome] = []
    code = 0
    with Guard() as guard:
        try:
            for workload in selected:
                guard.arm(3.0 * (SETUP_ALLOWANCE_S + args.seconds))
                outcome = run_workload(
                    workload, seed=args.seed, seconds=args.seconds,
                    traced=traced, extras=args.layers, scale=scale)
                report(outcome)
                outcomes.append(outcome)
        except Interrupted as exc:
            print(f"e2e: interrupted: {exc}", file=sys.stderr)
            code = exc.code
        except Exception:  # noqa: BLE001 - reported, non-zero exit
            traceback.print_exc()
            code = 1
        leaks = guard.sweep()
    for leak in leaks:
        print(f"e2e guard: {leak}", file=sys.stderr)
    if leaks:
        code = code or EXIT_LEAK
    if code == 0:
        final = combined(outcomes)
        print(json.dumps(final))
        if not final["correct"]:
            code = EXIT_FAILED_REQUESTS
    return code
