"""BENCHMARK.json and what the runner emits must be the same list."""

import json
import re

import pytest

from e2e import cli, layers
from e2e.spec import load
from e2e.workloads import BY_NAME, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMALL = dict(seed=0, seconds=0.5, scale=0.02)


@pytest.fixture(scope="module")
def spec():
    return load()


def test_spec_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"][-1].startswith(spec["paths"][0] + "/")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"])
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_spec_lists_the_workloads_the_code_has(spec):
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS]
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS)
    assert not set(layers.EXTRAS) & {m["name"] for m in spec["per_layer"]}


@pytest.mark.parametrize("name", [w.name for w in WORKLOADS])
def test_untraced_run_emits_every_end_to_end_metric(spec, name):
    outcome = cli.run_workload(BY_NAME[name], traced=False, **SMALL)
    final = outcome.final()
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0
    assert final["attempted"] >= 1
    assert {n: m["unit"] for n, m in final["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in final["metrics"].values())
    json.dumps(final)                      # the last line must serialize
    assert outcome.provenance["seed"] == 0
    assert outcome.provenance["plans"]     # resolved backend + plan + ISA


@pytest.mark.parametrize("name, batch", [("lib_fem", 0.0),
                                         ("serve_burst", 8.0),
                                         ("wire_epidem", 1.0)])
def test_traced_run_emits_every_per_layer_metric(spec, name, batch):
    outcome = cli.run_workload(BY_NAME[name], traced=True, **SMALL)
    final = outcome.final()
    assert final["correct"] and final["failed"] == 0
    assert {n: m["unit"] for n, m in final["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}
    values = {n: m["value"] for n, m in final["metrics"].items()}
    # Exact counts, taken on the workload's own call pattern.
    assert values["serve.batch_size_mean"] == batch
    assert values["serve.rejected"] == 0
    span_file = layers.OUT_DIR / f"spans-{name}-seed0.jsonl"
    lines = span_file.read_text().splitlines()
    assert "provenance" in json.loads(lines[0])
    spans = [json.loads(line) for line in lines[1:]]
    assert {"name", "request_id", "parent", "start", "end"} == set(spans[0])
    # The ladder runs first: its first iteration is the first spans in
    # the file, outermost rung first, each parented on the rung above.
    ladder = [r.name for r in layers.LADDERS[name]]
    first = spans[:len(ladder)]
    assert [s["name"] for s in first] == ladder
    assert [s["parent"] for s in first] == [None] + ladder[:-1]
    assert {s["request_id"] for s in first} == {0}


def test_ladder_self_times_sum_to_the_outer_rung():
    from e2e.inputs import make_inputs
    from e2e.runner import Tally
    from e2e.workloads import Stack, http_bodies

    inputs = make_inputs("FEM-Cant", 0, scale=0.02)
    tally = Tally()
    with Stack(inputs, http_bodies(inputs)) as stack:
        ladder = layers.run_ladder(BY_NAME["http_json"], stack, 0.3,
                                   layers.Tracer(inputs, tally))
    assert [r["layer"] for r in ladder["rungs"]] == [
        "serve.transport", "serve.routes", "serve.scheduler", "kernels"]
    assert sum(r["self_ms"] for r in ladder["rungs"]) == pytest.approx(
        ladder["outer_ms"], rel=1e-9)
    assert tally.failed == 0 and tally.attempted > 0
