"""``BENCHMARK.json``: the one list of workloads, metric names, units
and bounds. The code computes values by name; names and units of
everything it reports are read from here, so the two cannot drift."""

from __future__ import annotations

import json

from .run import ROOT

PATH = ROOT / "BENCHMARK.json"


def load() -> dict:
    with open(PATH) as f:
        return json.load(f)


def units(section: str) -> dict[str, str]:
    """``{metric name: unit}`` of ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in load()[section]}
