"""The committed paper snapshot passes its checks, and the checks bite.

``benchmarks/snapshots/PAPER.json`` is what ``benchmarks/paper.py``
computes at scale 1.0. These tests run no simulation: they read the
file and run :func:`paper.check` over it and over doctored copies.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))

import paper  # noqa: E402


@pytest.fixture(scope="module")
def snapshot():
    return json.loads(paper.SNAPSHOT.read_text())


def failures_after(snapshot, doctor):
    doctored = copy.deepcopy(snapshot)
    doctor(doctored)
    return paper.check(doctored)


def test_committed_snapshot_passes_every_check(snapshot):
    skipped: list[str] = []
    assert snapshot["scale"] == 1.0
    assert paper.check(snapshot, skipped) == []
    assert skipped == []


def test_twenty_claims(snapshot):
    assert len(snapshot["claims"]) == 20
    assert snapshot["claims_within_35pct"] >= paper.CLAIMS_WITHIN_35PCT


def test_halved_claim_fails(snapshot):
    def halve(snap):
        claim = next(c for c in snap["claims"] if c["id"] == "6.2-serial")
        claim["ours"] /= 2

    assert any("claim 6.2-serial" in f for f in failures_after(snapshot, halve))


def test_blade_socket_below_clovertown_fails(snapshot):
    def sink(snap):
        fig2a = snap["figure2a"]
        fig2a["Cell Blade"]["socket"] = 0.9 * fig2a["Clovertown"]["socket"]

    fails = failures_after(snapshot, sink)
    assert any("blade / Clovertown socket" in f for f in fails)


def test_table4_bandwidth_off_by_30pct_fails(snapshot):
    def skew(snap):
        snap["table4"]["AMD X2"]["system"]["gbs"] *= 1.3

    fails = failures_after(snapshot, skew)
    assert [f for f in fails if f.startswith("table4 AMD X2 system")]


def test_numa_check_is_skipped_while_tunnel_fits_in_cache(snapshot):
    def shrink(snap):
        numa = snap["ablations"]["numa_placement"]
        numa["tunnel_footprint_bytes"] = numa["llc_bytes"]
        numa["interleave"] = numa["numa_aware"]

    doctored = copy.deepcopy(snapshot)
    shrink(doctored)
    skipped: list[str] = []
    assert paper.check(doctored, skipped) == []
    assert any("numa_placement" in s and "fits" in s for s in skipped)


def test_small_scale_skips_full_scale_groups(snapshot):
    def rescale(snap):
        snap["scale"] = 0.1
        snap["claims"][0]["ours"] = 0.1   # out of band, but not checked

    doctored = copy.deepcopy(snapshot)
    rescale(doctored)
    doctored["claims_within_35pct"] = paper.within_35pct(doctored["claims"])
    skipped: list[str] = []
    assert paper.check(doctored, skipped) == []
    assert any("scale 1.0" in s for s in skipped)
