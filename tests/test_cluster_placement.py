"""Consistent-hash placement: determinism, balance, minimal movement."""

from __future__ import annotations

import pytest

from repro.cluster.placement import HashRing, Placement, ring_hash
from repro.errors import ClusterError

NODES = [f"10.0.0.{i}:7070" for i in range(1, 6)]
KEYS = [f"fp-{i:04d}" for i in range(500)]


def test_ring_hash_is_deterministic():
    assert ring_hash("abc") == ring_hash("abc")
    assert ring_hash("abc") != ring_hash("abd")


def test_owners_deterministic_across_instances():
    a = HashRing(NODES)
    b = HashRing(list(reversed(NODES)))  # insertion order irrelevant
    for key in KEYS[:50]:
        assert a.owners(key, 3) == b.owners(key, 3)


def test_owners_are_distinct_nodes():
    ring = HashRing(NODES)
    for key in KEYS[:50]:
        owners = ring.owners(key, 3)
        assert len(owners) == len(set(owners)) == 3


def test_owners_capped_at_ring_size():
    ring = HashRing(NODES[:2])
    assert len(ring.owners("k", 10)) == 2


def test_empty_ring_raises_503():
    ring = HashRing([])
    with pytest.raises(ClusterError) as err:
        ring.owners("k", 1)
    assert err.value.status == 503


def test_balance_is_reasonable():
    ring = HashRing(NODES, vnodes=64)
    counts = {n: 0 for n in NODES}
    for key in KEYS:
        counts[ring.primary(key)] += 1
    expected = len(KEYS) / len(NODES)
    for node, count in counts.items():
        # 64 vnodes keeps the spread well within 2x of fair share
        assert expected / 2 < count < expected * 2, (node, counts)


def test_minimal_movement_on_node_removal():
    ring = HashRing(NODES)
    before = {key: ring.primary(key) for key in KEYS}
    ring.remove(NODES[2])
    moved = sum(
        1 for key in KEYS
        if ring.primary(key) != before[key])
    # only keys owned by the removed node may move
    owned = sum(1 for v in before.values() if v == NODES[2])
    assert moved == owned
    # and survivors keep their assignment
    for key in KEYS:
        if before[key] != NODES[2]:
            assert ring.primary(key) == before[key]


def test_add_is_inverse_of_remove():
    ring = HashRing(NODES)
    before = {key: ring.owners(key, 2) for key in KEYS[:100]}
    ring.remove(NODES[0])
    ring.add(NODES[0])
    for key in KEYS[:100]:
        assert ring.owners(key, 2) == before[key]


def test_placement_owners_are_the_ring_prefix():
    p = Placement(NODES, replication=2)
    ring = HashRing(NODES)
    for key in KEYS[:50]:
        # the router registers on, and forwards to, exactly these
        # nodes, primary first
        assert p.owners(key) == ring.owners(key, 2)


def test_placement_describe():
    p = Placement(NODES[:3], replication=2)
    desc = p.describe()
    assert desc["replication"] == 2
    assert sorted(desc["nodes"]) == sorted(NODES[:3])
