"""Consistent-hash placement of matrices across cluster nodes.

A matrix lives where its ``content_fingerprint()`` hashes: each node
contributes ``vnodes`` virtual points on a ring (SHA-256 over
``"{node}#{i}"`` — deterministic across processes, unlike Python's
seeded ``hash``), and a key's owners are the first distinct nodes
walking clockwise from the key's own point. The virtual points give
each node many small arcs, so load spreads evenly and removing a node
moves only the keys on *its* arcs — every other matrix stays put,
which is the whole reason to prefer a ring over ``hash(key) % n``.

:class:`Placement` layers the serving policy on top: a configurable
replication factor (a matrix is registered on ``replication`` distinct
owners, so one node's death leaves live replicas).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right

from ..errors import ClusterError


def ring_hash(key: str) -> int:
    """Deterministic 64-bit ring position for ``key``."""
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """A consistent-hash ring of node ids (``"host:port"`` strings)."""

    def __init__(self, nodes=(), *, vnodes: int = 64):
        if vnodes < 1:
            raise ClusterError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._nodes: set[str] = set()
        self._points: list[tuple[int, str]] = []
        for node in nodes:
            self.add(node)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        self._points.extend(
            (ring_hash(f"{node}#{i}"), node) for i in range(self.vnodes)
        )
        self._points.sort()

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [p for p in self._points if p[1] != node]

    def owners(self, key: str, n: int = 1) -> list[str]:
        """The first ``n`` distinct nodes clockwise from ``key``'s
        point (fewer when the ring has fewer nodes)."""
        if not self._points:
            raise ClusterError("placement ring has no nodes",
                               status=503)
        start = bisect_right(self._points, (ring_hash(key), ""))
        found: list[str] = []
        for i in range(len(self._points)):
            node = self._points[(start + i) % len(self._points)][1]
            if node not in found:
                found.append(node)
                if len(found) == n:
                    break
        return found

    def primary(self, key: str) -> str:
        return self.owners(key, 1)[0]


class Placement:
    """Replicated placement policy over a :class:`HashRing`."""

    def __init__(self, nodes=(), *, replication: int = 2,
                 vnodes: int = 64):
        if replication < 1:
            raise ClusterError(
                f"replication must be >= 1, got {replication}")
        self.replication = replication
        self.ring = HashRing(nodes, vnodes=vnodes)

    @property
    def nodes(self) -> list[str]:
        return self.ring.nodes

    def add(self, node: str) -> None:
        self.ring.add(node)

    def remove(self, node: str) -> None:
        self.ring.remove(node)

    def owners(self, key: str) -> list[str]:
        """Where ``key`` lives, primary first (capped by ring size)."""
        return self.ring.owners(key, self.replication)

    def describe(self) -> dict:
        return {
            "nodes": self.nodes,
            "replication": self.replication,
            "vnodes": self.ring.vnodes,
        }


__all__ = ["HashRing", "Placement", "ring_hash"]
