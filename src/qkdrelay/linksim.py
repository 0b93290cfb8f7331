"""Per-link key generation standing in for the quantum channel.

Each link owns two mirrored pools, one per endpoint KMS. Generation appends
the same (id, material) records to both pools in the same order, so the
endpoint views never diverge. Key material is hash-derived from
(seed, link id, counter), which keeps generation deterministic under any
interleaving of generate/tick calls. Nothing in this module ever puts key
material on the simulated transport.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .topology import Topology, render_kms_id

AVAILABLE = "available"
RESERVED = "reserved"
CONSUMED = "consumed"


@dataclass
class KeyRecord:
    id: str
    material: bytes
    state: str = AVAILABLE


def derive_key(seed: int, link_id: str, index: int, key_size: int) -> KeyRecord:
    """Deterministic (id, material) for the index-th key of a link."""
    kid = hashlib.shake_256(f"{seed}|{link_id}|{index}|id".encode()).hexdigest(16)
    material = hashlib.shake_256(f"{seed}|{link_id}|{index}|key".encode()).digest(
        key_size
    )
    return KeyRecord(id=kid, material=material)


class KeyPool:
    """One endpoint's view of a link's keys, owned by exactly one KMS.

    Records keep insertion (generation) order; reservation is FIFO over the
    available ones. State moves one way: available -> reserved -> consumed,
    or available -> consumed when a key is taken by id. Since no record ever
    becomes available again, ``reserve_next`` keeps a cursor into generation
    order: every record behind it is reserved or consumed, so a scan never
    has to look there again.
    """

    def __init__(self, link_id: str, owner_kms: str):
        self.link_id = link_id
        self.owner_kms = owner_kms
        self.records: dict[str, KeyRecord] = {}
        self.generated_total = 0
        self.consumed_total = 0
        self._order: list[KeyRecord] = []
        self._cursor = 0

    def append(self, record: KeyRecord) -> None:
        if record.id in self.records:
            raise RuntimeError(f"key id {record.id} recurred on link {self.link_id}")
        self.records[record.id] = record
        self._order.append(record)
        self.generated_total += 1

    def reserve_next(self) -> KeyRecord | None:
        order = self._order
        while self._cursor < len(order):
            record = order[self._cursor]
            self._cursor += 1
            if record.state == AVAILABLE:
                record.state = RESERVED
                return record
        return None

    def get(self, key_id: str) -> KeyRecord | None:
        return self.records.get(key_id)

    def consume(self, key_id: str) -> KeyRecord:
        record = self.records[key_id]
        if record.state == CONSUMED:
            raise RuntimeError(f"key {key_id} consumed twice on link {self.link_id}")
        record.state = CONSUMED
        self.consumed_total += 1
        return record

    def counts(self) -> dict[str, int]:
        out = {AVAILABLE: 0, RESERVED: 0, CONSUMED: 0}
        for record in self.records.values():
            out[record.state] += 1
        return out

    def consumed_ids(self) -> set[str]:
        return {r.id for r in self.records.values() if r.state == CONSUMED}


class LinkSimulator:
    """Owns every pool in the network and the per-link generation state."""

    def __init__(self, topology: Topology, seed: int):
        self.topology = topology
        self.seed = seed
        self.key_size = topology.config.key_size_bytes
        self._counters: dict[str, int] = {l: 0 for l in topology.links}
        self._carry: dict[str, float] = {l: 0.0 for l in topology.links}
        self.pools: dict[str, KeyPool] = {}
        # key id -> material, filled as keys are generated (audit lookups).
        self._material: dict[str, bytes] = {}
        for link in topology.links.values():
            for end in link.endpoints():
                kms = render_kms_id(end, link.id)
                self.pools[kms] = KeyPool(link.id, kms)

    def pool_for(self, kms_id: str) -> KeyPool:
        return self.pools[kms_id]

    def link_pools(self, link_id: str) -> tuple[KeyPool, KeyPool]:
        link = self.topology.links[link_id]
        return (
            self.pools[render_kms_id(link.a, link_id)],
            self.pools[render_kms_id(link.b, link_id)],
        )

    def generate_keys(self, link_id: str, n: int) -> list[str]:
        """Append n fresh keys to both endpoint pools; returns the new ids."""
        a, b = self.link_pools(link_id)
        ids = []
        for _ in range(n):
            index = self._counters[link_id]
            self._counters[link_id] = index + 1
            record = derive_key(self.seed, link_id, index, self.key_size)
            a.append(KeyRecord(id=record.id, material=record.material))
            b.append(KeyRecord(id=record.id, material=record.material))
            self._material[record.id] = record.material
            ids.append(record.id)
        return ids

    def tick(self, link_id: str, dt_seconds: float) -> int:
        """Advance generation by dt: floor(rate*dt + carry) keys, carrying
        the fractional remainder to the next tick."""
        rate = self.topology.links[link_id].key_rate
        amount = rate * dt_seconds + self._carry[link_id]
        n = int(amount)
        self._carry[link_id] = amount - n
        self.generate_keys(link_id, n)
        return n

    def tick_all(self, dt_seconds: float) -> dict[str, int]:
        return {l: self.tick(l, dt_seconds) for l in self.topology.links}

    def fill_initial(self) -> None:
        for link in self.topology.links.values():
            self.generate_keys(link.id, link.initial_pool)

    # ── audit helpers for tests and trace checks ──

    def find_material(self, key_id: str) -> bytes | None:
        return self._material.get(key_id)

    def link_consumed_ids(self, link_id: str) -> set[str]:
        a, b = self.link_pools(link_id)
        return a.consumed_ids() | b.consumed_ids()

    def pool_report(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for link_id in self.topology.links:
            a, b = self.link_pools(link_id)
            out[link_id] = {
                "generated": a.generated_total,
                "consumed_distinct": len(self.link_consumed_ids(link_id)),
                "endpoints": {
                    p.owner_kms: p.counts() for p in (a, b)
                },
            }
        return out
