"""Per-link key generation standing in for the quantum channel.

Each link owns one key table, shared by the pools at its two endpoint KMSs:
the key ids in generation order, and id -> index. A pool keeps only its own
endpoint's state, so both ends always see the same keys in the same order.
Key ids and material are hash-derived from (seed, link id, index), which
keeps generation deterministic under any interleaving of generate/tick
calls. Ids are derived when a key is generated; material is derived each
time it is read and never stored. Nothing in this module ever puts key
material on the simulated transport.
"""

from __future__ import annotations

import hashlib

from .topology import Topology, render_kms_id


def derive_key_id(seed: int, link_id: str, index: int) -> str:
    """Deterministic id of the index-th key of a link."""
    return hashlib.shake_256(f"{seed}|{link_id}|{index}|id".encode()).hexdigest(16)


class KeyTable:
    """One link's keys, shared by both endpoint pools: the ids in generation
    order, and id -> index."""

    def __init__(self, seed: int, link_id: str, key_size: int) -> None:
        self.seed = seed
        self.link_id = link_id
        self.key_size = key_size
        self.ids: list[str] = []
        self.index: dict[str, int] = {}

    def material(self, key_id: str) -> bytes:
        """Deterministic material of a key of this link, derived anew on each
        call; KeyError if the link never generated key_id."""
        text = f"{self.seed}|{self.link_id}|{self.index[key_id]}|key"
        return hashlib.shake_256(text.encode()).digest(self.key_size)


class KeyPool:
    """One endpoint's view of a link's keys, owned by exactly one KMS.

    The keys themselves live in the link's shared ``KeyTable``; the pool
    holds only the ids this endpoint has reserved or consumed. Every other
    key in the table is available. State moves one way: available ->
    reserved -> consumed, or available -> consumed when a key is taken by
    id. Reservation is FIFO over the available keys. Since no key ever
    becomes available again, ``reserve_next`` keeps a cursor into generation
    order: every key behind it is reserved or consumed, and every key ahead
    of it is available or consumed.
    """

    def __init__(self, owner_kms: str, table: KeyTable):
        self.owner_kms = owner_kms
        self.table = table
        self.reserved: set[str] = set()
        self.consumed: set[str] = set()
        self._cursor = 0

    @property
    def generated_total(self) -> int:
        return len(self.table.ids)

    @property
    def consumed_total(self) -> int:
        return len(self.consumed)

    def reserve_next(self) -> str | None:
        ids = self.table.ids
        while self._cursor < len(ids):
            key_id = ids[self._cursor]
            self._cursor += 1
            if key_id not in self.consumed:
                self.reserved.add(key_id)
                return key_id
        return None

    def take(self, key_id: str) -> bytes | None:
        """Consume key_id if this pool holds it available; its material,
        else None."""
        held = key_id in self.reserved or key_id in self.consumed
        if held or key_id not in self.table.index:
            return None
        return self.consume(key_id)

    def consume(self, key_id: str) -> bytes:
        material = self.table.material(key_id)
        if key_id in self.consumed:
            raise RuntimeError(f"key {key_id} consumed twice on link {self.table.link_id}")
        self.reserved.discard(key_id)
        self.consumed.add(key_id)
        return material

    def counts(self) -> dict[str, int]:
        reserved, consumed = len(self.reserved), len(self.consumed)
        return {
            "available": len(self.table.ids) - reserved - consumed,
            "reserved": reserved,
            "consumed": consumed,
        }


class LinkSimulator:
    """Owns every key table and pool in the network and the per-link
    generation state."""

    def __init__(self, topology: Topology, seed: int):
        self.topology = topology
        self._carry: dict[str, float] = {l: 0.0 for l in topology.links}
        self.tables: dict[str, KeyTable] = {}
        self.pools: dict[str, KeyPool] = {}
        # key id -> its link's table, across all links (audit lookups).
        self._table_of: dict[str, KeyTable] = {}
        key_size = topology.config.key_size_bytes
        for link in topology.links.values():
            table = self.tables[link.id] = KeyTable(seed, link.id, key_size)
            for end in link.endpoints():
                kms = render_kms_id(end, link.id)
                self.pools[kms] = KeyPool(kms, table)

    def link_pools(self, link_id: str) -> tuple[KeyPool, KeyPool]:
        link = self.topology.links[link_id]
        return (
            self.pools[render_kms_id(link.a, link_id)],
            self.pools[render_kms_id(link.b, link_id)],
        )

    def generate_keys(self, link_id: str, n: int) -> list[str]:
        """Append n fresh keys to the link's table; returns the new ids."""
        table = self.tables[link_id]
        start = len(table.ids)
        for index in range(start, start + n):
            key_id = derive_key_id(table.seed, link_id, index)
            if key_id in table.index:
                raise RuntimeError(f"key id {key_id} recurred on link {link_id}")
            table.ids.append(key_id)
            table.index[key_id] = index
            self._table_of[key_id] = table
        return table.ids[start:]

    def tick(self, link_id: str, dt_seconds: float) -> int:
        """Advance generation by dt: floor(rate*dt + carry) keys, carrying
        the fractional remainder to the next tick."""
        rate = self.topology.links[link_id].key_rate
        amount = rate * dt_seconds + self._carry[link_id]
        n = int(amount)
        self._carry[link_id] = amount - n
        self.generate_keys(link_id, n)
        return n

    def fill_initial(self) -> None:
        for link in self.topology.links.values():
            self.generate_keys(link.id, link.initial_pool)

    # ── audit helpers for tests and trace checks ──

    def find_material(self, key_id: str) -> bytes | None:
        table = self._table_of.get(key_id)
        return None if table is None else table.material(key_id)

    def link_consumed_ids(self, link_id: str) -> set[str]:
        a, b = self.link_pools(link_id)
        return a.consumed | b.consumed

    def pool_report(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for link_id in self.topology.links:
            a, b = self.link_pools(link_id)
            out[link_id] = {
                "generated": a.generated_total,
                "consumed_distinct": len(self.link_consumed_ids(link_id)),
                "endpoints": {p.owner_kms: p.counts() for p in (a, b)},
            }
        return out
