"""Per-link key generation standing in for the quantum channel.

Each link owns one key table, shared by the pools at its two endpoint KMSs:
how many keys the link has generated, and the ids derived so far. A pool
keeps only its own endpoint's state, so both ends always see the same keys
in the same order. Key ids and material are hash-derived from (seed, link
id, index), which keeps generation deterministic under any interleaving of
generate/tick calls. Generating a key only raises the link's count: its id
is derived when first needed, always as a prefix in index order, so a run
hashes only the ids it reserves or looks up. A key's material is derived
once, when the first endpoint consumes the key, and held in the link's
table until the other endpoint consumes it too; a read of a key no
endpoint holds it for derives it again without holding it. Nothing in this
module ever puts key material on the simulated transport.
"""

from __future__ import annotations

import hashlib

from .topology import Topology


def derive_key_id(seed: int, link_id: str, index: int) -> str:
    """Deterministic id of the index-th key of a link."""
    return hashlib.shake_256(f"{seed}|{link_id}|{index}|id".encode()).hexdigest(16)


def derive_material(seed: int, link_id: str, index: int, size: int) -> bytes:
    """Deterministic material, size bytes, of the index-th key of a link."""
    return hashlib.shake_256(f"{seed}|{link_id}|{index}|key".encode()).digest(size)


class KeyTable:
    """One link's keys, shared by both endpoint pools.

    ``generated`` counts the keys the link has produced. Their ids are
    derived only when first needed, always as a prefix in index order:
    ``_ids`` holds the first len(_ids) of them and ``_index`` maps each back
    to its index. Every derived id is also entered in ``owners``, the
    simulator's id -> table map across all links.

    ``held`` maps each key that exactly one endpoint pool has consumed to
    its material: the first endpoint's consumption derives it and holds it,
    and the other's pops it. A key no pool has consumed, or both have, is
    not held, so a run in which every consumed key reached both ends holds
    nothing at its end.
    """

    def __init__(self, seed: int, link_id: str, key_size: int, owners: dict[str, KeyTable]):
        self.seed = seed
        self.link_id = link_id
        self.key_size = key_size
        self.generated = 0
        self._ids: list[str] = []
        self._index: dict[str, int] = {}
        self._owners = owners
        self.held: dict[str, bytes] = {}

    def id_at(self, index: int) -> str:
        """Id of the index-th generated key, deriving every id before it
        that is not derived yet."""
        if not 0 <= index < self.generated:
            raise IndexError(f"link {self.link_id} has no key {index}")
        ids = self._ids
        while len(ids) <= index:
            key_id = derive_key_id(self.seed, self.link_id, len(ids))
            if key_id in self._index:
                raise RuntimeError(f"key id {key_id} recurred on link {self.link_id}")
            self._index[key_id] = len(ids)
            ids.append(key_id)
            self._owners[key_id] = self
        return ids[index]

    def derive_all(self) -> None:
        """Derive the ids of every generated key."""
        if len(self._ids) < self.generated:
            self.id_at(self.generated - 1)

    def index_of(self, key_id: str) -> int | None:
        """Index of key_id if this link generated it, else None. A miss
        first derives the rest of the generated ids, so an id is refused
        only once every generated id has been compared with it."""
        if key_id not in self._index:
            self.derive_all()
        return self._index.get(key_id)

    def _derive(self, key_id: str) -> bytes | None:
        """Material of key_id hashed afresh; None if the link never
        generated key_id."""
        index = self.index_of(key_id)
        if index is None:
            return None
        return derive_material(self.seed, self.link_id, index, self.key_size)

    def material(self, key_id: str) -> bytes:
        """Material of a key of this link: the held one, else derived and not
        held; KeyError if the link never generated key_id."""
        material = self.held.get(key_id)
        if material is None:
            material = self._derive(key_id)
            if material is None:
                raise KeyError(key_id)
        return material

    def consume(self, key_id: str) -> bytes | None:
        """Material of key_id as one endpoint pool consumes it, which each
        pool does at most once: popped if the other endpoint holds it, else
        derived and held for the other. None if the link never generated
        key_id."""
        material = self.held.pop(key_id, None)
        if material is None:
            material = self._derive(key_id)
            if material is not None:
                self.held[key_id] = material
        return material


class KeyPool:
    """One endpoint's view of a link's keys, owned by exactly one KMS.

    The keys themselves live in the link's shared ``KeyTable``; the pool
    holds only the ids this endpoint has reserved or consumed. Every other
    generated key is available, whether or not its id is derived yet. State
    moves one way: available -> reserved -> consumed, or available ->
    consumed when a key is taken by id. Reservation is FIFO over the
    available keys. Since no key ever becomes available again,
    ``reserve_next`` keeps a cursor into generation order: every key behind
    it is reserved or consumed, and every key ahead of it is available or
    consumed. The cursor reads ids through ``KeyTable.id_at``, so reserving
    derives them in generation order, only as far as the cursor has gone.
    """

    def __init__(self, owner_kms: str, table: KeyTable):
        self.owner_kms = owner_kms
        self.table = table
        self.reserved: set[str] = set()
        self.consumed: set[str] = set()
        self._cursor = 0

    @property
    def generated_total(self) -> int:
        return self.table.generated

    @property
    def consumed_total(self) -> int:
        return len(self.consumed)

    def reserve_next(self) -> str | None:
        table = self.table
        while self._cursor < table.generated:
            key_id = table.id_at(self._cursor)
            self._cursor += 1
            if key_id not in self.consumed:
                self.reserved.add(key_id)
                return key_id
        return None

    def take(self, key_id: str) -> bytes | None:
        """Consume key_id if this pool holds it available; its material,
        else None."""
        if key_id in self.reserved or key_id in self.consumed:
            return None
        material = self.table.consume(key_id)
        if material is not None:
            self.consumed.add(key_id)
        return material

    def consume(self, key_id: str) -> bytes:
        """Consume key_id, reserved or available; its material. KeyError if
        the link never generated it."""
        if key_id in self.consumed:
            raise RuntimeError(f"key {key_id} consumed twice on link {self.table.link_id}")
        material = self.table.consume(key_id)
        if material is None:
            raise KeyError(key_id)
        self.reserved.discard(key_id)
        self.consumed.add(key_id)
        return material

    def counts(self) -> dict[str, int]:
        reserved, consumed = len(self.reserved), len(self.consumed)
        return {
            "available": self.table.generated - reserved - consumed,
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
        # link id -> its (a, b) endpoint pools.
        self._link_pools: dict[str, tuple[KeyPool, KeyPool]] = {}
        # derived key id -> its link's table, across all links (audit lookups).
        self._table_of: dict[str, KeyTable] = {}
        key_size = topology.config.key_size_bytes
        kms_ids = topology.kms_ids
        for link in topology.links.values():
            table = KeyTable(seed, link.id, key_size, self._table_of)
            self.tables[link.id] = table
            pools = (
                KeyPool(kms_ids[link.a, link.id], table),
                KeyPool(kms_ids[link.b, link.id], table),
            )
            self._link_pools[link.id] = pools
            for pool in pools:
                self.pools[pool.owner_kms] = pool

    def link_pools(self, link_id: str) -> tuple[KeyPool, KeyPool]:
        return self._link_pools[link_id]

    def generate_keys(self, link_id: str, n: int) -> None:
        """Add n fresh keys to the link's table; their ids are derived when
        first needed."""
        self.tables[link_id].generated += n

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
        """Material of key_id on whichever link generated it, held or derived
        (see KeyTable.material), else None. An unknown id first derives the
        rest of every link's generated ids."""
        table = self._table_of.get(key_id)
        if table is None:
            for each in self.tables.values():
                each.derive_all()
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
