"""Key pool simulation: synchronization, determinism, rate accounting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mesh4
from qkdrelay.linksim import LinkSimulator, derive_key_id


def pools_equal(sim: LinkSimulator, link_id: str) -> bool:
    """Both endpoints read one table, whose id -> index map follows its
    generation order."""
    a, b = sim.link_pools(link_id)
    return a.table is b.table and list(a.table.index.items()) == [
        (k, i) for i, k in enumerate(a.table.ids)
    ]


def test_generate_zero_is_empty():
    sim = LinkSimulator(mesh4(), seed=7)
    assert sim.generate_keys("d", 0) == []


def test_generation_synchronizes_both_pools():
    sim = LinkSimulator(mesh4(), seed=7)
    ids = sim.generate_keys("d", 3)
    assert len(ids) == 3
    assert len(set(ids)) == 3
    assert pools_equal(sim, "d")
    a, b = sim.link_pools("d")
    assert a.owner_kms == "KMS_3d"
    assert b.owner_kms == "KMS_4d"
    assert a.table.ids == ids
    assert all(len(a.table.material(k)) == 32 for k in ids)
    for pool in (a, b):
        assert pool.counts() == {"available": 3, "reserved": 0, "consumed": 0}


def test_same_seed_same_sequence():
    one = LinkSimulator(mesh4(), seed=42)
    two = LinkSimulator(mesh4(), seed=42)
    assert one.generate_keys("b", 5) == two.generate_keys("b", 5)
    p1, _ = one.link_pools("b")
    p2, _ = two.link_pools("b")
    assert [p1.table.material(k) for k in p1.table.ids] == [
        p2.table.material(k) for k in p2.table.ids
    ]


def test_different_seeds_different_keys():
    one = LinkSimulator(mesh4(), seed=1)
    two = LinkSimulator(mesh4(), seed=2)
    assert one.generate_keys("b", 3) != two.generate_keys("b", 3)


def test_links_have_independent_streams():
    sim = LinkSimulator(mesh4(), seed=1)
    assert set(sim.generate_keys("a", 4)).isdisjoint(sim.generate_keys("b", 4))


def test_derive_key_shapes():
    key_id = derive_key_id(0, "d", 0)  # material size: test_key_size_from_config
    assert key_id == key_id.lower()
    int(key_id, 16)  # 128-bit lowercase hex
    assert len(key_id) == 32


def test_key_size_from_config():
    topo = mesh4(config={"key_size_bytes": 16})
    sim = LinkSimulator(topo, seed=1)
    (key_id,) = sim.generate_keys("a", 1)
    a, _ = sim.link_pools("a")
    assert len(a.table.material(key_id)) == 16


# ── tick carry accounting ──


def test_tick_carry_fractional_rate():
    topo = mesh4(
        apps={},
        links=[
            {"id": "a", "a": "N1", "b": "N2", "key_rate": 2.5, "distance_km": 1.0, "initial_pool": 0},
            {"id": "b", "a": "N2", "b": "N3", "key_rate": 1.0, "distance_km": 1.0, "initial_pool": 0},
        ],
        nodes=[{"id": "N1"}, {"id": "N2"}, {"id": "N3"}],
    )
    sim = LinkSimulator(topo, seed=1)
    total = sum(sim.tick("a", 1.0) for _ in range(4))
    assert total == 10  # floor-with-carry matches rate*time exactly at 4s


def test_tick_half_seconds():
    sim = LinkSimulator(mesh4(), seed=1)  # rate 10/s
    assert sim.tick("d", 0.5) + sim.tick("d", 0.5) == 10


def test_tick_zero_dt():
    sim = LinkSimulator(mesh4(), seed=1)
    assert sim.tick("d", 0.0) == 0


@given(st.lists(st.sampled_from(["gen_a", "gen_d", "tick_a", "tick_d"]), max_size=30))
@settings(max_examples=50, deadline=None)
def test_pools_stay_synchronized_under_any_interleaving(ops):
    sim = LinkSimulator(mesh4(), seed=3)
    for op in ops:
        kind, link_id = op.split("_")
        if kind == "gen":
            sim.generate_keys(link_id, 2)
        else:
            sim.tick(link_id, 0.3)
    for link_id in ("a", "b", "c", "d"):
        assert pools_equal(sim, link_id)


# ── pool state machine ──


def test_reserve_consume_lifecycle():
    sim = LinkSimulator(mesh4(), seed=1)
    sim.generate_keys("d", 2)
    pool, _ = sim.link_pools("d")
    first = pool.reserve_next()
    assert first in pool.reserved
    second = pool.reserve_next()
    assert second != first  # FIFO skips reserved keys
    assert pool.consume(first) == sim.find_material(first)
    assert first in pool.consumed and first not in pool.reserved
    with pytest.raises(RuntimeError, match="consumed twice"):
        pool.consume(first)


def test_take_consumes_only_an_available_key():
    sim = LinkSimulator(mesh4(), seed=1)
    first, second = sim.generate_keys("d", 2)
    pool, peer = sim.link_pools("d")
    assert pool.reserve_next() == first
    assert pool.take(first) is None  # reserved
    assert pool.take(second) == sim.find_material(second)
    assert pool.take(second) is None  # consumed
    assert pool.take("no-such-key") is None
    assert pool.counts() == {"available": 0, "reserved": 1, "consumed": 1}
    assert peer.take(second) == sim.find_material(second)  # the other end's own state


def test_counts_conserved():
    sim = LinkSimulator(mesh4(), seed=1)
    sim.generate_keys("d", 5)
    pool, _ = sim.link_pools("d")
    pool.consume(pool.reserve_next())
    pool.reserve_next()
    counts = pool.counts()
    assert counts == {"available": 3, "reserved": 1, "consumed": 1}
    assert sum(counts.values()) == pool.generated_total


def test_reserve_exhaustion():
    sim = LinkSimulator(mesh4(), seed=1)
    sim.generate_keys("d", 1)
    pool, _ = sim.link_pools("d")
    assert pool.reserve_next() is not None
    assert pool.reserve_next() is None


def test_fill_initial_respects_topology():
    sim = LinkSimulator(mesh4(), seed=1)
    sim.fill_initial()
    for link_id in ("a", "b", "c", "d"):
        pool, _ = sim.link_pools(link_id)
        assert pool.generated_total == 8


def test_find_material_returns_generated_material():
    sim = LinkSimulator(mesh4(), seed=1)
    (key_id,) = sim.generate_keys("c", 1)
    pool, _ = sim.link_pools("c")
    assert sim.find_material(key_id) == pool.table.material(key_id)
    assert sim.find_material("no-such-key") is None
    with pytest.raises(KeyError):
        pool.table.material("no-such-key")
