"""Key pool simulation: synchronization, determinism, rate accounting."""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_held_one_sided,
    faulted_grid_run,
    grid_dict,
    grid_events,
    key_ids,
    mesh4,
    mesh4_dict,
    random_topology,
    run_events,
)
from qkdrelay import data_path, linksim, load_scenario, run
from qkdrelay.harness import Simulation, load_topology_file
from qkdrelay.linksim import KeyPool, LinkSimulator, derive_key_id
from qkdrelay.protocol import STATUS_OK
from qkdrelay.topology import topology_from_dict


def generate(sim: LinkSimulator, link_id: str, n: int) -> list[str]:
    """Generate n keys on the link; their ids, read through id_at."""
    table = sim.tables[link_id]
    start = table.generated
    sim.generate_keys(link_id, n)
    return [table.id_at(i) for i in range(start, start + n)]


def pools_equal(sim: LinkSimulator, link_id: str) -> bool:
    """Both endpoints read one table, whose ids follow its generation order
    and map back to their indexes."""
    a, b = sim.link_pools(link_id)
    ids = key_ids(a.table)
    return a.table is b.table and [a.table.index_of(k) for k in ids] == list(range(len(ids)))


def test_generate_zero_is_empty():
    sim = LinkSimulator(mesh4(), seed=7)
    assert generate(sim, "d", 0) == []
    assert sim.tables["d"].generated == 0


def test_generation_synchronizes_both_pools():
    sim = LinkSimulator(mesh4(), seed=7)
    ids = generate(sim, "d", 3)
    assert len(ids) == 3
    assert len(set(ids)) == 3
    assert pools_equal(sim, "d")
    a, b = sim.link_pools("d")
    assert a.owner_kms == "KMS_3d"
    assert b.owner_kms == "KMS_4d"
    assert key_ids(a.table) == ids
    assert all(len(a.table.material(k)) == 32 for k in ids)
    for pool in (a, b):
        assert pool.counts() == {"available": 3, "reserved": 0, "consumed": 0}


def test_same_seed_same_sequence():
    one = LinkSimulator(mesh4(), seed=42)
    two = LinkSimulator(mesh4(), seed=42)
    assert generate(one, "b", 5) == generate(two, "b", 5)
    p1, _ = one.link_pools("b")
    p2, _ = two.link_pools("b")
    assert [p1.table.material(k) for k in key_ids(p1.table)] == [
        p2.table.material(k) for k in key_ids(p2.table)
    ]


def test_different_seeds_different_keys():
    one = LinkSimulator(mesh4(), seed=1)
    two = LinkSimulator(mesh4(), seed=2)
    assert generate(one, "b", 3) != generate(two, "b", 3)


def test_links_have_independent_streams():
    sim = LinkSimulator(mesh4(), seed=1)
    assert set(generate(sim, "a", 4)).isdisjoint(generate(sim, "b", 4))


def test_derive_key_shapes():
    key_id = derive_key_id(0, "d", 0)  # material size: test_key_size_from_config
    assert key_id == key_id.lower()
    int(key_id, 16)  # 128-bit lowercase hex
    assert len(key_id) == 32


def test_key_size_from_config():
    topo = mesh4(config={"key_size_bytes": 16})
    sim = LinkSimulator(topo, seed=1)
    (key_id,) = generate(sim, "a", 1)
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
    first, second = generate(sim, "d", 2)
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
    (key_id,) = generate(sim, "c", 1)
    pool, _ = sim.link_pools("c")
    assert sim.find_material(key_id) == pool.table.material(key_id)
    assert sim.find_material("no-such-key") is None
    with pytest.raises(KeyError):
        pool.table.material("no-such-key")


# ── lazy id derivation ──


def eager_id(seed: int, link_id: str, index: int) -> str:
    return hashlib.shake_256(f"{seed}|{link_id}|{index}|id".encode()).hexdigest(16)


def eager_material(seed: int, link_id: str, index: int) -> bytes:
    return hashlib.shake_256(f"{seed}|{link_id}|{index}|key".encode()).digest(32)


class EagerLinks:
    """The reference: every id hashed the moment its key is generated, and
    each key's state at each endpoint scanned in generation order."""

    def __init__(self, seed: int):
        self.seed = seed
        self.ids: dict[str, list[str]] = {"c": [], "d": []}
        self.where: dict[str, tuple[str, int]] = {}  # id -> (link, index)
        self.state: tuple[dict[str, str], dict[str, str]] = ({}, {})  # link d

    def generate(self, link_id: str, n: int) -> None:
        ids = self.ids[link_id]
        for index in range(len(ids), len(ids) + n):
            key_id = eager_id(self.seed, link_id, index)
            ids.append(key_id)
            self.where[key_id] = (link_id, index)
            if link_id == "d":
                for state in self.state:
                    state[key_id] = "available"

    def material(self, key_id: str) -> bytes | None:
        if key_id not in self.where:
            return None
        return eager_material(self.seed, *self.where[key_id])

    def counts(self, end: int) -> dict[str, int]:
        out = {"available": 0, "reserved": 0, "consumed": 0}
        for state in self.state[end].values():
            out[state] += 1
        return out


LAZY_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("generate"), st.sampled_from("cd"), st.integers(0, 5)),
        st.tuples(st.just("tick"), st.sampled_from("cd"), st.sampled_from([0.0, 0.1, 0.35])),
        st.tuples(st.just("reserve"), st.integers(0, 1), st.just(0)),
        st.tuples(st.just("take"), st.integers(0, 1), st.integers(0, 40)),
        st.tuples(st.just("consume"), st.integers(0, 1), st.integers(0, 40)),
        st.tuples(st.just("find"), st.just(0), st.integers(0, 40)),
    ),
    max_size=40,
)


@given(LAZY_OPS)
@settings(max_examples=150, deadline=None)
def test_lazy_table_matches_eager_reference(ops):
    sim = LinkSimulator(mesh4(), seed=11)
    ref = EagerLinks(11)
    pools = sim.link_pools("d")

    def pick(choice: int) -> str:
        # Link d's and link c's generated ids, derived or not, an id of
        # link d that is not generated yet, and an id of no link.
        known = ref.ids["d"] + ref.ids["c"]
        extra = [eager_id(11, "d", len(ref.ids["d"])), "no-such-key"]
        return (known + extra)[choice % (len(known) + 2)]

    for op, arg, choice in ops:
        if op == "generate":
            sim.generate_keys(arg, choice)
            ref.generate(arg, choice)
        elif op == "tick":
            ref.generate(arg, sim.tick(arg, choice))
        elif op == "reserve":
            state = ref.state[arg]
            want = next((k for k in ref.ids["d"] if state[k] == "available"), None)
            assert pools[arg].reserve_next() == want
            if want is not None:
                state[want] = "reserved"
        elif op == "take":
            key_id = pick(choice)
            available = ref.state[arg].get(key_id) == "available"
            assert pools[arg].take(key_id) == (ref.material(key_id) if available else None)
            if available:
                ref.state[arg][key_id] = "consumed"
        elif op == "consume":
            key_id = pick(choice)
            if ref.state[arg].get(key_id) == "reserved":
                assert pools[arg].consume(key_id) == ref.material(key_id)
                ref.state[arg][key_id] = "consumed"
        else:
            key_id = pick(choice)
            assert sim.find_material(key_id) == ref.material(key_id)
        for end, pool in enumerate(pools):
            assert pool.counts() == ref.counts(end)
            assert pool.generated_total == len(ref.ids["d"])
        assert sim.tables["c"].generated == len(ref.ids["c"])
    for link_id in ("c", "d"):
        assert key_ids(sim.tables[link_id]) == ref.ids[link_id]


def test_take_and_find_material_of_an_id_not_yet_derived():
    sim = LinkSimulator(mesh4(), seed=1)
    sim.generate_keys("d", 5)
    pool, peer = sim.link_pools("d")
    fifth, sixth = derive_key_id(1, "d", 4), derive_key_id(1, "d", 5)
    assert sim.find_material(fifth) == eager_material(1, "d", 4)
    assert pool.take(fifth) == eager_material(1, "d", 4)
    assert pool.counts() == {"available": 4, "reserved": 0, "consumed": 1}
    assert pool.reserve_next() == derive_key_id(1, "d", 0)  # FIFO order kept
    # The sixth key is not generated yet: refused, then served once it is.
    assert pool.take(sixth) is None and sim.find_material(sixth) is None
    sim.generate_keys("d", 1)
    assert peer.take(sixth) == eager_material(1, "d", 5)

    fresh = LinkSimulator(mesh4(), seed=1)
    fresh.generate_keys("d", 5)
    assert fresh.find_material(fifth) == eager_material(1, "d", 4)


def test_id_at_reads_only_generated_keys():
    sim = LinkSimulator(mesh4(), seed=1)
    sim.generate_keys("d", 2)
    table = sim.tables["d"]
    assert table.id_at(1) == derive_key_id(1, "d", 1)
    for index in (2, -1):
        with pytest.raises(IndexError):
            table.id_at(index)
    assert sim.find_material(derive_key_id(1, "d", 2)) is None


def test_take_of_another_links_id_is_refused():
    sim = LinkSimulator(mesh4(), seed=1)
    sim.generate_keys("c", 3)
    sim.generate_keys("d", 3)
    pool, _ = sim.link_pools("d")
    foreign = derive_key_id(1, "c", 2)
    assert pool.take(foreign) is None
    assert pool.counts() == {"available": 3, "reserved": 0, "consumed": 0}
    owner, _ = sim.link_pools("c")
    assert owner.take(foreign) == eager_material(1, "c", 2)


def test_recurring_id_is_still_caught(monkeypatch):
    monkeypatch.setattr(linksim, "derive_key_id", lambda seed, link_id, index: "same")
    sim = LinkSimulator(mesh4(), seed=1)
    sim.generate_keys("d", 2)
    pool, _ = sim.link_pools("d")
    assert pool.reserve_next() == "same"
    with pytest.raises(RuntimeError, match="key id same recurred on link d"):
        pool.reserve_next()
    sim.generate_keys("c", 2)
    with pytest.raises(RuntimeError, match="recurred on link c"):
        sim.find_material("no-such-key")


def test_simulation_set_up_derives_no_id(monkeypatch):
    def refuse(seed, link_id, index):
        raise AssertionError(f"derived id {index} of link {link_id} at set-up")

    raw = mesh4_dict()
    raw["links"][3]["initial_pool"] = 10**9
    monkeypatch.setattr(linksim, "derive_key_id", refuse)
    sim = Simulation(topology_from_dict(raw), seed=1)
    pools = sim.linksim.link_pools("d")
    for pool in pools:
        assert pool.counts() == {"available": 10**9, "reserved": 0, "consumed": 0}
    assert sim.linksim.pool_report()["d"]["generated"] == 10**9


# ── material derived once per key, held between its two consumptions ──


def packaged_run(topology: str, scenario: str, seed: int):
    return run(
        load_topology_file(data_path("topologies", topology)),
        load_scenario(data_path("scenarios", scenario)),
        seed=seed,
    )


PACKAGED = (
    ("chain32.json", "linear32.json", 31),
    ("mesh4_relay.json", "relay1hop.json", 2),
    ("mesh4_direct.json", "direct.json", 1),
)


@pytest.fixture
def derivations(monkeypatch) -> Counter:
    """Every derivation of key material, counted per (seed, link, index)."""
    counted: Counter = Counter()
    derive = linksim.derive_material

    def spy(seed, link_id, index, size):
        counted[seed, link_id, index] += 1
        return derive(seed, link_id, index, size)

    monkeypatch.setattr(linksim, "derive_material", spy)
    return counted


def consumed_keys(sim: LinkSimulator) -> set[tuple[str, int]]:
    """(link, index) of every key some endpoint pool consumed."""
    return {
        (link_id, table.index_of(key_id))
        for link_id, table in sim.tables.items()
        for pool in sim.link_pools(link_id)
        for key_id in pool.consumed
    }


@pytest.mark.parametrize("topology,scenario,keys", PACKAGED)
def test_each_packaged_key_is_derived_once(derivations, topology, scenario, keys):
    result = packaged_run(topology, scenario, seed=5)
    assert result.exit_code == 0
    assert sum(derivations.values()) == len(derivations) == keys
    assert {(link, index) for _, link, index in derivations} == consumed_keys(result.sim.linksim)


def test_each_key_of_a_faulted_grid_run_is_derived_once(derivations):
    result = faulted_grid_run()
    assert result.sim.transport.dropped and result.sim.transport.corrupted
    assert set(derivations.values()) == {1}
    assert {(link, index) for _, link, index in derivations} == consumed_keys(result.sim.linksim)


def test_clean_runs_end_with_nothing_held():
    results = [packaged_run(topology, scenario, seed=5) for topology, scenario, _ in PACKAGED]
    raw = grid_dict(5, initial_pool=16, session_lifetime_ms=None)
    results.append(run_events(topology_from_dict(raw), grid_events(raw, random.Random(4), 30)))
    for result in results:
        assert result.exit_code == 0
        assert all(r.status == STATUS_OK for r in result.sim.requests)
        linksim_ = result.sim.linksim
        assert_held_one_sided(linksim_)
        assert {link_id: t.held for link_id, t in linksim_.tables.items() if t.held} == {}


def test_a_lost_key_relay_leaves_its_k2_held_at_the_sending_end():
    # A's relay runs KMS_1b -> KMS_3b, then KMS_3d -> KMS_4d. Its one
    # KeyRelay is dropped: K1 (link b) is consumed at both ends once the
    # initiator times out, but K2, link d's first key, only at KMS_3d.
    result = run_events(
        mesh4({"APP_A": "N1", "APP_B": "N4"}),
        [
            {"at": 0, "event": "drop_message", "n": 1, "of_type": "key_relay"},
            {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        ],
        seed=3,
    )
    (request,) = result.sim.requests
    assert request.status != STATUS_OK
    sim = result.sim.linksim
    k2 = derive_key_id(3, "d", 0)
    assert {link_id: set(t.held) for link_id, t in sim.tables.items() if t.held} == {"d": {k2}}
    assert sim.tables["d"].held[k2] == eager_material(3, "d", 0)
    near, far = sim.link_pools("d")
    assert (near.owner_kms, far.owner_kms) == ("KMS_3d", "KMS_4d")
    assert k2 in near.consumed and k2 not in far.consumed


_FAULT_TYPES = (
    None, "relay_process_request", "ext_key_request", "key_relay",
    "key_relay_response", "ack_request", "key_delivery", "relay_path_install",
)


def fresh_material(sim: LinkSimulator, key_id: str, link_ids) -> bytes | None:
    """key_id's material hashed afresh from (seed, link, index), found by
    hashing every generated id of each of link_ids; None if none has it."""
    for link_id in link_ids:
        table = sim.tables[link_id]
        for index in range(table.generated):
            stem = f"{table.seed}|{link_id}|{index}"
            if hashlib.shake_256(f"{stem}|id".encode()).hexdigest(16) == key_id:
                return hashlib.shake_256(f"{stem}|key".encode()).digest(table.key_size)
    return None


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(
        st.tuples(st.booleans(), st.integers(1, 3), st.sampled_from(_FAULT_TYPES)),
        min_size=1, max_size=4,
    ),
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 9)),
        min_size=1, max_size=8,
    ),
)
def test_every_material_read_is_the_fresh_derivation(topology_seed, faults, requests):
    """Over random topologies, faults and requests, every material a pool
    hands out and every material the audit's find_material reads is the
    key's material hashed afresh from (seed, link, index)."""
    rng = random.Random(topology_seed)
    raw = random_topology(rng)
    nodes = [node["id"] for node in raw["nodes"]]
    raw["apps"] = [{"id": f"APP_{node}", "node": node} for node in nodes]
    for link in raw["links"]:
        link["initial_pool"] = rng.randint(1, 6)
    seed = rng.randint(0, 99)
    events = [
        {"at": 0, "event": "drop_message" if drop else "corrupt_message", "n": n}
        | ({} if of_type is None else {"of_type": of_type})
        for drop, n, of_type in faults
    ]
    links = sorted(link["id"] for link in raw["links"])
    for i, (src, dst, index) in enumerate(requests):
        src, dst = nodes[src % len(nodes)], nodes[dst % len(nodes)]
        if src == dst:
            continue
        at = 2000 * i
        events.append({"at": at, "event": "app_get_key", "app_src": f"APP_{src}",
                       "app_dst": f"APP_{dst}"})
        # A pickup by id of some link's index-th key: taken where it is
        # that KMS's own available key, refused otherwise.
        key_id = derive_key_id(seed, links[index % len(links)], index % 5)
        events.append({"at": at + 10, "event": "app_get_key_with_id", "app_src": f"APP_{dst}",
                       "app_dst": f"APP_{src}", "key_id": key_id})
        events.append({"at": at + 20, "event": "tick_links", "dt_ms": 300})

    reads = []
    consume, take, find = KeyPool.consume, KeyPool.take, LinkSimulator.find_material

    def consumed(pool, key_id):
        material = consume(pool, key_id)
        reads.append((pool.table.link_id, key_id, material))
        return material

    def taken(pool, key_id):
        material = take(pool, key_id)
        if material is not None:
            reads.append((pool.table.link_id, key_id, material))
        return material

    def found(sim, key_id):
        material = find(sim, key_id)
        reads.append((None, key_id, material))
        return material

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(KeyPool, "consume", consumed)
        patch.setattr(KeyPool, "take", taken)
        patch.setattr(LinkSimulator, "find_material", found)
        result = run_events(topology_from_dict(raw), events, seed=seed)
    sim = result.sim.linksim
    for link_id, key_id, material in reads:
        want = fresh_material(sim, key_id, links if link_id is None else [link_id])
        assert material == want, (link_id, key_id)
