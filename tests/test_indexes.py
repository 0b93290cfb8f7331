"""Every lookup index against the brute-force scan it replaced.

Each oracle below is the scan the index replaced, written out here, so an
index that drifts from its data shows up as a disagreement on random inputs.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from conftest import (
    grid_dict,
    grid_events,
    incident_links,
    key_ids,
    mesh4,
    random_topology,
    run_events,
)
from qkdrelay.kms import KmsEntity
from qkdrelay.linksim import LinkSimulator
from qkdrelay.qusec import SESSION_EXPIRED, QusecEntity
from qkdrelay.topology import render_kms_id, topology_from_dict

# ── topology: adjacency and KMS names ──


def with_parallel_links(raw: dict, rng: random.Random) -> dict:
    """Copy of raw with up to three extra links parallel to existing ones,
    some with their endpoints swapped."""
    extra = []
    for i, link in enumerate(rng.sample(raw["links"], min(3, len(raw["links"])))):
        a, b = (link["b"], link["a"]) if rng.random() < 0.5 else (link["a"], link["b"])
        extra.append({**link, "id": f"p{i}", "a": a, "b": b})
    return {**raw, "links": raw["links"] + extra}


def test_graph_helpers_match_link_scans():
    rng = random.Random(41)
    for trial in range(60):
        raw = random_topology(rng)
        if trial % 2:
            raw = with_parallel_links(raw, rng)
        topo = topology_from_dict(raw)
        links = list(topo.links.values())
        probes = sorted(topo.nodes) + ["N99"]
        for u in probes:
            assert topo.neighbors(u) == [
                (l.b if u == l.a else l.a, l) for l in links if u in l.endpoints()
            ]
            assert incident_links(topo, u) == [l for l in links if u in l.endpoints()]
            for v in probes:
                assert topo.links_between(u, v) == [
                    l for l in links if {u, v} == set(l.endpoints())
                ]


def test_parse_kms_id_matches_name_scan():
    rng = random.Random(43)
    for trial in range(60):
        raw = random_topology(rng)
        if trial % 2:
            raw = with_parallel_links(raw, rng)
        topo = topology_from_dict(raw)
        seats = [(end, l.id) for l in topo.links.values() for end in l.endpoints()]
        names = [render_kms_id(n, l) for n, l in seats] + ["KMS_99z", "KMS_", ""]
        assert sorted(topo.kms_names) == sorted(names[: len(seats)])
        for name in names:
            matches = [(n, l) for n, l in seats if render_kms_id(n, l) == name]
            if matches:
                assert topo.kms_names[name] == matches[0]
                assert topo.kms_node(name) == matches[0][0]
            else:
                assert name not in topo.kms_names
                with pytest.raises(KeyError):
                    topo.kms_node(name)


# ── linksim: shared key table, FIFO cursor and derived material ──


def eager_key(seed: int, link_id: str, index: int) -> tuple[str, bytes]:
    """The link's key stream written out: the index-th key's id and its
    32-byte material, both derived up front."""
    stem = f"{seed}|{link_id}|{index}"
    return (
        hashlib.shake_256(f"{stem}|id".encode()).hexdigest(16),
        hashlib.shake_256(f"{stem}|key".encode()).digest(32),
    )


class KeyStates:
    """The reference: each key's material and its state at each endpoint,
    stored per key when generated and scanned in generation order."""

    def __init__(self, seed: int, link_id: str):
        self.seed = seed
        self.link_id = link_id
        self.order: list[str] = []
        self.material: dict[str, bytes] = {}
        self.state: tuple[dict[str, str], dict[str, str]] = ({}, {})

    def generated(self, n: int) -> None:
        for index in range(len(self.order), len(self.order) + n):
            key_id, material = eager_key(self.seed, self.link_id, index)
            self.order.append(key_id)
            self.material[key_id] = material
            for state in self.state:
                state[key_id] = "available"

    def ids(self, end: int, wanted: str) -> list[str]:
        return [k for k in self.order if self.state[end][k] == wanted]

    def counts(self, end: int) -> dict[str, int]:
        return {s: len(self.ids(end, s)) for s in ("available", "reserved", "consumed")}


def test_reserve_next_matches_fifo_scan_under_random_operations():
    rng = random.Random(47)
    for trial in range(40):
        sim = LinkSimulator(mesh4(), seed=trial)
        ref = KeyStates(trial, "d")
        n = rng.randint(0, 6)
        sim.generate_keys("d", n)
        ref.generated(n)
        foreign_ref = KeyStates(trial, "c")
        sim.generate_keys("c", 2)
        foreign_ref.generated(2)
        foreign = foreign_ref.order  # another link's keys
        stranger = eager_key(trial + 1, "d", 0)[0]  # another seed's key
        pools = sim.link_pools("d")
        for _ in range(80):
            end = rng.randrange(2)
            pool, state = pools[end], ref.state[end]
            op = rng.random()
            if op < 0.3:
                available = ref.ids(end, "available")
                want = available[0] if available else None
                assert pool.reserve_next() == want
                if want is not None:
                    state[want] = "reserved"
            elif op < 0.6:
                # A pickup by id (get_key_with_id) jumps the FIFO; it may name
                # a key in any state, on another link, or none at all.
                key_id = rng.choice(ref.order + foreign + ["no-such-key", stranger])
                available = state.get(key_id) == "available"
                assert pool.take(key_id) == (ref.material[key_id] if available else None)
                if available:
                    state[key_id] = "consumed"
            elif op < 0.8:
                reserved = ref.ids(end, "reserved")
                if reserved:
                    key_id = rng.choice(reserved)
                    assert pool.consume(key_id) == ref.material[key_id]
                    state[key_id] = "consumed"
            else:
                ref.generated(sim.tick("d", rng.choice([0.0, 0.1, 0.25])))
            for e, p in enumerate(pools):
                assert p.counts() == ref.counts(e)
                assert p.generated_total == len(ref.order)
                assert p.consumed_total == len(ref.ids(e, "consumed"))
            assert sim.link_consumed_ids("d") == set(ref.ids(0, "consumed")) | set(
                ref.ids(1, "consumed")
            )
        for pool in sim.link_pools("c"):
            assert pool.counts() == {"available": 2, "reserved": 0, "consumed": 0}
        # Every key's material, read every way, at both ends.
        for key_id in foreign:
            assert sim.find_material(key_id) == foreign_ref.material[key_id]
        for key_id in ("no-such-key", stranger):
            assert sim.find_material(key_id) is None
        for end, pool in enumerate(pools):
            for key_id in foreign + ["no-such-key", stranger]:
                assert pool.take(key_id) is None
                with pytest.raises(KeyError):
                    pool.table.material(key_id)
            for key_id in ref.order:
                want = ref.material[key_id]
                assert pool.table.material(key_id) == want
                assert sim.find_material(key_id) == want
                state = ref.state[end][key_id]
                if state == "available":
                    assert pool.take(key_id) == want
                elif state == "reserved":
                    assert pool.consume(key_id) == want
                else:
                    assert pool.take(key_id) is None
            assert pool.counts()["consumed"] == len(ref.order)


def test_endpoint_pools_share_one_table():
    sim = LinkSimulator(mesh4(), seed=1)
    tables = []
    for link_id in ("a", "b", "c", "d"):
        a, b = sim.link_pools(link_id)
        assert a.table is b.table is sim.tables[link_id]
        assert a.reserved is not b.reserved and a.consumed is not b.consumed
        tables.append(a.table)
    assert len({id(t) for t in tables}) == 4


def test_take_on_another_links_key_consumes_nothing():
    sim = LinkSimulator(mesh4(), seed=1)
    sim.fill_initial()
    pool, _ = sim.link_pools("d")
    for other, _ in map(sim.link_pools, ("a", "b", "c")):
        for key_id in key_ids(other.table):
            assert sim.find_material(key_id) is not None
            assert pool.take(key_id) is None
    assert pool.counts() == {"available": 8, "reserved": 0, "consumed": 0}
    assert all(not p.consumed for p in sim.pools.values())


def test_reserve_next_after_id_jump_exhaustion_and_tick():
    sim = LinkSimulator(mesh4(), seed=1)
    sim.generate_keys("d", 3)
    pool, _ = sim.link_pools("d")
    first, second, third = key_ids(pool.table)
    pool.consume(second)  # taken by id, out of FIFO order
    assert pool.reserve_next() == first
    assert pool.reserve_next() == third
    assert pool.reserve_next() is None
    assert pool.reserve_next() is None  # exhausted stays exhausted
    assert sim.tick("d", 0.1) == 1
    assert pool.reserve_next() == pool.table.id_at(3)
    assert pool.reserve_next() is None


def test_find_material_matches_pool_scan():
    sim = LinkSimulator(mesh4(), seed=3)
    sim.fill_initial()
    for link_id in sim.tables:
        sim.tick(link_id, 0.35)
    other = LinkSimulator(mesh4(), seed=4)
    other.fill_initial()

    def scan(key_id):
        for table in sim.tables.values():
            if key_id in key_ids(table):
                return table.material(key_id)
        return None

    known = [k for table in sim.tables.values() for k in key_ids(table)]
    unknown = ["", "no-such-key"] + [k for table in other.tables.values() for k in key_ids(table)]
    for key_id in known + unknown:
        assert sim.find_material(key_id) == scan(key_id)
    assert all(sim.find_material(k) is None for k in unknown)


# ── qusec sessions and kms rules, checked on every lookup of a run ──


def test_session_and_rule_lookups_match_scans(monkeypatch):
    seen = {"reused": 0, "expired_skipped": 0, "rules": 0}

    find_session = QusecEntity._find_reusable_session

    def checked_session(self, app_src, app_dst):
        got = find_session(self, app_src, app_dst)
        want = None
        for session in reversed(self.sessions):
            if session.app_src != app_dst or session.app_dst != app_src:
                continue
            if session.status == SESSION_EXPIRED:
                seen["expired_skipped"] += 1
                continue
            want = session
            break
        assert got is want
        seen["reused"] += want is not None
        return got

    rule_for_pair = KmsEntity._rule_for_pair

    def checked_rule(self, app_src, app_dst, prev_hop):
        got = rule_for_pair(self, app_src, app_dst, prev_hop)
        want = None
        for rule in reversed(list(self.rules.values())):
            if (rule.app_src, rule.app_dst, rule.prev_hop) == (app_src, app_dst, prev_hop):
                want = rule
                break
        assert got is want
        seen["rules"] += 1
        return got

    monkeypatch.setattr(QusecEntity, "_find_reusable_session", checked_session)
    monkeypatch.setattr(KmsEntity, "_rule_for_pair", checked_rule)
    for lifetime in (None, 60, 150):
        raw = grid_dict(4, initial_pool=24, session_lifetime_ms=lifetime)
        events = grid_events(raw, random.Random(lifetime or 0), pairs=40)
        if lifetime is not None:
            # Only a pickup looks for a session to reuse: repeat the last
            # one after its session has expired.
            events.append({**events[-1], "at": events[-1]["at"] + lifetime + 10})
        result = run_events(topology_from_dict(raw), events, seed=2)
        assert result.report["quiescent"]
    assert seen["reused"] > 0
    assert seen["expired_skipped"] > 0
    assert seen["rules"] > 0


def test_session_gc_cursor_matches_full_scan(monkeypatch):
    seen = {"calls": 0, "expired": 0}
    session_gc = QusecEntity.session_gc

    def checked_gc(self, now_ms):
        want = [s.status for s in self.sessions]
        want_expired = 0
        for i, session in enumerate(self.sessions):
            if want[i] != SESSION_EXPIRED and now_ms - session.created_ms > self.session_lifetime_ms:
                want[i] = SESSION_EXPIRED
                want_expired += 1
        got_expired = session_gc(self, now_ms)
        assert [s.status for s in self.sessions] == want
        assert got_expired == want_expired
        seen["calls"] += 1
        seen["expired"] += got_expired
        return got_expired

    monkeypatch.setattr(QusecEntity, "session_gc", checked_gc)
    for lifetime in (60, 150):
        raw = grid_dict(4, initial_pool=24, session_lifetime_ms=lifetime)
        events = grid_events(raw, random.Random(lifetime), pairs=40)
        result = run_events(topology_from_dict(raw), events, seed=2)
        assert result.report["quiescent"]
    assert seen["calls"] > 0
    assert seen["expired"] > 0
