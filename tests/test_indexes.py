"""Every lookup index against the brute-force scan it replaced.

Each oracle below is the scan the index replaced, written out here, so an
index that drifts from its data shows up as a disagreement on random inputs.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    grid_dict,
    grid_events,
    incident_links,
    key_ids,
    mesh4,
    random_topology,
    run_events,
)
from qkdrelay import kms, qusec
from qkdrelay.linksim import LinkSimulator
from qkdrelay.qusec import (
    SESSION_COMPLETED,
    SESSION_EXPIRED,
    SESSION_INSTALLED,
    QusecEntity,
)
from qkdrelay.protocol import (
    STATUS_NO_RULE,
    ExtKeyRequest,
    GetKey,
    KeyRelay,
    RelayPathInstall,
    RelayProcessRequest,
)
from qkdrelay.topology import topology_from_dict

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
    """The reference for one link: each key's id and material, stored when
    the key is generated, how many ids the run has handed out, and each
    key's state at each endpoint, scanned in generation order."""

    def __init__(self, seed: int, link_id: str):
        self.seed = seed
        self.link_id = link_id
        self.order: list[str] = []
        self.material: dict[str, bytes] = {}
        self.handed_out = 0  # the first handed_out ids of order
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

    def consumed_distinct(self) -> int:
        return len(set(self.ids(0, "consumed")) | set(self.ids(1, "consumed")))

    def reserve(self, end: int) -> str | None:
        """The end's first available key, now reserved and handed out."""
        available = self.ids(end, "available")
        if not available:
            return None
        key_id = available[0]
        self.state[end][key_id] = "reserved"
        self.handed_out = max(self.handed_out, self.order.index(key_id) + 1)
        return key_id


POOL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("generate"), st.sampled_from("cd"), st.integers(0, 5)),
        st.tuples(st.just("tick"), st.sampled_from("cd"), st.sampled_from([0.0, 0.1, 0.35])),
        st.tuples(st.just("reserve"), st.integers(0, 1), st.just(0)),
        st.tuples(st.just("take"), st.integers(0, 1), st.integers(0, 40)),
        st.tuples(st.just("consume"), st.integers(0, 1), st.integers(0, 40)),
        st.tuples(st.just("find"), st.just(0), st.integers(0, 40)),
    ),
    max_size=60,
)


@given(st.integers(0, 99), POOL_OPS)
@settings(max_examples=200, deadline=None)
def test_reserve_next_matches_fifo_scan_under_random_operations(seed, ops):
    """Link d's two pools against the reference, with each of link c's ids
    handed out as its key is generated. A take or a find may name a
    handed-out id of link d, an id of link c or of another seed, link d's
    first id not handed out, or no id at all; a consume names only a key
    its pool reserved."""
    sim = LinkSimulator(mesh4(), seed=seed)
    refs = {link_id: KeyStates(seed, link_id) for link_id in "cd"}
    ref, foreign_ref = refs["d"], refs["c"]
    pools = sim.link_pools("d")
    stranger = eager_key(seed + 1, "d", 0)[0]

    def generated(link_id: str, n: int) -> None:
        refs[link_id].generated(n)
        if link_id == "c":
            table = sim.tables["c"]
            for index in range(foreign_ref.handed_out, table.generated):
                assert table.id_at(index) == foreign_ref.order[index]
            foreign_ref.handed_out = table.generated

    def handed_out() -> list[str]:
        return ref.order[: ref.handed_out]

    def unknown() -> list[str]:
        return ["no-such-key", stranger, eager_key(seed, "d", ref.handed_out)[0]]

    def pick(choice: int) -> str:
        names = handed_out() + foreign_ref.order + unknown()
        return names[choice % len(names)]

    def want_material(key_id: str) -> bytes | None:
        if key_id in foreign_ref.order:
            return foreign_ref.material[key_id]
        return ref.material[key_id] if key_id in handed_out() else None

    for op, arg, choice in ops:
        if op == "generate":
            sim.generate_keys(arg, choice)
            generated(arg, choice)
        elif op == "tick":
            generated(arg, sim.tick(arg, choice))
        elif op == "reserve":
            assert pools[arg].reserve_next() == ref.reserve(arg)
        elif op == "take":
            # A take by id (a relay hop's K1 or K2, a direct serve's peer
            # copy) jumps the FIFO, and spends only an available key.
            key_id = pick(choice)
            available = key_id in handed_out() and ref.state[arg][key_id] == "available"
            assert pools[arg].take(key_id) == (ref.material[key_id] if available else None)
            if available:
                ref.state[arg][key_id] = "consumed"
        elif op == "consume":
            reserved = ref.ids(arg, "reserved")
            if reserved:
                key_id = reserved[choice % len(reserved)]
                assert pools[arg].consume(key_id) == ref.material[key_id]
                ref.state[arg][key_id] = "consumed"
        else:
            key_id = pick(choice)
            assert sim.find_material(key_id) == want_material(key_id)
        for end, pool in enumerate(pools):
            assert pool.counts() == ref.counts(end)
            assert pool.generated_total == len(ref.order)
            assert pool.consumed_total == len(ref.ids(end, "consumed"))
        assert sim.pool_report()["d"]["consumed_distinct"] == ref.consumed_distinct()
        assert sim.tables["c"].generated == len(foreign_ref.order)
        # Lookups derive nothing: every derived id was handed out above.
        for link_id, each in refs.items():
            assert len(sim.tables[link_id]._ids) == each.handed_out

    for pool in sim.link_pools("c"):
        assert pool.counts() == foreign_ref.counts(0)
    # Every handed-out key's material, read every way, at both ends.
    for key_id in foreign_ref.order:
        assert sim.find_material(key_id) == foreign_ref.material[key_id]
    for key_id in unknown():
        assert sim.find_material(key_id) is None
    for end, pool in enumerate(pools):
        for key_id in foreign_ref.order + unknown():
            assert pool.take(key_id) is None
            with pytest.raises(KeyError):
                pool.table.material(key_id)
        for key_id in handed_out():
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
        assert pool.consumed == set(handed_out())
    assert sim.pool_report()["d"]["consumed_distinct"] == ref.handed_out
    for link_id, each in refs.items():
        assert key_ids(sim.tables[link_id]) == each.order


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
    assert pool.take(second) is not None  # taken by id, out of FIFO order
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


def log_sessions(monkeypatch) -> list:
    """Every session QuSeC opens from now on, logged from outside it in the
    order opened; the caller clears the list between runs."""
    opened = []
    make = qusec.SessionState

    def logged(*args):
        opened.append(make(*args))
        return opened[-1]

    monkeypatch.setattr(qusec, "SessionState", logged)
    return opened


def newest_per_pair(opened: list) -> list:
    """Each ordered app pair's last session in opened, in opened's order."""
    last = {(s.app_src, s.app_dst): i for i, s in enumerate(opened)}
    return [s for i, s in enumerate(opened) if last[s.app_src, s.app_dst] == i]


def test_session_and_rule_lookups_match_scans(monkeypatch):
    seen = {"reused": 0, "lapsed_read": 0, "rules": 0, "refused": 0, "superseded": 0}

    opened = log_sessions(monkeypatch)
    discover = QusecEntity._handle_discovery

    def checked_discovery(self, msg, reply_to):
        if msg.kind != "get_key_with_id":
            return discover(self, msg, reply_to)
        # A pickup reads the newest session opened with the requester as its
        # target, lapsed or not, and answers where that session ends.
        want = None
        for session in reversed(opened):
            if session.app_src == msg.app_dst and session.app_dst == msg.app_src:
                want = session
                break
        assert self.sessions.get((msg.app_dst, msg.app_src)) is want
        send, sent = self.send, []
        self.send = lambda to, reply: (sent.append(reply), send(to, reply))
        try:
            discover(self, msg, reply_to)
        finally:
            self.send = send
        if want is None:
            return
        (answer,) = sent
        assert answer.id_kms == want.kms_path[-1]
        assert want.status == SESSION_COMPLETED
        seen["reused"] += 1
        lifetime = self.topology.config.session_lifetime_ms
        if lifetime is not None and self.services.now_ms - want.created_ms > lifetime:
            seen["lapsed_read"] += 1

    # Every install a KMS gets, logged from outside it: kms id -> (app_src,
    # app_dst, prev_hop) -> the newest install for that key.
    newest: dict[str, dict] = {}
    install = kms._HANDLERS[RelayPathInstall]

    def logged_install(self, msg, sender):
        newest.setdefault(self.entity_id, {})[msg.app_src, msg.app_dst, msg.prev_hop] = msg
        install(self, msg, sender)

    def checked_lookup(handler, prev_hop_is_sender):
        def checked(self, msg, sender):
            key = (msg.app_src, msg.app_dst, sender if prev_hop_is_sender else None)
            want = newest.get(self.entity_id, {}).get(key)
            assert self.rules.get(key) is want
            seen["rules"] += 1
            if type(msg) not in (ExtKeyRequest, KeyRelay):
                return handler(self, msg, sender)
            # Refused exactly when msg names another association.
            send, sent = self.send, []
            self.send = lambda to, reply: (sent.append(reply), send(to, reply))
            try:
                handler(self, msg, sender)
            finally:
                self.send = send
            refused = any(
                STATUS_NO_RULE in (getattr(m, "status", None), getattr(m, "ack_status", None))
                for m in sent
            )
            assert refused == (want is None or want.id_association != msg.id_association)
            seen["refused"] += refused
            seen["superseded"] += refused and want is not None

        return checked

    monkeypatch.setattr(QusecEntity, "_handle_discovery", checked_discovery)
    monkeypatch.setitem(kms._HANDLERS, RelayPathInstall, logged_install)
    for msg_type, prev_hop_is_sender in (
        (GetKey, False), (RelayProcessRequest, True), (ExtKeyRequest, True), (KeyRelay, True),
    ):
        handler = checked_lookup(kms._HANDLERS[msg_type], prev_hop_is_sender)
        monkeypatch.setitem(kms._HANDLERS, msg_type, handler)
    # The last run loses two installs: after the first, a relay message
    # finds no rule; after the second, it names an association its KMS
    # never got, while the KMS still holds an older one for the pair.
    lost_installs = [
        {"at": 0, "event": "drop_message", "n": n, "of_type": "relay_path_install"}
        for n in (7, 241)
    ]
    for lifetime, faults in ((None, []), (60, []), (150, []), (None, lost_installs)):
        newest.clear()
        opened.clear()
        lapsed_before = seen["lapsed_read"]
        raw = grid_dict(4, initial_pool=24, session_lifetime_ms=lifetime)
        events = faults + grid_events(raw, random.Random(lifetime or 0), pairs=40)
        if lifetime is not None:
            # Only a pickup reads a session: repeat the last one after its
            # session has lapsed, then open the pair a new session whose one
            # pickup comes only after it has lapsed.
            get_key, pickup = events[-2:]
            at = pickup["at"] + lifetime + 10
            events += [
                {**pickup, "at": at},
                {**get_key, "at": at + 10},
                {**pickup, "at": at + lifetime + 20},
            ]
        result = run_events(topology_from_dict(raw), events, seed=2)
        assert result.report["quiescent"]
        assert list(result.sim.qusec.sessions.values()) == newest_per_pair(opened)
        assert result.sim.qusec.sessions_opened == len(opened)
        if lifetime is not None:
            assert seen["lapsed_read"] > lapsed_before
    assert seen["reused"] > seen["lapsed_read"] > 0
    assert seen["rules"] > 0
    assert seen["refused"] > seen["superseded"] > 0


def test_session_expiry_matches_full_scan(monkeypatch):
    # A session reads as expired exactly when the clock is more than the
    # lifetime past its creation: the clock at the discovery just handled,
    # and in the final report the clock at the end of the run. A stored
    # status is never "expired". The report lists each app pair's newest
    # session, in the order the sessions were opened.
    seen = {"checks": 0, "expired": 0, "live": 0}
    opened = log_sessions(monkeypatch)
    handle_discovery = QusecEntity._handle_discovery

    def scan(controller, now_ms):
        lifetime = controller.topology.config.session_lifetime_ms
        return [
            (s.id_association, SESSION_EXPIRED if now_ms - s.created_ms > lifetime else s.status)
            for s in newest_per_pair(opened)
        ]

    def listed(dump):
        return [(s["id_association"], s["status"]) for s in dump["sessions"]]

    def checked_discovery(self, msg, reply_to):
        handle_discovery(self, msg, reply_to)
        now_ms = self.services.now_ms
        assert {s.status for s in opened} <= {SESSION_INSTALLED, SESSION_COMPLETED}
        got = listed(self.dump_state())
        assert got == scan(self, now_ms)
        got = [status for _, status in got]
        seen["checks"] += 1
        seen["expired"] += got.count(SESSION_EXPIRED)
        seen["live"] += len(got) - got.count(SESSION_EXPIRED)

    monkeypatch.setattr(QusecEntity, "_handle_discovery", checked_discovery)
    for lifetime in (60, 150):
        opened.clear()
        raw = grid_dict(4, initial_pool=24, session_lifetime_ms=lifetime)
        events = grid_events(raw, random.Random(lifetime), pairs=40)
        result = run_events(topology_from_dict(raw), events, seed=2)
        assert result.report["quiescent"]
        reported = listed(result.report["controller"])
        assert reported == scan(result.sim.qusec, result.report["sim_time_ms"])
        assert result.report["controller"]["sessions_opened"] == len(opened)
    assert seen["checks"] > 0
    assert seen["expired"] > 0
    assert seen["live"] > 0
