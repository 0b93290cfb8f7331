"""Local KMS: direct serving, relay hops, failure statuses, orphans."""

from __future__ import annotations

import sys

import pytest

from conftest import chain, delivered, mesh4, mesh4_dict, resolved, run_events
from test_repros import run_repro
from qkdrelay.harness import Simulation
from qkdrelay.topology import SimConfig, topology_from_dict
from qkdrelay.protocol import (
    STATUS_DECRYPT,
    STATUS_NO_KEY,
    STATUS_NO_RULE,
    STATUS_OK,
    STATUS_TIMEOUT,
    AckRequest,
    ExtKeyRequest,
    FaultRule,
    KeyDelivery,
    KeyRelay,
    KeyRelayResponse,
    RelayPathInstall,
    RelayProcessRequest,
    RelayProcessResponse,
    message_type,
    otp_xor,
)


def msgs_of(records, type_tag):
    return [e for e in records if message_type(e.msg) == type_tag]


def one_get_key():
    return [{"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"}]


# ── direct serving ──


def test_direct_serves_fifo_key():
    topo = mesh4({"APP_A": "N3", "APP_B": "N4"})
    result = run_events(topo, one_get_key())
    (request,) = resolved(result.sim, "APP_A")
    assert request.status == STATUS_OK
    pool = result.sim.linksim.pools["KMS_3d"]
    assert request.key_id == pool.table.id_at(0)  # oldest key served first
    assert request.material == pool.table.material(request.key_id)
    assert pool.counts()["consumed"] == 1
    # The key is spent at the peer too, and waits there for B's pickup.
    assert result.sim.linksim.pools["KMS_4d"].consumed == {request.key_id}
    (entry,) = result.sim.kms["KMS_4d"].delivered.items()
    assert entry[0] == (request.key_id, "APP_A", "APP_B")
    assert entry[1].material == request.material


def test_direct_empty_pool_fails_no_key():
    raw = mesh4_dict({"APP_A": "N3", "APP_B": "N4"})
    for link in raw["links"]:
        link["initial_pool"] = 0
    topo = topology_from_dict(raw)
    result = run_events(topo, one_get_key())
    (request,) = resolved(result.sim, "APP_A")
    assert request.status == STATUS_NO_KEY
    assert request.material == b""


def test_direct_pool_refills_by_tick():
    topo = mesh4(
        {"APP_A": "N3", "APP_B": "N4"},
        links=[
            {"id": "d", "a": "N3", "b": "N4", "key_rate": 4.0, "distance_km": 5.0, "initial_pool": 0},
        ],
        nodes=[{"id": "N3"}, {"id": "N4"}],
    )
    events = [
        {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        {"at": 100, "event": "tick_links", "dt_ms": 500},  # 4/s * 0.5s = 2 keys
        {"at": 200, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
    ]
    result = run_events(topo, events)
    first, second = resolved(result.sim, "APP_A")
    assert first.status == STATUS_NO_KEY
    assert second.status == STATUS_OK


def test_get_key_with_id_takes_a_direct_key_once_and_misses():
    # The serve leaves the key at KMS_4d for B's pickup; a pool is never
    # read by id.
    topo = mesh4({"APP_A": "N3", "APP_B": "N4"})
    events = [
        {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        {"at": 10, "event": "app_get_key_with_id", "app_src": "APP_B",
         "app_dst": "APP_A", "key_id_from": "APP_A"},
        {"at": 20, "event": "app_get_key_with_id", "app_src": "APP_B",
         "app_dst": "APP_A", "key_id_from": "APP_A"},   # already taken
        {"at": 30, "event": "app_get_key_with_id", "app_src": "APP_B",
         "app_dst": "APP_A", "key_id": "f00d"},         # never existed
    ]
    result = run_events(topo, events)
    (served,) = resolved(result.sim, "APP_A")
    statuses = [r.status for r in resolved(result.sim, "APP_B")]
    assert statuses == [STATUS_OK, STATUS_NO_KEY, STATUS_NO_KEY]
    assert resolved(result.sim, "APP_B")[0].material == served.material
    for kms_id in ("KMS_3d", "KMS_4d"):
        assert result.sim.linksim.pools[kms_id].counts()["consumed"] == 1


def test_a_pickup_of_an_unknown_id_derives_no_key_id():
    # The pickup reads only the store, so the size of the pool does not
    # matter: no id of the link's 2,000,000 keys is derived.
    topo = mesh4(
        {"APP_A": "N3", "APP_B": "N4"},
        links=[
            {"id": "d", "a": "N3", "b": "N4", "key_rate": 10.0, "distance_km": 5.0,
             "initial_pool": 2_000_000},
        ],
        nodes=[{"id": "N3"}, {"id": "N4"}],
    )
    events = [{"at": 0, "event": "app_get_key_with_id", "app_src": "APP_B",
               "app_dst": "APP_A", "key_id": "f00d"}]
    result = run_events(topo, events)
    assert [r.status for r in result.sim.requests] == [STATUS_NO_KEY]
    assert len(result.sim.linksim.tables["d"]._ids) == 0


# ── relay chain, happy path ──


def test_relay_end_to_end_key_equality(mesh4_relay_topology):
    result = run_events(
        mesh4_relay_topology,
        [
            {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
            {"at": 10, "event": "app_get_key_with_id", "app_src": "APP_B",
             "app_dst": "APP_A", "key_id_from": "APP_A"},
        ],
    )
    (got_a,) = resolved(result.sim, "APP_A")
    (got_b,) = resolved(result.sim, "APP_B")
    assert got_a.status == got_b.status == STATUS_OK
    assert got_a.key_id == got_b.key_id
    assert got_a.material == got_b.material
    assert len(got_a.material) == 32


def test_relay_wire_payload_is_encrypted(mesh4_relay_topology):
    result = run_events(mesh4_relay_topology, one_get_key())
    (relay,) = msgs_of(result.records, "key_relay")
    k1 = result.sim.linksim.find_material(relay.msg.id_relay_key)
    k2 = result.sim.linksim.find_material(relay.msg.id_key_encryption)
    assert relay.msg.encrypted_relay_key == otp_xor(k1, k2)
    assert relay.msg.encrypted_relay_key != k1
    assert relay.channel == "inter_node"


def test_relay_key_budget_one_per_link(mesh4_relay_topology):
    result = run_events(mesh4_relay_topology, one_get_key())
    consumed = {l: result.report["pools"][l]["consumed_distinct"] for l in ("a", "b", "c", "d")}
    assert consumed == {"a": 0, "b": 1, "c": 0, "d": 1}


def test_relay_delivered_store_holds_target_copy(mesh4_relay_topology):
    result = run_events(mesh4_relay_topology, one_get_key())
    (request,) = resolved(result.sim, "APP_A")
    store = result.sim.kms["KMS_4d"].delivered
    assert (request.key_id, "APP_A", "APP_B") in store
    assert store[(request.key_id, "APP_A", "APP_B")].material == request.material


def test_relay_two_hop_chain():
    topo = chain(3)  # N1..N4 linear: two trusted relays in the middle
    result = run_events(
        topo,
        [
            {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
            {"at": 10, "event": "app_get_key_with_id", "app_src": "APP_B",
             "app_dst": "APP_A", "key_id_from": "APP_A"},
        ],
    )
    a, b = resolved(result.sim, "APP_A")[0], resolved(result.sim, "APP_B")[0]
    assert a.status == b.status == STATUS_OK
    assert a.material == b.material
    assert len(msgs_of(result.records, "key_relay")) == 2
    assert len(msgs_of(result.records, "ext_key_request")) == 2
    # One key consumed per link, each mirrored in both endpoint pools.
    for link_id in topo.links:
        assert result.report["pools"][link_id]["consumed_distinct"] == 1


def test_a_pickup_takes_its_key_once(mesh4_relay_topology):
    # The first pickup pops the key from the delivered store; a second one
    # of the same id finds nothing.
    result = run_events(
        mesh4_relay_topology,
        [
            {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
            {"at": 10, "event": "app_get_key_with_id", "app_src": "APP_B",
             "app_dst": "APP_A", "key_id_from": "APP_A"},
            {"at": 20, "event": "app_get_key_with_id", "app_src": "APP_B",
             "app_dst": "APP_A", "key_id_from": "APP_A"},
        ],
    )
    (served,) = resolved(result.sim, "APP_A")
    first, second = resolved(result.sim, "APP_B")
    assert (first.status, first.material) == (STATUS_OK, served.material)
    assert (second.status, second.material) == (STATUS_NO_KEY, b"")
    assert result.sim.kms["KMS_4d"].delivered == {}


# ── failure paths ──


def test_relay_fails_no_key_when_second_link_empty():
    topo = mesh4(
        {"APP_A": "N1", "APP_B": "N4"},
        links=[
            {"id": "a", "a": "N1", "b": "N2", "key_rate": 10.0, "distance_km": 10.0, "initial_pool": 8},
            {"id": "b", "a": "N1", "b": "N3", "key_rate": 10.0, "distance_km": 12.0, "initial_pool": 8},
            {"id": "c", "a": "N2", "b": "N3", "key_rate": 10.0, "distance_km": 10.0, "initial_pool": 8},
            {"id": "d", "a": "N3", "b": "N4", "key_rate": 10.0, "distance_km": 5.0, "initial_pool": 0},
        ],
    )
    result = run_events(topo, one_get_key())
    (request,) = resolved(result.sim, "APP_A")
    assert request.status == STATUS_NO_KEY
    assert msgs_of(result.records, "key_relay") == []
    assert result.sim.kms["KMS_4d"].delivered == {}
    # The reserved E2E key is spent even though the relay failed.
    assert result.report["pools"]["b"]["consumed_distinct"] == 1


def test_relay_fails_no_key_when_first_link_empty():
    topo = mesh4(
        {"APP_A": "N1", "APP_B": "N4"},
        links=[
            {"id": "a", "a": "N1", "b": "N2", "key_rate": 10.0, "distance_km": 10.0, "initial_pool": 8},
            {"id": "b", "a": "N1", "b": "N3", "key_rate": 10.0, "distance_km": 12.0, "initial_pool": 0},
            {"id": "c", "a": "N2", "b": "N3", "key_rate": 10.0, "distance_km": 10.0, "initial_pool": 8},
            {"id": "d", "a": "N3", "b": "N4", "key_rate": 10.0, "distance_km": 5.0, "initial_pool": 8},
        ],
    )
    result = run_events(topo, one_get_key())
    (request,) = resolved(result.sim, "APP_A")
    assert request.status == STATUS_NO_KEY
    assert msgs_of(result.records, "relay_process_request") == []


def test_relay_process_request_without_rule():
    sim = Simulation(mesh4({"APP_A": "N1", "APP_B": "N4"}), seed=1)
    sim.transport.send(
        "KMS_1b", "KMS_3b",
        RelayProcessRequest(app_src="APP_A", app_dst="APP_B", id_relay_key="cafe"),
    )
    sim.kernel.run_to_quiescence()
    (response,) = msgs_of(delivered(sim), "relay_process_response")
    assert response.msg.status == STATUS_NO_RULE
    # The initiator had no pending entry for it: logged orphan, no crash.
    assert sim.kms["KMS_1b"].orphan_count == 1


def test_key_relay_with_unknown_association():
    sim = Simulation(mesh4({"APP_A": "N1", "APP_B": "N4"}), seed=1)
    sim.transport.send(
        "KMS_3d", "KMS_4d",
        KeyRelay(
            encrypted_relay_key=b"\x00" * 32,
            id_key_encryption="beef",
            id_relay_key="cafe",
            app_src="APP_A",
            app_dst="APP_B",
            id_association="nope",
        ),
    )
    sim.kernel.run_to_quiescence()
    (response,) = msgs_of(delivered(sim), "key_relay_response")
    assert response.msg.status == STATUS_NO_RULE


def test_ext_key_request_with_unknown_association_acks_no_rule():
    sim = Simulation(mesh4({"APP_A": "N1", "APP_B": "N4"}), seed=1)
    sim.transport.send(
        "KMS_3b", "KMS_3d",
        ExtKeyRequest(
            id_relay_key="cafe",
            value_relay_key=b"\x00" * 32,
            app_src="APP_A",
            app_dst="APP_B",
            id_association="nope",
        ),
    )
    sim.kernel.run_to_quiescence()
    (ack,) = msgs_of(delivered(sim), "ack_request")
    assert (ack.sender, ack.receiver) == ("KMS_3d", "KMS_3b")
    assert ack.msg == AckRequest(
        id_relay_key="cafe", ack_status=STATUS_NO_RULE, app_src="APP_A", app_dst="APP_B"
    )
    assert msgs_of(delivered(sim), "key_relay") == []


def test_key_relay_with_unknown_encryption_key_fails_decrypt():
    sim = Simulation(mesh4({"APP_A": "N1", "APP_B": "N4"}), seed=1)
    sim.transport.send(
        "QuSeC", "KMS_4d",
        RelayPathInstall(
            id_association="assoc1", prev_hop="KMS_3d", next_hop=None,
            app_src="APP_A", app_dst="APP_B",
        ),
    )
    sim.kernel.run_to_quiescence()
    sim.transport.send(
        "KMS_3d", "KMS_4d",
        KeyRelay(
            encrypted_relay_key=b"\x00" * 32,
            id_key_encryption="beef",
            id_relay_key="cafe",
            app_src="APP_A",
            app_dst="APP_B",
            id_association="assoc1",
        ),
    )
    sim.kernel.run_to_quiescence()
    (response,) = msgs_of(delivered(sim), "key_relay_response")
    assert response.msg.status == STATUS_DECRYPT
    assert sim.kms["KMS_4d"].delivered == {}


def test_orphan_completion_with_wrong_type_is_dropped(mesh4_relay_topology):
    sim = Simulation(mesh4_relay_topology, seed=1)
    sim.transport.send(
        "KMS_3b", "KMS_1b",
        KeyRelayResponse(status=STATUS_OK, id_relay_key="cafe"),
    )
    sim.kernel.run_to_quiescence()
    assert sim.kms["KMS_1b"].orphan_count == 1
    assert msgs_of(delivered(sim), "key_delivery") == []


def test_completion_of_wrong_type_for_a_pending_key_is_dropped(mesh4_relay_topology):
    sim = Simulation(mesh4_relay_topology, seed=1)
    k1_id = sim.kms["KMS_1b"].pool.table.id_at(0)
    # The initiator's RelayProcessRequest is lost, so its entry for K1 stays
    # pending until the timeout; a KeyRelayResponse for K1 must not settle it.
    sim.transport.add_fault(FaultRule(op="drop", nth=1, of_type="relay_process_request"))
    sim.kernel.schedule_timer(
        500,
        lambda: sim.transport.send(
            "KMS_3b", "KMS_1b", KeyRelayResponse(status=STATUS_OK, id_relay_key=k1_id)
        ),
    )
    sim.run_events([{"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"}])
    assert sim.kms["KMS_1b"].orphan_count == 1
    (request,) = resolved(sim, "APP_A")
    assert (request.status, request.material) == (STATUS_TIMEOUT, b"")


def test_rule_install_is_idempotent(mesh4_relay_topology):
    sim = Simulation(mesh4_relay_topology, seed=1)
    install = RelayPathInstall(
        id_association="assoc1", prev_hop=None, next_hop="KMS_3b",
        app_src="APP_A", app_dst="APP_B",
    )
    kms = sim.kms["KMS_1b"]
    kms.install_rule(install)
    kms.install_rule(install)
    assert kms.rules == {("APP_A", "APP_B", None): install}


def test_rule_matching_respects_direction(mesh4_relay_topology):
    sim = Simulation(mesh4_relay_topology, seed=1)
    kms = sim.kms["KMS_1b"]
    kms.install_rule(RelayPathInstall(
        id_association="fwd", prev_hop=None, next_hop="KMS_3b",
        app_src="APP_A", app_dst="APP_B",
    ))
    kms.install_rule(RelayPathInstall(
        id_association="rev", prev_hop="KMS_3b", next_hop=None,
        app_src="APP_B", app_dst="APP_A",
    ))
    assert kms.rules["APP_A", "APP_B", None].id_association == "fwd"
    assert kms.rules["APP_B", "APP_A", "KMS_3b"].id_association == "rev"
    assert ("APP_B", "APP_A", None) not in kms.rules


def sequential_pairs(n: int) -> list[dict]:
    """n A->B get_key/pickup pairs, one after another."""
    events = []
    for i in range(n):
        events.append({"at": 20 * i, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"})
        events.append({"at": 20 * i + 10, "event": "app_get_key_with_id", "app_src": "APP_B",
                       "app_dst": "APP_A", "key_id_from": "APP_A"})
    return events


@pytest.mark.parametrize("n", [5, 10])
def test_rules_stay_one_per_app_pair_and_prev_hop(n):
    # Every pair opens an association over KMS_1b, KMS_3b, KMS_3d, KMS_4d,
    # and each KMS keeps only the newest install for (APP_A, APP_B, prev_hop).
    raw = mesh4_dict({"APP_A": "N1", "APP_B": "N4"})
    for link in raw["links"]:
        link["initial_pool"] = 2 * n
    result = run_events(topology_from_dict(raw), sequential_pairs(n))
    assert [r.status for r in result.sim.requests] == [STATUS_OK] * 2 * n
    assert result.sim.qusec.install_count == 4 * n
    rules = {kms_id: len(kms.rules) for kms_id, kms in result.sim.kms.items() if kms.rules}
    assert rules == {"KMS_1b": 1, "KMS_3b": 1, "KMS_3d": 1, "KMS_4d": 1}


def test_a_relay_under_a_superseded_association_is_refused():
    # The 7th install, the second association's rule at KMS_3b, is lost.
    # KMS_3b then relays request 3 under the first association's rule, but
    # KMS_3d holds the second association's rule, so it refuses the Ext Key
    # Request. Request 4 names request 1's key, which request 2 took.
    result = run_repro("lost_install")
    assert result.exit_code == 0
    assert len(result.trace_lines) == 41
    assert not any(result.report["audits"].values())


def _pickup_at(at_ms: int):
    """A relayed key stored at KMS_4d at 0 ms under a 500 ms session
    lifetime, and its target's pickup at at_ms, which takes the entry
    whether or not it has lapsed."""
    topo = mesh4({"APP_A": "N1", "APP_B": "N4"}, config={"session_lifetime_ms": 500})
    result = run_events(
        topo,
        [
            {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
            {"at": at_ms, "event": "app_get_key_with_id", "app_src": "APP_B",
             "app_dst": "APP_A", "key_id_from": "APP_A"},
        ],
    )
    assert result.sim.kms["KMS_4d"].delivered == {}
    (served,) = resolved(result.sim, "APP_A")
    (pickup,) = resolved(result.sim, "APP_B")
    return served, pickup


def test_delivered_store_ttl_expiry():
    # The key lapses with its session: session_lifetime_ms after it was stored.
    _, pickup = _pickup_at(600)
    assert pickup.status == STATUS_NO_RULE  # state existed but lapsed
    assert pickup.material == b""


def test_delivered_store_within_ttl():
    served, pickup = _pickup_at(400)
    assert pickup.status == STATUS_OK
    assert pickup.material == served.material


def test_only_the_delivered_store_and_the_report_apply_the_lapse_rule(monkeypatch):
    """A pickup's discovery reads no lifetime, live or lapsed: during a run
    only the KMS's delivered store asks SimConfig, then the report does."""
    calls = []
    lapsed = SimConfig.lapsed

    def spy(config, since_ms, now_ms):
        # The calling function, past any comprehension's own frame.
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        calls.append(frame.f_code.co_name)
        return lapsed(config, since_ms, now_ms)

    monkeypatch.setattr(SimConfig, "lapsed", spy)
    for at_ms, status in ((400, STATUS_OK), (600, STATUS_NO_RULE)):
        calls.clear()
        _, pickup = _pickup_at(at_ms)
        assert pickup.status == status
        # KMS_4d reads its entry, and the report reads the session at the
        # end of the run.
        assert calls == ["_handle_get_key_with_id", "dump_state"]


def test_initiator_state_after_a_relay(mesh4_relay_topology):
    result = run_events(mesh4_relay_topology, one_get_key())
    kms = result.sim.kms["KMS_1b"]
    assert kms.pool.counts()["consumed"] == 1
    assert len(kms.rules) == 1
    assert kms.pending == {}
    (rule,) = kms.rules.values()
    assert rule.prev_hop is None
    assert rule.next_hop == "KMS_3b"
