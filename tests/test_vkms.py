"""vKMS facade: registry checks, discovery caching, delivery transparency."""

from __future__ import annotations

import logging
from functools import partial

from conftest import mesh4, resolved, run_events
from qkdrelay.harness import SimKernel, Simulation, scenario_from_dict
from qkdrelay.protocol import (
    STATUS_OK,
    STATUS_TIMEOUT,
    STATUS_UNKNOWN_APP,
    KeyDelivery,
    message_type,
)
from qkdrelay.vkms import VkmsEntity


def count_type(records, type_tag) -> int:
    return sum(1 for e in records if message_type(e.msg) == type_tag)


def two_direct_requests():
    return [
        {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        {"at": 100, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
    ]


def test_request_via_wrong_node_refused_locally():
    topo = mesh4({"APP_A": "N1", "APP_B": "N4"})
    result = run_events(
        topo,
        [{"at": 0, "event": "app_get_key", "app_src": "APP_A",
          "app_dst": "APP_B", "via_node": "N2"}],
    )
    (request,) = resolved(result.sim, "APP_A")
    assert request.status == STATUS_UNKNOWN_APP
    # Refused at the facade: the controller never heard about it.
    assert count_type(result.records, "kms_discovery_request") == 0


def test_unknown_destination_app():
    topo = mesh4({"APP_A": "N1", "APP_B": "N4"})
    result = run_events(
        topo,
        [{"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_Z"}],
    )
    (request,) = resolved(result.sim, "APP_A")
    assert request.status == STATUS_UNKNOWN_APP
    # This one did need the controller to find out.
    assert count_type(result.records, "kms_discovery_request") == 1
    assert count_type(result.records, "relay_path_install") == 0


def test_cache_disabled_discovers_every_time():
    topo = mesh4({"APP_A": "N3", "APP_B": "N4"})  # cache_ttl_ms defaults to 0
    result = run_events(topo, two_direct_requests())
    assert count_type(result.records, "kms_discovery_request") == 2
    statuses = [r.status for r in resolved(result.sim, "APP_A")]
    assert statuses == [STATUS_OK, STATUS_OK]


def test_cache_enabled_discovers_once():
    topo = mesh4({"APP_A": "N3", "APP_B": "N4"}, config={"cache_ttl_ms": 60_000})
    result = run_events(topo, two_direct_requests())
    assert count_type(result.records, "kms_discovery_request") == 1
    statuses = [r.status for r in resolved(result.sim, "APP_A")]
    assert statuses == [STATUS_OK, STATUS_OK]


def test_cache_transparent_to_key_material():
    topo_cold = mesh4({"APP_A": "N3", "APP_B": "N4"})
    topo_warm = mesh4({"APP_A": "N3", "APP_B": "N4"}, config={"cache_ttl_ms": 60_000})
    cold = run_events(topo_cold, two_direct_requests(), seed=11)
    warm = run_events(topo_warm, two_direct_requests(), seed=11)
    cold_keys = [(r.key_id, r.material) for r in resolved(cold.sim, "APP_A")]
    warm_keys = [(r.key_id, r.material) for r in resolved(warm.sim, "APP_A")]
    assert cold_keys == warm_keys


def test_cache_entry_expires():
    topo = mesh4({"APP_A": "N3", "APP_B": "N4"}, config={"cache_ttl_ms": 500})
    events = [
        {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        {"at": 600, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
    ]
    result = run_events(topo, events)
    assert count_type(result.records, "kms_discovery_request") == 2


def test_cache_ttl_override_at_run_level():
    topo = mesh4({"APP_A": "N3", "APP_B": "N4"})  # file says no caching
    result = run_events(topo, two_direct_requests(), cache_ttl_ms=60_000)
    assert count_type(result.records, "kms_discovery_request") == 1


def test_delivery_passes_through_unchanged():
    topo = mesh4({"APP_A": "N3", "APP_B": "N4"})
    result = run_events(
        topo,
        [{"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"}],
    )
    deliveries = [
        e.msg for e in result.records if message_type(e.msg) == "key_delivery"
    ]
    assert len(deliveries) == 2  # KMS -> vKMS, vKMS -> app
    assert deliveries[0] == deliveries[1]


def test_vkms_never_stores_material():
    topo = mesh4({"APP_A": "N3", "APP_B": "N4"})
    result = run_events(
        topo,
        [{"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"}],
    )
    vkms = result.sim.vkms["N3"]
    assert vkms.awaiting == {}


def test_relay_requests_share_cache_path(mesh4_relay_topology):
    # Caching also applies to relay destinations; discovery happens once,
    # and the second request triggers a second relay over the same rules.
    result = run_events(
        mesh4_relay_topology,
        [
            {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
            {"at": 100, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        ],
        cache_ttl_ms=60_000,
    )
    assert count_type(result.records, "kms_discovery_request") == 1
    assert count_type(result.records, "relay_path_install") == 4
    assert count_type(result.records, "key_relay") == 2
    statuses = [r.status for r in resolved(result.sim, "APP_A")]
    assert statuses == [STATUS_OK, STATUS_OK]
    keys = {r.key_id for r in resolved(result.sim, "APP_A")}
    assert len(keys) == 2  # fresh E2E key each time


def test_lost_discovery_times_out_and_frees_its_queue():
    topo = mesh4({"APP_A": "N3", "APP_B": "N4"})
    events = [
        {"at": 0, "event": "drop_message", "n": 1, "of_type": "kms_discovery_response"},
        *two_direct_requests(),
    ]
    result = run_events(topo, events)
    statuses = [r.status for r in resolved(result.sim, "APP_A")]
    # Replies are matched by request id: the request whose discovery reply
    # was lost times out, and the second request gets its own answer.
    assert statuses == [STATUS_TIMEOUT, STATUS_OK]
    assert result.report["quiescent"]
    assert result.sim.vkms["N3"].awaiting == {}


def test_a_delivery_after_its_timeout_is_an_orphan(caplog):
    # R1's get_key to KMS_3d is lost, so R1 times out at 1000 ms. A late
    # delivery for R1 then reaches vKMS_3 while R2, from the same app to the
    # same KMS, waits: it names R1, so it is dropped and R2 keeps waiting
    # for its own delivery.
    sim = Simulation(mesh4({"APP_A": "N3", "APP_B": "N4"}), seed=1)
    late = KeyDelivery("k1", b"\x01" * 32, STATUS_OK, "R1")
    own = KeyDelivery("k2", b"\x02" * 32, STATUS_OK, "R2")
    for at, delivery in ((1600, late), (1700, own)):
        sim.kernel.schedule_timer(
            at, partial(sim.transport.send, "KMS_3d", "vKMS_3", delivery)
        )
    events = [
        {"at": 0, "event": "drop_message", "n": 2, "of_type": "get_key"},
        {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        {"at": 1500, "event": "drop_message", "n": 2, "of_type": "get_key"},
        {"at": 1500, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
    ]
    with caplog.at_level(logging.WARNING, logger="qkdrelay.vkms"):
        sim.run_events(scenario_from_dict({"events": events}).events)
    first, second = sim.requests
    assert (first.status, first.key_id) == (STATUS_TIMEOUT, "")
    assert (second.status, second.key_id, second.material) == (STATUS_OK, "k2", b"\x02" * 32)
    assert "vKMS_3 dropping orphan key_delivery for R1" in caplog.messages
    assert sim.vkms["N3"].awaiting == {}


def test_one_vkms_timer_per_accepted_request(monkeypatch):
    # Direct, relay, pickup, a request via the wrong node (refused, so not
    # accepted) and one whose discovery reply is lost.
    armed = []
    schedule_timer = SimKernel.schedule_timer

    def counted(self, delay_ms, callback):
        owner = callback.func.__self__ if isinstance(callback, partial) else None
        if isinstance(owner, VkmsEntity):
            armed.append((owner.entity_id, callback.args))
        return schedule_timer(self, delay_ms, callback)

    monkeypatch.setattr(SimKernel, "schedule_timer", counted)
    topo = mesh4({"APP_A": "N1", "APP_B": "N4", "APP_C": "N3"})
    events = [
        {"at": 0, "event": "app_get_key", "app_src": "APP_C", "app_dst": "APP_B"},
        {"at": 10, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        {"at": 20, "event": "app_get_key_with_id", "app_src": "APP_B",
         "app_dst": "APP_A", "key_id_from": "APP_A"},
        {"at": 30, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B",
         "via_node": "N2"},
        {"at": 40, "event": "drop_message", "n": 1, "of_type": "kms_discovery_response"},
        {"at": 40, "event": "app_get_key", "app_src": "APP_C", "app_dst": "APP_B"},
    ]
    result = run_events(topo, events)
    assert [r.status for r in result.sim.requests] == [
        STATUS_OK, STATUS_OK, STATUS_OK, STATUS_UNKNOWN_APP, STATUS_TIMEOUT
    ]
    assert armed == [
        ("vKMS_3", ("R1",)), ("vKMS_1", ("R2",)), ("vKMS_4", ("R3",)), ("vKMS_3", ("R5",))
    ]
