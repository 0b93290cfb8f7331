"""vKMS facade: registry checks, discovery caching, delivery transparency."""

from __future__ import annotations

from collections import deque

import pytest

from conftest import mesh4, resolved, run_events
from qkdrelay.harness import Simulation
from qkdrelay.protocol import (
    STATUS_OK,
    STATUS_TIMEOUT,
    STATUS_UNKNOWN_APP,
    GetKey,
    message_type,
)
from qkdrelay.vkms import PendingApp


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
    # Discovery replies are matched by queue position: the second reply
    # serves the first request, and the second request times out.
    assert statuses == [STATUS_OK, STATUS_TIMEOUT]
    assert result.report["quiescent"]
    assert result.sim.vkms["N3"].awaiting == {}


def test_a_timeout_that_is_not_the_oldest_raises():
    # A request's timer is armed as it joins its queue and cancelled as it
    # leaves, so a timer can only fire for the oldest request of its queue;
    # anything else is a broken invariant and must not end some other
    # request silently.
    vkms = Simulation(mesh4({"APP_A": "N3", "APP_B": "N4"}), seed=1).vkms["N3"]
    request = GetKey(app_src="APP_A", app_dst="APP_B")
    older, younger = (PendingApp("APP_A", request) for _ in range(2))
    vkms.awaiting["KMS_3d"] = deque([older, younger])
    with pytest.raises(RuntimeError, match="vKMS_3: a younger request timed out first"):
        vkms._on_timeout(younger, "KMS_3d")
