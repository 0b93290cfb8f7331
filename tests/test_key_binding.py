"""Key binding: an ok key must be one its named peer can also obtain, and
both endpoint pools of a link must consume in step.

Each run below once broke one of these while exiting 0 with every audit
green: the vKMS and the app matched replies by queue position, QuSeC
answered a plain get_key from a live session's target, and the vKMS cache
let a pickup's terminating KMS serve a plain get_key. Replies are now
matched by request id, and discovery and the cache carry the request kind.
The cache case runs with and without a cache.
"""

from __future__ import annotations

import pytest

from conftest import mesh4, run_events
from qkdrelay.protocol import STATUS_OK

SEED = 3


def get_key(at: int, app_src: str, app_dst: str) -> dict:
    return {"at": at, "event": "app_get_key", "app_src": app_src, "app_dst": app_dst}


def assert_pools_in_step(result) -> None:
    """The run passed, and every link's two endpoint pools consumed the
    same number of keys."""
    assert result.exit_code == 0
    consumed = {
        link_id: [counts["consumed"] for counts in pool["endpoints"].values()]
        for link_id, pool in result.report["pools"].items()
    }
    assert {link_id: c for link_id, c in consumed.items() if c[0] != c[1]} == {}


def test_a_lost_relay_does_not_hand_its_request_another_requests_key():
    # A's relay (KMS_1b first) loses its KeyRelay on link d. X's direct
    # key, also from KMS_1b, then reaches vKMS_1 while A's request still
    # waits on that KMS: it must go to X, not to the older request.
    topology = mesh4({"APP_A": "N1", "APP_B": "N4", "APP_X": "N1", "APP_C": "N3"})
    result = run_events(
        topology,
        [
            {"at": 0, "event": "drop_message", "n": 1, "of_type": "key_relay"},
            get_key(0, "APP_A", "APP_B"),
            get_key(10, "APP_X", "APP_C"),
        ],
        seed=SEED,
    )
    a_request, x_request = result.sim.requests
    assert a_request.status != STATUS_OK
    assert x_request.status == STATUS_OK


def test_a_reverse_get_key_keeps_the_pools_in_step():
    # B's plain get_key must not be served as a pickup of A's session,
    # where KMS_4d would consume a second key that KMS_3d never does.
    result = run_events(
        mesh4({"APP_A": "N1", "APP_B": "N4"}),
        [get_key(0, "APP_A", "APP_B"), get_key(10, "APP_B", "APP_A")],
        seed=SEED,
    )
    assert_pools_in_step(result)


@pytest.mark.parametrize("cache_ttl_ms", [0, 60000])
def test_a_get_key_after_a_pickup_keeps_the_pools_in_step(cache_ttl_ms):
    # B's pickup caches KMS_4d for (B, A, get_key_with_id). The session has
    # expired by 2000 ms, so QuSeC's session reuse plays no part. B's plain
    # get_key must miss that entry, or KMS_4d would serve it from link d
    # alone; QuSeC installs a fresh B -> A relay instead.
    result = run_events(
        mesh4({"APP_A": "N1", "APP_B": "N4"}),
        [
            get_key(0, "APP_A", "APP_B"),
            {
                "at": 10,
                "event": "app_get_key_with_id",
                "app_src": "APP_B",
                "app_dst": "APP_A",
                "key_id_from": "APP_A",
            },
            get_key(2000, "APP_B", "APP_A"),
        ],
        seed=SEED,
        cache_ttl_ms=cache_ttl_ms,
        session_lifetime_ms=100,
    )
    assert_pools_in_step(result)
