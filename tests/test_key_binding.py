"""Key binding: an ok key must be one its named peer can also obtain, and
both endpoint pools of a link must consume in step.

Each run below once broke one of these while exiting 0 with every audit
green: the vKMS and the app matched replies by queue position, QuSeC
answered a plain get_key from a live session's target, and a vKMS cache of
discovery answers let a pickup's terminating KMS serve a plain get_key.
Replies are now matched by request id, discovery carries the request kind,
and the cache is gone: QuSeC answers every request.

The pickup once had two paths: a relayed key was read, never popped, from
the terminating KMS's delivered store, and a direct key was taken from the
pool by id for any app, past its session's lifetime, while the serving end
alone had spent it. Every served key now waits in its target-side store,
bound to its app pair, and a pickup takes it once.
"""

from __future__ import annotations

from conftest import mesh4, run_events
from qkdrelay.protocol import STATUS_NO_KEY, STATUS_NO_RULE, STATUS_OK

SEED = 3


def get_key(at: int, app_src: str, app_dst: str) -> dict:
    return {"at": at, "event": "app_get_key", "app_src": app_src, "app_dst": app_dst}


def pickup(at: int, app_src: str, app_dst: str) -> dict:
    """app_src picks up the key app_dst's last ok request got."""
    return {
        "at": at,
        "event": "app_get_key_with_id",
        "app_src": app_src,
        "app_dst": app_dst,
        "key_id_from": app_dst,
    }


def statuses(result) -> list[str]:
    return [r.status for r in result.sim.requests]


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


def test_a_get_key_after_a_pickup_keeps_the_pools_in_step():
    # B's pickup is served by KMS_4d. The session has expired by 2000 ms, so
    # QuSeC's session reuse plays no part. B's plain get_key must not be
    # served by KMS_4d from link d alone; QuSeC installs a fresh B -> A
    # relay instead.
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
        session_lifetime_ms=100,
    )
    assert_pools_in_step(result)


def test_a_reverse_direct_get_key_gets_its_own_key():
    # A and B share link a. A's direct key must be spent at both ends when
    # it is served, so B's get_key before B's pickup gets the next key, and
    # the pickup still finds A's key waiting at KMS_2a.
    result = run_events(
        mesh4({"APP_A": "N1", "APP_B": "N2"}),
        [get_key(0, "APP_A", "APP_B"), get_key(10, "APP_B", "APP_A"), pickup(20, "APP_B", "APP_A")],
        seed=SEED,
    )
    a, b, b_pickup = result.sim.requests
    assert statuses(result) == [STATUS_OK] * 3
    assert a.key_id != b.key_id
    assert (b_pickup.key_id, b_pickup.material) == (a.key_id, a.material)
    assert_pools_in_step(result)


def test_a_direct_key_is_picked_up_only_by_its_target():
    # C shares B's node but A's key was served for B: C's pickup finds
    # nothing for (A, C), and B's pickup after it still gets the key.
    result = run_events(
        mesh4({"APP_A": "N1", "APP_B": "N2", "APP_C": "N2"}),
        [get_key(0, "APP_A", "APP_B"), pickup(10, "APP_C", "APP_A"), pickup(20, "APP_B", "APP_A")],
        seed=SEED,
    )
    assert statuses(result) == [STATUS_OK, STATUS_NO_KEY, STATUS_OK]
    a, _, b_pickup = result.sim.requests
    assert b_pickup.material == a.material


def test_a_relayed_key_is_picked_up_once():
    result = run_events(
        mesh4({"APP_A": "N1", "APP_B": "N4"}),
        [get_key(0, "APP_A", "APP_B"), pickup(10, "APP_B", "APP_A"), pickup(20, "APP_B", "APP_A")],
        seed=SEED,
    )
    assert statuses(result) == [STATUS_OK, STATUS_OK, STATUS_NO_KEY]
    assert result.sim.kms["KMS_4d"].delivered == {}


def test_a_direct_key_lapses_like_a_relayed_one():
    # Direct over link d; the key was stored at 0 ms and lapses at 100 ms.
    result = run_events(
        mesh4({"APP_A": "N3", "APP_B": "N4"}),
        [get_key(0, "APP_A", "APP_B"), pickup(500, "APP_B", "APP_A")],
        seed=SEED,
        session_lifetime_ms=100,
    )
    assert statuses(result) == [STATUS_OK, STATUS_NO_RULE]
    assert result.sim.requests[1].material == b""
    assert result.sim.kms["KMS_4d"].delivered == {}
