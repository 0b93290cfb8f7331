"""Pinned sha256 digests of raw (non-canonical) traces.

A change that must leave the wire untouched, such as a new index or a faster
encoder, keeps every digest here. A change to the wire format re-pins them
and shows with a canonical diff what moved.

The grid runs draw random app pairs and follow some of them with their
reverse pair, so QuSeC's session reuse runs on both the direct and the relay
branch, with and without a session lifetime.

The backward half of the relay chain (completions, failure replies,
timeouts, orphans) runs only under faults, so the fault-path cases below pin
each run's digest together with the total KMS orphan count.

The run report's pools, requests and controller state never reach the trace,
so the packaged scenarios and the faulted grids pin their digest as well. Each
packaged scenario and each grid case also pins the digest of its whole report
(``full_report_digest``), so a change that must leave reports untouched is
checked byte for byte.

The request path (app, vKMS, QuSeC and the serving KMS) is pinned the same
way: chain runs that drop each of its message types, runs whose requests
overlap on shared KMSs, and runs where one request's discovery is lost
while other requests share its app pair or its KMS. Every run here must
end with no open wait in any vKMS or KMS.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from conftest import chain_dict, grid_dict, grid_events, mesh4_dict, run_events
from qkdrelay import data_path
from qkdrelay.harness import (
    ConfigError,
    load_scenario,
    load_topology_file,
    run,
    scenario_from_dict,
)
from qkdrelay.protocol import MESSAGE_TYPES
from qkdrelay.topology import WEIGHT_POLICIES, topology_from_dict

SEED = 5

PACKAGED = [
    (
        "mesh4_direct.json",
        "direct.json",
        "61a8b63769f2d2491e14bae26a405d5780bfed79efea952f7ead6b0e712e4da0",
    ),
    (
        "mesh4_relay.json",
        "relay1hop.json",
        "a62117256635c6bd49cae9ebee290750be12a592072f972259657f52959b271f",
    ),
    (
        "chain32.json",
        "linear32.json",
        "3e05c5de0564fb630f99845ae8bdfa150dd09ad4c0ad0c2f65bf5d845ae15a1a",
    ),
]

# scenario -> digest of report_digest's sections
PACKAGED_REPORTS = {
    "direct.json": "962f19e5adaea7408a5c88504c26f014952ddcd31337f6837e4bfab54aba865e",
    "relay1hop.json": "74d5ebcc7ed2e362df1e36764b903532677c839699301274581e4a1de2950b62",
    "linear32.json": "eab1e49803549daf50830b057cf10254cd393a456033a90d92a4fd6ad26ff616",
}

# scenario -> full_report_digest
PACKAGED_FULL_REPORTS = {
    "direct.json": "991dbc7b5929446ac1a5d6242a96963d14370962196bf6658dbdd53005063f5b",
    "relay1hop.json": "07562537ccd56b9e8792b5f0d302d8d49aec28a512136cd1904a2b1b53db302d",
    "linear32.json": "ef013fbf6ea9f26b634bb5284d2ee97baa6bcb2aa584853a2a1df85e90109650",
}

# (session_lifetime_ms, digest)
GRIDS = [
    (None, "148ac2394b8cacf0cbb4fbba5442f36ffe6ea8f90a02de792284d06e2954db4b"),
    (150, "148ac2394b8cacf0cbb4fbba5442f36ffe6ea8f90a02de792284d06e2954db4b"),
]

# session_lifetime_ms -> full_report_digest of the GRIDS run
GRID_FULL_REPORTS = {
    None: "5f642b6109d9d78518a4e2d19ea2d7d64a40e1d5e2b22b29625276accb950731",
    150: "cc7013cd10216069f6c60cb45d96dac56cbbdffef9f71e48845c3235c9bd2447",
}


def raw_digest(lines: list[str]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def report_digest(report: dict) -> str:
    sections = {k: report[k] for k in ("pools", "requests", "controller")}
    return hashlib.sha256(json.dumps(sections, sort_keys=True).encode()).hexdigest()


def full_report_digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def run_packaged(topology_name: str, scenario_name: str):
    topology = load_topology_file(data_path("topologies", topology_name))
    scenario = load_scenario(data_path("scenarios", scenario_name))
    return run(topology, scenario, seed=SEED)


# Test ids leave the digest out, so that a re-pin keeps every test's name.
@pytest.mark.parametrize(
    "topology_name,scenario_name,expected", PACKAGED, ids=[f"{t}-{s}" for t, s, _ in PACKAGED]
)
def test_packaged_raw_trace_digest(topology_name, scenario_name, expected):
    result = run_packaged(topology_name, scenario_name)
    assert result.exit_code == 0
    assert raw_digest(result.trace_lines) == expected


@pytest.mark.parametrize("topology_name,scenario_name", [p[:2] for p in PACKAGED])
def test_packaged_report_digest(topology_name, scenario_name):
    result = run_packaged(topology_name, scenario_name)
    assert report_digest(result.report) == PACKAGED_REPORTS[scenario_name]
    assert full_report_digest(result.report) == PACKAGED_FULL_REPORTS[scenario_name]


@pytest.mark.parametrize("session_lifetime_ms,expected", GRIDS, ids=[str(l) for l, _ in GRIDS])
def test_grid_raw_trace_digest(session_lifetime_ms, expected):
    raw = grid_dict(5, initial_pool=32, session_lifetime_ms=session_lifetime_ms)
    events = grid_events(raw, random.Random(11), pairs=40)
    result = run_events(topology_from_dict(raw), events, seed=SEED)
    assert result.report["quiescent"]
    assert raw_digest(result.trace_lines) == expected
    assert full_report_digest(result.report) == GRID_FULL_REPORTS[session_lifetime_ms]


# ── fault paths ──

RELAY_TYPES = (
    "relay_process_request",
    "ext_key_request",
    "key_relay",
    "key_relay_response",
    "ack_request",
    "relay_process_response",
    "key_delivery",
)
# The messages between an app, its vKMS, QuSeC and the serving KMS. None
# carries key material, so corrupting one changes nothing: only drops move
# the request path.
VKMS_TYPES = (
    "get_key",
    "get_key_with_id",
    "kms_discovery_request",
    "kms_discovery_response",
)
PAIR_SPACING_MS = 3000  # more than the 1000 ms timeout: pairs never overlap

# (op, of_type, n) -> (digest, orphans); 4-link chain
CHAIN_FAULTS = {
    ("drop", "relay_process_request", 1): (
        "fc83f72fae655c3337e7d6e96d7634995b84a69576b7a812fd3b8c68837e082c",
        0,
    ),
    ("drop", "relay_process_request", 2): (
        "2537c68d6ab64d7bf85b036fa8908ae88eb7de9e3bb03f2d87a705c03fba437b",
        0,
    ),
    ("drop", "relay_process_request", 3): (
        "aeb5ef27ae4c8e295917004c98d30dcff89384ba2413860e42705bbb405fad45",
        0,
    ),
    ("drop", "ext_key_request", 1): (
        "c3ebfa464176a01a8b4bb0590855e06cf221e7b466e961c1a1bc9c44e5e2836f",
        1,
    ),
    ("drop", "ext_key_request", 2): (
        "4f61d33abd151d00ce05a2cbd372ca87c31dda135c2b83e6522c77d314156d95",
        3,
    ),
    ("drop", "ext_key_request", 3): (
        "fbf192fda829f0adf2e35df51e785f7f80b1dffd58dfca957096a19283b6c812",
        5,
    ),
    ("drop", "key_relay", 1): (
        "a3c4225b9e256272cd576a3d56015691d90663ccb59f616e068a5463a7dd9ce9",
        2,
    ),
    ("drop", "key_relay", 2): (
        "1720e0b0cc92d301f81e16e646ea04b6a15e447bcc7ad7085621d8bab309b033",
        4,
    ),
    ("drop", "key_relay", 3): (
        "49faf261ed87089dea053b38c3b73c48bf8e97abee36dd0409f7f1749b95004c",
        6,
    ),
    ("drop", "key_relay_response", 1): (
        "8ab2a8c855c9ea7907587dd719542b1f23c0a6d12acf30befeb438f9c730e7a6",
        6,
    ),
    ("drop", "key_relay_response", 2): (
        "00bfb0dea1d8fba4a2434f41ed3fb1c0d1bc66b3e41b8ed82ac74a52fd38e1ea",
        4,
    ),
    ("drop", "key_relay_response", 3): (
        "330f8240cdc553e41d0c86b12bc3bdda1d8fb79d70d2348d0b0c3640c5811666",
        2,
    ),
    ("drop", "ack_request", 1): (
        "0de634ca49fa1456cc9d5bab5a965e5804d240dcda4fb24e460a5368d8d8e88f",
        5,
    ),
    ("drop", "ack_request", 2): (
        "8a8c134dd2dcbef5ca80373235fd2695e7d73ecfd7b9dbd1e332c22b3549bf5c",
        3,
    ),
    ("drop", "ack_request", 3): (
        "b2ca4724ba83bcad729769d5f57f4dad4226901234635b75637d1b007d5aa591",
        1,
    ),
    ("drop", "relay_process_response", 1): (
        "0456505a0e7f696a2e74a02e5282b4249a424eb5b80146a2ba1e03a17bdc1314",
        0,
    ),
    ("drop", "relay_process_response", 2): (
        "c9e1993ba87aaf48a474055bb5f5b1e04baa1add0e2815b2bc7354696239d914",
        0,
    ),
    ("drop", "relay_process_response", 3): (
        "261f22bcfcfc2edc310f8f9f7b972f8c987c8b6c36d42117e8124542534387a0",
        0,
    ),
    ("drop", "key_delivery", 1): (
        "ed1c03b789034af9b71a5b6b20022933b3c6a3e3bc19f4d59a6ea6cbaa71c03d",
        0,
    ),
    ("drop", "key_delivery", 2): (
        "00c42b7f37fa2ee5d3d3836a0aa8586d2752c1634470f7069249847499b26ab3",
        0,
    ),
    ("drop", "key_delivery", 3): (
        "c5819003adaa3121db600b445f456f2a4a328e1e961e3c67a94fe7be36718d9c",
        0,
    ),
    ("corrupt", "relay_process_request", 1): (
        "aa921521c12efd3c81b5b95c7c0f9bfd7686fa459625d52a4a0a3c4cb700d3fa",
        0,
    ),
    ("corrupt", "relay_process_request", 2): (
        "aa921521c12efd3c81b5b95c7c0f9bfd7686fa459625d52a4a0a3c4cb700d3fa",
        0,
    ),
    ("corrupt", "relay_process_request", 3): (
        "aa921521c12efd3c81b5b95c7c0f9bfd7686fa459625d52a4a0a3c4cb700d3fa",
        0,
    ),
    ("corrupt", "ext_key_request", 1): (
        "681f9e146b1db064e11acf03ab94b910df3faf8e5e11e24bbf483b6140e771bd",
        0,
    ),
    ("corrupt", "ext_key_request", 2): (
        "e2924e1f663fab15d5ffffd8ecd91a094a89e13b959b6247b3eb9ace5028d8c6",
        0,
    ),
    ("corrupt", "ext_key_request", 3): (
        "0305a59b47702d6da292918a2101bf43594c2ae13e182b1e24046e479169dc84",
        0,
    ),
    ("corrupt", "key_relay", 1): (
        "01c28e3f9ed5c3bb55cb107193a6d604e5ce491fbb72a75d619bc5888c489c7f",
        0,
    ),
    ("corrupt", "key_relay", 2): (
        "d149fe9b61595adb734ad4948948cd6d6e7093dcf41d230cbf2e40cc2b00feff",
        0,
    ),
    ("corrupt", "key_relay", 3): (
        "3dbeffa9c62c23c45a01fa28e3593b65655db68c182b4bd20727b324e7fbe9ac",
        0,
    ),
    ("corrupt", "key_relay_response", 1): (
        "aa921521c12efd3c81b5b95c7c0f9bfd7686fa459625d52a4a0a3c4cb700d3fa",
        0,
    ),
    ("corrupt", "key_relay_response", 2): (
        "aa921521c12efd3c81b5b95c7c0f9bfd7686fa459625d52a4a0a3c4cb700d3fa",
        0,
    ),
    ("corrupt", "key_relay_response", 3): (
        "aa921521c12efd3c81b5b95c7c0f9bfd7686fa459625d52a4a0a3c4cb700d3fa",
        0,
    ),
    ("corrupt", "ack_request", 1): (
        "aa921521c12efd3c81b5b95c7c0f9bfd7686fa459625d52a4a0a3c4cb700d3fa",
        0,
    ),
    ("corrupt", "ack_request", 2): (
        "aa921521c12efd3c81b5b95c7c0f9bfd7686fa459625d52a4a0a3c4cb700d3fa",
        0,
    ),
    ("corrupt", "ack_request", 3): (
        "aa921521c12efd3c81b5b95c7c0f9bfd7686fa459625d52a4a0a3c4cb700d3fa",
        0,
    ),
    ("corrupt", "relay_process_response", 1): (
        "aa921521c12efd3c81b5b95c7c0f9bfd7686fa459625d52a4a0a3c4cb700d3fa",
        0,
    ),
    ("corrupt", "relay_process_response", 2): (
        "aa921521c12efd3c81b5b95c7c0f9bfd7686fa459625d52a4a0a3c4cb700d3fa",
        0,
    ),
    ("corrupt", "relay_process_response", 3): (
        "aa921521c12efd3c81b5b95c7c0f9bfd7686fa459625d52a4a0a3c4cb700d3fa",
        0,
    ),
    ("corrupt", "key_delivery", 1): (
        "8535d4f892b6010b6198a82427000c56e7d82cecb7028f71b705e08b96f7db50",
        0,
    ),
    ("corrupt", "key_delivery", 2): (
        "35eeed7f52972a81cf6f5478a78b946517ba4053739cdf36cfc333321093b430",
        0,
    ),
    ("corrupt", "key_delivery", 3): (
        "779d2aa0b5b18d3955b46f2ba7f935eb5172ac7b7861513d2570019fba109a74",
        0,
    ),
}

# link (1-based) whose pool the warm-up empties -> (digest, orphans); 4-link chain
CHAIN_EXHAUSTED = {
    1: ("4f3a376e3c26b740ecce3298990da9c2402317958adbc202bc68db6cafe46b9f", 0),
    2: ("bbf4a227d3e9c147e05f8087f3c851ee70e795af08cf624e5d5c3eeea529cfdd", 0),
    3: ("6a6cc6904a3d8e76f43d2347ec79d550739759339318a50a76727d3d1d23cb9d", 0),
    4: ("7b870541c0d6efa954e0edb90332cb8dc78dd34f9f4152e6f5feab323572070d", 0),
}

# (rng seed, session_lifetime_ms) -> (digest, orphans); 5x5 grid
GRID_FAULTS = {
    (1, None): ("3c8cb9526127105fa5862bcf55ca83442ed0fc1271b66b588e54e0ad4cdfef40", 6),
    (1, 60): ("3c8cb9526127105fa5862bcf55ca83442ed0fc1271b66b588e54e0ad4cdfef40", 6),
    (2, None): ("ec71aecaf5ebe28b1b2e548ff428741e2656aa54b26b46dfa25b2a875e038de8", 2),
    (2, 60): ("ec71aecaf5ebe28b1b2e548ff428741e2656aa54b26b46dfa25b2a875e038de8", 2),
    (3, None): ("5416888893b32c1e4aa9d74c46fdfd614ca2a65d3b546d48257c903ea8fa1a2b", 13),
    (3, 60): ("5416888893b32c1e4aa9d74c46fdfd614ca2a65d3b546d48257c903ea8fa1a2b", 13),
    (4, None): ("a5b543feed848f9bfe0552217641818c78598e09521545c47ef93bd11742020e", 13),
    (4, 60): ("a5b543feed848f9bfe0552217641818c78598e09521545c47ef93bd11742020e", 13),
}

# (rng seed, session_lifetime_ms) -> digest of report_digest's sections; 5x5 grid
GRID_FAULT_REPORTS = {
    (1, None): "fa7a0b762e6c6dfb2f73086a941c173802c537616e7edb6208100bc1ba072e7c",
    (1, 60): "a9919ccc6bdaa71952ec35c2a2a1ce96078116feb1d86066161b46564fd24b95",
    (2, None): "dcfb4eead47cec9bd94cb584f47c5d8c1ec16d9566b657aa2ceb8d8d4418c619",
    (2, 60): "b5ed8bc0fb1a176297d5ea55783d5bdc24ad9305fbfa9a41064af7c079d8b773",
    (3, None): "3c408c4ae235ec7abe6421cec1a392f3e41a91f7452cd2315b70e437e2090191",
    (3, 60): "57f3a3b48b75d30a828cf5cb72b106d30505bc07dc0afdb8110e9a58a2fbdb5e",
    (4, None): "e5ac1c11b7295369885c4d1ff90d95c8f4c996dc0c8b32c1fb0958ce6af4ca6f",
    (4, 60): "6b49a952f146c41f5cf3c33c3d388b1458ae70714fcc159f8a4465066a888719",
}

# (rng seed, session_lifetime_ms) -> full_report_digest; 5x5 grid
GRID_FAULT_FULL_REPORTS = {
    (1, None): "007209021e2b987542e041761f4b216aa4ddb830eac3816b6978491df4ab8fe6",
    (1, 60): "1317421cfc60251a30eb5253122f926664bc7cc39c41a1687c0e4ea3f07acaf5",
    (2, None): "4f92f531ebee22918fe6e2737ea7f5641f50e35225a859a2eb99487bff8a14f1",
    (2, 60): "ec102553a9a9c1cc73c1b7ad7a5616a2ecc210c45b5d58d767105f3ad261ee49",
    (3, None): "5127ead08d7538309cb66f4f60d73c5ef76d918861ddc0c390d96a9cc2077192",
    (3, 60): "b90fbf7a290f9017342610901ab97718aaa5cf8d6d38cfd41c44f31aa47ec7ac",
    (4, None): "aa1e1246430dbef843a924d3be242f4419e7cbe92eba8b158871093d4c41df41",
    (4, 60): "69b39a21a8fbd24b4dc88f0cc58b34e9500859cae60e6b03990bfb36128948c3",
}


def pair_events(at: int) -> list[dict]:
    return [
        {"at": at, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        {
            "at": at + 10,
            "event": "app_get_key_with_id",
            "app_src": "APP_B",
            "app_dst": "APP_A",
            "key_id_from": "APP_A",
        },
    ]


def chain_events(faults: list[dict], pairs: int = 3) -> list[dict]:
    """A clean warm-up pair, the faults armed after it, then `pairs` more
    pairs, each issued after the previous one has resolved."""
    events = pair_events(0)
    events += [{"at": 20, **fault} for fault in faults]
    for i in range(1, pairs + 1):
        events += pair_events(i * PAIR_SPACING_MS)
    return events


def grid_fault_events(raw: dict, rng: random.Random, pairs: int, faults: int) -> list[dict]:
    """grid_events with `faults` random drop/corrupt rules armed right after
    the warm-up pairs (one pair per app)."""
    events = grid_events(raw, rng, pairs)
    warm_up = 2 * len(raw["apps"])
    armed = [
        {
            "at": events[warm_up]["at"],
            "event": rng.choice(("drop_message", "corrupt_message")),
            "n": rng.randint(1, 8),
            "of_type": rng.choice(RELAY_TYPES),
        }
        for _ in range(faults)
    ]
    return events[:warm_up] + armed + events[warm_up:]


def fault_run_summary(raw: dict, events: list[dict]) -> tuple[str, int]:
    # Not every run is quiescent: apps keep no timer, so a dropped
    # vKMS -> app key_delivery leaves that request open, and the run exits 1.
    result = run_events(topology_from_dict(raw), events, seed=SEED)
    assert result.exit_code == (0 if result.report["quiescent"] else 1)
    orphans = sum(k.orphan_count for k in result.sim.kms.values())
    return raw_digest(result.trace_lines), orphans


def test_run_left_with_an_open_request_exits_1():
    events = chain_events([{"event": "drop_message", "n": 2, "of_type": "key_delivery"}])
    result = run_events(topology_from_dict(chain_dict(4, initial_pool=8)), events, seed=SEED)
    assert [r.status for r in result.sim.requests].count(None) == 1
    # Only the request whose delivery was dropped (R3) stays open; every
    # later request gets its own key.
    assert [r.status for r in result.sim.requests] == ["ok", "ok", None] + ["ok"] * 5
    later = result.sim.requests[4:]
    assert [r.key_id for r in later[0::2]] == [r.key_id for r in later[1::2]]
    assert len({r.key_id for r in later}) == 2
    assert not result.report["quiescent"]
    assert not [c for c in result.report["checks"] if not c["ok"]]
    assert result.exit_code == 1


def chain_fault_summary(op: str, of_type: str, n: int) -> tuple[str, int]:
    events = chain_events([{"event": f"{op}_message", "n": n, "of_type": of_type}])
    return fault_run_summary(chain_dict(4, initial_pool=8), events)


def chain_exhausted_summary(link: int) -> tuple[str, int]:
    raw = chain_dict(4, initial_pool=8)
    raw["links"][link - 1]["initial_pool"] = 1
    return fault_run_summary(raw, chain_events([]))


def grid_fault_case(seed: int, session_lifetime_ms: int | None) -> tuple[dict, list[dict]]:
    raw = grid_dict(5, initial_pool=32, session_lifetime_ms=session_lifetime_ms)
    return raw, grid_fault_events(raw, random.Random(seed), pairs=40, faults=6)


def grid_fault_summary(seed: int, session_lifetime_ms: int | None) -> tuple[str, int]:
    return fault_run_summary(*grid_fault_case(seed, session_lifetime_ms))


@pytest.mark.parametrize("op", ["drop", "corrupt"])
@pytest.mark.parametrize("of_type", RELAY_TYPES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_chain_fault_digest(op, of_type, n):
    assert chain_fault_summary(op, of_type, n) == CHAIN_FAULTS[(op, of_type, n)]


@pytest.mark.parametrize("link", [1, 2, 3, 4])
def test_chain_exhausted_pool_digest(link):
    assert chain_exhausted_summary(link) == CHAIN_EXHAUSTED[link]


@pytest.mark.parametrize("seed,session_lifetime_ms", list(GRID_FAULTS))
def test_grid_fault_digest(seed, session_lifetime_ms):
    assert grid_fault_summary(seed, session_lifetime_ms) == GRID_FAULTS[
        (seed, session_lifetime_ms)
    ]


@pytest.mark.parametrize("seed,session_lifetime_ms", list(GRID_FAULT_REPORTS))
def test_grid_fault_report_digest(seed, session_lifetime_ms):
    raw, events = grid_fault_case(seed, session_lifetime_ms)
    result = run_events(topology_from_dict(raw), events, seed=SEED)
    assert report_digest(result.report) == GRID_FAULT_REPORTS[(seed, session_lifetime_ms)]
    assert full_report_digest(result.report) == GRID_FAULT_FULL_REPORTS[(seed, session_lifetime_ms)]


# (of_type, n) -> (digest, orphans); 4-link chain, message dropped
CHAIN_VKMS_DROPS = {
    ("get_key", 1): (
        "af07da882ab5d66461102179328c42a89e297587b354a8d2fb74701e393dafcb",
        0,
    ),
    ("get_key", 2): (
        "552fafef78177add78552424e9b021bdf95556029f064d88caa38278111ec11b",
        0,
    ),
    ("get_key", 3): (
        "742039ffd39ec67a691e81174b5f74e658373bd27bac02f99b6396176e8a4a95",
        0,
    ),
    ("get_key_with_id", 1): (
        "300e03c4f2da1340c3b8c506e78a9d02b86b4e78bbad3b54570085b1a11cdc97",
        0,
    ),
    ("get_key_with_id", 2): (
        "39b85bec7dffe735f75abe293776a16316aac0210d8ec8fcfa53b869d2e646ce",
        0,
    ),
    ("get_key_with_id", 3): (
        "846e34550a4a32a001917060acbc190c9c8b31b95d5f20d28df89eef9630f901",
        0,
    ),
    ("kms_discovery_request", 1): (
        "e4fe30b59718d5670ccaa7e42a0b8a60bf46cd88901f601c297b692c4ddf4ee9",
        0,
    ),
    ("kms_discovery_request", 2): (
        "4672b45a0bfa866880979f5526febfaf1ff6b65a1d2254b4b59dedb621ccd025",
        0,
    ),
    ("kms_discovery_request", 3): (
        "a71d5bd15e1fa028b59dca796a3cb04094c1dd496c4a2ef6aca03f3bbba456b1",
        0,
    ),
    ("kms_discovery_response", 1): (
        "9269d3c383655b2983d2b7a82939930bbca2556cc00a8bd4826769adeafd8a6a",
        0,
    ),
    ("kms_discovery_response", 2): (
        "16ecc9cbdf9a64c9153e941758aee6f607de307db5f901cb158b4da581e6ffe5",
        0,
    ),
    ("kms_discovery_response", 3): (
        "a87cdcd7e2b038de17b57037af24ad644f0d835f7e355115118bde35abea8d0e",
        0,
    ),
}


@pytest.mark.parametrize("of_type", VKMS_TYPES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_chain_vkms_drop_digest(of_type, n):
    assert chain_fault_summary("drop", of_type, n) == CHAIN_VKMS_DROPS[(of_type, n)]


# ── overlapping requests ──

# Two apps share N1's KMS seats, and every request of the run is issued
# within 1500 ms, so requests wait on the same pair or the same KMS at once
# whenever a drop holds one of them up.
OVERLAP_APPS = {"APP_A": "N1", "APP_X": "N1", "APP_B": "N4", "APP_C": "N3", "APP_D": "N2"}
OVERLAP_WARM_UP = [
    ("APP_A", "APP_B"),
    ("APP_X", "APP_C"),
    ("APP_B", "APP_D"),
    ("APP_C", "APP_A"),
    ("APP_D", "APP_X"),
]

# (rng seed, cache_ttl_ms) -> (digest, full_report_digest); mesh4, five apps
OVERLAPS = {
    (1, 0): (
        "5bc8cb0f6551b4ca07d162f6eed8633cd141e6572e2173319e0e4694b6f97c48",
        "baf4c7bea07f9cf81f6bcaf4e78baf3ef980457c0cefaa01fcf9a6753c744931",
    ),
    (1, 5000): (
        "fbd5d9d205526ebb55793ea55e8746823855458b399b0a50685bfe5850b05010",
        "b4c9c079d0b298038d746d9e3184614079d0788950ce3edaff759213eccf9af1",
    ),
    (2, 0): (
        "635491d76d1d4773e6f3c9ea3321966e6865e0516590f94956ee3676111d9810",
        "b1a260ed8626682d5e2e3711c3d373660b8212d78beb01d938e16964e791a145",
    ),
    (2, 5000): (
        "1f83d442fe8c27babcff14de64b2a718229d31242d8955ea52835707ffc2ef0e",
        "0725dbba1c2999bd0103a5f66dca7ec9ee1bcbe909410e3b029fa925363ff63b",
    ),
    (4, 0): (
        "66b85b1d3f7c70d69930083ffa05e2fb28b3c8104f7bb697a2ba5b67b6940fd9",
        "452b94264f6cac2cf41dee4e425ef9f3a31759e9e65a0a4f4da0aef849c75bd8",
    ),
    (4, 5000): (
        "06e0fd83cb34bbec995da65288845306a17ed6a8e7c7c5174ffbc1e9cc5fb040",
        "9162baaee28eb007255813d8537d48d4d40de4fb8f130e7d5ba07836ba1fdc63",
    ),
}


def overlap_events(rng: random.Random, requests: int = 30) -> list[dict]:
    """A clean warm-up get_key per app at 0 ms, then four drops of request
    path messages and one random fault of any type, then `requests` random
    requests between 20 and 1500 ms, about a third of them get_key_with_id
    naming the destination app's last key."""
    events = [
        {"at": 0, "event": "app_get_key", "app_src": src, "app_dst": dst}
        for src, dst in OVERLAP_WARM_UP
    ]
    events += [
        {
            "at": 10,
            "event": "drop_message",
            "n": rng.randint(1, 8),
            "of_type": rng.choice(VKMS_TYPES + ("key_delivery",)),
        }
        for _ in range(4)
    ]
    events.append(
        {
            "at": 10,
            "event": rng.choice(("drop_message", "corrupt_message")),
            "n": rng.randint(1, 8),
            "of_type": rng.choice(list(MESSAGE_TYPES)),
        }
    )
    apps = list(OVERLAP_APPS)
    for at in sorted(rng.randrange(20, 1500, 10) for _ in range(requests)):
        src, dst = rng.sample(apps, 2)
        if rng.random() < 0.3:
            events.append(
                {
                    "at": at,
                    "event": "app_get_key_with_id",
                    "app_src": src,
                    "app_dst": dst,
                    "key_id_from": dst,
                }
            )
        else:
            events.append({"at": at, "event": "app_get_key", "app_src": src, "app_dst": dst})
    return events


def overlap_run(seed: int, cache_ttl_ms: int):
    raw = mesh4_dict(OVERLAP_APPS)
    for link in raw["links"]:
        link["initial_pool"] = 16
    raw["config"] = {"cache_ttl_ms": cache_ttl_ms}
    return run_events(topology_from_dict(raw), overlap_events(random.Random(seed)), seed=SEED)


@pytest.mark.parametrize("seed,cache_ttl_ms", list(OVERLAPS))
def test_overlapping_requests_digest(seed, cache_ttl_ms):
    result = overlap_run(seed, cache_ttl_ms)
    assert result.exit_code == (0 if result.report["quiescent"] else 1)
    assert (
        raw_digest(result.trace_lines),
        full_report_digest(result.report),
    ) == OVERLAPS[(seed, cache_ttl_ms)]


# ── a lost discovery among requests that share a pair or a KMS ──

# Replies were once matched by queue position, so when a request's own
# discovery was lost, the next answer for its app pair was handed to it in a
# later ms, and every later reply on that queue went to the wrong request.
# Replies are now matched by request id: the request whose discovery was
# lost times out, and every other request ends as its own messages decide.
# Mesh4 with APP_A and APP_X at N1 and APP_B at N4; every case drops
# APP_A's first discovery request, so the first request (R1) times out.
STALE_CASES = {
    # APP_A's second request loses its relay and times out; APP_X's
    # request, on the same KMS at 1100 ms, is served.
    "taken_answer_stalls": [
        {"at": 60, "event": "drop_message", "n": 1, "of_type": "relay_process_request"},
        {"at": 200, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        {"at": 1100, "event": "app_get_key", "app_src": "APP_X", "app_dst": "APP_B"},
    ],
    # APP_X's request at 50 ms and APP_A's second at 200 ms each lose
    # their relay, so all three time out.
    "taken_answer_queues_behind_a_younger_request": [
        {"at": 10, "event": "drop_message", "n": 1, "of_type": "relay_process_request"},
        {"at": 50, "event": "app_get_key", "app_src": "APP_X", "app_dst": "APP_B"},
        {"at": 60, "event": "drop_message", "n": 1, "of_type": "relay_process_request"},
        {"at": 200, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
    ],
    # All three requests in one ms: APP_X's relay is lost, APP_A's second
    # request is served.
    "taken_answer_in_the_same_ms": [
        {"at": 0, "event": "drop_message", "n": 1, "of_type": "relay_process_request"},
        {"at": 0, "event": "app_get_key", "app_src": "APP_X", "app_dst": "APP_B"},
        {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
    ],
    # As above, and APP_A's second relay is lost too, so all three time out.
    # A send is counted only by the first rule it fires, so the second n=1
    # rule takes the second relay request.
    "taken_answer_in_the_same_ms_stalls": [
        {"at": 0, "event": "drop_message", "n": 1, "of_type": "relay_process_request"},
        {"at": 0, "event": "drop_message", "n": 1, "of_type": "relay_process_request"},
        {"at": 0, "event": "app_get_key", "app_src": "APP_X", "app_dst": "APP_B"},
        {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
    ],
    # Both later requests are served.
    "taken_answer_served": [
        {"at": 200, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        {"at": 700, "event": "app_get_key", "app_src": "APP_X", "app_dst": "APP_B"},
    ],
}

# case -> every request's final status, R1 first
STALE_STATUSES = {
    "taken_answer_stalls": ["failed_timeout", "failed_timeout", "ok"],
    "taken_answer_queues_behind_a_younger_request": ["failed_timeout"] * 3,
    "taken_answer_in_the_same_ms": ["failed_timeout", "failed_timeout", "ok"],
    "taken_answer_in_the_same_ms_stalls": ["failed_timeout"] * 3,
    "taken_answer_served": ["failed_timeout", "ok", "ok"],
}

# (case, cache_ttl_ms) -> (digest, full_report_digest)
STALE = {
    ("taken_answer_stalls", 0): (
        "ef4709161d63af168c435dc0fd0e40f5422384bbb2c7c469f9e39cbbced34279",
        "0b251292f5abb2f3146c3300e2a682cb26ef2c95316ef3ccd2917f0aa8397e4c",
    ),
    ("taken_answer_stalls", 60000): (
        "ef4709161d63af168c435dc0fd0e40f5422384bbb2c7c469f9e39cbbced34279",
        "0b251292f5abb2f3146c3300e2a682cb26ef2c95316ef3ccd2917f0aa8397e4c",
    ),
    ("taken_answer_queues_behind_a_younger_request", 0): (
        "ce2e77a2fa8fd264cfdb58647d222bb406195e3773610eb011dff722466a9358",
        "a732101e5c37e381e60a3961fc5cbc6929087e966b06429e838b19966f276c86",
    ),
    ("taken_answer_queues_behind_a_younger_request", 60000): (
        "ce2e77a2fa8fd264cfdb58647d222bb406195e3773610eb011dff722466a9358",
        "a732101e5c37e381e60a3961fc5cbc6929087e966b06429e838b19966f276c86",
    ),
    ("taken_answer_in_the_same_ms", 0): (
        "ca74fc6e852b24e5441573246aae519061308747413197f64c5dd1872af2ec96",
        "0c5d4a38789c8bc7b1cd062632b0f5f1a862010d0a7e5003375a5778102c7e58",
    ),
    ("taken_answer_in_the_same_ms", 60000): (
        "ca74fc6e852b24e5441573246aae519061308747413197f64c5dd1872af2ec96",
        "0c5d4a38789c8bc7b1cd062632b0f5f1a862010d0a7e5003375a5778102c7e58",
    ),
    ("taken_answer_in_the_same_ms_stalls", 0): (
        "ce2e77a2fa8fd264cfdb58647d222bb406195e3773610eb011dff722466a9358",
        "f655a2c4c37d90ec17ec5c93fc1a70f650c132d78262863ee2a82ac18db936db",
    ),
    ("taken_answer_in_the_same_ms_stalls", 60000): (
        "ce2e77a2fa8fd264cfdb58647d222bb406195e3773610eb011dff722466a9358",
        "f655a2c4c37d90ec17ec5c93fc1a70f650c132d78262863ee2a82ac18db936db",
    ),
    ("taken_answer_served", 0): (
        "8de4fdfb92bfe436a55f51e2a740476b5923d642815a6f349f3fa34d3cb9b7b5",
        "ab0a40dbdd76e2acb29c469b20e407fbd70f569f0c0aa4d4e121e8f1691b8c67",
    ),
    ("taken_answer_served", 60000): (
        "8de4fdfb92bfe436a55f51e2a740476b5923d642815a6f349f3fa34d3cb9b7b5",
        "ab0a40dbdd76e2acb29c469b20e407fbd70f569f0c0aa4d4e121e8f1691b8c67",
    ),
}


def stale_run(case: str, cache_ttl_ms: int):
    events = [
        {"at": 0, "event": "drop_message", "n": 1, "of_type": "kms_discovery_request"},
        {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        *STALE_CASES[case],
    ]
    raw = mesh4_dict({"APP_A": "N1", "APP_X": "N1", "APP_B": "N4"})
    raw["config"] = {"cache_ttl_ms": cache_ttl_ms}
    return run_events(topology_from_dict(raw), events, seed=SEED)


@pytest.mark.parametrize("case,cache_ttl_ms", list(STALE))
def test_taken_discovery_answer_digest(case, cache_ttl_ms):
    result = stale_run(case, cache_ttl_ms)
    assert result.report["quiescent"]
    assert [r.status for r in result.sim.requests] == STALE_STATUSES[case]
    assert (
        raw_digest(result.trace_lines),
        full_report_digest(result.report),
    ) == STALE[(case, cache_ttl_ms)]


# ── bounded state ──

# Every run above, as (kind, key).
ALL_RUNS = (
    [("grid", session_lifetime_ms) for session_lifetime_ms, _ in GRIDS]
    + [("grid_fault", key) for key in GRID_FAULTS]
    + [("chain_vkms_drop", key) for key in CHAIN_VKMS_DROPS]
    + [("overlap", key) for key in OVERLAPS]
    + [("taken", key) for key in STALE]
)


def run_case(kind: str, key):
    if kind == "grid":
        raw = grid_dict(5, initial_pool=32, session_lifetime_ms=key)
        events = grid_events(raw, random.Random(11), pairs=40)
    elif kind == "grid_fault":
        raw, events = grid_fault_case(*key)
    elif kind == "chain_vkms_drop":
        of_type, n = key
        raw = chain_dict(4, initial_pool=8)
        events = chain_events([{"event": "drop_message", "n": n, "of_type": of_type}])
    elif kind == "overlap":
        return overlap_run(*key)
    else:
        return stale_run(*key)
    return run_events(topology_from_dict(raw), events, seed=SEED)


@pytest.mark.parametrize("kind,key", ALL_RUNS, ids=[f"{kind}-{key}" for kind, key in ALL_RUNS])
def test_run_leaves_no_open_wait(kind, key):
    # A run ends when no timer is live, and every open wait has one, so no
    # vKMS queue and no KMS wait may be left, even by a run that leaves an
    # app request open because its reply was dropped on the way to the app.
    result = run_case(kind, key)
    assert [v.awaiting for v in result.sim.vkms.values() if v.awaiting] == []
    assert [k.pending for k in result.sim.kms.values() if k.pending] == []


# ── random fault corpus ──

# One digest over many seeded random grid runs: every trace, every report
# (expectation checks included), every exit code and every configuration
# error. A change that must leave the wire and the reports untouched keeps
# it; -k corpus runs it alone.
CORPUS_RUNS = 300
CORPUS_DIGEST = "99368aabf9a9ea9340918e40eb4d5a29e507ccf460dfb58ec1dd033aaa840fc4"
# Runs that end without a ConfigError. The rest name a key_id_from app
# whose own request has not resolved ok yet, which only the run can tell.
CORPUS_MIN_COMPLETED = 250


def corpus_case(rng: random.Random) -> tuple[dict, dict]:
    """A 3x3 or 4x4 grid with random pools, link weights, weight policy,
    cache TTL and session lifetime, and a scenario: grid_events squeezed by
    1, 2 or 4 so that requests overlap, 0-3 drop/corrupt rules on any
    message type, and each kind of expectation, met or not, half the time."""
    raw = grid_dict(
        rng.choice((3, 4)),
        initial_pool=rng.choice((2, 6, 16)),
        session_lifetime_ms=rng.choice((None, 500)),
    )
    for link in raw["links"]:
        link["key_rate"] = rng.choice((1.0, 10.0, 100.0))
        link["distance_km"] = rng.choice((1.0, 10.0, 40.0))
    raw["weight_policy"] = rng.choice(WEIGHT_POLICIES)
    raw.setdefault("config", {})["cache_ttl_ms"] = rng.choice((0, 60, 5000))
    events = grid_events(raw, rng, pairs=rng.randint(0, 12))
    requests = len(events)
    squeeze = rng.choice((1, 2, 4))
    for event in events:
        event["at"] //= squeeze
    events += [
        {
            "at": rng.choice(events)["at"],
            "event": rng.choice(("drop_message", "corrupt_message")),
            "n": rng.randint(1, 8),
            "of_type": rng.choice(list(MESSAGE_TYPES)),
        }
        for _ in range(rng.randint(0, 3))
    ]
    events.sort(key=lambda event: event["at"])  # stable: a rule follows its ms's requests
    expect = {}
    if rng.random() < 0.5:
        expect["final_statuses"] = ["ok"] * requests
    if rng.random() < 0.5:
        expect["e2e_match"] = rng.random() < 0.8
    if rng.random() < 0.5:
        expect["pool_consumed"] = {rng.choice(raw["links"])["id"]: rng.randint(0, 4)}
    if rng.random() < 0.5:
        expect["message_counts"] = {rng.choice(list(MESSAGE_TYPES)): rng.randint(0, 40)}
    return raw, {"name": "corpus", "events": events, "expect": expect}


def test_random_fault_corpus_digest():
    digest = hashlib.sha256()
    completed = 0
    for case in range(CORPUS_RUNS):
        raw, scenario = corpus_case(random.Random(case))
        try:
            result = run(topology_from_dict(raw), scenario_from_dict(scenario), seed=case)
        except ConfigError as exc:
            digest.update(f"{case} error {exc}\n".encode())
            continue
        completed += 1
        digest.update(f"{case} exit {result.exit_code}\n".encode())
        digest.update(raw_digest(result.trace_lines).encode())
        digest.update(json.dumps(result.report, sort_keys=True).encode())
    assert completed >= CORPUS_MIN_COMPLETED
    assert digest.hexdigest() == CORPUS_DIGEST
