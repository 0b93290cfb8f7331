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
overlap on shared KMSs, and runs where a lost discovery lets another
request's answer be handed to the wrong request. Every run here must end
with no open wait in any vKMS or KMS.
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
        "026718cab5b7165ba592a2360072742a1f526610a547a5075dc0c6c6de7e97ee",
    ),
    (
        "mesh4_relay.json",
        "relay1hop.json",
        "f978f9352ef6aa053dd57a72438b72a8db983bb3b6003acfa930f8f695e0a68e",
    ),
    (
        "chain32.json",
        "linear32.json",
        "560bb604ef85108cff71b8d6e55645ae384e47cfb538036d60ea0c5658ccb82e",
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
    (None, "3b313e42c387c7dfe006db10dde3d5aa7846f2a6fa6fe1d4767fc965bbb1bf9d"),
    (150, "2a178ee5f2b87321d14b2cba4b1f03a0930fdf9b1ec3ae4709bc89407e53ee79"),
]

# session_lifetime_ms -> full_report_digest of the GRIDS run
GRID_FULL_REPORTS = {
    None: "8a7cbf88b9c480aa96c7df8256673049fed530f3690807ec31c6b38a3d54405e",
    150: "205a44c93f12cdfd8a45319a342622ab551552c7cd0dc8bac97db59318df3084",
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


@pytest.mark.parametrize("topology_name,scenario_name,expected", PACKAGED)
def test_packaged_raw_trace_digest(topology_name, scenario_name, expected):
    result = run_packaged(topology_name, scenario_name)
    assert result.exit_code == 0
    assert raw_digest(result.trace_lines) == expected


@pytest.mark.parametrize("topology_name,scenario_name", [p[:2] for p in PACKAGED])
def test_packaged_report_digest(topology_name, scenario_name):
    result = run_packaged(topology_name, scenario_name)
    assert report_digest(result.report) == PACKAGED_REPORTS[scenario_name]
    assert full_report_digest(result.report) == PACKAGED_FULL_REPORTS[scenario_name]


@pytest.mark.parametrize("session_lifetime_ms,expected", GRIDS)
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
        "4de77d9b34d43a9ffddba8ab6a2ba7fc4548b1335a79d64984b1829a3183f6a0",
        0,
    ),
    ("drop", "relay_process_request", 2): (
        "1de3c2fa529420385b3bbe026c412a1b4ca5b5e3b83028c3954e4756efe0eaf7",
        0,
    ),
    ("drop", "relay_process_request", 3): (
        "1f2a55a6265bedebb1119de5d2424ad30192e1a43e66d6a25e728ef458f20339",
        0,
    ),
    ("drop", "ext_key_request", 1): (
        "ceb308e7a8eab355cfd4fdcbad35d5ca68edb62d544681961ad99bb84a2f1271",
        1,
    ),
    ("drop", "ext_key_request", 2): (
        "5564d91892f5cd38531fae45c2fea144913c8b70df2a3edbf25631282f654901",
        3,
    ),
    ("drop", "ext_key_request", 3): (
        "9cc437e2cd0b4ff85beefc27e13e740d364ac26d7f91978e1602174142f5be25",
        5,
    ),
    ("drop", "key_relay", 1): (
        "da6596b77c2e15c9a1074894eb2b89e6bbec1acde957c2b510143b253124a0e5",
        2,
    ),
    ("drop", "key_relay", 2): (
        "94bbe17fd04101fac973ab3a5a85f247f98b62a2223e115f6ff6330e290b4abd",
        4,
    ),
    ("drop", "key_relay", 3): (
        "573b153bd12542a8cff4222108da1da36a16bb9660a44a80153c160518143e07",
        6,
    ),
    ("drop", "key_relay_response", 1): (
        "a876402eee014dd99f1f46d4788454475c36dfe3bab9ca22217df2cb31003bf7",
        6,
    ),
    ("drop", "key_relay_response", 2): (
        "b3ddac5b73a886eaa9d9c34fd0a990b5a6eddf8d30c97c93bcbf2e9ffb1ca747",
        4,
    ),
    ("drop", "key_relay_response", 3): (
        "08fe1e264f18a6565c177b034346335785905406998e96b4cffb9e98c9f9f378",
        2,
    ),
    ("drop", "ack_request", 1): (
        "5a8d7d5ab527e38f9786c69e1fef4cc7ca773f87fe48e29415328054ba5cd5b9",
        5,
    ),
    ("drop", "ack_request", 2): (
        "f03bcd5c171a1e5a44b2f9ba16a83044809b6c8abe97913df67145cbc9c5f8b5",
        3,
    ),
    ("drop", "ack_request", 3): (
        "dd76614e53e92c55f4e7b477b982cfe209e2475312ae9ce64bb38a96f92cf9ca",
        1,
    ),
    ("drop", "relay_process_response", 1): (
        "a49dd7220b2e1134f75d1d5d7c4cb75b0d75c5ac752971e6a14f2c98d5abd2dd",
        0,
    ),
    ("drop", "relay_process_response", 2): (
        "c7eb74cf6a13524f13810079a30683bfa19e9d1f4d43beb91fc93d7f1bef0143",
        0,
    ),
    ("drop", "relay_process_response", 3): (
        "5555ba3df70edd2e7ceaa518464eaba735f56c9888269f9d433825efba57f766",
        0,
    ),
    ("drop", "key_delivery", 1): (
        "2dfab15aa4205187b87066d72d1c550058917bf7ad2226e24aba66729583cab7",
        0,
    ),
    ("drop", "key_delivery", 2): (
        "c247f2fc0d39dbfa32e2c5f28ee42d29e4d672dc8cfab07f1cda20b16f34d4bf",
        0,
    ),
    ("drop", "key_delivery", 3): (
        "8f31ce294d308846a6a6d1fe7adfa785163224fc44f53075bd945bccde072d0d",
        0,
    ),
    ("corrupt", "relay_process_request", 1): (
        "12133adbeba7f3a09bf333d6b702087fab037341687eb5efc81555e438a1fa49",
        0,
    ),
    ("corrupt", "relay_process_request", 2): (
        "12133adbeba7f3a09bf333d6b702087fab037341687eb5efc81555e438a1fa49",
        0,
    ),
    ("corrupt", "relay_process_request", 3): (
        "12133adbeba7f3a09bf333d6b702087fab037341687eb5efc81555e438a1fa49",
        0,
    ),
    ("corrupt", "ext_key_request", 1): (
        "09594197d069a07e51625181b492c1afc4bfaa5c422793ce21a46a7d001222f5",
        0,
    ),
    ("corrupt", "ext_key_request", 2): (
        "65f2b39833abf31ab48e22cdfe6c3740f4cc48ab5ae28261d48a59588b997b4f",
        0,
    ),
    ("corrupt", "ext_key_request", 3): (
        "2adb330a8c74deb7b0e5e095260eb2458eef87753361adfc14d2fb69bd15577c",
        0,
    ),
    ("corrupt", "key_relay", 1): (
        "cf480357c0e454d9ae1fe14f42fda83bcd04c153b22ebfe1fd31080e3a2cfa57",
        0,
    ),
    ("corrupt", "key_relay", 2): (
        "75194563e5cf5a86b31d583fb6ddc84c6288d6c0bbcb16cc2c379ed3cb020107",
        0,
    ),
    ("corrupt", "key_relay", 3): (
        "2f25df99cc43666bbc136c17b322ce31281bfe54a462eea666488ab38686b8e5",
        0,
    ),
    ("corrupt", "key_relay_response", 1): (
        "12133adbeba7f3a09bf333d6b702087fab037341687eb5efc81555e438a1fa49",
        0,
    ),
    ("corrupt", "key_relay_response", 2): (
        "12133adbeba7f3a09bf333d6b702087fab037341687eb5efc81555e438a1fa49",
        0,
    ),
    ("corrupt", "key_relay_response", 3): (
        "12133adbeba7f3a09bf333d6b702087fab037341687eb5efc81555e438a1fa49",
        0,
    ),
    ("corrupt", "ack_request", 1): (
        "12133adbeba7f3a09bf333d6b702087fab037341687eb5efc81555e438a1fa49",
        0,
    ),
    ("corrupt", "ack_request", 2): (
        "12133adbeba7f3a09bf333d6b702087fab037341687eb5efc81555e438a1fa49",
        0,
    ),
    ("corrupt", "ack_request", 3): (
        "12133adbeba7f3a09bf333d6b702087fab037341687eb5efc81555e438a1fa49",
        0,
    ),
    ("corrupt", "relay_process_response", 1): (
        "12133adbeba7f3a09bf333d6b702087fab037341687eb5efc81555e438a1fa49",
        0,
    ),
    ("corrupt", "relay_process_response", 2): (
        "12133adbeba7f3a09bf333d6b702087fab037341687eb5efc81555e438a1fa49",
        0,
    ),
    ("corrupt", "relay_process_response", 3): (
        "12133adbeba7f3a09bf333d6b702087fab037341687eb5efc81555e438a1fa49",
        0,
    ),
    ("corrupt", "key_delivery", 1): (
        "d3e32317a27c78ae9f4f47079ae2431f608a28f779cfd6719ccdfd88af889772",
        0,
    ),
    ("corrupt", "key_delivery", 2): (
        "8c0c7ad773bbad07852289f95b531fa94335660c0dfcfc324c3f37bb9eb686a0",
        0,
    ),
    ("corrupt", "key_delivery", 3): (
        "694faa3547bbd638f90c468659a242da092ac83af2687970b497fb3115847d8a",
        0,
    ),
}

# link (1-based) whose pool the warm-up empties -> (digest, orphans); 4-link chain
CHAIN_EXHAUSTED = {
    1: ("7cd7318169e9f4667ef3da8899ab08d1b7c9c7d7e924c25fc3c4515c23b53f3c", 0),
    2: ("a930f1dd0deb8b7f93fdb7e18450f357f9f7437ddc0758e652547bdb3e3cf885", 0),
    3: ("c185e4f6fe40034caff11b9d12cc1b5ec981ab0640f02fbff0cedf36bbe92e92", 0),
    4: ("dfb4c55cadacf12808c7f94415758afc130a512addb3736262a0b3cb8acc6855", 0),
}

# (rng seed, session_lifetime_ms) -> (digest, orphans); 5x5 grid
GRID_FAULTS = {
    (1, None): ("53991bff204e24847d96f8f53be8c65e7b7030e47aa44e999501610461311c92", 6),
    (1, 60): ("53991bff204e24847d96f8f53be8c65e7b7030e47aa44e999501610461311c92", 6),
    (2, None): ("f0f9229bd890c886655ae85912e9501a17d4561ec96fc9bbddd61b0b0ee151e5", 2),
    (2, 60): ("77a2481d45db6171262802af6dc85986c5ab0f060d7123fd94303688e2a6e87a", 2),
    (3, None): ("9843f3ebba90ea4647cc707eee9a1f55a756d699b51feda07287bcc96eafd3a1", 7),
    (3, 60): ("684956ad1e49620ed2fcae460fad515d9d010bdc15f35ee72d341412185e10c7", 7),
    (4, None): ("74d7f122c0b0ed251035ab2de24fc5e33d6c43d256afb87dd99332f95d8ee3e7", 5),
    (4, 60): ("74d7f122c0b0ed251035ab2de24fc5e33d6c43d256afb87dd99332f95d8ee3e7", 5),
}

# (rng seed, session_lifetime_ms) -> digest of report_digest's sections; 5x5 grid
GRID_FAULT_REPORTS = {
    (1, None): "9bc14ff9c505c77081939c2680e8266b2c4838f89d42b85b7644714709299991",
    (1, 60): "3c9924fbeddcb01e6e181b21ade992cfb6a91777841819788e114759979204c4",
    (2, None): "ccb943edca1c87e91b645b4243d5f0edba4dfbf85e294c44990790b51859bf76",
    (2, 60): "06b7125c1f4572d8b7980f4330487105ac66d49ba8061b2e16a7237bcb36c27c",
    (3, None): "086fec23ab4b59a22abf76c7b04635f82339be7945f476fb993362f368bf218e",
    (3, 60): "ef6ae9b3524ace716a14771fc43887bf9832cbd1ce174907820f802b40f5088b",
    (4, None): "c8eb6b0538ec8da980a71cadd3270b1e87f8cc9421501e7a9b5ac0abf19f11c8",
    (4, 60): "48d73ed70634b1ac793fb31e334369e190f30c782ba90aa399bf48b621a26ead",
}

# (rng seed, session_lifetime_ms) -> full_report_digest; 5x5 grid
GRID_FAULT_FULL_REPORTS = {
    (1, None): "4bd765238291caa8eee2c833238ac1e6f41b7deb8cdc123108e5020ab666eb1e",
    (1, 60): "34610f639508df5b6c601bede67c52f459cda0950951f98c1a5391bb607308f4",
    (2, None): "6160f84beb3a750d612f16d9091e7f9e5a6817fbbfe3851fa7c0675c58bc8be6",
    (2, 60): "f557e64fc1229ee43e993b16665da59c1b81e20dfd4941159f15385754b0cbcb",
    (3, None): "adacccfba5de5ac9267461d3e856bda3b90235cd155de4920c5ed70d34e3227a",
    (3, 60): "3c574a56c655d92810f04d32108a64254159f742929050bef3df45ff988db05b",
    (4, None): "1749b662582dc99d9c41307220a0881390db1300d346114b9e8170c8c17d1b2a",
    (4, 60): "6463cae62fc1e93187b105ca60f5765e079683eb7489c8d1fa3b527adcb73664",
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
        "8a59a2acc5660d59e95def3062e5ac39c214151c696aa80919b07f5dd275dcc0",
        0,
    ),
    ("get_key", 2): (
        "d2cf0f9e6aa0e3a951b93c30f8ae38b27d3818f085d38de20824bf88e8f856be",
        0,
    ),
    ("get_key", 3): (
        "2229de0566f3df725de460ba1dd655496b3f0947cffb594d94fda5f387434232",
        0,
    ),
    ("get_key_with_id", 1): (
        "0fe634d540c829f9da31eea7128865b15f91cd738cb01914de413e1b0a3d677e",
        0,
    ),
    ("get_key_with_id", 2): (
        "1a6cf0ff3b27fc9b4bb43e9124370faf828c3d42842e2e37013c04f09111bb88",
        0,
    ),
    ("get_key_with_id", 3): (
        "53afab95fb818ba5f8ea9f0397679632382fccd31c3c6dc6ce8bcfe94e0f56de",
        0,
    ),
    ("kms_discovery_request", 1): (
        "fc3937cad4075a64f72afaa325118484aaa4cad3445bf4230bb281b0b2174ba7",
        0,
    ),
    ("kms_discovery_request", 2): (
        "38e72f92629b5a9f877c9b5e833f890af637fabc8e44611124339e8c43f8517c",
        0,
    ),
    ("kms_discovery_request", 3): (
        "1724122b5e832d12df4dca1e95a999eed6369565a5d1d5e8d01d0722489a3bc6",
        0,
    ),
    ("kms_discovery_response", 1): (
        "0a1b5a03487738e22a91d0d7d53aa11b1788cc78c60d11ed8a2caa69ad90a5a8",
        0,
    ),
    ("kms_discovery_response", 2): (
        "0dbc9ca90b2c7e51afd28da954dffd1f97873302c95aea537476f771d2d72d1e",
        0,
    ),
    ("kms_discovery_response", 3): (
        "cead1512d61aac4e70833db0b86416359b18030bbdf6a400194bdbea64380ab3",
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
        "15a0a7e56f0a0dde1aebd3b1e9c8b8608cc9206dcc030039fde4bfa96342297f",
        "d591621bd9bcfba1fe3b132fc6596cc41b01f3d1f451afafd26fec0cf9b46874",
    ),
    (1, 5000): (
        "7faf2a0bfce928790ae5caac255a648e30afe50c640ac3b8464a87263ed819d0",
        "c4e567b8a8b29fa30d677336a4272051d0d228f0f59d09df3f40cda1229f70e6",
    ),
    (2, 0): (
        "762afbef357445a024168ef4b12006227e9c22ef66e915a1072cf8e8c5acf789",
        "6f4ef1b8598f47b0b9c34f83bfd90df849e26ede2bd70a2f7e0417a8b4f95b99",
    ),
    (2, 5000): (
        "914686597f69452d4983e2f2d0b68bca36fd125ff4af6e832c567881ddef0858",
        "9507bda6c66ffdf44f0efb107ace1585f474a9b6c1dc10a1bc0cd07d303ac0bb",
    ),
    (4, 0): (
        "8d10da5b94a3e39a7dbf794d66879f2eb151a2d28ddefaea1bf1240bb980f8b6",
        "d9b0fc0ecf76125bafb353860666a9311a31541f05431f216fabcbb6bc6c0ca1",
    ),
    (4, 5000): (
        "ca73f7f12987166e78ec210ba079bb19927760e6bf522ce9e419b5be2e21fdfa",
        "26f3c0131d0b3e1de55f21ddaef49a190320735008490f3e5ecb840ece4342b8",
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


# ── a request that another request's discovery answer takes ──

# Replies are matched by queue position, so when a request's own discovery
# is lost, the next answer for its app pair is handed to it in a later ms.
# It then waits on its KMS from that ms, while the request that asked in
# that ms keeps waiting on the pair. Mesh4 with APP_A and APP_X at N1 and
# APP_B at N4; every case drops APP_A's first discovery request.
STALE_CASES = {
    # APP_A's second request hands its answer to the first, whose relay
    # then stalls. The first waits on its KMS from 200 ms, so it still
    # waits when APP_X's request joins that KMS's queue at 1100 ms.
    "taken_answer_stalls": [
        {"at": 60, "event": "drop_message", "n": 1, "of_type": "relay_process_request"},
        {"at": 200, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        {"at": 1100, "event": "app_get_key", "app_src": "APP_X", "app_dst": "APP_B"},
    ],
    # As above, but APP_X's request joined the same KMS queue at 50 ms,
    # before the taken request joined it and after that request arrived.
    "taken_answer_queues_behind_a_younger_request": [
        {"at": 10, "event": "drop_message", "n": 1, "of_type": "relay_process_request"},
        {"at": 50, "event": "app_get_key", "app_src": "APP_X", "app_dst": "APP_B"},
        {"at": 60, "event": "drop_message", "n": 1, "of_type": "relay_process_request"},
        {"at": 200, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
    ],
    # APP_X's request joins the KMS queue in the ms the taken request
    # arrived, before the taken request joins it later in that ms: the two
    # wait in the order they joined, not the order they arrived.
    "taken_answer_in_the_same_ms": [
        {"at": 0, "event": "drop_message", "n": 1, "of_type": "relay_process_request"},
        {"at": 0, "event": "app_get_key", "app_src": "APP_X", "app_dst": "APP_B"},
        {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
    ],
    # As above, and the taken request's relay is lost too, so both time out.
    # A send is counted only by the first rule it fires, so the second n=1
    # rule takes the second relay request.
    "taken_answer_in_the_same_ms_stalls": [
        {"at": 0, "event": "drop_message", "n": 1, "of_type": "relay_process_request"},
        {"at": 0, "event": "drop_message", "n": 1, "of_type": "relay_process_request"},
        {"at": 0, "event": "app_get_key", "app_src": "APP_X", "app_dst": "APP_B"},
        {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
    ],
    # The taken request is served at once; the one that asked times out.
    "taken_answer_served": [
        {"at": 200, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        {"at": 700, "event": "app_get_key", "app_src": "APP_X", "app_dst": "APP_B"},
    ],
}

# (case, cache_ttl_ms) -> (digest, full_report_digest)
STALE = {
    ("taken_answer_stalls", 0): (
        "03414920b54ad4fdaf00e388f6a95d8e07b399f5d0875dbe469087b111883eb2",
        "41c788a8756e5eeaf0cb0bdb44fedea3d268b84719cf485355d532332fe0e58c",
    ),
    ("taken_answer_stalls", 60000): (
        "03414920b54ad4fdaf00e388f6a95d8e07b399f5d0875dbe469087b111883eb2",
        "41c788a8756e5eeaf0cb0bdb44fedea3d268b84719cf485355d532332fe0e58c",
    ),
    ("taken_answer_queues_behind_a_younger_request", 0): (
        "9672f05ff16e0fc3749c34f802c6a8654ce836a23462dc4d674bd2aaa3a8bcdc",
        "a1fe19e21a4388acc82edb84bc9feab20d47866e4a24353235d19317a7cc11c6",
    ),
    ("taken_answer_queues_behind_a_younger_request", 60000): (
        "9672f05ff16e0fc3749c34f802c6a8654ce836a23462dc4d674bd2aaa3a8bcdc",
        "a1fe19e21a4388acc82edb84bc9feab20d47866e4a24353235d19317a7cc11c6",
    ),
    ("taken_answer_in_the_same_ms", 0): (
        "bf619f39bf75ebd842850e416f92ad07e7184746635fe8f9ae20fd76de0c7d60",
        "357d79413fd1661b0fb718e377d0a9fa62c3b7e2b4dcab071f2a421c475fc0ad",
    ),
    ("taken_answer_in_the_same_ms", 60000): (
        "bf619f39bf75ebd842850e416f92ad07e7184746635fe8f9ae20fd76de0c7d60",
        "357d79413fd1661b0fb718e377d0a9fa62c3b7e2b4dcab071f2a421c475fc0ad",
    ),
    ("taken_answer_in_the_same_ms_stalls", 0): (
        "9672f05ff16e0fc3749c34f802c6a8654ce836a23462dc4d674bd2aaa3a8bcdc",
        "5a70cb223aa629650d0ef19d5f1abbed4478170090021b10424e7fb331f05d85",
    ),
    ("taken_answer_in_the_same_ms_stalls", 60000): (
        "9672f05ff16e0fc3749c34f802c6a8654ce836a23462dc4d674bd2aaa3a8bcdc",
        "5a70cb223aa629650d0ef19d5f1abbed4478170090021b10424e7fb331f05d85",
    ),
    ("taken_answer_served", 0): (
        "f76abcf79ed9bc98ca1f0f690787a8d7019369f8cf6c5e173fb692c5cd22be86",
        "d2ccfa2d384916077dcfa4d6fd9538230728360e6e45c076de9e7b97e94d2ea7",
    ),
    ("taken_answer_served", 60000): (
        "f76abcf79ed9bc98ca1f0f690787a8d7019369f8cf6c5e173fb692c5cd22be86",
        "d2ccfa2d384916077dcfa4d6fd9538230728360e6e45c076de9e7b97e94d2ea7",
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
CORPUS_DIGEST = "c55388b7979752255b91a317553bba98825a12110e90842c7923d6364d038f42"
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
