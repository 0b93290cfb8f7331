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
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from conftest import chain_dict, grid_dict, grid_events, run_events
from qkdrelay import data_path
from qkdrelay.harness import load_scenario, load_topology_file, run
from qkdrelay.topology import topology_from_dict

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
