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
    "direct.json": "a03def376f1ec968b7f5ebc730647ade743be8a3b070fbb53a8a862f782dfd66",
    "relay1hop.json": "0c4326c2fbfe182e3631bfd35ccb2310b0debf020fd5f694e8f5a5312689838d",
    "linear32.json": "126aa48ca2a5fb4592b331ce918706639e3d0692e681fb3b15369bfbe8c857e5",
}

# scenario -> full_report_digest
PACKAGED_FULL_REPORTS = {
    "direct.json": "a377c637426b096a551b5496ee68e8b2580d8222340be8b5f9d01d3e5a1b7118",
    "relay1hop.json": "800a6be261bb624d0cb53612c2e765744fd60efcc97805706f74e36e2e709be6",
    "linear32.json": "0d86b4cf64e5673e24cad1a2d020792d1fb6a1479bb9dd2d11f5cc36e719d58f",
}

# (session_lifetime_ms, digest)
GRIDS = [
    (None, "148ac2394b8cacf0cbb4fbba5442f36ffe6ea8f90a02de792284d06e2954db4b"),
    (150, "148ac2394b8cacf0cbb4fbba5442f36ffe6ea8f90a02de792284d06e2954db4b"),
]

# session_lifetime_ms -> full_report_digest of the GRIDS run
GRID_FULL_REPORTS = {
    None: "0b7fff321f3ca07383afa782ff07806a5dd932026b65379d9d2737bb943f756b",
    150: "779aa0f7ce7d92d0366702a735122f9f3a965b9c155e32bd209bb07b13e4a01a",
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
        "959ded2f269fc97d0c0839293e9811b8000d19a8a20f1960f5b06c9849ea4686",
        0,
    ),
    ("drop", "relay_process_request", 2): (
        "d1bc4f7ba8ea8a5d1d3b57c6a9a8214b5582f2164acebb62ce43c9aadb09d5fc",
        0,
    ),
    ("drop", "relay_process_request", 3): (
        "80d3b4bea7e0fd2ca76aaac4151dbb15ef3e74edbcc5fb86720a763fef3adc07",
        0,
    ),
    ("drop", "ext_key_request", 1): (
        "6364bee2e806ac194d5f5c800545ec6b905bb0ad46da391cdcdf88b97a93b3dc",
        1,
    ),
    ("drop", "ext_key_request", 2): (
        "12e437df321000dce28c648e59f1065cbb9adb31206f7a7e6f6d6584be70eddd",
        3,
    ),
    ("drop", "ext_key_request", 3): (
        "6a3bfcdd29fbecfd50ff7cb5162ce42d25f81728713588be43a3ed4ac2ce47d3",
        5,
    ),
    ("drop", "key_relay", 1): (
        "1f74a3c9afa6db3a74af039d7fcd8401dca70570afd24c006576a0268b111e58",
        2,
    ),
    ("drop", "key_relay", 2): (
        "d48c0a96d77fc3ff36f1d298c29eae529a9bee66c927d84fd0707f16782422b7",
        4,
    ),
    ("drop", "key_relay", 3): (
        "2e237d70c52c57491a6c78ec6ed549d667ae52b74bf3568de6e0b6f07f6448ff",
        6,
    ),
    ("drop", "key_relay_response", 1): (
        "875dd07c3a12f57f0007354e4f3851f42714b55f5a779971fbd9d421c9a547f5",
        6,
    ),
    ("drop", "key_relay_response", 2): (
        "056f4cfa42df2f0734c151a40201e227495f631c80a041f220eb8d1d9348df47",
        4,
    ),
    ("drop", "key_relay_response", 3): (
        "9b6368443d0165e31693c9be833b1a92bf93ac851035985b23e93f9a701cad38",
        2,
    ),
    ("drop", "ack_request", 1): (
        "4e88828821ce5465f1b04fb4e3944f56eff4b488c371e49573659ea2deb885c8",
        5,
    ),
    ("drop", "ack_request", 2): (
        "098193be139cb5fb3bb3dc1a3dca4e4ff3dd5965da097da6d0f77ab3879a4e6b",
        3,
    ),
    ("drop", "ack_request", 3): (
        "6eeee852f98ba6c06f4de2396f754f5ab40743b2b9cfeb7ac8ddcb7eccc4866d",
        1,
    ),
    ("drop", "relay_process_response", 1): (
        "709ff897b8f9e9b0c686b8501c53692eba4521ed24c76100b61b4ce279b30efe",
        0,
    ),
    ("drop", "relay_process_response", 2): (
        "9d34f91496a932b783ef4180f60fe986975125ba0823be9758cd892b7543fd9b",
        0,
    ),
    ("drop", "relay_process_response", 3): (
        "61aff94c06b6c8f8c906e6a0d41247af65a718c33a9ac2e125e8213b46d627c8",
        0,
    ),
    ("drop", "key_delivery", 1): (
        "de6100da19479630503ae29533a5a3c35e482f063ef6e69e20833584794db73d",
        0,
    ),
    ("drop", "key_delivery", 2): (
        "dde11f8776712ec01e8ff3b8835ddb6a8c35cd0ca738c8c01631a50ca7c5287a",
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
    1: ("477d6a7bbbdf10c7e504741232e7cb787c5f4f193673d21c9ef9933b688f9600", 0),
    2: ("2a915a0cdd5c0351c827094159955c79b4be9dbfb79e570890ecdad94a0dc6c9", 0),
    3: ("326c243d6ac21ce1b5e10ea30b1822b618155b7b1023a39d0b7b46f009420ac5", 0),
    4: ("a40f67f722d5c17406b7a934a7b276f7f3fc4648c2eaf484174bff023020e7d7", 0),
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
    (1, None): "8517f9c10b0aa3749e87bb07d8d15911c71b57d855b01c83a2e33727cf7d3242",
    (1, 60): "5ee63c79e903a15beb9ee4d06cc253352879db5abfeb1cb5dd55b2f85c4b3856",
    (2, None): "f3ab3825eb19a9c94989f7d5135da1a49c24e3353b16159b3acf98fa5daedd16",
    (2, 60): "7e5bcd47dc0da680255a5014c0bfd837abe773a976a334320b07ae12b2116a91",
    (3, None): "5c69f0f49e5b6cb66677e75b4cd791935de35015e3b320c30bd3459528b0ff2d",
    (3, 60): "1e1254b43902283f1bff4faf7d54f236a7c67b7dda3d422ad2566557d3135b91",
    (4, None): "c97fce6e7fe21141c49c8493bd0cd164bea89eaff18fc1e9b6d5a9193962b21b",
    (4, 60): "928aef473e4e38490e640af9a35675a0393b04d99bcf52b6fb6528a828259da4",
}

# (rng seed, session_lifetime_ms) -> full_report_digest; 5x5 grid
GRID_FAULT_FULL_REPORTS = {
    (1, None): "17138d38e8142d6a37d9c912123e99068c17a34a95723aae0925fadea58b4605",
    (1, 60): "31af5137c26688dc5df44c972b3dad532bf25f21e6fd6358edac24fd6507d8d5",
    (2, None): "3387d0639edf4bc29a3a2d97969948147c93eea08a2554b91a12630c54c5daef",
    (2, 60): "f2d1ab9fd631a92032fc781502e59a0c9c073850e7a737ea7b76ebb0b2271084",
    (3, None): "47bf324803bdf6ce29f5921bcac8e42c8251ef7766e1a9d23b7c297d18823124",
    (3, 60): "954e87b0c33d3c627ce61e85ba4aba94d4d8692acdbe479974cb1e8588e6a00b",
    (4, None): "e49d94eb2ce9dc937e44139915fb481b7e46685d47ff5d547da49b412acab63b",
    (4, 60): "c8a10d006b611edd617b711c95fe142cc14e24288986b44d0361140e7bece0c4",
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
    # Only the request whose delivery was dropped (R3) stays open. R4 names
    # R1's key, the last APP_A got, which R2 already took; every later
    # request gets its own key.
    assert [r.status for r in result.sim.requests] == ["ok", "ok", None, "failed_no_key"] + ["ok"] * 4
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
        "c31c1f652f74b1b70635eafddb5784b0994068c41ebee472fd3510b4500a17b3",
        0,
    ),
    ("get_key", 2): (
        "bc9a27eccbdc8312b8199ebc94ea5ea649132e574134379c91a34143189afa3d",
        0,
    ),
    ("get_key", 3): (
        "303aa80744a20b1d8e79f403b8dd6ad6fc772f80b6b87d989d60194bcf118c05",
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
        "6379142aeb436f1eda16dc60426b24ed1a4523383d20742f4231c03ed352be61",
        0,
    ),
    ("kms_discovery_request", 2): (
        "4672b45a0bfa866880979f5526febfaf1ff6b65a1d2254b4b59dedb621ccd025",
        0,
    ),
    ("kms_discovery_request", 3): (
        "452e120dcb037aa1f4bc35dd899d846445135d968a3b6da5115667f3724d0472",
        0,
    ),
    ("kms_discovery_response", 1): (
        "bd8ebf8c3c8a664066fc03b71d4f457b684b991df9246e187be9832c1af97bcf",
        0,
    ),
    ("kms_discovery_response", 2): (
        "16ecc9cbdf9a64c9153e941758aee6f607de307db5f901cb158b4da581e6ffe5",
        0,
    ),
    ("kms_discovery_response", 3): (
        "0e35be36cc2c2e446aeda7fcafc762ec076bc9e51ad783301c93c3d936df7589",
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

# rng seed -> (digest, full_report_digest); mesh4, five apps
OVERLAPS = {
    1: (
        "96a78b7d8fb0240397b0bcb689f199cdb7a0ca21f12f73e6bf9c5ce72b96d5e3",
        "842471ed24353b1ed9183c6792afea2fcef3374ef93eb8b75a7ff2697eaf597c",
    ),
    2: (
        "c5c332ad9e7f52afb54bbdb650e8aa79aff0a9399528dcd077794120eb2e8d46",
        "3d396b6c89e9f887a01ec73ea94444335572471d0256879869381e102543434c",
    ),
    4: (
        "c6794dd88e0e6dfa5a54918b422984010531bf61d68c0790198e46fc9c2179e8",
        "bf77271e9b3471aa9abcd0c50987b8d93397178c3862ae43a2659bc8b52ec3f3",
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


def overlap_run(seed: int):
    raw = mesh4_dict(OVERLAP_APPS)
    for link in raw["links"]:
        link["initial_pool"] = 16
    return run_events(topology_from_dict(raw), overlap_events(random.Random(seed)), seed=SEED)


@pytest.mark.parametrize("seed", list(OVERLAPS))
def test_overlapping_requests_digest(seed):
    result = overlap_run(seed)
    assert result.exit_code == (0 if result.report["quiescent"] else 1)
    assert (
        raw_digest(result.trace_lines),
        full_report_digest(result.report),
    ) == OVERLAPS[seed]


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

# case -> (digest, full_report_digest)
STALE = {
    "taken_answer_stalls": (
        "ef4709161d63af168c435dc0fd0e40f5422384bbb2c7c469f9e39cbbced34279",
        "0434d577c2275f70ba0a1c5bb1d184b958ad866181d15ef0260329aa60888fec",
    ),
    "taken_answer_queues_behind_a_younger_request": (
        "ce2e77a2fa8fd264cfdb58647d222bb406195e3773610eb011dff722466a9358",
        "547dd85457cc1f1fc97536d489285f33a62fc96f162d2fff2a9f1242f39ebc74",
    ),
    "taken_answer_in_the_same_ms": (
        "ca74fc6e852b24e5441573246aae519061308747413197f64c5dd1872af2ec96",
        "e54c971eac09fd9959cda114505a464d4191eda3bfa0e5d1b6cc91155084e58a",
    ),
    "taken_answer_in_the_same_ms_stalls": (
        "ce2e77a2fa8fd264cfdb58647d222bb406195e3773610eb011dff722466a9358",
        "8458b0ecf89317354f3a24f1f6df9c3d00b480a3064359072a9f7096c9ae2879",
    ),
    "taken_answer_served": (
        "8de4fdfb92bfe436a55f51e2a740476b5923d642815a6f349f3fa34d3cb9b7b5",
        "71cb120010e774fafe95c7b7a693c0ee92336f946e552b46a861be1aea7d7ed1",
    ),
}


def stale_run(case: str):
    events = [
        {"at": 0, "event": "drop_message", "n": 1, "of_type": "kms_discovery_request"},
        {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        *STALE_CASES[case],
    ]
    raw = mesh4_dict({"APP_A": "N1", "APP_X": "N1", "APP_B": "N4"})
    return run_events(topology_from_dict(raw), events, seed=SEED)


@pytest.mark.parametrize("case", list(STALE))
def test_taken_discovery_answer_digest(case):
    result = stale_run(case)
    assert result.report["quiescent"]
    assert [r.status for r in result.sim.requests] == STALE_STATUSES[case]
    assert (
        raw_digest(result.trace_lines),
        full_report_digest(result.report),
    ) == STALE[case]


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
        return overlap_run(key)
    else:
        return stale_run(key)
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
CORPUS_DIGEST = "938a9d248b90337f4dfcd6683f26efc9d04e911edb85686d6302766bb3e06c39"
# Runs that end without a ConfigError. The rest name a key_id_from app
# whose own request has not resolved ok yet, which only the run can tell.
CORPUS_MIN_COMPLETED = 250


def corpus_case(rng: random.Random) -> tuple[dict, dict]:
    """A 3x3 or 4x4 grid with random pools, link weights, weight policy
    and session lifetime, and a scenario: grid_events squeezed by
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


@pytest.mark.hash_seed
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
