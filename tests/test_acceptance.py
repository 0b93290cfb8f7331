"""Acceptance suite: the release criteria, one verdict line each. There is
no C9: it tested the discovery cache, which is gone.

Run with `pytest tests/test_acceptance.py -s -q` to see the verdict lines;
each criterion prints exactly one `[acceptance] ... PASS|FAIL` line and
fails its test on any violation.
"""

from __future__ import annotations

import random
import time

from conftest import chain, chain_dict, mesh4, pair_scenario, resolved, run_events
from qkdrelay import data_path
from qkdrelay.harness import load_scenario, load_topology_file, run
from qkdrelay.protocol import (
    OCTET_FIELDS,
    STATUS_NO_KEY,
    STATUS_OK,
    KeyRelay,
    message_to_body,
    message_type,
    otp_xor,
)
from qkdrelay.qusec import QUSEC_ID, shortest_path
from qkdrelay.topology import WEIGHT_POLICIES, topology_from_dict
from test_qusec import all_simple_paths, expand_to_kms, path_cost, random_topology

GET_KEY_EVENT = {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"}

RELAY_STEP_TYPES = [
    "relay_process_request",
    "ext_key_request",
    "key_relay",
    "key_relay_response",
    "ack_request",
    "relay_process_response",
]


def _verdict(criterion: str, failures: list[str]) -> None:
    state = "FAIL" if failures else "PASS"
    detail = f"  ({'; '.join(failures)})" if failures else ""
    print(f"[acceptance] {criterion}: {state}{detail}")
    assert not failures, f"{criterion}: {failures}"


def _packaged(topology_name: str, scenario_name: str):
    topology = load_topology_file(data_path("topologies", topology_name))
    scenario = load_scenario(data_path("scenarios", scenario_name))
    return topology, scenario


def test_c01_direct_path_golden_conformance():
    failures: list[str] = []
    topology, scenario = _packaged("mesh4_direct.json", "direct.json")
    t0 = time.perf_counter()
    result = run(topology, scenario, seed=41)
    elapsed = time.perf_counter() - t0

    if result.exit_code != 0:
        failures.append(f"exit code {result.exit_code}")
    if result.diff is None or not result.diff.is_empty:
        failures.append("canonical trace does not match the shipped golden")
    if result.report["message_counts"].get("relay_path_install", 0) != 0:
        failures.append("a direct-path run emitted relay rule installs")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    _verdict("C1 direct-path golden conformance", failures)


def test_c02_relay_conformance_and_key_equality():
    failures: list[str] = []
    topology, scenario = _packaged("mesh4_relay.json", "relay1hop.json")
    t0 = time.perf_counter()
    result = run(topology, scenario, seed=41)
    elapsed = time.perf_counter() - t0

    if result.exit_code != 0:
        failures.append(f"exit code {result.exit_code}")
    installs = [e for e in result.records if message_type(e.msg) == "relay_path_install"]
    if len(installs) != 4:
        failures.append(f"{len(installs)} installs, wanted 4")
    targets = {e.receiver for e in installs}
    if targets != {"KMS_1b", "KMS_3b", "KMS_3d", "KMS_4d"}:
        failures.append(f"installs target {sorted(targets)}")

    types = [message_type(e.msg) for e in result.records]
    positions = {t: [i for i, x in enumerate(types) if x == t] for t in RELAY_STEP_TYPES}
    if any(len(v) != 1 for v in positions.values()):
        failures.append(f"relay step counts {positions}")
    else:
        order = [positions[t][0] for t in RELAY_STEP_TYPES]
        if order != sorted(order):
            failures.append(f"relay steps out of order: {order}")

    by_app = {r["app_src"]: r for r in result.report["requests"]}
    if by_app["APP_A"]["material"] != by_app["APP_B"]["material"]:
        failures.append("end-to-end key materials differ")
    if not by_app["APP_A"]["material"]:
        failures.append("empty key material")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    _verdict("C2 single-hop relay conformance, byte-equal keys", failures)


def test_c03_otp_wire_check_over_randomized_runs():
    failures: list[str] = []
    checked = 0
    for seed in range(100):
        topo = mesh4({"APP_A": "N1", "APP_B": "N4"}) if seed % 2 else chain(3)
        result = run_events(topo, [GET_KEY_EVENT], seed=seed)
        if resolved(result.sim, "APP_A")[0].status != STATUS_OK:
            failures.append(f"seed {seed}: relay did not complete")
            continue
        pools = result.sim.linksim
        for i, env in enumerate(result.records):
            if not isinstance(env.msg, KeyRelay):
                continue
            k1 = pools.find_material(env.msg.id_relay_key)
            k2 = pools.find_material(env.msg.id_key_encryption)
            payload = env.msg.encrypted_relay_key
            if k1 is None or k2 is None:
                failures.append(f"seed {seed} record {i}: unknown key ids")
            elif otp_xor(payload, k2) != k1:
                failures.append(f"seed {seed} record {i}: payload xor K2 != K1")
            elif any(k2) and payload == k1:
                failures.append(f"seed {seed} record {i}: payload leaked K1")
            checked += 1
    if checked < 100:
        failures.append(f"only {checked} KeyRelay payloads seen, wanted >= 100")
    _verdict(f"C3 one-time-pad wire check ({checked} payloads, 100 runs)", failures)


def test_c04_controller_never_sees_key_material():
    failures: list[str] = []
    runs = [
        run(*_packaged("mesh4_direct.json", "direct.json"), seed=3),
        run(*_packaged("mesh4_relay.json", "relay1hop.json"), seed=3),
        run(*_packaged("chain32.json", "linear32.json"), seed=3),
        run(mesh4({"APP_A": "N1", "APP_B": "N4"}), pair_scenario(), seed=9),
        run_events(chain(5), [GET_KEY_EVENT], seed=9),
    ]
    controller_records = 0
    for result in runs:
        for i, env in enumerate(result.records):
            if env.sender != QUSEC_ID and env.receiver != QUSEC_ID:
                continue
            controller_records += 1
            body = message_to_body(env.msg)
            leaked = [f for f in OCTET_FIELDS if f in body]
            if leaked:
                failures.append(
                    f"{result.report['scenario']} record {i}: controller saw {leaked}"
                )
    if controller_records == 0:
        failures.append("no controller traffic observed; scan was vacuous")
    _verdict(
        f"C4 controller key-blindness ({controller_records} controller records)",
        failures,
    )


def test_c05_path_optimality_against_brute_force():
    failures: list[str] = []
    rng = random.Random(20260819)
    cases = 0
    t0 = time.perf_counter()
    for _ in range(100):
        topo = topology_from_dict(random_topology(rng))
        node_ids = sorted(topo.nodes)
        for policy in WEIGHT_POLICIES:
            src, dst = rng.sample(node_ids, 2)
            best = min(
                path_cost(topo, links, policy)
                for _, links in all_simple_paths(topo, src, dst)
            )
            cost, nodes, links = shortest_path(topo, src, dst, policy)
            if abs(cost - best) > 1e-9:
                failures.append(f"{policy} {src}->{dst}: cost {cost} != optimal {best}")
            repeat = shortest_path(topo, src, dst, policy)
            if expand_to_kms(nodes, links) != expand_to_kms(repeat[1], repeat[2]):
                failures.append(f"{policy} {src}->{dst}: repeated run chose another path")
            cases += 1
    elapsed = time.perf_counter() - t0
    if cases < 300:
        failures.append(f"only {cases} cases")
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _verdict(f"C5 path optimality vs brute force ({cases} cases)", failures)


def test_c06_key_budget_is_exactly_path_length():
    failures: list[str] = []
    t0 = time.perf_counter()
    for n_links in (1, 2, 5, 31):
        result = run_events(chain(n_links), [GET_KEY_EVENT], seed=4)
        request = resolved(result.sim, "APP_A")[0]
        if request.status != STATUS_OK:
            failures.append(f"L={n_links}: status {request.status}")
            continue
        per_link = {
            link_id: result.report["pools"][link_id]["consumed_distinct"]
            for link_id in result.sim.topology.links
        }
        if sum(per_link.values()) != n_links:
            failures.append(f"L={n_links}: {sum(per_link.values())} keys consumed")
        if any(count != 1 for count in per_link.values()):
            failures.append(f"L={n_links}: uneven per-link use {per_link}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _verdict("C6 key budget equals path length (L=1,2,5,31)", failures)


def test_c07_empty_second_link_fails_without_leaking():
    failures: list[str] = []
    raw = chain_dict(2)
    raw["links"][1]["initial_pool"] = 0
    result = run_events(topology_from_dict(raw), [GET_KEY_EVENT], seed=4)

    request = resolved(result.sim, "APP_A")[0]
    if request.status != STATUS_NO_KEY:
        failures.append(f"initiator got {request.status}, wanted {STATUS_NO_KEY}")
    stores = {k: len(kms.delivered) for k, kms in result.sim.kms.items() if kms.delivered}
    if stores:
        failures.append(f"delivered keys stored despite failure: {stores}")
    relays = sum(1 for e in result.records if isinstance(e.msg, KeyRelay))
    if relays:
        failures.append(f"{relays} KeyRelay messages on the wire")
    _verdict("C7 failure propagation from an empty link", failures)


def test_c08_target_pickup_reuses_installed_session():
    failures: list[str] = []
    result = run(*_packaged("mesh4_relay.json", "relay1hop.json"), seed=15)
    types = [message_type(e.msg) for e in result.records]
    pickup = types.index("get_key_with_id")
    installs = [i for i, t in enumerate(types) if t == "relay_path_install"]
    if len(installs) != 4:
        failures.append(f"{len(installs)} installs in total, wanted 4")
    late = [i for i in installs if i > pickup]
    if late:
        failures.append(f"installs after the target pickup at records {late}")
    _verdict("C8 session reuse on target pickup (zero new installs)", failures)


def test_c10_identical_seed_yields_identical_raw_traces():
    failures: list[str] = []
    pairs = [
        _packaged("mesh4_direct.json", "direct.json"),
        _packaged("mesh4_relay.json", "relay1hop.json"),
        _packaged("chain32.json", "linear32.json"),
    ]
    for topology, scenario in pairs:
        for seed in (1, 22):
            first = run(topology, scenario, seed=seed)
            second = run(topology, scenario, seed=seed)
            if first.trace_lines != second.trace_lines:
                failures.append(f"{scenario.name} seed {seed}: raw traces differ")
    # A fault-injected run must be just as repeatable.
    drop = [
        {"at": 0, "event": "drop_message", "n": 1, "of_type": "key_relay"},
        GET_KEY_EVENT,
    ]
    topo = mesh4({"APP_A": "N1", "APP_B": "N4"})
    if (
        run_events(topo, drop, seed=7).trace_lines
        != run_events(topo, drop, seed=7).trace_lines
    ):
        failures.append("fault-injected traces differ across identical runs")
    _verdict("C10 per-seed determinism (byte-identical raw traces)", failures)
