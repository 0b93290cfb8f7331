"""Controller: SPF against a brute-force oracle, discovery cases, sessions."""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import random

import pytest

from conftest import chain, delivered, grid_dict, mesh4, random_topology, run_events
from qkdrelay import data_path, qusec
from qkdrelay.harness import Simulation, load_topology_file
from qkdrelay.protocol import KmsDiscoveryRequest, RelayPathInstall, message_type
from qkdrelay.qusec import (
    SESSION_COMPLETED,
    SESSION_EXPIRED,
    SESSION_INSTALLED,
    NoPathError,
    QusecEntity,
    SameNodeError,
    expand_to_kms,
    link_weight,
    link_weights,
    path_tree,
    shortest_path,
    tree_path,
)
from qkdrelay.topology import WEIGHT_POLICIES, Topology, render_kms_id, topology_from_dict


def compute_relay_path(topology, src_node, dst_node, policy):
    """The KMS path of a fresh shortest-path search from src_node to dst_node."""
    _, nodes, links = shortest_path(topology, src_node, dst_node, policy)
    return expand_to_kms(nodes, links)


# ── brute-force oracle ──


def all_simple_paths(topo, src, dst):
    """Every simple path as (node tuple, link tuple), by DFS."""
    out = []

    def walk(node, nodes, links):
        if node == dst:
            out.append((nodes, links))
            return
        for neighbor, link in topo.neighbors(node):
            if neighbor in nodes:
                continue
            walk(neighbor, nodes + (neighbor,), links + (link.id,))

    walk(src, (src,), ())
    return out


def path_cost(topo, link_ids, policy):
    return sum(link_weight(topo.links[l], policy) for l in link_ids)


def test_spf_matches_brute_force_over_random_graphs():
    rng = random.Random(2024)
    cases = 0
    for _ in range(120):
        topo = topology_from_dict(random_topology(rng))
        node_ids = sorted(topo.nodes)
        for policy in WEIGHT_POLICIES:
            src, dst = rng.sample(node_ids, 2)
            oracle = all_simple_paths(topo, src, dst)
            assert oracle, "random topology must be connected"
            best = min(path_cost(topo, links, policy) for _, links in oracle)
            cost, nodes, links = shortest_path(topo, src, dst, policy)
            assert cost == pytest.approx(best)
            assert path_cost(topo, links, policy) == pytest.approx(cost)
            assert nodes[0] == src and nodes[-1] == dst
            assert len(set(nodes)) == len(nodes)
            cases += 1
    assert cases >= 300


# ── path trees against the early-exit Dijkstra ──


def reference_shortest_path(topology, src, dst, policy):
    """Dijkstra that stops at dst, carrying whole paths in the heap entries
    so that ties go to the lexicographically smallest node sequence, then
    link sequence. The controller ran this once per discovery before it
    kept one path tree per source node."""
    if src not in topology.nodes or dst not in topology.nodes:
        raise NoPathError(f"unknown node in pair ({src!r}, {dst!r})")
    if src == dst:
        raise SameNodeError(f"src and dst are both {src!r}")

    heap = [(0.0, (src,), ())]
    done = set()
    while heap:
        cost, nodes, links = heapq.heappop(heap)
        here = nodes[-1]
        if here in done:
            continue
        done.add(here)
        if here == dst:
            return cost, nodes, links
        for neighbor, link in topology.neighbors(here):
            if neighbor in done:
                continue
            heapq.heappush(
                heap,
                (cost + link_weight(link, policy), nodes + (neighbor,), links + (link.id,)),
            )
    raise NoPathError(f"no path from {src!r} to {dst!r}")


def with_parallel_links(raw: dict, rng: random.Random, equal: bool) -> dict:
    """Copy of raw with up to three links parallel to existing ones, some
    with their endpoints swapped. Their ids sort before every original id,
    and they keep the original's weights (equal) or draw new ones."""
    extra = []
    for i, link in enumerate(rng.sample(raw["links"], min(3, len(raw["links"])))):
        a, b = (link["b"], link["a"]) if rng.random() < 0.5 else (link["a"], link["b"])
        drawn = {} if equal else {
            "key_rate": rng.choice([0.5, 1.0, 2.0, 5.0, 10.0]),
            "distance_km": rng.choice([1.0, 2.0, 4.0, 8.0, 16.0]),
        }
        extra.append({**link, "id": f"a{i}", "a": a, "b": b, **drawn})
    return {**raw, "links": raw["links"] + extra}


def oracle_topologies():
    rng = random.Random(2025)
    for trial in range(240):
        raw = random_topology(rng)
        if trial % 3:
            raw = with_parallel_links(raw, rng, equal=trial % 3 == 1)
        yield topology_from_dict(raw)
    yield topology_from_dict(grid_dict(6, initial_pool=0, session_lifetime_ms=None))


def test_path_tree_matches_reference_dijkstra_for_every_pair():
    triples = 0
    for topo in oracle_topologies():
        node_ids = sorted(topo.nodes)
        for policy in WEIGHT_POLICIES:
            weights = link_weights(topo, policy)
            for src in node_ids:
                tree = path_tree(topo, src, weights)
                assert set(tree) == set(topo.nodes)
                assert tree[src] is None
                for dst in node_ids:
                    if dst == src:
                        continue
                    expected = reference_shortest_path(topo, src, dst, policy)
                    assert tree_path(tree, dst) == expected[1:]
                    assert shortest_path(topo, src, dst, policy) == expected
                    triples += 1
    assert triples > 10000


def test_controller_keeps_one_tree_per_source_node():
    topo = topology_from_dict(grid_dict(4, initial_pool=8, session_lifetime_ms=None))
    pairs = [("APP_1", "APP_16"), ("APP_1", "APP_11"), ("APP_6", "APP_16"), ("APP_1", "APP_8")]
    result = run_events(
        topo,
        [
            {"at": 100 * i, "event": "app_get_key", "app_src": src, "app_dst": dst}
            for i, (src, dst) in enumerate(pairs)
        ],
    )
    qusec = result.sim.qusec
    assert sorted(qusec._trees) == ["N1", "N6"]
    weights = link_weights(topo, topo.weight_policy)
    for node, tree in qusec._trees.items():
        assert tree == path_tree(topo, node, weights)
    for session, (src, dst) in zip(qusec.sessions, pairs):
        src_node, dst_node = topo.apps[src], topo.apps[dst]
        assert list(session.kms_path) == compute_relay_path(
            topo, src_node, dst_node, topo.weight_policy
        )


def fresh_kms_path(topology, src_node, dst_node):
    """The controller's path rule computed from scratch: the lowest-weight
    link joining the two nodes (ties by link id), else the KMSs of a fresh
    shortest-path search."""
    policy = topology.weight_policy
    shared = [l for l in topology.links.values() if {l.a, l.b} == {src_node, dst_node}]
    if shared:
        link = min(shared, key=lambda l: (link_weight(l, policy), l.id))
        return (render_kms_id(src_node, link.id), render_kms_id(dst_node, link.id))
    return tuple(compute_relay_path(topology, src_node, dst_node, policy))


def memo_topologies():
    yield mesh4()
    yield load_topology_file(data_path("topologies", "chain32.json"))
    rng = random.Random(2026)
    for trial in range(6):
        raw = random_topology(rng)
        if trial % 2:
            raw = with_parallel_links(raw, rng, equal=trial % 4 == 1)
        yield topology_from_dict(raw)


def test_kms_path_memo_matches_a_fresh_computation(monkeypatch):
    calls = {"links_between": 0, "path_tree": 0}

    def spy(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(Topology, "links_between", spy("links_between", Topology.links_between))
    monkeypatch.setattr(qusec, "path_tree", spy("path_tree", qusec.path_tree))
    pairs_seen = 0
    for base in memo_topologies():
        for policy in WEIGHT_POLICIES:
            topo = dataclasses.replace(base, weight_policy=policy)
            pairs = list(itertools.permutations(sorted(topo.nodes), 2))
            expected = {(src, dst): fresh_kms_path(topo, src, dst) for src, dst in pairs}
            controller = QusecEntity(topo, seed=1)
            calls.update(links_between=0, path_tree=0)
            for src, dst in pairs:
                assert controller._kms_path(src, dst) == expected[src, dst]
            assert calls["links_between"] == len(pairs)
            assert calls["path_tree"] <= len(topo.nodes)
            first = dict(calls)
            for src, dst in pairs:
                assert controller._kms_path(src, dst) == expected[src, dst]
            assert calls == first  # the second round computed nothing
            assert set(controller._paths) == set(pairs)
            pairs_seen += len(pairs)
    assert pairs_seen > 3 * 32 * 33


def test_kms_path_memo_keeps_no_failure():
    controller = QusecEntity(mesh4(), seed=1)
    for _ in range(2):
        with pytest.raises(NoPathError):
            controller._kms_path("N1", "N9")
    assert controller._paths == {}


def test_kms_path_memo_grows_with_node_pairs_not_requests():
    topo = mesh4({"APP_A": "N1", "APP_B": "N4", "APP_C": "N3", "APP_D": "N4"})
    rng = random.Random(11)
    app_pairs = [("APP_A", "APP_B"), ("APP_C", "APP_B"), ("APP_C", "APP_D"), ("APP_B", "APP_A")]
    chosen = [rng.choice(app_pairs) for _ in range(120)]
    result = run_events(
        topo,
        [{"at": 2000 * i, "event": "app_get_key", "app_src": src, "app_dst": dst}
         for i, (src, dst) in enumerate(chosen)],
    )
    qusec_state = result.sim.qusec
    assert qusec_state.discovery_count == len(chosen)
    served = {(topo.apps[src], topo.apps[dst]) for src, dst in chosen}
    assert set(qusec_state._paths) <= served
    assert len(qusec_state._paths) <= len(served) < len(chosen)


def test_spf_tie_break_is_deterministic_and_lexicographic():
    # Two hop-count-equal routes N1-N2-N4 and N1-N3-N4; node order decides.
    raw = {
        "nodes": [{"id": "N1"}, {"id": "N2"}, {"id": "N3"}, {"id": "N4"}],
        "links": [
            {"id": "p", "a": "N1", "b": "N2", "key_rate": 1.0, "distance_km": 1.0, "initial_pool": 0},
            {"id": "q", "a": "N2", "b": "N4", "key_rate": 1.0, "distance_km": 1.0, "initial_pool": 0},
            {"id": "r", "a": "N1", "b": "N3", "key_rate": 1.0, "distance_km": 1.0, "initial_pool": 0},
            {"id": "s", "a": "N3", "b": "N4", "key_rate": 1.0, "distance_km": 1.0, "initial_pool": 0},
        ],
        "apps": [],
        "weight_policy": "hop_count",
    }
    topo = topology_from_dict(raw)
    results = {shortest_path(topo, "N1", "N4", "hop_count") for _ in range(10)}
    assert results == {(2.0, ("N1", "N2", "N4"), ("p", "q"))}


def test_spf_weight_scaling_invariance():
    # Doubling every distance (exact in binary floats) must not change paths.
    rng = random.Random(7)
    for _ in range(20):
        raw = random_topology(rng)
        topo = topology_from_dict(raw)
        scaled = topology_from_dict(
            {
                **raw,
                "links": [
                    {**l, "distance_km": l["distance_km"] * 2} for l in raw["links"]
                ],
            }
        )
        src, dst = rng.sample(sorted(topo.nodes), 2)
        base = shortest_path(topo, src, dst, "distance")
        doubled = shortest_path(scaled, src, dst, "distance")
        assert base[1:] == doubled[1:]
        assert doubled[0] == pytest.approx(base[0] * 2)


def test_spf_errors():
    topo = mesh4()
    with pytest.raises(SameNodeError):
        shortest_path(topo, "N1", "N1", "hop_count")
    with pytest.raises(NoPathError):
        shortest_path(topo, "N1", "N9", "hop_count")


def test_link_weight_policies():
    topo = mesh4()
    link = topo.links["b"]
    assert link_weight(link, "hop_count") == 1.0
    assert link_weight(link, "inverse_key_rate") == pytest.approx(0.1)
    assert link_weight(link, "distance") == 12.0
    with pytest.raises(ValueError):
        link_weight(link, "vibes")


def test_kms_expansion():
    assert expand_to_kms(("N1", "N3", "N4"), ("b", "d")) == [
        "KMS_1b",
        "KMS_3b",
        "KMS_3d",
        "KMS_4d",
    ]
    assert expand_to_kms(("N1",), ()) == []


def test_compute_relay_path_mesh4():
    topo = mesh4()
    for policy in WEIGHT_POLICIES:
        assert compute_relay_path(topo, "N1", "N4", policy) == [
            "KMS_1b",
            "KMS_3b",
            "KMS_3d",
            "KMS_4d",
        ]


# ── discovery via the full simulation ──


def installs(records) -> list:
    return [e for e in records if isinstance(e.msg, RelayPathInstall)]


def test_discovery_direct_case_records_session_without_installs():
    topo = mesh4({"APP_A": "N3", "APP_B": "N4"})
    result = run_events(
        topo,
        [{"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"}],
    )
    assert installs(result.records) == []
    sessions = result.sim.qusec.sessions
    assert len(sessions) == 1
    assert sessions[0].kms_path == ("KMS_3d", "KMS_4d")
    assert sessions[0].status == SESSION_INSTALLED


def test_discovery_direct_case_picks_min_weight_shared_link():
    # Two parallel links between N1 and N2; the shorter one must serve.
    raw = {
        "nodes": [{"id": "N1"}, {"id": "N2"}],
        "links": [
            {"id": "long", "a": "N1", "b": "N2", "key_rate": 1.0, "distance_km": 9.0, "initial_pool": 4},
            {"id": "short", "a": "N1", "b": "N2", "key_rate": 1.0, "distance_km": 2.0, "initial_pool": 4},
        ],
        "apps": [{"id": "APP_A", "node": "N1"}, {"id": "APP_B", "node": "N2"}],
        "weight_policy": "distance",
    }
    topo = topology_from_dict(raw)
    result = run_events(
        topo,
        [{"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"}],
    )
    (session,) = result.sim.qusec.sessions
    assert session.kms_path[0] == "KMS_1short"


def test_discovery_relay_case_installs_full_path(mesh4_relay_topology):
    result = run_events(
        mesh4_relay_topology,
        [{"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"}],
    )
    got = installs(result.records)
    assert [e.receiver for e in got] == ["KMS_4d", "KMS_3d", "KMS_3b", "KMS_1b"]
    # Chain structure: prev/next stitched along the KMS path.
    by_target = {e.receiver: e.msg for e in got}
    assert by_target["KMS_1b"].prev_hop is None
    assert by_target["KMS_1b"].next_hop == "KMS_3b"
    assert by_target["KMS_3b"].prev_hop == "KMS_1b"
    assert by_target["KMS_3b"].next_hop == "KMS_3d"
    assert by_target["KMS_3d"].prev_hop == "KMS_3b"
    assert by_target["KMS_3d"].next_hop == "KMS_4d"
    assert by_target["KMS_4d"].prev_hop == "KMS_3d"
    assert by_target["KMS_4d"].next_hop is None
    assert len({e.msg.id_association for e in got}) == 1


def test_discovery_session_reuse_skips_installs(mesh4_relay_topology):
    result = run_events(
        mesh4_relay_topology,
        [
            {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
            {
                "at": 5,
                "event": "app_get_key_with_id",
                "app_src": "APP_B",
                "app_dst": "APP_A",
                "key_id_from": "APP_A",
            },
        ],
    )
    assert len(installs(result.records)) == 4  # only the first request installs
    (session,) = result.sim.qusec.sessions
    assert session.status == SESSION_COMPLETED
    responses = [
        e.msg.id_kms
        for e in result.records
        if message_type(e.msg) == "kms_discovery_response"
    ]
    assert responses == ["KMS_1b", "KMS_4d"]  # first hop, then last hop reused


def test_direct_session_reused_by_target_pickup():
    # N1 and N2 share link a: the session is direct, yet the target's
    # pickup must still find and complete it rather than open a second one.
    topo = mesh4({"APP_A": "N1", "APP_B": "N2"})
    result = run_events(
        topo,
        [
            {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
            {
                "at": 5,
                "event": "app_get_key_with_id",
                "app_src": "APP_B",
                "app_dst": "APP_A",
                "key_id_from": "APP_A",
            },
        ],
    )
    assert installs(result.records) == []
    (session,) = result.sim.qusec.sessions
    assert session.kms_path == ("KMS_1a", "KMS_2a")
    assert session.status == SESSION_COMPLETED
    responses = [
        e.msg.id_kms
        for e in result.records
        if message_type(e.msg) == "kms_discovery_response"
    ]
    assert responses == ["KMS_1a", "KMS_2a"]
    first, second = result.report["requests"]
    assert first["status"] == second["status"] == "ok"
    assert first["key_id"] == second["key_id"]
    assert first["material"] == second["material"] != ""


def test_discovery_unknown_app_and_same_node():
    topo = mesh4({"APP_A": "N1", "APP_B": "N1", "APP_C": "N4"})
    sim = Simulation(topo, seed=1)
    sim.transport.send("vKMS_1", "QuSeC", KmsDiscoveryRequest("APP_A", "APP_Z", "get_key", "R1"))
    sim.transport.send("vKMS_1", "QuSeC", KmsDiscoveryRequest("APP_A", "APP_B", "get_key", "R2"))
    sim.kernel.run_to_quiescence()
    responses = [
        e.msg for e in delivered(sim)
        if message_type(e.msg) == "kms_discovery_response"
    ]
    assert [r.id_kms for r in responses] == [None, None]
    assert [r.id_request for r in responses] == ["R1", "R2"]
    assert [e["reason"] for e in sim.qusec.errors] == ["unknown_app", "same_node"]
    assert sim.qusec.sessions == []


def test_session_gc_expiry_threshold():
    topo = mesh4(
        {"APP_A": "N1", "APP_B": "N4"}, config={"session_lifetime_ms": 500}
    )
    result = run_events(
        topo,
        [
            {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
            # Lifetime exceeded: the pickup may not reuse the session.
            {
                "at": 600,
                "event": "app_get_key_with_id",
                "app_src": "APP_B",
                "app_dst": "APP_A",
                "key_id_from": "APP_A",
            },
        ],
    )
    first, second = result.sim.qusec.sessions[0], result.sim.qusec.sessions[-1]
    assert first.status == SESSION_EXPIRED
    # The second discovery computed a fresh reverse path instead.
    assert second.app_src == "APP_B"
    assert len(installs(result.records)) == 8


def test_session_survives_within_lifetime():
    topo = mesh4(
        {"APP_A": "N1", "APP_B": "N4"}, config={"session_lifetime_ms": 500}
    )
    result = run_events(
        topo,
        [
            {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
            {
                "at": 400,
                "event": "app_get_key_with_id",
                "app_src": "APP_B",
                "app_dst": "APP_A",
                "key_id_from": "APP_A",
            },
        ],
    )
    assert len(installs(result.records)) == 4
    assert result.sim.qusec.sessions[0].status == SESSION_COMPLETED


def test_install_count_is_twice_link_count():
    for n_links in (2, 3, 5):
        topo = chain(n_links)
        result = run_events(
            topo,
            [{"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"}],
        )
        assert len(installs(result.records)) == 2 * n_links
        assert result.sim.qusec.install_count == 2 * n_links


def test_weight_policy_override_changes_path():
    # Distance strongly favors a->c over b; hop count favors b.
    topo = mesh4(
        {"APP_A": "N1", "APP_B": "N4"},
        links=[
            {"id": "a", "a": "N1", "b": "N2", "key_rate": 10.0, "distance_km": 1.0, "initial_pool": 8},
            {"id": "b", "a": "N1", "b": "N3", "key_rate": 10.0, "distance_km": 50.0, "initial_pool": 8},
            {"id": "c", "a": "N2", "b": "N3", "key_rate": 10.0, "distance_km": 1.0, "initial_pool": 8},
            {"id": "d", "a": "N3", "b": "N4", "key_rate": 10.0, "distance_km": 5.0, "initial_pool": 8},
        ],
    )
    scenario_events = [
        {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"}
    ]
    by_hops = run_events(topo, scenario_events)
    assert [e.receiver for e in installs(by_hops.records)] == [
        "KMS_4d", "KMS_3d", "KMS_3b", "KMS_1b",
    ]
    by_distance = run_events(topo, scenario_events, weight_policy="distance")
    assert [e.receiver for e in installs(by_distance.records)] == [
        "KMS_4d", "KMS_3d", "KMS_3c", "KMS_2c", "KMS_2a", "KMS_1a",
    ]


def test_association_ids_unique_and_deterministic():
    topo = mesh4({"APP_A": "N1", "APP_B": "N4"})
    events = [
        {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        {"at": 1, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
    ]
    one = run_events(topo, events, seed=5)
    two = run_events(topo, events, seed=5)
    ids_one = [s.id_association for s in one.sim.qusec.sessions]
    ids_two = [s.id_association for s in two.sim.qusec.sessions]
    assert len(set(ids_one)) == 2
    assert ids_one == ids_two
    other_seed = run_events(topo, events, seed=6)
    assert ids_one != [s.id_association for s in other_seed.sim.qusec.sessions]


def test_dump_state_shape(mesh4_relay_topology):
    result = run_events(
        mesh4_relay_topology,
        [{"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"}],
    )
    dump = result.sim.qusec.dump_state()
    assert dump["install_count"] == 4
    assert dump["discovery_count"] == 1
    assert dump["sessions"][0]["kms_path"] == [
        "KMS_1b", "KMS_3b", "KMS_3d", "KMS_4d",
    ]
