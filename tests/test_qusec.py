"""Controller: SPF against a brute-force oracle, discovery cases, sessions."""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import random

import pytest

from conftest import chain, delivered, grid_dict, mesh4, mesh4_dict, random_topology, run_events
from qkdrelay import data_path, qusec
from qkdrelay.harness import Simulation, load_topology_file
from qkdrelay.protocol import KmsDiscoveryRequest, RelayPathInstall, message_type
from qkdrelay.qusec import (
    SESSION_COMPLETED,
    SESSION_EXPIRED,
    SESSION_INSTALLED,
    NoPathError,
    QusecEntity,
    RankGraph,
    SameNodeError,
    link_weight,
    link_weights,
    path_tree,
    shortest_path,
    tree_path,
)
from qkdrelay.topology import WEIGHT_POLICIES, render_kms_id, topology_from_dict


def expand_to_kms(node_path, link_path):
    """KMS-granularity expansion: each traversed link (u, v) contributes
    KMS_u(link) then KMS_v(link)."""
    out = []
    for i, link_id in enumerate(link_path):
        out.append(render_kms_id(node_path[i], link_id))
        out.append(render_kms_id(node_path[i + 1], link_id))
    return out


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


def with_vanishing_weights(raw: dict, rng: random.Random) -> dict:
    """Copy of raw in which about a third of the links get key_rate 1e308.
    Under inverse_key_rate their weight, 1e-308, vanishes when added to any
    ordinary cost, so a path through one settles at its predecessor's cost
    and only the node-sequence tie-break tells the two apart."""
    links = [
        {**link, "key_rate": 1e308} if rng.random() < 0.35 else link for link in raw["links"]
    ]
    return {**raw, "links": links}


def oracle_topologies():
    rng = random.Random(2025)
    for trial in range(240):
        raw = random_topology(rng)
        if trial % 3:
            raw = with_parallel_links(raw, rng, equal=trial % 3 == 1)
        if trial % 4 == 3:
            raw = with_vanishing_weights(raw, rng)
        yield topology_from_dict(raw)
    grid = grid_dict(6, initial_pool=0, session_lifetime_ms=None)
    yield topology_from_dict(grid)
    yield topology_from_dict(with_vanishing_weights(grid, rng))


@pytest.mark.hash_seed
def test_path_tree_matches_reference_dijkstra_for_every_pair():
    triples = vanishing = 0
    for topo in oracle_topologies():
        node_ids = sorted(topo.nodes)
        for policy in WEIGHT_POLICIES:
            graph = RankGraph(topo, link_weights(topo, policy))
            assert graph.nodes == node_ids
            assert graph.links == sorted(topo.links)
            for src in node_ids:
                root = graph.rank[src]
                tree = path_tree(graph, root)
                parent, via = tree
                assert min(parent) >= 0  # the graph is connected
                assert parent[root] == root and via[root] is None
                for dst in node_ids:
                    if dst == src:
                        continue
                    expected = reference_shortest_path(topo, src, dst, policy)
                    hops = tree_path(tree, graph.rank[dst])
                    nodes = (src, *(graph.nodes[hop[0]] for hop in hops))
                    links = tuple(graph.links[hop[1]] for hop in hops)
                    assert (nodes, links) == expected[1:]
                    assert [kms for hop in hops for kms in hop[3:]] == expand_to_kms(nodes, links)
                    assert shortest_path(topo, src, dst, policy) == expected
                    triples += 1
                    if policy == "inverse_key_rate" and any(
                        topo.links[link].key_rate == 1e308 for link in links[1:]
                    ):
                        vanishing += 1
    assert triples > 10000
    assert vanishing > 1500


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
    graph = RankGraph(topo, link_weights(topo, topo.weight_policy))
    assert qusec._graph.nodes == graph.nodes
    assert qusec._graph.hops == graph.hops
    assert sorted(graph.nodes[rank] for rank in qusec._trees) == ["N1", "N6"]
    for rank, tree in qusec._trees.items():
        assert tree == path_tree(graph, rank)
    assert list(qusec.sessions) == pairs
    for session, (src, dst) in zip(qusec.sessions.values(), pairs):
        src_node, dst_node = topo.apps[src], topo.apps[dst]
        assert list(session.kms_path) == compute_relay_path(
            topo, src_node, dst_node, topo.weight_policy
        )


def fresh_kms_path(topology, src_node, dst_node):
    """The controller's path rule computed from scratch: the lowest-weight
    link joining the two nodes (ties by link id), else the KMSs of the
    early-exit reference search, which shares no code with path_tree."""
    policy = topology.weight_policy
    shared = [l for l in topology.links.values() if {l.a, l.b} == {src_node, dst_node}]
    if shared:
        link = min(shared, key=lambda l: (link_weight(l, policy), l.id))
        return (render_kms_id(src_node, link.id), render_kms_id(dst_node, link.id))
    _, nodes, links = reference_shortest_path(topology, src_node, dst_node, policy)
    return tuple(expand_to_kms(nodes, links))


def memo_topologies():
    yield mesh4()
    yield load_topology_file(data_path("topologies", "chain32.json"))
    rng = random.Random(2026)
    for trial in range(6):
        raw = random_topology(rng)
        if trial % 2:
            raw = with_parallel_links(raw, rng, equal=trial % 4 == 1)
        yield topology_from_dict(raw)


@pytest.mark.hash_seed
def test_kms_path_matches_a_fresh_computation(monkeypatch):
    graphs = []
    searched = set()

    def build_once(*args):
        graph = RankGraph(*args)
        graphs.append(graph)
        return graph

    def search_once(graph, src):
        # At most one search per source node, over the controller's one graph.
        assert graph is controller._graph
        assert src not in searched
        searched.add(src)
        return path_tree(graph, src)

    monkeypatch.setattr(qusec, "RankGraph", build_once)
    monkeypatch.setattr(qusec, "path_tree", search_once)
    pairs_seen = 0
    for base in memo_topologies():
        for policy in WEIGHT_POLICIES:
            topo = dataclasses.replace(base, weight_policy=policy)
            pairs = list(itertools.permutations(sorted(topo.nodes), 2))
            expected = {(src, dst): fresh_kms_path(topo, src, dst) for src, dst in pairs}
            controller = QusecEntity(topo, seed=1)
            graphs.clear()
            searched.clear()
            for _ in range(2):
                for src, dst in pairs:
                    assert controller._kms_path(src, dst) == expected[src, dst]
            assert graphs == [controller._graph]
            pairs_seen += len(pairs)
    assert pairs_seen > 3 * 32 * 33


def spy_kms_path(monkeypatch) -> list[tuple[str, str]]:
    """The (src_node, dst_node) of every QusecEntity._kms_path call, in order."""
    asked = []
    kms_path = QusecEntity._kms_path

    def spy(self, src_node, dst_node):
        asked.append((src_node, dst_node))
        return kms_path(self, src_node, dst_node)

    monkeypatch.setattr(QusecEntity, "_kms_path", spy)
    return asked


@pytest.mark.hash_seed
def test_kms_path_runs_once_per_ordered_app_pair(monkeypatch):
    # APP_B and APP_D share N4, so two app pairs ask for the one node pair.
    topo = mesh4({"APP_A": "N1", "APP_B": "N4", "APP_C": "N3", "APP_D": "N4"})
    rng = random.Random(11)
    app_pairs = [("APP_A", "APP_B"), ("APP_C", "APP_B"), ("APP_C", "APP_D"), ("APP_B", "APP_A")]
    chosen = [rng.choice(app_pairs) for _ in range(120)]
    asked = spy_kms_path(monkeypatch)
    result = run_events(
        topo,
        [{"at": 2000 * i, "event": "app_get_key", "app_src": src, "app_dst": dst}
         for i, (src, dst) in enumerate(chosen)],
    )
    qusec_state = result.sim.qusec
    assert qusec_state.discovery_count == len(chosen)
    first_asked = list(dict.fromkeys(chosen))
    assert len(first_asked) == len(app_pairs) < len(chosen)
    assert asked == [(topo.apps[src], topo.apps[dst]) for src, dst in first_asked]
    for (src, dst), session in qusec_state.sessions.items():
        assert session.kms_path == fresh_kms_path(topo, topo.apps[src], topo.apps[dst])


@pytest.mark.parametrize("policy", WEIGHT_POLICIES)
@pytest.mark.parametrize(
    "apps", [{"APP_A": "N1", "APP_B": "N4"}, {"APP_A": "N3", "APP_B": "N4"}], ids=["relay", "direct"]
)
def test_a_lapsed_session_still_gives_its_pair_the_path(monkeypatch, policy, apps):
    # Link e parallels d: cheaper by key rate, dearer by distance, and tied
    # by hop count with d, whose id sorts first.
    raw = mesh4_dict(apps, weight_policy=policy)
    raw["links"].append(
        {"id": "e", "a": "N4", "b": "N3", "key_rate": 20.0, "distance_km": 9.0, "initial_pool": 8}
    )
    topo = topology_from_dict(raw)
    src_node, dst_node = apps["APP_A"], apps["APP_B"]
    expected = fresh_kms_path(topo, src_node, dst_node)
    asked = spy_kms_path(monkeypatch)
    get_key = {"event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"}
    result = run_events(
        topo, [{"at": 0, **get_key}, {"at": 1000, **get_key}], session_lifetime_ms=100
    )
    assert result.sim.topology.config.lapsed(0, 1000)
    assert asked == [(src_node, dst_node)]
    assert [r["status"] for r in result.report["requests"]] == ["ok", "ok"]
    qusec_state = result.sim.qusec
    (session,) = qusec_state.sessions.values()
    assert (qusec_state.sessions_opened, session.created_ms) == (2, 1000)
    assert session.kms_path == expected
    installs = [
        (e.receiver, e.msg.id_association)
        for e in result.records
        if message_type(e.msg) == "relay_path_install"
    ]
    second = [receiver for receiver, assoc in installs if assoc == session.id_association]
    assert second == ([] if len(expected) == 2 else list(reversed(expected)))
    answers = [
        e.msg.id_kms for e in result.records if message_type(e.msg) == "kms_discovery_response"
    ]
    assert answers == [expected[0], expected[0]]


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
    assert result.sim.qusec.sessions_opened == 1
    (session,) = result.sim.qusec.sessions.values()
    assert session.kms_path == ("KMS_3d", "KMS_4d")
    assert session.status == SESSION_INSTALLED


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
    (session,) = result.sim.qusec.sessions.values()
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
    (session,) = result.sim.qusec.sessions.values()
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
    (session,) = result.sim.qusec.sessions.values()
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
    assert sim.qusec.sessions == {}
    assert sim.qusec.sessions_opened == 0


def test_session_expiry_threshold():
    # A session lives for exactly its lifetime: a pickup at 500 ms reuses
    # it, one at 501 ms finds it expired. Either way the pickup opens no
    # session and installs no rule of its own.
    topo = mesh4(
        {"APP_A": "N1", "APP_B": "N4"}, config={"session_lifetime_ms": 500}
    )
    for pickup_at, status in ((500, SESSION_COMPLETED), (501, SESSION_EXPIRED)):
        result = run_events(
            topo,
            [
                {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
                {
                    "at": pickup_at,
                    "event": "app_get_key_with_id",
                    "app_src": "APP_B",
                    "app_dst": "APP_A",
                    "key_id_from": "APP_A",
                },
            ],
        )
        (session,) = result.report["controller"]["sessions"]
        assert session["app_src"] == "APP_A"
        assert session["status"] == status
        assert len(installs(result.records)) == result.sim.qusec.install_count == 4


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
    assert result.sim.qusec.sessions["APP_A", "APP_B"].status == SESSION_COMPLETED


def test_pickup_after_expiry_installs_nothing():
    # The session has expired by the pickup, and the key waiting in the
    # terminating KMS's delivered store has lapsed with it.
    result = run_events(
        mesh4({"APP_A": "N1", "APP_B": "N4"}),
        [
            {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
            {
                "at": 500,
                "event": "app_get_key_with_id",
                "app_src": "APP_B",
                "app_dst": "APP_A",
                "key_id_from": "APP_A",
            },
        ],
        seed=3,
        session_lifetime_ms=100,
    )
    assert len(installs(result.records)) == result.sim.qusec.install_count == 4
    assert len(result.sim.qusec.sessions) == result.sim.qusec.sessions_opened == 1
    assert [r["status"] for r in result.report["requests"]] == ["ok", "failed_no_rule"]


def pickup_answers(records) -> list[str | None]:
    """The KMS each pickup's discovery was answered with, in answer order."""
    asked = {
        e.msg.id_request
        for e in records
        if type(e.msg) is KmsDiscoveryRequest and e.msg.kind == "get_key_with_id"
    }
    return [
        e.msg.id_kms
        for e in records
        if message_type(e.msg) == "kms_discovery_response" and e.msg.id_request in asked
    ]


@pytest.mark.hash_seed
def test_a_lapsed_pickup_goes_where_its_session_ends():
    # Two 3-hop routes join N1 and N9. From N1 the smaller node sequence runs
    # via N2, so the chain ends at KMS_9r; from N9 it runs via N3, so the
    # reverse path starts at KMS_9u. The lapsed key waits at KMS_9r.
    links = ["p N1 N2", "q N2 N8", "r N8 N9", "s N1 N4", "t N4 N3", "u N3 N9"]
    raw = {
        "nodes": [{"id": n} for n in ("N1", "N2", "N3", "N4", "N8", "N9")],
        "links": [
            {"id": i, "a": a, "b": b, "key_rate": 10.0, "distance_km": 10.0, "initial_pool": 8}
            for i, a, b in map(str.split, links)
        ],
        "apps": [{"id": "APP_A", "node": "N1"}, {"id": "APP_B", "node": "N9"}],
        "weight_policy": "hop_count",
    }
    topo = topology_from_dict(raw)
    assert fresh_kms_path(topo, "N1", "N9")[-1] == "KMS_9r"
    assert fresh_kms_path(topo, "N9", "N1")[0] == "KMS_9u"
    events = [
        {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        {"at": 100, "event": "app_get_key_with_id", "app_src": "APP_B",
         "app_dst": "APP_A", "key_id_from": "APP_A"},
    ]
    for lifetime, pickup in ((50, "failed_no_rule"), (None, "ok")):
        result = run_events(topo, events, seed=1, session_lifetime_ms=lifetime)
        assert [r["status"] for r in result.report["requests"]] == ["ok", pickup]
        assert pickup_answers(result.records) == ["KMS_9r"]
        assert all(not k.delivered for k in result.sim.kms.values())


@pytest.mark.hash_seed
def test_every_lapsed_pickup_on_a_grid_finds_its_key_and_is_refused():
    raw = grid_dict(4, initial_pool=32, session_lifetime_ms=50)
    apps = [a["id"] for a in raw["apps"]]
    rng = random.Random(3)
    events = []
    for i in range(60):
        src, dst = rng.sample(apps, 2)
        events.append({"at": 200 * i, "event": "app_get_key", "app_src": src, "app_dst": dst})
        events.append({"at": 200 * i + 100, "event": "app_get_key_with_id",
                       "app_src": dst, "app_dst": src, "key_id_from": src})
    result = run_events(topology_from_dict(raw), events, seed=1)
    pickups = [r["status"] for r in result.report["requests"] if r["kind"] == "get_key_with_id"]
    assert pickups == ["failed_no_rule"] * 60
    assert all(not k.delivered for k in result.sim.kms.values())


def test_report_reads_session_lifetimes_at_the_end_of_the_run():
    # No discovery follows the get_key, so only the clock at the end of the
    # run can show that its session has expired.
    topo = mesh4({"APP_A": "N1", "APP_B": "N4"})
    events = [{"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"}]
    for end_ms, status in ((100, SESSION_INSTALLED), (2000, SESSION_EXPIRED)):
        result = run_events(
            topo,
            events + [{"at": end_ms, "event": "advance_clock"}],
            seed=3,
            session_lifetime_ms=100,
        )
        assert result.report["sim_time_ms"] == end_ms
        assert result.sim.qusec.discovery_count == 1
        (session,) = result.report["controller"]["sessions"]
        assert session["status"] == status
        assert result.sim.qusec.sessions["APP_A", "APP_B"].status == SESSION_INSTALLED


@pytest.mark.parametrize(
    "policy,first_kms",
    [("hop_count", "KMS_1b"), ("inverse_key_rate", "KMS_1a"), ("distance", "KMS_1a")],
)
def test_pickup_without_own_session_opens_nothing(policy, first_kms):
    # APP_A picks up the key APP_C shares with APP_B: no (B, A) session
    # exists, so QuSeC points APP_A at the pair's first KMS and opens
    # nothing. The links make that KMS depend on the policy.
    topo = mesh4(
        {"APP_A": "N1", "APP_B": "N4", "APP_C": "N2"},
        links=[
            {"id": "a", "a": "N1", "b": "N2", "key_rate": 10.0, "distance_km": 1.0, "initial_pool": 8},
            {"id": "b", "a": "N1", "b": "N3", "key_rate": 1.0, "distance_km": 50.0, "initial_pool": 8},
            {"id": "c", "a": "N2", "b": "N3", "key_rate": 10.0, "distance_km": 1.0, "initial_pool": 8},
            {"id": "d", "a": "N3", "b": "N4", "key_rate": 10.0, "distance_km": 5.0, "initial_pool": 8},
        ],
    )
    get_key = {"at": 0, "event": "app_get_key", "app_src": "APP_C", "app_dst": "APP_B"}
    pickup = {
        "at": 500,
        "event": "app_get_key_with_id",
        "app_src": "APP_A",
        "app_dst": "APP_B",
        "key_id_from": "APP_C",
    }
    before = run_events(topo, [get_key], weight_policy=policy)
    after = run_events(topo, [get_key, pickup], weight_policy=policy)
    controller = after.report["controller"]
    assert controller["sessions"] == before.report["controller"]["sessions"]
    assert controller["install_count"] == before.report["controller"]["install_count"]
    assert controller["discovery_count"] == before.report["controller"]["discovery_count"] + 1
    (answer,) = [
        e.msg.id_kms
        for e in after.records
        if message_type(e.msg) == "kms_discovery_response" and e.msg.id_request == "R2"
    ]
    assert answer == after.sim.qusec._kms_path("N1", "N4")[0] == first_kms


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

    def association_ids(result):
        """Each session's association id, in the order they were opened,
        as its installs carry it; the table keeps the pair's newest."""
        ids = list(dict.fromkeys(e.msg.id_association for e in installs(result.records)))
        assert result.sim.qusec.sessions_opened == len(ids)
        (session,) = result.sim.qusec.sessions.values()
        assert session.id_association == ids[-1]
        return ids

    ids_one = association_ids(run_events(topo, events, seed=5))
    ids_two = association_ids(run_events(topo, events, seed=5))
    assert len(set(ids_one)) == 2
    assert ids_one == ids_two
    assert ids_one != association_ids(run_events(topo, events, seed=6))


def test_dump_state_shape(mesh4_relay_topology):
    result = run_events(
        mesh4_relay_topology,
        [{"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"}],
    )
    dump = result.sim.qusec.dump_state()
    assert dump["install_count"] == 4
    assert dump["discovery_count"] == 1
    assert dump["sessions_opened"] == 1
    assert dump["sessions"][0]["kms_path"] == [
        "KMS_1b", "KMS_3b", "KMS_3d", "KMS_4d",
    ]
