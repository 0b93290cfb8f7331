"""Shared builders: the 4-node mesh, linear chains, run helpers, and the
small codec and topology lookups only the tests use."""

from __future__ import annotations

import copy
import dataclasses
import json
import random

import pytest

from qkdrelay.harness import (
    AppRequest,
    RunResult,
    Scenario,
    ScenarioEvent,
    Simulation,
    run,
    scenario_from_dict,
)
from qkdrelay.linksim import KeyTable, LinkSimulator
from qkdrelay.protocol import CodecError, Envelope, decode, encode_str
from qkdrelay.topology import Link, Topology, topology_from_dict
from qkdrelay.trace import TraceParseError

MESH4 = {
    "nodes": [{"id": "N1"}, {"id": "N2"}, {"id": "N3"}, {"id": "N4"}],
    "links": [
        {"id": "a", "a": "N1", "b": "N2", "key_rate": 10.0, "distance_km": 10.0, "initial_pool": 8},
        {"id": "b", "a": "N1", "b": "N3", "key_rate": 10.0, "distance_km": 12.0, "initial_pool": 8},
        {"id": "c", "a": "N2", "b": "N3", "key_rate": 10.0, "distance_km": 10.0, "initial_pool": 8},
        {"id": "d", "a": "N3", "b": "N4", "key_rate": 10.0, "distance_km": 5.0, "initial_pool": 8},
    ],
    "apps": [{"id": "APP_A", "node": "N1"}, {"id": "APP_B", "node": "N4"}],
    "weight_policy": "hop_count",
}


def mesh4_dict(apps: dict[str, str] | None = None, **overrides) -> dict:
    """Copy of the mesh4 config; apps maps app id -> node id."""
    raw = copy.deepcopy(MESH4)
    if apps is not None:
        raw["apps"] = [{"id": a, "node": n} for a, n in apps.items()]
    raw.update(overrides)
    return raw


def mesh4(apps: dict[str, str] | None = None, **overrides) -> Topology:
    return topology_from_dict(mesh4_dict(apps, **overrides))


def _clash(nodes: list[str], links: list[tuple[str, str, str]], apps: dict[str, str]) -> dict:
    return {
        "nodes": [{"id": n} for n in nodes],
        "links": [
            {"id": l, "a": a, "b": b, "key_rate": 1.0, "distance_km": 1.0, "initial_pool": 2}
            for l, a, b in links
        ],
        "apps": [{"id": a, "node": n} for a, n in apps.items()],
        "weight_policy": "hop_count",
    }


# Topologies in which two entities would share one id, each with the
# violations the loader reports. Nodes N3 and 3 both have the vKMS vKMS_3;
# an app may not take the controller's id or a vKMS's or KMS's.
ENTITY_ID_CLASHES = {
    "two_nodes_one_vkms": (
        _clash(["N1", "N3", "3"], [("a", "N1", "N3"), ("b", "N1", "3")], {}),
        ["ambiguous vKMS name 'vKMS_3'"],
    ),
    "apps_named_qusec_and_vkms": (
        _clash(["N1", "N2"], [("a", "N1", "N2")], {"QuSeC": "N1", "vKMS_2": "N2"}),
        ["app id 'QuSeC' is another entity's id", "app id 'vKMS_2' is another entity's id"],
    ),
    "app_named_kms": (
        _clash(["N1", "N2"], [("a", "N1", "N2")], {"KMS_1a": "N2"}),
        ["app id 'KMS_1a' is another entity's id"],
    ),
}


def chain_dict(n_links: int, initial_pool: int = 4, **overrides) -> dict:
    """Linear chain of n_links links (n_links + 1 nodes), apps at the ends."""
    raw = {
        "nodes": [{"id": f"N{i}"} for i in range(1, n_links + 2)],
        "links": [
            {
                "id": f"l{i:02d}",
                "a": f"N{i}",
                "b": f"N{i + 1}",
                "key_rate": 10.0,
                "distance_km": 5.0,
                "initial_pool": initial_pool,
            }
            for i in range(1, n_links + 1)
        ],
        "apps": [
            {"id": "APP_A", "node": "N1"},
            {"id": "APP_B", "node": f"N{n_links + 1}"},
        ],
        "weight_policy": "hop_count",
    }
    raw.update(overrides)
    return raw


def key_ids(table: KeyTable) -> list[str]:
    """Every generated id of a link's key table, in generation order."""
    return [table.id_at(i) for i in range(table.generated)]


def incident_links(topology: Topology, node_id: str) -> list[Link]:
    """The links at node_id, in link file order."""
    return [link for _, link in topology.adjacency.get(node_id, ())]


def encode(env: Envelope) -> bytes:
    """encode_str() as bytes."""
    return encode_str(env).encode("utf-8")


def parse_trace_line(line: str) -> Envelope:
    """decode() for one trace line, raising the trace module's error."""
    try:
        return decode(line)
    except CodecError as exc:
        raise TraceParseError(str(exc)) from None


def chain(n_links: int, initial_pool: int = 4, **overrides) -> Topology:
    return topology_from_dict(chain_dict(n_links, initial_pool, **overrides))


def random_topology(rng: random.Random) -> dict:
    """Connected graph of 2-8 nodes with random weights and no apps."""
    n = rng.randint(2, 8)
    node_ids = [f"N{i}" for i in range(1, n + 1)]
    edges = set()
    for i in range(1, n):  # random spanning tree keeps it connected
        edges.add((node_ids[rng.randrange(i)], node_ids[i]))
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(node_ids, 2)
        if (u, v) not in edges and (v, u) not in edges:
            edges.add((u, v))
    return {
        "nodes": [{"id": nid} for nid in node_ids],
        "links": [
            {
                "id": f"e{i}",
                "a": u,
                "b": v,
                "key_rate": rng.choice([0.5, 1.0, 2.0, 5.0, 10.0]),
                "distance_km": rng.choice([1.0, 2.0, 4.0, 8.0, 16.0]),
                "initial_pool": 0,
            }
            for i, (u, v) in enumerate(sorted(edges))
        ],
        "apps": [],
        "weight_policy": "hop_count",
    }


def grid_dict(k: int, initial_pool: int, session_lifetime_ms: int | None) -> dict:
    """k x k grid, nodes N1..N(k*k) row-major, one app per node."""
    links = []
    for r in range(k):
        for c in range(k):
            for nr, nc in ((r, c + 1), (r + 1, c)):
                if nr < k and nc < k:
                    links.append(
                        {
                            "id": f"L{len(links) + 1}",
                            "a": f"N{r * k + c + 1}",
                            "b": f"N{nr * k + nc + 1}",
                            "key_rate": 10.0,
                            "distance_km": 10.0,
                            "initial_pool": initial_pool,
                        }
                    )
    raw = {
        "nodes": [{"id": f"N{i}"} for i in range(1, k * k + 1)],
        "links": links,
        "apps": [{"id": f"APP_{i}", "node": f"N{i}"} for i in range(1, k * k + 1)],
        "weight_policy": "hop_count",
    }
    if session_lifetime_ms is not None:
        raw["config"] = {"session_lifetime_ms": session_lifetime_ms}
    return raw


def grid_events(raw: dict, rng: random.Random, pairs: int) -> list[dict]:
    """A warm-up pair per app with a random grid neighbour, then random
    ordered pairs, half of them followed by the reverse pair. A pair is a
    get_key and the peer's get_key_with_id naming that key."""
    neighbours: dict[str, list[str]] = {n["id"]: [] for n in raw["nodes"]}
    for link in raw["links"]:
        neighbours[link["a"]].append(link["b"])
        neighbours[link["b"]].append(link["a"])
    app_of = {a["node"]: a["id"] for a in raw["apps"]}
    apps = list(app_of.values())

    order = [(app_of[n], app_of[rng.choice(neighbours[n])]) for n in neighbours]
    for _ in range(pairs):
        src, dst = rng.sample(apps, 2)
        order.append((src, dst))
        if rng.random() < 0.5:
            order.append((dst, src))

    events = []
    at = 0
    for src, dst in order:
        events.append({"at": at, "event": "app_get_key", "app_src": src, "app_dst": dst})
        events.append(
            {
                "at": at + 10,
                "event": "app_get_key_with_id",
                "app_src": dst,
                "app_dst": src,
                "key_id_from": src,
            }
        )
        at += 20
    return events


def pair_scenario(
    at_second: int = 10, expect: dict | None = None, name: str = "pair"
) -> Scenario:
    """GetKey from APP_A, then APP_B picks the same key up by id."""
    return scenario_from_dict(
        {
            "name": name,
            "events": [
                {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
                {
                    "at": at_second,
                    "event": "app_get_key_with_id",
                    "app_src": "APP_B",
                    "app_dst": "APP_A",
                    "key_id_from": "APP_A",
                },
            ],
            "expect": expect or {},
        }
    )


def single_get_key(app_src: str = "APP_A", app_dst: str = "APP_B") -> Scenario:
    return scenario_from_dict(
        {
            "name": "one",
            "events": [
                {"at": 0, "event": "app_get_key", "app_src": app_src, "app_dst": app_dst}
            ],
            "expect": {},
        }
    )


def resolved(sim: Simulation, app_id: str) -> list[AppRequest]:
    """app_id's requests that have been answered, in the order it issued them."""
    return [r for r in sim.requests if r.app_src == app_id and r.status is not None]


def delivered(sim: Simulation) -> list[Envelope]:
    """The envelopes sim has delivered so far, decoded from its trace lines."""
    return [decode(line) for line in sim.kernel.trace_lines]


def assert_held_one_sided(linksim: LinkSimulator) -> None:
    """Each link's table holds the material of exactly the keys that one of
    its endpoint pools has consumed and the other has not."""
    for link_id, table in linksim.tables.items():
        a, b = linksim.link_pools(link_id)
        assert set(table.held) == a.consumed ^ b.consumed, link_id


def run_events(
    topology: Topology,
    events: list[dict],
    seed: int = 1,
    weight_policy: str | None = None,
    **config,
):
    """Run events on topology, with weight_policy and any SimConfig fields
    given here replacing the topology's own."""
    if weight_policy is not None:
        topology = dataclasses.replace(topology, weight_policy=weight_policy)
    if config:
        topology = dataclasses.replace(
            topology, config=dataclasses.replace(topology.config, **config)
        )
    scenario = scenario_from_dict({"name": "inline", "events": events, "expect": {}})
    result = run(topology, scenario, seed=seed)
    assert_held_one_sided(result.sim.linksim)
    return result


def faulted_grid_run() -> RunResult:
    """A 5x5 grid run with three corruptions and one drop."""
    raw = grid_dict(5, initial_pool=16, session_lifetime_ms=60)
    faults = [
        {"at": 0, "event": "corrupt_message", "n": 3, "of_type": "key_relay"},
        {"at": 0, "event": "corrupt_message", "n": 5, "of_type": "ext_key_request"},
        {"at": 0, "event": "corrupt_message", "n": 7, "of_type": "key_delivery"},
        {"at": 0, "event": "drop_message", "n": 4, "of_type": "key_relay_response"},
    ]
    events = faults + grid_events(raw, random.Random(8), pairs=30)
    return run_events(topology_from_dict(raw), events, seed=2)


@pytest.fixture
def mesh4_relay_topology() -> Topology:
    return mesh4({"APP_A": "N1", "APP_B": "N4"})


@pytest.fixture
def mesh4_direct_topology() -> Topology:
    return mesh4({"APP_A": "N3", "APP_B": "N4"})


def write_json(path, obj) -> str:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    return str(path)
