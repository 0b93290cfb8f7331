"""Seeded workload inputs for the qkdrelay benchmark.

Every workload is a list of cases. A case is one or more (topology file,
scenario file, simulation seed) runs whose app requests come in pairs: an
``app_get_key`` followed by the peer's ``app_get_key_with_id`` naming the
first app's key. The same workload seed always yields the same files and
run seeds; the simulator sees nothing but those inputs.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

# Spacing between scenario events in simulated ms. Every hop is instantaneous,
# so each request resolves at its own event time and pairs never overlap.
_EVENT_STEP_MS = 10


@dataclass(frozen=True)
class Run:
    """One simulator run: what `qkdrelay run` would be given."""

    topology_path: str
    scenario_path: str
    seed: int


@dataclass(frozen=True)
class Case:
    """The unit a benchmark iteration times: its runs, executed in order."""

    runs: tuple[Run, ...]


def _write_json(path: str, obj: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
    return path


def _pair_events(pairs: list[tuple[str, str]]) -> list[dict]:
    events = []
    at = 0
    for src, dst in pairs:
        events.append({"at": at, "event": "app_get_key", "app_src": src, "app_dst": dst})
        at += _EVENT_STEP_MS
        events.append(
            {
                "at": at,
                "event": "app_get_key_with_id",
                "app_src": dst,
                "app_dst": src,
                "key_id_from": src,
            }
        )
        at += _EVENT_STEP_MS
    return events


def grid_topology(k: int, initial_pool: int) -> dict:
    """k x k grid, nodes N1..N(k*k) row-major, one app per node."""

    def node(r: int, c: int) -> str:
        return f"N{r * k + c + 1}"

    links = []
    for r in range(k):
        for c in range(k):
            for nr, nc in ((r, c + 1), (r + 1, c)):
                if nr < k and nc < k:
                    links.append(
                        {
                            "id": f"L{len(links) + 1}",
                            "a": node(r, c),
                            "b": node(nr, nc),
                            "key_rate": 10.0,
                            "distance_km": 10.0,
                            "initial_pool": initial_pool,
                        }
                    )
    return {
        "nodes": [{"id": f"N{i}"} for i in range(1, k * k + 1)],
        "links": links,
        "apps": [{"id": f"APP_{i}", "node": f"N{i}"} for i in range(1, k * k + 1)],
        "weight_policy": "hop_count",
    }


def grid_relay(seed: int, workdir: str, k: int = 12, pairs: int = 400,
               initial_pool: int = 128, draws: int = 6) -> list[Case]:
    """`draws` scenarios on one k x k grid. Each has a warm-up pair per app
    with a random grid neighbour, then `pairs` uniformly random ordered app
    pairs, unfiltered."""
    rng = random.Random(f"grid_relay|{seed}")
    topo = grid_topology(k, initial_pool)
    topo_path = _write_json(os.path.join(workdir, "grid_relay.topology.json"), topo)
    neighbours: dict[str, list[str]] = {n["id"]: [] for n in topo["nodes"]}
    for link in topo["links"]:
        neighbours[link["a"]].append(link["b"])
        neighbours[link["b"]].append(link["a"])
    app_of = {a["node"]: a["id"] for a in topo["apps"]}
    apps = [a["id"] for a in topo["apps"]]

    cases = []
    for draw in range(draws):
        warmup = [(app_of[n], app_of[rng.choice(neighbours[n])]) for n in neighbours]
        main = [tuple(rng.sample(apps, 2)) for _ in range(pairs)]
        scenario = {
            "name": f"grid_relay_{draw}",
            "events": _pair_events(warmup + main),
            "expect": {"e2e_match": True},
        }
        path = os.path.join(workdir, f"grid_relay_{draw}.scenario.json")
        cases.append(Case(runs=(Run(topo_path, _write_json(path, scenario), rng.randrange(2**32)),)))
    return cases


def direct_bulk(seed: int, workdir: str, pairs: int = 5000,
                initial_pool: int = 12000, draws: int = 5) -> list[Case]:
    """`draws` scenarios on two nodes joined by one deep link, each with
    `pairs` pairs in random direction."""
    rng = random.Random(f"direct_bulk|{seed}")
    topo = {
        "nodes": [{"id": "N1"}, {"id": "N2"}],
        "links": [
            {
                "id": "L1",
                "a": "N1",
                "b": "N2",
                "key_rate": 10.0,
                "distance_km": 10.0,
                "initial_pool": initial_pool,
            }
        ],
        "apps": [{"id": "APP_1", "node": "N1"}, {"id": "APP_2", "node": "N2"}],
        "weight_policy": "hop_count",
    }
    topo_path = _write_json(os.path.join(workdir, "direct_bulk.topology.json"), topo)
    flows = [("APP_1", "APP_2"), ("APP_2", "APP_1")]
    cases = []
    for draw in range(draws):
        scenario = {
            "name": f"direct_bulk_{draw}",
            "events": _pair_events([rng.choice(flows) for _ in range(pairs)]),
            "expect": {"e2e_match": True},
        }
        path = os.path.join(workdir, f"direct_bulk_{draw}.scenario.json")
        cases.append(Case(runs=(Run(topo_path, _write_json(path, scenario), rng.randrange(2**32)),)))
    return cases


# The packaged (topology, scenario) pairs, as `qkdrelay run` is pointed at them.
PACKAGED = (
    ("mesh4_direct.json", "direct.json"),
    ("mesh4_relay.json", "relay1hop.json"),
    ("chain32.json", "linear32.json"),
)


def packaged_replay(seed: int, data_dir: str, loops: int = 150) -> list[Case]:
    """The packaged scenarios with their own expectations and goldens, one
    case per drawn run seed."""
    rng = random.Random(f"packaged_replay|{seed}")
    files = [
        (os.path.join(data_dir, "topologies", t), os.path.join(data_dir, "scenarios", s))
        for t, s in PACKAGED
    ]
    cases = []
    for _ in range(loops):
        run_seed = rng.randrange(2**32)
        cases.append(Case(runs=tuple(Run(t, s, run_seed) for t, s in files)))
    return cases


def failed_requests(requests: list[dict]) -> int:
    """Requests that did not end well, counted pair by pair.

    Both requests of a pair fail unless both ended ``ok`` with the same key
    id and the same non-empty material. An unresolved request has status
    None and so fails its pair too.
    """
    if len(requests) % 2:
        raise ValueError("requests do not form pairs")
    failed = 0
    for first, second in zip(requests[0::2], requests[1::2]):
        if (
            first["kind"] != "get_key"
            or second["kind"] != "get_key_with_id"
            or (first["app_src"], first["app_dst"]) != (second["app_dst"], second["app_src"])
        ):
            raise ValueError(f"not a request pair: {first} / {second}")
        good = (
            first["status"] == second["status"] == "ok"
            and first["key_id"] == second["key_id"]
            and first["material"] == second["material"] != ""
        )
        if not good:
            failed += 2
    return failed
