"""Metamorphic relations: neither a topology file's order, nor idle leaf
nodes, nor the scenario's absolute event times reach a trace.

Each case runs as given and transformed, under every weight policy, and
the traces must be byte-identical:
- the topology's nodes, links and apps shuffled, and each link's a and b
  swapped;
- two degree-1 nodes added, one whose id sorts first and one whose id sorts
  last, each with an idle app;
- every scenario event shifted by one constant.
"""

from __future__ import annotations

import json
import random

import pytest

from conftest import grid_dict, grid_events
from qkdrelay import data_path
from qkdrelay.harness import run, scenario_from_dict
from qkdrelay.topology import WEIGHT_POLICIES, topology_from_dict

SEED = 5
SHIFT_MS = 7919
SHUFFLES = 2


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def packaged(name: str) -> tuple[dict, list[dict]]:
    """A packaged scenario's topology and events."""
    scenario = read_json(data_path("scenarios", f"{name}.json"))
    return read_json(data_path("scenarios", scenario["topology"])), scenario["events"]


def with_parallel_copies(raw: dict) -> dict:
    """raw with two equal-weight copies of each link: one whose id sorts
    before the original's, and one whose id sorts after it."""
    copies = []
    for link in raw["links"]:
        copies.append({**link, "id": f"0{link['id']}"})
        copies.append({**link, "id": f"{link['id']}z"})
    return {**raw, "links": raw["links"] + copies}


def parallel(name: str) -> tuple[dict, list[dict]]:
    """A packaged scenario on its topology with parallel copies of each link."""
    raw, events = packaged(name)
    return with_parallel_copies(raw), events


def grid4() -> tuple[dict, list[dict]]:
    raw = grid_dict(4, initial_pool=16, session_lifetime_ms=None)
    return raw, grid_events(raw, random.Random(3), pairs=12)


CASES = {
    "direct": lambda: packaged("direct"),
    "relay1hop": lambda: packaged("relay1hop"),
    "linear32": lambda: packaged("linear32"),
    "direct_parallel": lambda: parallel("direct"),
    "relay1hop_parallel": lambda: parallel("relay1hop"),
    "grid4": grid4,
}


def shuffled(raw: dict, rng: random.Random) -> dict:
    out = {
        **raw,
        "nodes": list(raw["nodes"]),
        "links": [{**link, "a": link["b"], "b": link["a"]} for link in raw["links"]],
        "apps": list(raw["apps"]),
    }
    for key in ("nodes", "links", "apps"):
        rng.shuffle(out[key])
    return out


def with_leaves(raw: dict) -> dict:
    """raw with leaf 0leaf linked to its smallest node id and leaf zleaf to
    its largest, each by a copy of its first link and with one idle app."""
    ids = sorted(node["id"] for node in raw["nodes"])
    leaves = (("0leaf", ids[0]), ("zleaf", ids[-1]))
    return {
        **raw,
        "nodes": raw["nodes"] + [{"id": leaf} for leaf, _ in leaves],
        "links": raw["links"] + [
            {**raw["links"][0], "id": f"{leaf}_link", "a": leaf, "b": node}
            for leaf, node in leaves
        ],
        "apps": raw["apps"] + [{"id": f"APP_{leaf}", "node": leaf} for leaf, _ in leaves],
    }


def shifted(events: list[dict]) -> list[dict]:
    return [{**event, "at": event["at"] + SHIFT_MS} for event in events]


def run_case(raw: dict, events: list[dict]):
    scenario = scenario_from_dict({"name": "metamorphic", "events": events, "expect": {}})
    return run(topology_from_dict(raw), scenario, SEED)


@pytest.mark.parametrize("policy", WEIGHT_POLICIES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_file_order_and_event_time_never_reach_the_trace(case, policy):
    raw, events = CASES[case]()
    raw = {**raw, "weight_policy": policy}
    base = run_case(raw, events)
    assert {r["status"] for r in base.report["requests"]} == {"ok"}
    rng = random.Random(f"{case}/{policy}")
    for _ in range(SHUFFLES):
        assert run_case(shuffled(raw, rng), events).trace_lines == base.trace_lines
    assert run_case(with_leaves(raw), events).trace_lines == base.trace_lines
    assert run_case(raw, shifted(events)).trace_lines == base.trace_lines
