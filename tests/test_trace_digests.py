"""Pinned sha256 digests of raw (non-canonical) traces.

A change that must leave the wire untouched, such as a new index or a faster
encoder, keeps every digest here. A change to the wire format re-pins them
and shows with a canonical diff what moved.

The grid runs draw random app pairs and follow some of them with their
reverse pair, so QuSeC's session reuse runs on both the direct and the relay
branch, with and without a session lifetime.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from conftest import grid_dict, grid_events, run_events
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

# (session_lifetime_ms, digest)
GRIDS = [
    (None, "3b313e42c387c7dfe006db10dde3d5aa7846f2a6fa6fe1d4767fc965bbb1bf9d"),
    (150, "2a178ee5f2b87321d14b2cba4b1f03a0930fdf9b1ec3ae4709bc89407e53ee79"),
]


def raw_digest(lines: list[str]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("topology_name,scenario_name,expected", PACKAGED)
def test_packaged_raw_trace_digest(topology_name, scenario_name, expected):
    topology = load_topology_file(data_path("topologies", topology_name))
    scenario = load_scenario(data_path("scenarios", scenario_name))
    result = run(topology, scenario, seed=SEED)
    assert result.exit_code == 0
    assert raw_digest(result.trace_lines) == expected


@pytest.mark.parametrize("session_lifetime_ms,expected", GRIDS)
def test_grid_raw_trace_digest(session_lifetime_ms, expected):
    raw = grid_dict(5, initial_pool=32, session_lifetime_ms=session_lifetime_ms)
    events = grid_events(raw, random.Random(11), pairs=40)
    result = run_events(topology_from_dict(raw), events, seed=SEED)
    assert result.report["quiescent"]
    assert raw_digest(result.trace_lines) == expected
