"""Every single fault over the small scenarios, as a Tier-1 oracle.

The swept scenarios are the packaged ones and the fault-free repros, read
from their files. Each runs clean once at the repros' seed; then, for each
message type in its `message_counts`, each n up to that count, and each of
`drop_message` and `corrupt_message`, it runs again with that one fault
armed at 0 ms. Each test here checks one invariant over every such run.
"""

from __future__ import annotations

import dataclasses
import pathlib
from collections.abc import Iterator

from test_repros import REPROS, SEED, label, topology_of
from qkdrelay import data_path
from qkdrelay.harness import Scenario, load_scenario, load_topology_file, run
from qkdrelay.topology import Topology

SWEPT = [
    *sorted(pathlib.Path(data_path("scenarios")).glob("*.json")),
    REPROS / "reverse_direct.json",
    REPROS / "pickup_twice.json",
    REPROS / "unknown_app_dst.json",
]


def single_faults() -> Iterator[tuple[str, Topology, Scenario]]:
    """Each swept scenario with one fault armed: its label names both."""
    for path in SWEPT:
        topology = load_topology_file(str(topology_of(path)))
        scenario = load_scenario(str(path))
        counts = run(topology, scenario, SEED).report["message_counts"]
        for type_tag, count in counts.items():
            for n in range(1, count + 1):
                for kind in ("drop_message", "corrupt_message"):
                    fault = {"at": 0, "event": kind, "n": n, "of_type": type_tag}
                    faulted = dataclasses.replace(scenario, events=[fault, *scenario.events])
                    yield f"{label(path)} {kind} {type_tag} n={n}", topology, faulted


def test_no_single_fault_makes_a_run_raise():
    raised = []
    for name, topology, scenario in single_faults():
        try:
            run(topology, scenario, SEED)
        except Exception as exc:  # any exception breaks the invariant; list them all
            raised.append(f"{name}: {exc!r}")
    assert raised == []
