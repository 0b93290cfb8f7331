"""Desk-scale model of a hierarchical key-management architecture for
QKD networks: simulated point-to-point links feed per-endpoint key pools,
node-level facades route application requests, and a central controller
computes relay paths over trusted nodes without ever seeing key material.
"""

from __future__ import annotations

from importlib import resources

from .harness import ConfigError, RunResult, Simulation, load_scenario, run
from .protocol import STATUSES, Envelope, otp_xor
from .qusec import shortest_path
from .topology import SimConfig, Topology, TopologyError, load_topology
from .trace import TraceDiff, trace_compare

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Envelope",
    "RunResult",
    "STATUSES",
    "SimConfig",
    "Simulation",
    "Topology",
    "TopologyError",
    "TraceDiff",
    "__version__",
    "data_path",
    "load_scenario",
    "load_topology",
    "otp_xor",
    "run",
    "shortest_path",
    "trace_compare",
]


def data_path(*parts: str) -> str:
    """Absolute path of a packaged data file, e.g. data_path("topologies", "mesh4_relay.json")."""
    base = resources.files(__package__) / "data"
    for part in parts:
        base = base / part
    return str(base)
