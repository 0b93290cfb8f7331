"""Network model: nodes, QKD links, the app registry, and KMS naming.

The topology is loaded once from a JSON config and is immutable afterwards.
Roles are never configured; they are derived from link incidence
(one incident link makes a simple node, two or more make a trusted relay),
and ``Topology.nodes`` maps each node id to its role.

Because nothing changes after load, the loader builds the lookup indexes
once, while it validates: an adjacency map behind every graph helper, and
the id of every entity the topology implies, each rendered once. The KMS of
each (node, link) seat and the vKMS of each node are named here and nowhere
else; the simulator reads their ids from ``kms_ids`` and ``vkms_ids``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass, field

WEIGHT_POLICIES = ("hop_count", "inverse_key_rate", "distance")

ROLE_SIMPLE = "simple"
ROLE_TRUSTED_RELAY = "trusted_relay"

# The controller's entity id. It shares the transport's id space with every
# KMS, vKMS and app, so the loader keeps apps from taking it.
QUSEC_ID = "QuSeC"

# Node ids shaped like N7 render as their bare index in KMS/vKMS names,
# giving the conventional KMS_3d / vKMS_3 style labels.
_NODE_INDEX_RE = re.compile(r"^N(\d+)$")


class TopologyError(Exception):
    """Base class for topology loading failures."""


class ParseError(TopologyError):
    """Config text is not valid JSON or does not match the file schema."""


class ValidationError(TopologyError):
    """Structurally valid config that violates a semantic constraint."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class SimConfig:
    """Optional per-topology simulation parameters (the `config` object).
    Their ranges are checked here, however the config is built: by the
    loader, in Python, or with dataclasses.replace."""

    key_size_bytes: int = 32
    request_timeout_ms: int = 1000
    session_lifetime_ms: int | None = None

    def __post_init__(self) -> None:
        for name in ("key_size_bytes", "request_timeout_ms"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name!r} must be positive")
        if self.session_lifetime_ms is not None and self.session_lifetime_ms < 0:
            raise ValueError("'session_lifetime_ms' must be >= 0")

    def lapsed(self, since_ms: int, now_ms: int) -> bool:
        """Whether state made at since_ms has outlived the session lifetime
        by the clock now_ms. The one lapse rule: during a run only a KMS's
        delivered store applies it, to a key waiting for pickup; the
        end-of-run report applies it to QuSeC's sessions."""
        lifetime = self.session_lifetime_ms
        return lifetime is not None and now_ms - since_ms > lifetime


@dataclass(frozen=True)
class Link:
    """One QKD link. Endpoints are unordered; both weight attributes are
    mandatory regardless of the active weight policy."""

    id: str
    a: str
    b: str
    key_rate: float
    distance_km: float
    initial_pool: int

    def endpoints(self) -> tuple[str, str]:
        return (self.a, self.b)


def node_label(node_id: str) -> str:
    """Index part used in KMS/vKMS names: N3 -> 3, anything else verbatim."""
    m = _NODE_INDEX_RE.match(node_id)
    return m.group(1) if m else node_id


def render_kms_id(node_id: str, link_id: str) -> str:
    return f"KMS_{node_label(node_id)}{link_id}"


def vkms_name(node_id: str) -> str:
    return f"vKMS_{node_label(node_id)}"


def _build_adjacency(
    node_ids, links: dict[str, Link]
) -> dict[str, list[tuple[str, Link]]]:
    """node -> (neighbor, link) pairs in link file order, for every node in
    node_ids and every link endpoint."""
    adjacency: dict[str, list[tuple[str, Link]]] = {n: [] for n in node_ids}
    for link in links.values():
        adjacency.setdefault(link.a, []).append((link.b, link))
        adjacency.setdefault(link.b, []).append((link.a, link))
    return adjacency


@dataclass(frozen=True)
class Topology:
    """Immutable network description plus the app registry.

    ``nodes`` maps each node id to its derived role. ``topology_from_dict``
    derives three indexes from the node ids and ``links``: ``adjacency``
    (node -> (neighbor, link) pairs in link file order), ``kms_ids`` ((node,
    link) seat -> its KMS's entity id) and ``vkms_ids`` (node -> its vKMS's
    entity id).
    Every entity id, apps and the controller included, names one entity.
    Nothing changes after load, so the indexes never go stale.
    """

    nodes: dict[str, str]
    links: dict[str, Link]
    apps: dict[str, str]
    weight_policy: str
    config: SimConfig = field(default_factory=SimConfig)
    adjacency: dict[str, list[tuple[str, Link]]] = field(
        kw_only=True, repr=False, compare=False
    )
    kms_ids: dict[tuple[str, str], str] = field(
        kw_only=True, repr=False, compare=False
    )
    vkms_ids: dict[str, str] = field(kw_only=True, repr=False, compare=False)

    # ── graph helpers ──

    def neighbors(self, node_id: str) -> list[tuple[str, Link]]:
        """(neighbor node, connecting link) pairs, in link file order.
        The list is the index itself: callers must not mutate it."""
        return self.adjacency.get(node_id, [])

    def links_between(self, u: str, v: str) -> list[Link]:
        return [link for n, link in self.adjacency.get(u, ()) if n == v]


# ── file schema ──

_TOPOLOGY_KEYS = frozenset({"nodes", "links", "apps", "weight_policy", "config"})
_TOPOLOGY_REQUIRED = _TOPOLOGY_KEYS - {"config"}
_NODE_KEYS = frozenset({"id"})
_LINK_KEYS = frozenset({"id", "a", "b", "key_rate", "distance_km", "initial_pool"})
_APP_KEYS = frozenset({"id", "node"})
_CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(SimConfig))


def _require_str(obj: dict, key: str, where: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise ParseError(f"{where}: {key!r} must be a non-empty string")
    return value


def _require_number(obj: dict, key: str, where: str) -> float:
    """A finite number as float. json.loads accepts NaN and Infinity (and
    1e400 overflows to infinity); none of them is a usable rate or length."""
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: {key!r} must be a number")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParseError(f"{where}: {key!r} must be a finite number")
    return value


def _require_int(obj: dict, key: str, where: str) -> int:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: {key!r} must be an integer")
    return value


def _check_keys(
    obj: dict, allowed: frozenset[str], required: frozenset[str], where: str
) -> None:
    # The common case, no key unknown and none missing, builds no set.
    if isinstance(obj, dict) and required <= obj.keys() <= allowed:
        return
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"{where}: unknown key {sorted(unknown)[0]!r}")
    missing = required - set(obj)
    if missing:
        raise ParseError(f"{where}: missing key {sorted(missing)[0]!r}")


def _config_from_dict(obj: dict) -> SimConfig:
    _check_keys(obj, _CONFIG_KEYS, frozenset(), "config")
    kwargs = {}
    for key in ("key_size_bytes", "request_timeout_ms"):
        if key in obj:
            kwargs[key] = _require_int(obj, key, "config")
    if obj.get("session_lifetime_ms") is not None:
        kwargs["session_lifetime_ms"] = _require_int(obj, "session_lifetime_ms", "config")
    try:
        return SimConfig(**kwargs)
    except ValueError as exc:
        raise ParseError(f"config: {exc}") from None


def topology_from_dict(raw: dict) -> Topology:
    _check_keys(raw, _TOPOLOGY_KEYS, _TOPOLOGY_REQUIRED, "topology")
    for key in ("nodes", "links", "apps"):
        if not isinstance(raw[key], list):
            raise ParseError(f"topology: {key!r} must be an array")

    policy = raw["weight_policy"]
    if not isinstance(policy, str):
        raise ParseError("topology: 'weight_policy' must be a string")
    config = _config_from_dict(raw["config"]) if "config" in raw else SimConfig()

    violations: list[str] = []

    nodes: dict[str, dict] = {}
    for entry in raw["nodes"]:
        _check_keys(entry, _NODE_KEYS, _NODE_KEYS, "node")
        node_id = _require_str(entry, "id", "node")
        if node_id in nodes:
            violations.append(f"duplicate node id {node_id!r}")
        nodes[node_id] = entry

    links: dict[str, Link] = {}
    for entry in raw["links"]:
        _check_keys(entry, _LINK_KEYS, _LINK_KEYS, "link")
        link = Link(
            _require_str(entry, "id", "link"),
            _require_str(entry, "a", "link"),
            _require_str(entry, "b", "link"),
            _require_number(entry, "key_rate", "link"),
            _require_number(entry, "distance_km", "link"),
            _require_int(entry, "initial_pool", "link"),
        )
        if link.id in links:
            violations.append(f"duplicate link id {link.id!r}")
        links[link.id] = link
        if link.a == link.b:
            violations.append(f"link {link.id!r} endpoints must be distinct")
        for end in link.endpoints():
            if end not in nodes:
                violations.append(f"link {link.id!r} references unknown node {end!r}")
        if link.key_rate <= 0:
            violations.append(f"link {link.id!r} key_rate must be positive")
        if link.distance_km <= 0:
            violations.append(f"link {link.id!r} distance_km must be positive")
        if link.initial_pool < 0:
            violations.append(f"link {link.id!r} initial_pool must be >= 0")

    apps: dict[str, str] = {}
    for entry in raw["apps"]:
        _check_keys(entry, _APP_KEYS, _APP_KEYS, "app")
        app_id = _require_str(entry, "id", "app")
        node_ref = _require_str(entry, "node", "app")
        if app_id in apps:
            violations.append(f"duplicate app id {app_id!r}")
        apps[app_id] = node_ref
        if node_ref not in nodes:
            violations.append(f"app {app_id!r} references unknown node {node_ref!r}")

    if policy not in WEIGHT_POLICIES:
        violations.append(f"unknown weight_policy {policy!r}")

    adjacency = _build_adjacency(nodes, links)

    roles: dict[str, str] = {}
    for node_id in nodes:
        degree = len(adjacency[node_id])
        if not degree:
            violations.append(f"node {node_id!r} has no incident links")
        roles[node_id] = ROLE_TRUSTED_RELAY if degree >= 2 else ROLE_SIMPLE

    # Connectivity over the undirected node/link graph.
    if nodes:
        stack = [next(iter(nodes))]
        seen = set(stack)
        while stack:
            for neighbor, _ in adjacency[stack.pop()]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        if seen != nodes.keys():
            unreachable = sorted(set(nodes) - seen)
            violations.append(f"graph is disconnected (unreachable: {unreachable})")

    # Every entity id is rendered here, once: the KMS of each (node, link)
    # seat and the vKMS of each node. They share the transport's id space
    # with the apps and the controller, and each id must name one entity, or
    # every later trace and rule install would be misaddressed.
    kms_ids: dict[tuple[str, str], str] = {}
    seat_of_kms: dict[str, tuple[str, str]] = {}
    for link in links.values():
        for end in link.endpoints():
            if end not in nodes:
                continue
            seat = (end, link.id)
            name = kms_ids[seat] = render_kms_id(end, link.id)
            if seat_of_kms.setdefault(name, seat) != seat:
                violations.append(f"ambiguous KMS name {name!r}")
    vkms_ids: dict[str, str] = {}
    node_of_vkms: dict[str, str] = {}
    for node_id in nodes:
        name = vkms_ids[node_id] = vkms_name(node_id)
        if node_of_vkms.setdefault(name, node_id) != node_id:
            violations.append(f"ambiguous vKMS name {name!r}")
    for app_id in apps:
        if app_id == QUSEC_ID or app_id in seat_of_kms or app_id in node_of_vkms:
            violations.append(f"app id {app_id!r} is another entity's id")

    if violations:
        raise ValidationError(violations)

    return Topology(
        nodes=roles,
        links=links,
        apps=apps,
        weight_policy=policy,
        config=config,
        adjacency=adjacency,
        kms_ids=kms_ids,
        vkms_ids=vkms_ids,
    )


def load_topology(config_text: str) -> Topology:
    try:
        raw = json.loads(config_text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: a value nested deeper than the parser can go.
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError("topology: top level must be an object")
    return topology_from_dict(raw)
