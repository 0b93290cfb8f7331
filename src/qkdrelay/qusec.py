"""Centralized controller: discovery, SPF path computation, rule installs.

A get_key's discovery establishes a path: an association, a session and, on
a relay path, a rule on every KMS. A get_key_with_id's discovery only locates
its key and opens nothing. Session lifetimes are checked when a session is read.

The controller sees topology and session state only. It never holds or
forwards key material; everything it sends or receives rides the control
channel.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from heapq import heappop, heappush

from . import protocol
from .protocol import (
    Entity,
    Envelope,
    KmsDiscoveryRequest,
    KmsDiscoveryResponse,
    RelayPathInstall,
)
from .topology import Link, Topology, render_kms_id

log = logging.getLogger(__name__)

QUSEC_ID = "QuSeC"

SESSION_INSTALLED = "installed"
SESSION_COMPLETED = "completed"
SESSION_EXPIRED = "expired"


class PathError(Exception):
    pass


class NoPathError(PathError):
    pass


class SameNodeError(PathError):
    pass


def link_weight(link: Link, policy: str) -> float:
    if policy == "hop_count":
        return 1.0
    if policy == "inverse_key_rate":
        return 1.0 / link.key_rate
    if policy == "distance":
        return link.distance_km
    raise ValueError(f"unknown weight policy {policy!r}")


def link_weights(topology: Topology, policy: str) -> dict[str, float]:
    """link id -> weight under policy."""
    return {link.id: link_weight(link, policy) for link in topology.links.values()}


def path_tree(
    topology: Topology, src: str, weights: dict[str, float]
) -> dict[str, tuple[str, str] | None]:
    """Dijkstra from src to every reachable node, as parent pointers.

    Maps each reachable node to (parent node, link id) on its shortest path,
    and src to None. Ties are broken by the lexicographically smallest node
    sequence, then link sequence. An entry carries its nodes and last link
    only: entries with equal nodes were pushed while settling one parent, so
    they differ only in that link. Any prefix of such a path is itself one,
    so the paths form a tree. A push that cannot beat the node's best queued
    entry is skipped: it would pop after that entry and be discarded. The
    comparison needs a total order on costs, which finite weights give.
    """
    tree: dict[str, tuple[str, str] | None] = {}
    best = {src: (0.0, (src,), "")}
    heap = [best[src]]
    while heap:
        cost, nodes, link_id = heappop(heap)
        here = nodes[-1]
        if here in tree:
            continue
        tree[here] = (nodes[-2], link_id) if link_id else None
        for neighbor, link in topology.neighbors(here):
            if neighbor in tree:
                continue
            entry = (cost + weights[link.id], nodes + (neighbor,), link.id)
            queued = best.get(neighbor)
            if queued is None or entry < queued:
                best[neighbor] = entry
                heappush(heap, entry)
    return tree


def tree_path(
    tree: dict[str, tuple[str, str] | None], dst: str
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(node sequence, link sequence) from the tree's root to dst, by
    walking the parent pointers back; raises NoPathError if dst is not in
    the tree."""
    if dst not in tree:
        raise NoPathError(f"no path to {dst!r}")
    nodes, links = [dst], []
    step = tree[dst]
    while step is not None:
        parent, link_id = step
        nodes.append(parent)
        links.append(link_id)
        step = tree[parent]
    return tuple(reversed(nodes)), tuple(reversed(links))


def shortest_path(
    topology: Topology, src: str, dst: str, policy: str
) -> tuple[float, tuple[str, ...], tuple[str, ...]]:
    """Shortest src -> dst path in a fresh path_tree.

    Returns (cost, node sequence, link sequence). The cost is summed along
    the path in order, as the search accumulated it.
    """
    if src not in topology.nodes or dst not in topology.nodes:
        raise NoPathError(f"unknown node in pair ({src!r}, {dst!r})")
    if src == dst:
        raise SameNodeError(f"src and dst are both {src!r}")
    weights = link_weights(topology, policy)
    nodes, links = tree_path(path_tree(topology, src, weights), dst)
    cost = 0.0
    for link_id in links:
        cost += weights[link_id]
    return cost, nodes, links


def expand_to_kms(node_path: tuple[str, ...], link_path: tuple[str, ...]) -> list[str]:
    """KMS-granularity expansion: each traversed link (u, v) contributes
    KMS_u(link) then KMS_v(link)."""
    out = []
    for i, link_id in enumerate(link_path):
        out.append(render_kms_id(node_path[i], link_id))
        out.append(render_kms_id(node_path[i + 1], link_id))
    return out


@dataclass(slots=True)
class SessionState:
    """One end-to-end establishment: ordered KMS list of length 2L. status is
    installed or completed; expiry is read from the clock (QusecEntity._expired)."""

    id_association: str
    app_src: str
    app_dst: str
    kms_path: tuple[str, ...]
    created_ms: int
    status: str = SESSION_INSTALLED

    def to_dict(self, expired: bool) -> dict:
        return {
            "id_association": self.id_association,
            "app_src": self.app_src,
            "app_dst": self.app_dst,
            "kms_path": list(self.kms_path),
            "created_ms": self.created_ms,
            "status": SESSION_EXPIRED if expired else self.status,
        }


class QusecEntity(Entity):
    """Serial controller actor; all transitions happen in message order."""

    def __init__(self, topology: Topology, seed: int):
        super().__init__(QUSEC_ID, node_id=None)
        self.topology = topology
        self.seed = seed
        self._weights = link_weights(topology, topology.weight_policy)
        # source node -> its path_tree; weights never change during a run.
        self._trees: dict[str, dict[str, tuple[str, str] | None]] = {}
        # (src_node, dst_node) -> its _kms_path, for the same reason.
        self._paths: dict[tuple[str, str], tuple[str, ...]] = {}
        self.sessions: list[SessionState] = []
        # The clock at the last discovery: sessions expire against it.
        self._last_discovery_ms = 0
        # (app_src, app_dst) -> that ordered pair's newest session.
        self._newest_session: dict[tuple[str, str], SessionState] = {}
        self.install_count = 0
        self.discovery_count = 0
        self.errors: list[dict] = []
        self._assoc_counter = 0

    # ── id allocation ──

    def _new_association_id(self) -> str:
        self._assoc_counter += 1
        return hashlib.shake_256(
            f"{self.seed}|assoc|{self._assoc_counter}".encode()
        ).hexdigest(16)

    # ── session bookkeeping ──

    def _expired(self, session: SessionState) -> bool:
        lifetime = self.topology.config.session_lifetime_ms
        return lifetime is not None and self._last_discovery_ms - session.created_ms > lifetime

    def _find_reusable_session(self, app_src: str, app_dst: str) -> SessionState | None:
        """Newest live session in which the requester is the target. Only the
        pair's newest session needs a look: created_ms never decreases, so if
        it has expired, so have all older ones."""
        session = self._newest_session.get((app_dst, app_src))
        if session is None or self._expired(session):
            return None
        return session

    # ── discovery ──

    def on_message(self, env: Envelope) -> None:
        if isinstance(env.msg, KmsDiscoveryRequest):
            self._handle_discovery(env.msg, env.sender)
        else:
            log.warning("QuSeC ignoring unexpected %s from %s",
                        protocol.message_type(env.msg), env.sender)

    def _respond(self, reply_to: str, msg: KmsDiscoveryRequest, id_kms: str | None) -> None:
        self.send(reply_to, KmsDiscoveryResponse(msg.app_src, msg.app_dst, id_kms, msg.id_request))

    def _fail(self, reply_to: str, msg: KmsDiscoveryRequest, reason: str) -> None:
        self.errors.append(
            {"app_src": msg.app_src, "app_dst": msg.app_dst, "reason": reason}
        )
        self._respond(reply_to, msg, None)

    def _handle_discovery(self, msg: KmsDiscoveryRequest, reply_to: str) -> None:
        now = self._last_discovery_ms = self.services.now_ms
        self.discovery_count += 1

        apps = self.topology.apps
        src_node = apps.get(msg.app_src)
        dst_node = apps.get(msg.app_dst)
        if src_node is None or dst_node is None:
            self._fail(reply_to, msg, "unknown_app")
            return
        if src_node == dst_node:
            self._fail(reply_to, msg, "same_node")
            return

        # (b) A pickup locates its key: where the requester's newest live
        # session ends, else at the pair's first KMS. It opens nothing.
        pickup = msg.kind == "get_key_with_id"
        session = self._find_reusable_session(msg.app_src, msg.app_dst) if pickup else None
        if session is not None:
            session.status = SESSION_COMPLETED
            self._respond(reply_to, msg, session.kms_path[-1])
            return

        try:
            kms_path = self._kms_path(src_node, dst_node)
        except NoPathError:
            self._fail(reply_to, msg, "no_path")
            return

        # A get_key establishes a path of its own. (a) A direct link needs no
        # rules. (c) A relay path gets one on every KMS, last-to-first, so
        # downstream rules exist before the initiator can act.
        if not pickup:
            pair = (msg.app_src, msg.app_dst)
            assoc = self._new_association_id()
            if len(kms_path) > 2:
                hops = (None, *kms_path, None)
                for i in range(len(kms_path), 0, -1):
                    self.send(hops[i], RelayPathInstall(assoc, hops[i - 1], hops[i + 1], *pair))
                self.install_count += len(kms_path)
            session = self._newest_session[pair] = SessionState(assoc, *pair, kms_path, now)
            self.sessions.append(session)
        self._respond(reply_to, msg, kms_path[0])

    def _kms_path(self, src_node: str, dst_node: str) -> tuple[str, ...]:
        """(a) Both apps inside one link domain: the two KMSs of the
        lowest-weight shared link (ties by link id). Else (c) the KMSs of the
        shortest relay path; raises NoPathError when there is none. Computed
        once per ordered node pair: weights and links never change during a
        run. A NoPathError is not remembered."""
        path = self._paths.get((src_node, dst_node))
        if path is not None:
            return path
        shared = self.topology.links_between(src_node, dst_node)
        if shared:
            link = min(shared, key=lambda l: (self._weights[l.id], l.id))
            route = (src_node, dst_node), (link.id,)
        else:
            tree = self._trees.get(src_node)
            if tree is None:
                tree = self._trees[src_node] = path_tree(self.topology, src_node, self._weights)
            route = tree_path(tree, dst_node)
        path = self._paths[src_node, dst_node] = tuple(expand_to_kms(*route))
        return path

    # ── state dump ──

    def dump_state(self) -> dict:
        return {
            "weight_policy": self.topology.weight_policy,
            "session_lifetime_ms": self.topology.config.session_lifetime_ms,
            "discovery_count": self.discovery_count,
            "install_count": self.install_count,
            "sessions": [s.to_dict(self._expired(s)) for s in self.sessions],
            "errors": list(self.errors),
        }
