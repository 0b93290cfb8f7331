"""Centralized controller: discovery, SPF path computation, rule installs.

A get_key's discovery establishes a path: an association, a session and, on
a relay path, a rule on every KMS. A get_key_with_id's discovery only locates
its key and opens nothing: it goes where its pair's newest session ends,
live or lapsed, because the KMS store that holds the key is the one place
that applies the session lifetime (``SimConfig.lapsed``). The controller
reads the lifetime only for the end-of-run report.

Every KMS path is read off one ``RankGraph``, built on the first path
search: nodes and links numbered in sorted-id order, so a search compares
small integers yet breaks ties exactly as one over ids would. A direct pair
is the lowest-weight hop joining its two nodes. A relay path comes from one
Dijkstra per source node (``path_tree``), run on the first relay search
from that node. Each tree is kept as a parent array and a hop array, and
each hop names the two KMSs it joins, so a path is read off the graph
without rendering a KMS name.

The controller sees topology and session state only. It never holds or
forwards key material; everything it sends or receives rides the control
channel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from heapq import heappop, heappush

from .protocol import (
    Entity,
    Envelope,
    KmsDiscoveryRequest,
    KmsDiscoveryResponse,
    RelayPathInstall,
)
from .topology import QUSEC_ID, Link, Topology

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


# One hop of the rank graph, out of a node: (neighbour rank, link rank,
# weight, this node's KMS on the link, the neighbour's KMS on the link).
Hop = tuple[int, int, float, str, str]


class RankGraph:
    """The topology numbered for search: nodes and links ranked in sorted-id
    order, and each node's hops (see ``Hop``) indexed by its rank, in link
    file order. Because ranks follow sorted ids, a tuple of node or link
    ranks compares exactly as the tuple of their ids does, so a search over
    ranks breaks ties as one over ids would, under every weight policy."""

    __slots__ = ("nodes", "links", "rank", "hops")

    def __init__(self, topology: Topology, weights: dict[str, float]):
        self.nodes = sorted(topology.nodes)
        self.links = sorted(topology.links)
        self.rank = {node: i for i, node in enumerate(self.nodes)}
        link_rank = {link_id: i for i, link_id in enumerate(self.links)}
        kms = topology.kms_ids
        self.hops: list[list[Hop]] = [
            [
                (
                    self.rank[neighbor],
                    link_rank[link.id],
                    weights[link.id],
                    kms[node, link.id],
                    kms[neighbor, link.id],
                )
                for neighbor, link in topology.neighbors(node)
            ]
            for node in self.nodes
        ]


# A path tree: per node rank, the rank it was reached from and the hop that
# reached it. The root is its own parent and has no hop; a node the search
# never reached has parent -1.
Tree = tuple[list[int], list[Hop | None]]


def path_tree(graph: RankGraph, src: int) -> Tree:
    """Dijkstra from rank src to every reachable node, as a parent array and
    a hop array.

    Ties are broken by the lexicographically smallest node sequence, then
    link sequence. A heap entry is (cost, node ranks, last hop): entries with
    equal nodes were pushed while settling one parent, so their hops differ
    only in their link rank. Any prefix of such a path is itself one, so the
    paths form a tree. A push that cannot beat the node's best queued entry
    is skipped: it would pop after that entry and be discarded. The
    comparison needs a total order on costs, which finite weights give.
    """
    size = len(graph.nodes)
    parent = [-1] * size
    via: list[Hop | None] = [None] * size
    best: list[tuple | None] = [None] * size
    hops = graph.hops
    heap = [(0.0, (src,), None)]
    while heap:
        cost, nodes, hop = heappop(heap)
        here = nodes[-1]
        if parent[here] >= 0:
            continue
        parent[here] = nodes[-2] if hop else here
        via[here] = hop
        for hop in hops[here]:
            neighbor = hop[0]
            if parent[neighbor] >= 0:
                continue
            entry = (cost + hop[2], nodes + (neighbor,), hop)
            queued = best[neighbor]
            if queued is None or entry < queued:
                best[neighbor] = entry
                heappush(heap, entry)
    return parent, via


def tree_path(tree: Tree, dst: int) -> list[Hop]:
    """The hops from the tree's root to rank dst, by walking the parent
    array back; raises NoPathError if the search never reached dst."""
    parent, via = tree
    if parent[dst] < 0:
        raise NoPathError(f"no path to node rank {dst}")
    hops = []
    while parent[dst] != dst:
        hops.append(via[dst])
        dst = parent[dst]
    hops.reverse()
    return hops


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
    graph = RankGraph(topology, link_weights(topology, policy))
    hops = tree_path(path_tree(graph, graph.rank[src]), graph.rank[dst])
    cost = 0.0
    for hop in hops:
        cost += hop[2]
    nodes = (src, *(graph.nodes[hop[0]] for hop in hops))
    return cost, nodes, tuple(graph.links[hop[1]] for hop in hops)


@dataclass(slots=True)
class SessionState:
    """One end-to-end establishment: ordered KMS list of length 2L. QuSeC
    keeps only each ordered app pair's newest one. status is installed or
    completed; the report reads expiry from the clock at the end of the run
    (QusecEntity.dump_state)."""

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
    """Serial controller actor; all transitions happen in message order.

    ``sessions`` holds one session per ordered app pair, its newest: a
    pickup only ever reuses that one, so a get_key's new session replaces
    the pair's old one. The table lists its sessions in the order they were
    opened, oldest first, and ``sessions_opened`` counts every session ever
    opened, replaced ones included."""

    def __init__(self, topology: Topology, seed: int):
        super().__init__(QUSEC_ID, node_id=None)
        self.topology = topology
        self.seed = seed
        # The rank graph, built on the first path search.
        self._graph: RankGraph | None = None
        # source node rank -> its path_tree; weights never change during a run.
        self._trees: dict[int, Tree] = {}
        # (app_src, app_dst) -> that ordered pair's newest session.
        self.sessions: dict[tuple[str, str], SessionState] = {}
        # The n-th session opened gets the association id hashed from n.
        self.sessions_opened = 0
        self.install_count = 0
        self.discovery_count = 0
        self.errors: list[dict] = []

    # ── id allocation ──

    def _new_association_id(self) -> str:
        self.sessions_opened += 1
        return hashlib.shake_256(
            f"{self.seed}|assoc|{self.sessions_opened}".encode()
        ).hexdigest(16)

    # ── discovery ──

    def on_message(self, env: Envelope) -> None:
        self._handle_discovery(env.msg, env.sender)

    def _respond(self, reply_to: str, msg: KmsDiscoveryRequest, id_kms: str | None) -> None:
        self.send(reply_to, KmsDiscoveryResponse(msg.app_src, msg.app_dst, id_kms, msg.id_request))

    def _fail(self, reply_to: str, msg: KmsDiscoveryRequest, reason: str) -> None:
        self.errors.append(
            {"app_src": msg.app_src, "app_dst": msg.app_dst, "reason": reason}
        )
        self._respond(reply_to, msg, None)

    def _handle_discovery(self, msg: KmsDiscoveryRequest, reply_to: str) -> None:
        now = self.services.now_ms
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

        # (b) A pickup locates its key and opens nothing. Every key of the
        # pair waits where its newest session ends, live or lapsed: a pair's
        # path never changes during a run, and that KMS's store decides
        # whether the key has lapsed. With no session, no key of the pair
        # exists, and the pickup goes to the pair's first KMS.
        pair = (msg.app_src, msg.app_dst)
        if msg.kind == "get_key_with_id":
            session = self.sessions.get((msg.app_dst, msg.app_src))
            if session is not None:
                session.status = SESSION_COMPLETED
                self._respond(reply_to, msg, session.kms_path[-1])
            else:
                self._respond(reply_to, msg, self._kms_path(src_node, dst_node)[0])
            return

        # A get_key establishes a path of its own. The pair's last session,
        # even a lapsed one, already carries that path: weights, links and
        # each app's node never change during a run. It is popped and the new
        # session re-inserted, so the table stays in the order sessions
        # opened. (a) A direct link needs no rules. (c) A relay path gets one
        # on every KMS, last-to-first, so downstream rules exist before the
        # initiator can act.
        last = self.sessions.pop(pair, None)
        kms_path = last.kms_path if last is not None else self._kms_path(src_node, dst_node)
        assoc = self._new_association_id()
        if len(kms_path) > 2:
            hops = (None, *kms_path, None)
            for i in range(len(kms_path), 0, -1):
                self.send(hops[i], RelayPathInstall(assoc, hops[i - 1], hops[i + 1], *pair))
            self.install_count += len(kms_path)
        self.sessions[pair] = SessionState(assoc, *pair, kms_path, now)
        self._respond(reply_to, msg, kms_path[0])

    def _kms_path(self, src_node: str, dst_node: str) -> tuple[str, ...]:
        """The KMS path between two distinct nodes, read off the rank graph.
        (a) Nodes that share a link: the two KMSs of the lowest-weight one,
        ties broken by link rank, which orders links as their ids do. Else
        (c) the KMSs of the shortest relay path: the hops of src_node's path
        tree, each contributing the KMS it leaves from and the KMS it
        arrives at."""
        graph = self._graph
        if graph is None:
            topology = self.topology
            graph = self._graph = RankGraph(
                topology, link_weights(topology, topology.weight_policy)
            )
        src, dst = graph.rank[src_node], graph.rank[dst_node]
        shared = [hop for hop in graph.hops[src] if hop[0] == dst]
        if shared:
            return min(shared, key=lambda hop: (hop[2], hop[1]))[3:]
        tree = self._trees.get(src)
        if tree is None:
            tree = self._trees[src] = path_tree(graph, src)
        return tuple(kms for hop in tree_path(tree, dst) for kms in hop[3:])

    # ── state dump ──

    def dump_state(self) -> dict:
        """Session statuses as of the clock now, the end of the run."""
        now = self.services.now_ms
        lapsed = self.topology.config.lapsed
        return {
            "weight_policy": self.topology.weight_policy,
            "session_lifetime_ms": self.topology.config.session_lifetime_ms,
            "discovery_count": self.discovery_count,
            "install_count": self.install_count,
            "sessions_opened": self.sessions_opened,
            "sessions": [s.to_dict(lapsed(s.created_ms, now)) for s in self.sessions.values()],
            "errors": list(self.errors),
        }
