"""Per-node virtual KMS: the single entity applications talk to.

Resolves the serving KMS through the controller (with an optional TTL cache
of discovery results per app pair and request kind), forwards the original
request, and relays the KeyDelivery back; it never stores key material.
Every reply names its request by ``id_request``. An open request waits in
``awaiting`` under that id with one timer, armed at its arrival, for its
discovery and its delivery together; a reply for a request that is not
open is logged and dropped. Each KMS hop times its onward request.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial

from .protocol import (
    STATUS_TIMEOUT,
    STATUS_UNKNOWN_APP,
    Entity,
    Envelope,
    GetKey,
    GetKeyWithId,
    KeyDelivery,
    KmsDiscoveryRequest,
    KmsDiscoveryResponse,
    message_type,
)
from .qusec import QUSEC_ID
from .topology import Topology, vkms_name

log = logging.getLogger(__name__)


@dataclass(slots=True)
class PendingApp:
    app_id: str
    request: GetKey | GetKeyWithId
    timer: object


def _failure(request: GetKey | GetKeyWithId, status: str) -> KeyDelivery:
    key_id = request.key_id if isinstance(request, GetKeyWithId) else ""
    return KeyDelivery(key_id, b"", status, request.id_request)


def _cache_key(request: GetKey | GetKeyWithId) -> tuple[str, str, str]:
    # The kind keeps a pickup's terminating KMS from serving a plain get_key.
    return (request.app_src, request.app_dst, message_type(request))


class VkmsEntity(Entity):
    """Serial actor fronting one node's KMS seats."""

    def __init__(self, node_id: str, topology: Topology):
        super().__init__(vkms_name(node_id), node_id=node_id)
        self.topology = topology
        self.cache_ttl_ms = topology.config.cache_ttl_ms
        self.timeout_ms = topology.config.request_timeout_ms
        # (app_src, app_dst, kind) -> (kms_id, expires_ms)
        self.cache: dict[tuple[str, str, str], tuple[str, int]] = {}
        # id_request -> the open request it names.
        self.awaiting: dict[str, PendingApp] = {}

    # ── cache ──

    def _cache_lookup(self, request: GetKey | GetKeyWithId) -> str | None:
        if self.cache_ttl_ms <= 0:
            return None
        key = _cache_key(request)
        entry = self.cache.get(key)
        if entry is None:
            return None
        kms_id, expires = entry
        if self.services.now_ms >= expires:
            del self.cache[key]
            return None
        return kms_id

    def _cache_insert(self, request: GetKey | GetKeyWithId, kms_id: str) -> None:
        if self.cache_ttl_ms <= 0:
            return
        # A discovery answer for a local requester always names a local KMS.
        if self.topology.kms_node(kms_id) != self.node_id:
            raise AssertionError(
                f"{self.entity_id}: refusing to cache non-local KMS {kms_id}"
            )
        self.cache[_cache_key(request)] = (kms_id, self.services.now_ms + self.cache_ttl_ms)

    # ── dispatch ──

    def on_message(self, env: Envelope) -> None:
        msg = env.msg
        if isinstance(msg, (GetKey, GetKeyWithId)):
            self._handle_app_request(msg, env.sender)
        elif isinstance(msg, (KmsDiscoveryResponse, KeyDelivery)):
            pending = self.awaiting.get(msg.id_request)
            if pending is None:
                log.warning("%s dropping orphan %s for %s",
                            self.entity_id, message_type(msg), msg.id_request)
            elif isinstance(msg, KeyDelivery):
                # Downstream status passes through unchanged.
                self._end(pending, msg)
            elif msg.id_kms is None:
                self._end(pending, _failure(pending.request, STATUS_UNKNOWN_APP))
            else:
                self._cache_insert(pending.request, msg.id_kms)
                self.send(msg.id_kms, pending.request)
        else:
            log.warning("%s ignoring %s", self.entity_id, message_type(msg))

    def _handle_app_request(self, msg: GetKey | GetKeyWithId, app_id: str) -> None:
        if self.topology.apps.get(msg.app_src) != self.node_id:
            # Not our app: refuse locally, never bother the controller.
            self.send(app_id, _failure(msg, STATUS_UNKNOWN_APP))
            return
        # The timer's callback is a partial, not a closure, and the kernel
        # drops it when the wait ends, so a resolved request is freed at once.
        timer = self.services.schedule_timer(
            self.timeout_ms, partial(self._on_timeout, msg.id_request)
        )
        self.awaiting[msg.id_request] = PendingApp(app_id, msg, timer)
        cached = self._cache_lookup(msg)
        if cached is not None:
            self.send(cached, msg)
        else:
            kind = message_type(msg)
            self.send(QUSEC_ID, KmsDiscoveryRequest(msg.app_src, msg.app_dst, kind, msg.id_request))

    def _end(self, pending: PendingApp, reply: KeyDelivery) -> None:
        """Close pending's wait, cancel its timer and send reply to its app."""
        del self.awaiting[pending.request.id_request]
        self.services.cancel_timer(pending.timer)
        self.send(pending.app_id, reply)

    def _on_timeout(self, id_request: str) -> None:
        pending = self.awaiting[id_request]
        self._end(pending, _failure(pending.request, STATUS_TIMEOUT))
