"""Per-node virtual KMS: the single entity applications talk to.

Resolves the serving KMS through the controller (with an optional TTL cache
of discovery results), forwards the original request, and relays the
KeyDelivery back. Key material is never stored here beyond the in-flight
forwarding of a single delivery. The vKMS times a request's discovery and
its delivery, each from its start; each KMS hop times its onward request.
"""

from __future__ import annotations

import logging
from collections import deque
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
    timer: object = None


class VkmsEntity(Entity):
    """Serial actor fronting one node's KMS seats."""

    def __init__(self, node_id: str, topology: Topology):
        super().__init__(vkms_name(node_id), node_id=node_id)
        self.topology = topology
        self.cache_ttl_ms = topology.config.cache_ttl_ms
        self.timeout_ms = topology.config.request_timeout_ms
        # (app_src, app_dst) -> (kms_id, expires_ms)
        self.cache: dict[tuple[str, str], tuple[str, int]] = {}
        # What a reply names -> its open requests, oldest first: the
        # (app_src, app_dst) pair for a discovery, the KMS id for a delivery.
        self.awaiting: dict[tuple[str, str] | str, deque[PendingApp]] = {}

    # ── cache ──

    def _cache_lookup(self, pair: tuple[str, str]) -> str | None:
        if self.cache_ttl_ms <= 0:
            return None
        entry = self.cache.get(pair)
        if entry is None:
            return None
        kms_id, expires = entry
        if self.services.now_ms >= expires:
            del self.cache[pair]
            return None
        return kms_id

    def _cache_insert(self, pair: tuple[str, str], kms_id: str) -> None:
        if self.cache_ttl_ms <= 0:
            return
        # A discovery answer for a local requester always names a local KMS.
        if self.topology.kms_node(kms_id) != self.node_id:
            raise AssertionError(
                f"{self.entity_id}: refusing to cache non-local KMS {kms_id}"
            )
        self.cache[pair] = (kms_id, self.services.now_ms + self.cache_ttl_ms)

    # ── dispatch ──

    def on_message(self, env: Envelope) -> None:
        msg = env.msg
        if isinstance(msg, (GetKey, GetKeyWithId)):
            self._handle_app_request(msg, env.sender)
        elif isinstance(msg, KmsDiscoveryResponse):
            self._handle_discovery_response(msg)
        elif isinstance(msg, KeyDelivery):
            self._handle_key_delivery(msg, env.sender)
        else:
            log.warning("%s ignoring %s", self.entity_id, message_type(msg))

    def _fail(self, app_id: str, request: GetKey | GetKeyWithId, status: str) -> None:
        key_id = request.key_id if isinstance(request, GetKeyWithId) else ""
        self.send(app_id, KeyDelivery(key_id=key_id, material=b"", status=status))

    def _handle_app_request(self, msg: GetKey | GetKeyWithId, app_id: str) -> None:
        if self.topology.apps.get(msg.app_src) != self.node_id:
            # Not our app: refuse locally, never bother the controller.
            self._fail(app_id, msg, STATUS_UNKNOWN_APP)
            return
        pending = PendingApp(app_id=app_id, request=msg)
        pair = (msg.app_src, msg.app_dst)
        cached = self._cache_lookup(pair)
        if cached is not None:
            self._await(cached, pending, cached, msg)
        else:
            self._await(pair, pending, QUSEC_ID, KmsDiscoveryRequest(msg.app_src, msg.app_dst))

    def _await(self, key, pending: PendingApp, to: str, msg) -> None:
        """Queue pending under the key its reply will name, arm its timer,
        then send msg to `to`: each queue's timers fire in its order. The
        timer's callback is a partial, not a closure, and the kernel drops
        it when the wait ends, so a resolved request is freed at once."""
        self.awaiting.setdefault(key, deque()).append(pending)
        pending.timer = self.services.schedule_timer(
            self.timeout_ms, partial(self._on_timeout, pending, key)
        )
        self.send(to, msg)

    def _answered(self, key) -> PendingApp | None:
        """Pop the oldest request waiting on key, cancel its timer and
        delete the entry it empties; None if no request waits on it."""
        queue = self.awaiting.get(key)
        if queue is None:
            log.warning("%s dropping orphan reply for %s", self.entity_id, key)
            return None
        pending = queue.popleft()
        self.services.cancel_timer(pending.timer)
        if not queue:
            del self.awaiting[key]
        return pending

    def _handle_discovery_response(self, msg: KmsDiscoveryResponse) -> None:
        pair = (msg.app_src, msg.app_dst)
        pending = self._answered(pair)
        if pending is None:
            return
        if msg.id_kms is None:
            self._fail(pending.app_id, pending.request, STATUS_UNKNOWN_APP)
            return
        self._cache_insert(pair, msg.id_kms)
        self._await(msg.id_kms, pending, msg.id_kms, pending.request)

    def _handle_key_delivery(self, msg: KeyDelivery, kms_id: str) -> None:
        pending = self._answered(kms_id)
        if pending is not None:
            # Downstream status passes through unchanged.
            self.send(pending.app_id, msg)

    def _on_timeout(self, pending: PendingApp, key) -> None:
        if self._answered(key) is not pending:
            raise RuntimeError(f"{self.entity_id}: a younger request timed out first")
        self._fail(pending.app_id, pending.request, STATUS_TIMEOUT)
