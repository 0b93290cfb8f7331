"""Per-node virtual KMS: the single entity applications talk to.

Sends every app request to the controller for discovery, forwards it to
the KMS the answer names, and relays the KeyDelivery back; each answer
serves its one request, and the vKMS never stores key material.
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
from .topology import Topology

log = logging.getLogger(__name__)


@dataclass(slots=True)
class PendingApp:
    app_id: str
    request: GetKey | GetKeyWithId
    timer: object


def _failure(request: GetKey | GetKeyWithId, status: str) -> KeyDelivery:
    key_id = request.key_id if isinstance(request, GetKeyWithId) else ""
    return KeyDelivery(key_id, b"", status, request.id_request)


class VkmsEntity(Entity):
    """Serial actor fronting one node's KMS seats."""

    def __init__(self, node_id: str, topology: Topology):
        super().__init__(topology.vkms_ids[node_id], node_id=node_id)
        self.topology = topology
        self.timeout_ms = topology.config.request_timeout_ms
        # id_request -> the open request it names.
        self.awaiting: dict[str, PendingApp] = {}

    def on_message(self, env: Envelope) -> None:
        """Hand msg and its sender to the handler of msg's type (_HANDLERS)."""
        _HANDLERS[type(env.msg)](self, env.msg, env.sender)

    def _handle_reply(self, msg: KmsDiscoveryResponse | KeyDelivery, sender: str) -> None:
        pending = self.awaiting.get(msg.id_request)
        if pending is None:
            log.warning("%s dropping orphan %s for %s",
                        self.entity_id, message_type(msg), msg.id_request)
        elif type(msg) is KeyDelivery:
            # Downstream status passes through unchanged.
            self._end(pending, msg)
        elif msg.id_kms is None:
            self._end(pending, _failure(pending.request, STATUS_UNKNOWN_APP))
        else:
            self.send(msg.id_kms, pending.request)

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
        kind = message_type(msg)
        self.send(QUSEC_ID, KmsDiscoveryRequest(msg.app_src, msg.app_dst, kind, msg.id_request))

    def _end(self, pending: PendingApp, reply: KeyDelivery) -> None:
        """Close pending's wait, cancel its timer and send reply to its app."""
        del self.awaiting[pending.request.id_request]
        self.services.cancel_timer(pending.timer)
        self.send(pending.app_id, reply)

    def _on_timeout(self, id_request: str) -> None:
        log.warning("%s timed out waiting on request %s", self.entity_id, id_request)
        pending = self.awaiting[id_request]
        self._end(pending, _failure(pending.request, STATUS_TIMEOUT))


# Message type -> the VkmsEntity method that handles it, called with the
# message and its sender.
_HANDLERS = {
    GetKey: VkmsEntity._handle_app_request,
    GetKeyWithId: VkmsEntity._handle_app_request,
    KmsDiscoveryResponse: VkmsEntity._handle_reply,
    KeyDelivery: VkmsEntity._handle_reply,
}
