"""Local KMS bound to one QKD link endpoint.

Implements direct delivery plus the hop-by-hop relay procedure: reserve the
end-to-end key K1 on the first link, then at each hop encrypt it with a
fresh key from the next link (K3 = K1 xor K2), hand it across, and propagate
completion statuses backward. A KMS touches only its own pool, except that a
direct serve also spends its key in the link peer's pool, as the key sync
between a link's two KMSs would. The end-to-end key enters a node in
plaintext only on the intra-node channel, inside the physically-secure
trusted relay. Every served key waits in its target-side KMS's delivered
store, and the pickup by the app it was served for takes it once, until it
lapses: ``session_lifetime_ms`` after it was stored (``SimConfig.lapsed``).
A KMS keeps one rule per app pair and previous hop, QuSeC's newest install for
it, and refuses a relay message that names another association.

Each request owes its sender exactly one reply, and that reply is a function
of the request (``_reply``): Relay Process Request is answered by Relay
Process Response, Ext Key Request by Ack, Key Relay by Key Relay Response,
and Get Key by Key Delivery, the request/response pairing of ETSI GS QKD 014.
A KMS answers at once when it fails or terminates the chain. Otherwise it
forwards an onward request and keeps one ``PendingRelay`` until the onward
request's own reply (``_AWAITS``) or a timeout arrives; the owed reply then
carries that status unchanged.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial

from .linksim import KeyPool
from .protocol import (
    STATUS_DECRYPT,
    STATUS_NO_KEY,
    STATUS_NO_RULE,
    STATUS_OK,
    STATUS_TIMEOUT,
    AckRequest,
    Entity,
    Envelope,
    ExtKeyRequest,
    GetKey,
    GetKeyWithId,
    KeyDelivery,
    KeyRelay,
    KeyRelayResponse,
    RelayPathInstall,
    RelayProcessRequest,
    RelayProcessResponse,
    message_type,
    otp_xor,
)
from .topology import SimConfig

log = logging.getLogger(__name__)


@dataclass(slots=True)
class DeliveredKey:
    material: bytes
    stored_ms: int


RelayRequest = RelayProcessRequest | ExtKeyRequest | KeyRelay
RelayReply = RelayProcessResponse | AckRequest | KeyRelayResponse

# The reply each onward request is answered by.
_AWAITS = {
    RelayProcessRequest: RelayProcessResponse,
    ExtKeyRequest: AckRequest,
    KeyRelay: KeyRelayResponse,
}


# Per relay request type, how to build the one reply it owes its sender.
_REPLIES = {
    RelayProcessRequest: lambda request, status: RelayProcessResponse(
        status, request.id_relay_key
    ),
    KeyRelay: lambda request, status: KeyRelayResponse(status, request.id_relay_key),
    ExtKeyRequest: lambda request, status: AckRequest(
        request.id_relay_key, status, request.app_src, request.app_dst
    ),
}


def _reply(request: RelayRequest, status: str) -> RelayReply:
    """The one reply a relay request owes its sender."""
    return _REPLIES[type(request)](request, status)


@dataclass(slots=True)
class PendingRelay:
    """A request whose reply waits on the reply to an onward request."""

    awaits: type
    reply_to: str
    request: GetKey | RelayRequest
    timer: object = None


class KmsEntity(Entity):
    """Serial actor for one (node, link) KMS seat."""

    def __init__(
        self,
        node_id: str,
        pool: KeyPool,
        delivered: dict[tuple[str, str, str], DeliveredKey],
        peer_pool: KeyPool,
        peer_delivered: dict[tuple[str, str, str], DeliveredKey],
        config: SimConfig,
    ):
        super().__init__(pool.owner_kms, node_id=node_id)
        self.peer_kms_id = peer_pool.owner_kms
        self.pool, self.peer_pool = pool, peer_pool
        self.config = config
        self.timeout_ms = config.request_timeout_ms
        # (app_src, app_dst, prev_hop) -> the newest install for it: this
        # KMS's role in the chains of one app pair. prev_hop none means this
        # KMS initiates them; next_hop none means it ends them. A next_hop that
        # is not the across-link peer is always a KMS on the same node.
        self.rules: dict[tuple[str, str, str | None], RelayPathInstall] = {}
        # (key_id, app_src, app_dst) -> a key waiting here for app_dst's pickup;
        # peer_delivered is the link peer's, which this KMS's direct serves fill.
        self.delivered, self.peer_delivered = delivered, peer_delivered
        self.pending: dict[str, PendingRelay] = {}
        self.orphan_count = 0

    # ── rule installation ──

    def install_rule(self, msg: RelayPathInstall, sender: str | None = None) -> None:
        """Keep msg as the rule for its app pair and previous hop. sender is
        unused; it is there because every handler in _HANDLERS takes one."""
        self.rules[(msg.app_src, msg.app_dst, msg.prev_hop)] = msg

    # ── dispatch ──

    def on_message(self, env: Envelope) -> None:
        """Hand msg and its sender to the handler of msg's type (_HANDLERS)."""
        msg = env.msg
        handler = _HANDLERS.get(type(msg))
        if handler is None:
            log.warning("%s ignoring %s", self.entity_id, message_type(msg))
        else:
            handler(self, msg, env.sender)

    # ── Get Key (direct or relay initiation) ──

    def _deliver(
        self, to: str, request: GetKey | GetKeyWithId, key_id: str, material: bytes, status: str
    ) -> None:
        """Answer request: the delivery carries its id_request."""
        self.send(to, KeyDelivery(key_id, material, status, request.id_request))

    def _handle_get_key(self, msg: GetKey, requester: str) -> None:
        # Direct serve and relay initiation both take the next key, FIFO.
        key_id = self.pool.reserve_next()
        if key_id is None:
            self._deliver(requester, msg, "", b"", STATUS_NO_KEY)
            return
        if (msg.app_src, msg.app_dst, None) not in self.rules:
            # Direct: spend the key at both ends and leave it at the peer.
            material = self.pool.consume(key_id)
            self.peer_pool.take(key_id)  # None if the peer reserved it to relay
            self._store(self.peer_delivered, (key_id, msg.app_src, msg.app_dst), material)
            self._deliver(requester, msg, key_id, material, STATUS_OK)
            return
        # Relay: the key is K1, kept reserved until the chain completes.
        self._forward(
            self.peer_kms_id,
            RelayProcessRequest(
                app_src=msg.app_src, app_dst=msg.app_dst, id_relay_key=key_id
            ),
            requester,
            msg,
        )

    def _handle_get_key_with_id(self, msg: GetKeyWithId, requester: str) -> None:
        # The target's pickup takes its key from the store, once.
        entry = self.delivered.pop((msg.key_id, msg.app_dst, msg.app_src), None)
        if entry is None:
            material, status = b"", STATUS_NO_KEY
        elif self.config.lapsed(entry.stored_ms, self.services.now_ms):
            # State existed but lapsed with the session.
            material, status = b"", STATUS_NO_RULE
        else:
            material, status = entry.material, STATUS_OK
        self._deliver(requester, msg, msg.key_id, material, status)

    def _store(self, store: dict, key: tuple[str, str, str], material: bytes) -> None:
        """Leave material in store under (key_id, app_src, app_dst), stamped now."""
        store[key] = DeliveredKey(material, self.services.now_ms)

    # ── relay chain, forward direction ──

    def _handle_relay_process_request(self, msg: RelayProcessRequest, peer: str) -> None:
        rule = self.rules.get((msg.app_src, msg.app_dst, peer))
        if rule is None:
            self.send(peer, _reply(msg, STATUS_NO_RULE))
            return
        k1 = self.pool.take(msg.id_relay_key)
        if k1 is None:
            self.send(peer, _reply(msg, STATUS_NO_KEY))
            return
        self._pass_on(msg, rule, k1, peer)

    def _handle_ext_key_request(self, msg: ExtKeyRequest, sender: str) -> None:
        # The sender of an Ext Key Request or a Key Relay is its rule's prev_hop.
        rule = self.rules.get((msg.app_src, msg.app_dst, sender))
        if rule is None or rule.id_association != msg.id_association:
            self.send(sender, _reply(msg, STATUS_NO_RULE))
            return
        k2_id = self.pool.reserve_next()
        if k2_id is None:
            self.send(sender, _reply(msg, STATUS_NO_KEY))
            return
        k3 = otp_xor(msg.value_relay_key, self.pool.consume(k2_id))
        self._forward(
            self.peer_kms_id,
            KeyRelay(
                encrypted_relay_key=k3,
                id_key_encryption=k2_id,
                id_relay_key=msg.id_relay_key,
                app_src=msg.app_src,
                app_dst=msg.app_dst,
                id_association=msg.id_association,
            ),
            sender,
            msg,
        )

    def _handle_key_relay(self, msg: KeyRelay, peer: str) -> None:
        rule = self.rules.get((msg.app_src, msg.app_dst, peer))
        if rule is None or rule.id_association != msg.id_association:
            self.send(peer, _reply(msg, STATUS_NO_RULE))
            return
        k2 = self.pool.take(msg.id_key_encryption)
        if k2 is None:
            self.send(peer, _reply(msg, STATUS_DECRYPT))
            return
        self._pass_on(msg, rule, otp_xor(msg.encrypted_relay_key, k2), peer)

    def _pass_on(
        self, msg: RelayProcessRequest | KeyRelay, rule: RelayPathInstall, k1: bytes, peer: str
    ) -> None:
        """K1 has crossed a link into this KMS: store it for pickup where the
        chain ends, else hand it to the next KMS on this node."""
        if rule.next_hop is None:
            self._store(self.delivered, (msg.id_relay_key, rule.app_src, rule.app_dst), k1)
            self.send(peer, _reply(msg, STATUS_OK))
            return
        self._forward(
            rule.next_hop,
            ExtKeyRequest(
                id_relay_key=msg.id_relay_key,
                value_relay_key=k1,
                app_src=msg.app_src,
                app_dst=msg.app_dst,
                id_association=rule.id_association,
            ),
            peer,
            msg,
        )

    # ── completions, backward direction ──

    def _forward(
        self, to: str, onward: RelayRequest, reply_to: str, request: GetKey | RelayRequest
    ) -> None:
        """Send onward, and hold request's reply to reply_to until onward is
        answered or times out. The timer's callback is a partial, not a
        closure; the kernel drops it when the wait ends."""
        self.send(to, onward)
        id_relay_key = onward.id_relay_key
        pending = PendingRelay(_AWAITS[type(onward)], reply_to, request)
        pending.timer = self.services.schedule_timer(
            self.timeout_ms, partial(self._on_timeout, id_relay_key)
        )
        self.pending[id_relay_key] = pending

    def _handle_completion(self, msg: RelayReply, sender: str) -> None:
        pending = self.pending.get(msg.id_relay_key)
        if pending is None or type(msg) is not pending.awaits:
            self.orphan_count += 1
            log.warning(
                "%s dropping orphan %s for key %s",
                self.entity_id, message_type(msg), msg.id_relay_key,
            )
            return
        status = msg.ack_status if type(msg) is AckRequest else msg.status
        self._resolve(msg.id_relay_key, status)

    def _on_timeout(self, id_relay_key: str) -> None:
        log.warning("%s timed out waiting on key %s", self.entity_id, id_relay_key)
        self._resolve(id_relay_key, STATUS_TIMEOUT)

    def _resolve(self, id_relay_key: str, status: str) -> None:
        """End the wait on id_relay_key: cancel its timer, send the owed reply."""
        pending = self.pending.pop(id_relay_key)
        self.services.cancel_timer(pending.timer)
        if type(pending.request) is GetKey:
            # The initiator waits under K1's id. K1 is consumed even on failure.
            k1 = self.pool.consume(id_relay_key)
            material = k1 if status == STATUS_OK else b""
            self._deliver(pending.reply_to, pending.request, id_relay_key, material, status)
        else:
            self.send(pending.reply_to, _reply(pending.request, status))


# Message type -> the KmsEntity method that handles it, called with the
# message and its sender.
_HANDLERS = {
    RelayPathInstall: KmsEntity.install_rule,
    GetKey: KmsEntity._handle_get_key,
    GetKeyWithId: KmsEntity._handle_get_key_with_id,
    RelayProcessRequest: KmsEntity._handle_relay_process_request,
    ExtKeyRequest: KmsEntity._handle_ext_key_request,
    KeyRelay: KmsEntity._handle_key_relay,
    KeyRelayResponse: KmsEntity._handle_completion,
    AckRequest: KmsEntity._handle_completion,
    RelayProcessResponse: KmsEntity._handle_completion,
}
