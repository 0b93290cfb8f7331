"""Local KMS bound to one QKD link endpoint.

Implements direct delivery plus the hop-by-hop relay procedure: reserve the
end-to-end key K1 on the first link, then at each hop encrypt it with a
fresh key from the next link (K3 = K1 xor K2), hand it across, and propagate
completion statuses backward. A KMS only ever touches its own pool; the
end-to-end key enters a node in plaintext only on the intra-node channel,
inside the physically-secure trusted relay.

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


def _reply(request: RelayRequest, status: str) -> RelayReply:
    """The one reply a relay request owes its sender."""
    if isinstance(request, RelayProcessRequest):
        return RelayProcessResponse(status=status, id_relay_key=request.id_relay_key)
    if isinstance(request, KeyRelay):
        return KeyRelayResponse(status=status, id_relay_key=request.id_relay_key)
    return AckRequest(
        id_relay_key=request.id_relay_key,
        ack_status=status,
        app_src=request.app_src,
        app_dst=request.app_dst,
    )


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
        kms_id: str,
        node_id: str,
        peer_kms_id: str,
        pool: KeyPool,
        config: SimConfig,
    ):
        super().__init__(kms_id, node_id=node_id)
        self.peer_kms_id = peer_kms_id
        self.pool = pool
        self.timeout_ms = config.request_timeout_ms
        self.delivered_ttl_ms = config.delivered_key_ttl_ms
        # A rule is the install message itself: this KMS's role in one
        # association. prev_hop none means this KMS initiates it; next_hop
        # none means it terminates it. A next_hop that is not the
        # across-link peer is always a KMS on the same node.
        self.rules: dict[str, RelayPathInstall] = {}
        # (app_src, app_dst, prev_hop) -> newest matching rule.
        self._rule_index: dict[tuple[str, str, str | None], RelayPathInstall] = {}
        self.delivered: dict[tuple[str, str, str], DeliveredKey] = {}
        self.pending: dict[str, PendingRelay] = {}
        self.orphan_count = 0

    # ── rule installation ──

    def install_rule(self, msg: RelayPathInstall) -> None:
        self.rules[msg.id_association] = msg
        self._rule_index[(msg.app_src, msg.app_dst, msg.prev_hop)] = msg

    def _rule_for_pair(
        self, app_src: str, app_dst: str, prev_hop: str | None
    ) -> RelayPathInstall | None:
        """Newest rule matching the ordered app pair and chain position
        (prev_hop none selects initiator rules). Association ids are unique
        and a path visits each KMS once, so the last rule installed for a
        key is the newest."""
        return self._rule_index.get((app_src, app_dst, prev_hop))

    # ── dispatch ──

    def on_message(self, env: Envelope) -> None:
        msg = env.msg
        if isinstance(msg, RelayPathInstall):
            self.install_rule(msg)
        elif isinstance(msg, GetKey):
            self._handle_get_key(msg, env.sender)
        elif isinstance(msg, GetKeyWithId):
            self._handle_get_key_with_id(msg, env.sender)
        elif isinstance(msg, RelayProcessRequest):
            self._handle_relay_process_request(msg, env.sender)
        elif isinstance(msg, ExtKeyRequest):
            self._handle_ext_key_request(msg, env.sender)
        elif isinstance(msg, KeyRelay):
            self._handle_key_relay(msg, env.sender)
        elif isinstance(msg, (KeyRelayResponse, AckRequest, RelayProcessResponse)):
            self._handle_completion(msg)
        else:
            log.warning("%s ignoring %s", self.entity_id, message_type(msg))

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
        if self._rule_for_pair(msg.app_src, msg.app_dst, prev_hop=None) is None:
            self._deliver(requester, msg, key_id, self.pool.consume(key_id), STATUS_OK)
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
        # Target-side pickup from the delivered-keys store first.
        entry = self.delivered.get((msg.key_id, msg.app_dst, msg.app_src))
        if entry is None:
            # Direct case: the id names a key in this KMS's own pool.
            material = self.pool.take(msg.key_id)
            status = STATUS_NO_KEY if material is None else STATUS_OK
        elif self._store_entry_expired(entry):
            # State existed but lapsed with the session.
            material, status = None, STATUS_NO_RULE
        else:
            material, status = entry.material, STATUS_OK
        self._deliver(requester, msg, msg.key_id, material or b"", status)

    def _store_entry_expired(self, entry: DeliveredKey) -> bool:
        if self.delivered_ttl_ms is None:
            return False
        return self.services.now_ms - entry.stored_ms > self.delivered_ttl_ms

    # ── relay chain, forward direction ──

    def _handle_relay_process_request(self, msg: RelayProcessRequest, peer: str) -> None:
        rule = self._rule_for_pair(msg.app_src, msg.app_dst, prev_hop=peer)
        if rule is None:
            self.send(peer, _reply(msg, STATUS_NO_RULE))
            return
        k1 = self.pool.take(msg.id_relay_key)
        if k1 is None:
            self.send(peer, _reply(msg, STATUS_NO_KEY))
            return
        self._pass_on(msg, rule, k1, peer)

    def _handle_ext_key_request(self, msg: ExtKeyRequest, sender: str) -> None:
        if msg.id_association not in self.rules:
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
        rule = self.rules.get(msg.id_association)
        if rule is None:
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
            self.delivered[(msg.id_relay_key, rule.app_src, rule.app_dst)] = DeliveredKey(
                material=k1, stored_ms=self.services.now_ms
            )
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

    def _handle_completion(self, msg: RelayReply) -> None:
        pending = self.pending.get(msg.id_relay_key)
        if pending is None or not isinstance(msg, pending.awaits):
            self.orphan_count += 1
            log.warning(
                "%s dropping orphan %s for key %s",
                self.entity_id, message_type(msg), msg.id_relay_key,
            )
            return
        status = msg.ack_status if isinstance(msg, AckRequest) else msg.status
        self._resolve(msg.id_relay_key, status)

    def _on_timeout(self, id_relay_key: str) -> None:
        log.warning("%s timed out waiting on key %s", self.entity_id, id_relay_key)
        self._resolve(id_relay_key, STATUS_TIMEOUT)

    def _resolve(self, id_relay_key: str, status: str) -> None:
        """End the wait on id_relay_key: cancel its timer, send the owed reply."""
        pending = self.pending.pop(id_relay_key)
        self.services.cancel_timer(pending.timer)
        if isinstance(pending.request, GetKey):
            # The initiator waits under K1's id. K1 is consumed even on failure.
            k1 = self.pool.consume(id_relay_key)
            material = k1 if status == STATUS_OK else b""
            self._deliver(pending.reply_to, pending.request, id_relay_key, material, status)
        else:
            self.send(pending.reply_to, _reply(pending.request, status))
