"""Wire protocol: message set, envelope, canonical codec, OTP, transport.

Field sets are wire-exact; the codec rejects unknown envelope or body keys
and unknown message types. Octet-valued fields travel as lowercase hex.

A trace line is canonical JSON: sorted keys, compact separators, ASCII
only. Each message type has one line encoder, compiled once at import from
a per-type field plan (``dataclasses.fields``) into straight-line code, as
``dataclasses`` and ``namedtuple`` build their methods. It unpacks the
envelope, reads each body field by attribute and renders it inline into a
``%`` template in which the envelope keys and the type's body keys, each in
sorted order, and its type tag are fixed text. Per field: the JSON string
escaper that ``ensure_ascii`` uses, ``null`` for an absent hop or KMS id,
hex between fixed quotes for octets, the canonical encoder for ``ext`` (an
empty one is the literal ``{}``), and an integer ``seq``. Fixing the key
order at import is sound because a dataclass's field set is fixed when its
class is created, the message classes are frozen, and so every record of a
type has the same keys: sorting them per record would give the same order
each time.

Messages are frozen dataclasses; the envelope around each one is an
immutable named tuple, so no record can be rewritten once sent. The
transport keeps global FIFO order (which implies per-channel FIFO), assigns
per-sender sequence numbers and computes each (sender, receiver) pair's
channel once. It keeps no log of what it delivers: the caller that pops an
envelope encodes it into the conformance trace (see harness.SimKernel).
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import NamedTuple

log = logging.getLogger(__name__)

# ── statuses and channel classes ──

STATUS_OK = "ok"
STATUS_NO_KEY = "failed_no_key"
STATUS_NO_RULE = "failed_no_rule"
STATUS_DECRYPT = "failed_decrypt"
STATUS_TIMEOUT = "failed_timeout"
STATUS_UNKNOWN_APP = "failed_unknown_app"

STATUSES = (
    STATUS_OK,
    STATUS_NO_KEY,
    STATUS_NO_RULE,
    STATUS_DECRYPT,
    STATUS_TIMEOUT,
    STATUS_UNKNOWN_APP,
)

CHANNEL_INTRA = "intra_node"
CHANNEL_INTER = "inter_node"
CHANNEL_CONTROL = "control"

# Fields that carry raw key material (hex on the wire). Plaintext ones may
# only ever appear on intra_node records; KeyRelay's payload is OTP-encrypted.
OCTET_FIELDS = ("material", "value_relay_key", "encrypted_relay_key")
PLAINTEXT_OCTET_FIELDS = ("material", "value_relay_key")


class ProtocolError(Exception):
    pass


class CodecError(ProtocolError):
    pass


class LengthMismatchError(ProtocolError):
    pass


class UnknownEntityError(ProtocolError):
    pass


def otp_xor(a: bytes, b: bytes) -> bytes:
    """Bytewise one-time-pad combine; involution: otp_xor(otp_xor(a,b),b)==a.

    Done as one big-endian integer XOR; to_bytes(len(a)) restores any
    leading zero bytes.
    """
    if len(a) != len(b):
        raise LengthMismatchError(f"operand lengths differ: {len(a)} != {len(b)}")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


# ── message set ──


@dataclass(frozen=True)
class GetKey:
    app_src: str
    app_dst: str
    id_request: str


@dataclass(frozen=True)
class GetKeyWithId:
    app_src: str
    app_dst: str
    key_id: str
    id_request: str


@dataclass(frozen=True)
class KmsDiscoveryRequest:
    app_src: str
    app_dst: str
    kind: str  # the request's type tag: get_key or get_key_with_id
    id_request: str


@dataclass(frozen=True)
class KmsDiscoveryResponse:
    app_src: str
    app_dst: str
    id_kms: str | None  # none signals a failed discovery
    id_request: str


@dataclass(frozen=True)
class RelayPathInstall:
    id_association: str
    prev_hop: str | None
    next_hop: str | None
    app_src: str
    app_dst: str


@dataclass(frozen=True)
class RelayProcessRequest:
    app_src: str
    app_dst: str
    id_relay_key: str


@dataclass(frozen=True)
class ExtKeyRequest:
    id_relay_key: str
    value_relay_key: bytes
    app_src: str
    app_dst: str
    id_association: str
    ext: dict = field(default_factory=dict)


@dataclass(frozen=True)
class KeyRelay:
    encrypted_relay_key: bytes
    id_key_encryption: str
    id_relay_key: str
    app_src: str
    app_dst: str
    id_association: str


@dataclass(frozen=True)
class KeyRelayResponse:
    status: str
    id_relay_key: str


@dataclass(frozen=True)
class AckRequest:
    id_relay_key: str
    ack_status: str
    app_src: str
    app_dst: str
    ext: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RelayProcessResponse:
    status: str
    id_relay_key: str


@dataclass(frozen=True)
class KeyDelivery:
    key_id: str
    material: bytes
    status: str
    id_request: str


Message = (
    GetKey
    | GetKeyWithId
    | KmsDiscoveryRequest
    | KmsDiscoveryResponse
    | RelayPathInstall
    | RelayProcessRequest
    | ExtKeyRequest
    | KeyRelay
    | KeyRelayResponse
    | AckRequest
    | RelayProcessResponse
    | KeyDelivery
)

MESSAGE_TYPES: dict[str, type] = {
    "get_key": GetKey,
    "get_key_with_id": GetKeyWithId,
    "kms_discovery_request": KmsDiscoveryRequest,
    "kms_discovery_response": KmsDiscoveryResponse,
    "relay_path_install": RelayPathInstall,
    "relay_process_request": RelayProcessRequest,
    "ext_key_request": ExtKeyRequest,
    "key_relay": KeyRelay,
    "key_relay_response": KeyRelayResponse,
    "ack_request": AckRequest,
    "relay_process_response": RelayProcessResponse,
    "key_delivery": KeyDelivery,
}

TYPE_TAGS = {cls: tag for tag, cls in MESSAGE_TYPES.items()}

# The kinds of app request a discovery can be for.
REQUEST_KINDS = ("get_key", "get_key_with_id")

_STATUS_FIELDS = ("status", "ack_status")
_NONEABLE_FIELDS = ("prev_hop", "next_hop", "id_kms")


def message_type(msg: Message) -> str:
    return TYPE_TAGS[type(msg)]


# Per message type, (field name, carries octets) in declaration order.
_FIELD_PLANS: dict[type, tuple[tuple[str, bool], ...]] = {
    cls: tuple((f.name, f.name in OCTET_FIELDS) for f in fields(cls))
    for cls in MESSAGE_TYPES.values()
}
# Per message type, its octet field names in OCTET_FIELDS order.
_OCTET_FIELDS_OF: dict[type, tuple[str, ...]] = {
    cls: tuple(name for name in OCTET_FIELDS if name in cls.__dataclass_fields__)
    for cls in MESSAGE_TYPES.values()
}
# Message types that declare a key-material field.
OCTET_TYPES = frozenset(cls for cls, names in _OCTET_FIELDS_OF.items() if names)


def octet_fields(msg: Message) -> tuple[str, ...]:
    """Names of the key-material fields msg's type declares, present or
    empty, in OCTET_FIELDS order."""
    return _OCTET_FIELDS_OF[type(msg)]


# ── envelope and codec ──


class Envelope(NamedTuple):
    """Transport record: {seq, from, to, channel, type, body} on the wire.

    An immutable tuple: cheap to build once per message, and no entity can
    rewrite a record after it is logged. A copy with another message is
    env._replace(msg=...).
    """

    seq: int
    sender: str
    receiver: str
    channel: str
    msg: Message


def message_to_body(msg: Message) -> dict:
    body = {}
    for name, is_octet in _FIELD_PLANS[type(msg)]:
        value = getattr(msg, name)
        body[name] = value.hex() if is_octet else value
    return body


def message_from_body(type_tag: str, body: dict) -> Message:
    cls = MESSAGE_TYPES.get(type_tag)
    if cls is None:
        raise CodecError(f"unknown message type {type_tag!r}")
    if not isinstance(body, dict):
        raise CodecError("body must be an object")
    declared = {f.name for f in fields(cls)}
    for key in body:
        if key not in declared:
            raise CodecError(f"{type_tag}: unknown field {key!r}")
    kwargs = {}
    for f in fields(cls):
        if f.name not in body:
            raise CodecError(f"{type_tag}: missing field {f.name!r}")
        value = body[f.name]
        if f.name in OCTET_FIELDS:
            if not isinstance(value, str):
                raise CodecError(f"{type_tag}: field {f.name!r} must be hex")
            if value != value.lower():
                raise CodecError(f"{type_tag}: field {f.name!r} must be lowercase hex")
            try:
                value = bytes.fromhex(value)
            except ValueError:
                raise CodecError(f"{type_tag}: field {f.name!r} must be hex") from None
        elif f.name in _STATUS_FIELDS:
            if value not in STATUSES:
                raise CodecError(f"{type_tag}: bad status {value!r}")
        elif f.name == "ext":
            if not isinstance(value, dict):
                raise CodecError(f"{type_tag}: field 'ext' must be an object")
        elif f.name == "kind":
            if value not in REQUEST_KINDS:
                raise CodecError(f"{type_tag}: bad kind {value!r}")
        elif f.name in _NONEABLE_FIELDS:
            if value is not None and not isinstance(value, str):
                raise CodecError(f"{type_tag}: field {f.name!r} must be string or null")
        elif not isinstance(value, str):
            raise CodecError(f"{type_tag}: field {f.name!r} must be a string")
        kwargs[f.name] = value
    return cls(**kwargs)


_ENVELOPE_KEYS = {"seq", "from", "to", "channel", "type", "body"}


def envelope_from_obj(obj: dict) -> Envelope:
    if not isinstance(obj, dict):
        raise CodecError("envelope must be an object")
    unknown = set(obj) - _ENVELOPE_KEYS
    if unknown:
        raise CodecError(f"envelope: unknown key {sorted(unknown)[0]!r}")
    missing = _ENVELOPE_KEYS - set(obj)
    if missing:
        raise CodecError(f"envelope: missing key {sorted(missing)[0]!r}")
    seq = obj["seq"]
    if isinstance(seq, bool) or not isinstance(seq, int):
        raise CodecError("envelope: 'seq' must be an integer")
    if obj["channel"] not in (CHANNEL_INTRA, CHANNEL_INTER, CHANNEL_CONTROL):
        raise CodecError(f"envelope: bad channel {obj['channel']!r}")
    for key in ("from", "to", "type"):
        if not isinstance(obj[key], str):
            raise CodecError(f"envelope: {key!r} must be a string")
    return Envelope(
        seq=seq,
        sender=obj["from"],
        receiver=obj["to"],
        channel=obj["channel"],
        msg=message_from_body(obj["type"], obj["body"]),
    )


# One encoder for every canonical form. json.dumps with non-default options
# builds a new encoder per call, which costs about as much as a small record.
# ensure_ascii stays on, so every canonical line is ASCII.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# The string escaper canonical_json applies to every str (ensure_ascii=True).
_quote = json.encoder.encode_basestring_ascii


def _field_source(name: str, is_octet: bool) -> str:
    """Source of the expression that renders msg.<name> as JSON text; octet
    fields are quoted by their template."""
    value = f"msg.{name}"
    if is_octet:
        return f"{value}.hex()"
    if name in _NONEABLE_FIELDS:
        return f'"null" if {value} is None else _quote({value})'
    if name == "ext":
        # An empty dict is the only ext anything sends; canonical_json({}) is "{}".
        return f'"{{}}" if type({value}) is dict and not {value} else canonical_json({value})'
    return f"_quote({value})"


def _line_encoder(cls: type):
    """encode_str for one message type, compiled from straight-line source:
    a % template whose fixed text is the sorted envelope keys, the type's
    sorted body keys and its type tag, filled by one expression per field."""
    plan = sorted(_FIELD_PLANS[cls])
    body = ",".join(
        _quote(name) + (':"%s"' if is_octet else ":%s") for name, is_octet in plan
    )
    template = (
        '{"body":{' + body + '},"channel":%s,"from":%s,"seq":%d,"to":%s,"type":'
        + _quote(TYPE_TAGS[cls]) + "}"
    )
    name = f"encode_{TYPE_TAGS[cls]}"
    values = "".join(f"        {_field_source(f, is_octet)},\n" for f, is_octet in plan)
    source = (
        f"def {name}(env):\n"
        "    seq, sender, receiver, channel, msg = env\n"
        "    return template % (\n"
        f"{values}"
        "        _quote(channel), _quote(sender), seq, _quote(receiver),\n"
        "    )\n"
    )
    namespace = {"template": template, "_quote": _quote, "canonical_json": canonical_json}
    exec(source, namespace)
    return namespace[name]


_LINE_ENCODERS = {cls: _line_encoder(cls) for cls in MESSAGE_TYPES.values()}


def encode_str(env: Envelope) -> str:
    """Canonical JSON text: sorted keys, compact separators, lowercase hex."""
    return _LINE_ENCODERS[type(env.msg)](env)


def decode(data: bytes | str) -> Envelope:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"not UTF-8: {exc}") from None
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise CodecError(f"invalid JSON: {exc}") from None
    return envelope_from_obj(obj)


# ── fault injection ──


@dataclass
class FaultRule:
    """Applies to the nth matching send (1-based), once: the transport
    removes the rule when it fires."""

    op: str  # "drop" | "corrupt"
    nth: int
    of_type: str | None = None
    seen: int = 0

    def matches(self, msg: Message) -> bool:
        if self.of_type is not None and message_type(msg) != self.of_type:
            return False
        self.seen += 1
        return self.seen == self.nth


def corrupt_message(msg: Message) -> Message:
    """Flip every non-empty octet field; leaves everything else intact."""
    changes = {}
    for name in octet_fields(msg):
        value = getattr(msg, name)
        if value:
            changes[name] = bytes(b ^ 0xA5 for b in value)
    return replace(msg, **changes) if changes else msg


# ── entities and transport ──


class Entity:
    """Serial actor addressed by entity id; processes one envelope at a time.

    ``node_id`` is the node the entity runs inside. Every app, vKMS and KMS
    has one; the controller, which sits outside every node, has None."""

    def __init__(self, entity_id: str, node_id: str | None = None):
        self.entity_id = entity_id
        self.node_id = node_id
        self.services = None

    def bind(self, services) -> None:
        """Attach the kernel. From then on send(receiver, msg) is
        services.send with this entity as the sender, reached in one call."""
        self.services = services
        self.send = partial(services.send, self.entity_id)

    def on_message(self, env: Envelope) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


def channel_for(sender: Entity, receiver: Entity) -> str:
    """control when either end is outside every node (the controller),
    intra_node when both ends share a node, else inter_node."""
    if sender.node_id is None or receiver.node_id is None:
        return CHANNEL_CONTROL
    if sender.node_id == receiver.node_id:
        return CHANNEL_INTRA
    return CHANNEL_INTER


class Transport:
    """Instrumented in-memory message fabric.

    send() wraps each message in one immutable Envelope and appends it to
    ``queue``, a deque in global send order, which the kernel's pump
    drains in place. Nothing here keeps a delivered envelope, so it lives
    only as long as its receiver and the caller that traces it hold it.
    Per-sender seq numbers are assigned here, and armed fault rules are
    applied at send time; a rule that fires is removed, as it can never
    match again. A pair's channel is kept in a (sender id, receiver id)
    map, filled only after both ids resolve to registered entities, so an
    unknown id raises on every send. `dropped` and `corrupted` keep the
    envelopes a fault actually changed; a corrupt rule that fires on a
    message with no non-empty octet field leaves it as it was and is not
    kept.
    """

    def __init__(self):
        self.entities: dict[str, Entity] = {}
        self.queue: deque[Envelope] = deque()
        self.dropped: list[Envelope] = []
        self.corrupted: list[Envelope] = []
        self.faults: list[FaultRule] = []
        self._seq: dict[str, int] = {}
        self._channels: dict[tuple[str, str], str] = {}

    def register(self, entity: Entity) -> None:
        if entity.entity_id in self.entities:
            raise UnknownEntityError(f"entity {entity.entity_id!r} already registered")
        self.entities[entity.entity_id] = entity

    def add_fault(self, rule: FaultRule) -> None:
        self.faults.append(rule)

    def _channel(self, sender_id: str, receiver_id: str) -> str:
        """channel_for the pair; remembered only once both entities exist."""
        sender = self.entities.get(sender_id)
        receiver = self.entities.get(receiver_id)
        if sender is None:
            raise UnknownEntityError(f"unknown sender {sender_id!r}")
        if receiver is None:
            raise UnknownEntityError(f"unknown receiver {receiver_id!r}")
        channel = self._channels[sender_id, receiver_id] = channel_for(sender, receiver)
        return channel

    def send(self, sender_id: str, receiver_id: str, msg: Message) -> None:
        channel = self._channels.get((sender_id, receiver_id))
        if channel is None:
            channel = self._channel(sender_id, receiver_id)
        seq = self._seq.get(sender_id, 0) + 1
        self._seq[sender_id] = seq
        # tuple.__new__ builds the named tuple without its Python-level
        # __new__, which would only forward the five fields.
        env = tuple.__new__(Envelope, (seq, sender_id, receiver_id, channel, msg))
        if self.faults:
            for i, rule in enumerate(self.faults):
                if rule.matches(msg):
                    del self.faults[i]
                    if rule.op == "drop":
                        self.dropped.append(env)
                        log.warning("fault: dropped %s %s->%s",
                                    message_type(msg), sender_id, receiver_id)
                        return
                    corrupted = corrupt_message(msg)
                    if corrupted != msg:
                        env = env._replace(msg=corrupted)
                        self.corrupted.append(env)
                        log.warning("fault: corrupted %s %s->%s",
                                    message_type(msg), sender_id, receiver_id)
                    break
        self.queue.append(env)

    def pending(self) -> int:
        return len(self.queue)

