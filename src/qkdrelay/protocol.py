"""Wire protocol: message set, envelope, canonical codec, OTP, transport.

Field sets are wire-exact; the codec rejects unknown envelope or body keys
and unknown message types. Octet-valued fields travel as lowercase hex.

A trace line is canonical JSON: sorted keys, compact separators, ASCII
only. Each message type has one line encoder, compiled once at import from
a per-type field plan (``dataclasses.fields``) into one f-string, as
``dataclasses`` and ``namedtuple`` build their methods. Its fixed text is
the type's body keys in sorted order, the envelope keys and its type tag;
each body field is read by attribute and rendered in its own replacement
field: the JSON string escaper that ``ensure_ascii`` uses, ``null`` for an
absent hop or KMS id, and hex between fixed quotes for octets. The ``ext``
body key of the types in ``EXT_TYPES`` is fixed text, ``"ext":{}``, in its
sorted place.
The envelope's channel, sender and receiver are passed in already quoted as
JSON strings, and ``seq`` as the integer it is. The transport quotes each
entity id once, when the entity registers, and the delivering pump passes
those in; ``encode_str`` quotes them per call. Fixing the key order at
import is sound because a dataclass's field set is fixed when its class is
created, the message classes are frozen, and so every record of a type has
the same keys: sorting them per record would give the same order each time.

Messages are frozen, slotted dataclasses, and the envelope around each one
is an immutable named tuple, so no record can be rewritten once sent.
Each message type's ``__init__`` is compiled at import like its line
encoder: it stores each argument straight into its slot, where the
dataclass one goes through ``object.__setattr__`` once per field. The
transport keeps global FIFO order (which implies per-channel FIFO),
assigns per-sender sequence numbers and reads each send's channel off its
two entities' nodes, so it keeps no per-pair state. It keeps no log of
what it delivers: the caller that pops an envelope encodes it into the
conformance trace (see harness.SimKernel).
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import FrozenInstanceError, dataclass, fields, replace
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


class _Message:
    """Base of every message type, which is a frozen, slotted dataclass.

    A slotted class has no __weakref__ slot unless one is declared, and
    dataclass's weakref_slot needs Python 3.11, so the base declares it:
    every message stays weak-referenceable. It also holds the frozen
    guards: the ones dataclass generates for a slotted class test the class
    it was given rather than the slotted copy it returns, so they raise
    TypeError, not FrozenInstanceError, for a name that is not a field.
    """

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


@dataclass(frozen=True, slots=True)
class GetKey(_Message):
    app_src: str
    app_dst: str
    id_request: str


@dataclass(frozen=True, slots=True)
class GetKeyWithId(_Message):
    app_src: str
    app_dst: str
    key_id: str
    id_request: str


@dataclass(frozen=True, slots=True)
class KmsDiscoveryRequest(_Message):
    app_src: str
    app_dst: str
    kind: str  # the request's type tag: get_key or get_key_with_id
    id_request: str


@dataclass(frozen=True, slots=True)
class KmsDiscoveryResponse(_Message):
    app_src: str
    app_dst: str
    id_kms: str | None  # none signals a failed discovery
    id_request: str


@dataclass(frozen=True, slots=True)
class RelayPathInstall(_Message):
    id_association: str
    prev_hop: str | None
    next_hop: str | None
    app_src: str
    app_dst: str


@dataclass(frozen=True, slots=True)
class RelayProcessRequest(_Message):
    app_src: str
    app_dst: str
    id_relay_key: str


@dataclass(frozen=True, slots=True)
class ExtKeyRequest(_Message):
    id_relay_key: str
    value_relay_key: bytes
    app_src: str
    app_dst: str
    id_association: str


@dataclass(frozen=True, slots=True)
class KeyRelay(_Message):
    encrypted_relay_key: bytes
    id_key_encryption: str
    id_relay_key: str
    app_src: str
    app_dst: str
    id_association: str


@dataclass(frozen=True, slots=True)
class KeyRelayResponse(_Message):
    status: str
    id_relay_key: str


@dataclass(frozen=True, slots=True)
class AckRequest(_Message):
    id_relay_key: str
    ack_status: str
    app_src: str
    app_dst: str


@dataclass(frozen=True, slots=True)
class RelayProcessResponse(_Message):
    status: str
    id_relay_key: str


@dataclass(frozen=True, slots=True)
class KeyDelivery(_Message):
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

# The types whose body carries "ext", the extension object of the ETSI GS
# QKD 014 message each follows. No entity sets it, so it is no field: its
# value is always {}. The line encoders write it as fixed text,
# message_to_body adds it, and the decoder requires it and accepts only {}.
EXT_TYPES = frozenset({ExtKeyRequest, AckRequest})


def _constructor(cls: type):
    """__init__ for one message type, compiled from its fields into
    straight-line source, as its line encoder is. The dataclass __init__ of
    a frozen class sets each field through object.__setattr__; this one
    stores each argument straight into its slot through the slot's
    descriptor, which the frozen __setattr__ does not guard. It takes the
    same arguments and raises the same argument errors as the dataclass
    __init__."""
    names = [f.name for f in fields(cls)]
    namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    body = "".join(f"    _set_{name}(self, {name})\n" for name in names)
    exec(f"def __init__(self, {', '.join(names)}):\n" + body, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


for _type in MESSAGE_TYPES.values():
    _type.__init__ = _constructor(_type)
    del _type.__setattr__, _type.__delattr__  # _Message's guards apply
del _type

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
    if type(msg) in EXT_TYPES:
        body["ext"] = {}
    return body


def message_from_body(type_tag: str, body: dict) -> Message:
    cls = MESSAGE_TYPES.get(type_tag)
    if cls is None:
        raise CodecError(f"unknown message type {type_tag!r}")
    if not isinstance(body, dict):
        raise CodecError("body must be an object")
    declared = {f.name for f in fields(cls)}
    if cls in EXT_TYPES:
        if "ext" not in body:
            raise CodecError(f"{type_tag}: missing field 'ext'")
        if body["ext"] != {}:
            raise CodecError(f"{type_tag}: field 'ext' must be an object with no members")
        declared.add("ext")
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


# The JSON string escaper of json.dumps with ensure_ascii.
_quote = json.encoder.encode_basestring_ascii


def _field_source(name: str, is_octet: bool) -> str:
    """The f-string replacement field that renders msg.<name> as JSON text,
    with the fixed quotes around an octet field's hex."""
    value = f"msg.{name}"
    if is_octet:
        return '"{' + value + '.hex()}"'
    if name in _NONEABLE_FIELDS:
        return '{"null" if ' + value + " is None else _quote(" + value + ")}"
    return "{_quote(" + value + ")}"


def _literal(text: str) -> str:
    """text as fixed f-string text in the compiled encoders."""
    return text.replace("{", "{{").replace("}", "}}")


def _line_encoder(cls: type):
    """The line encoder of one message type,
    encode(msg, channel, sender, receiver, seq), compiled into one f-string:
    its fixed text is the type's sorted body keys ("ext":{} among them on
    the EXT_TYPES), the envelope keys and the type tag. channel, sender and
    receiver come quoted as JSON strings, and seq, always an exact int (the
    transport's counter, or a decoded seq, which the codec requires to be a
    non-bool int), is rendered by str. The f-string is quoted with ' and
    holds no backslash, because before Python 3.12 neither may appear in its
    replacement fields; body keys and tags are identifiers."""
    parts = {
        name: _literal(_quote(name) + ":") + _field_source(name, is_octet)
        for name, is_octet in _FIELD_PLANS[cls]
    }
    if cls in EXT_TYPES:
        parts["ext"] = _literal('"ext":{}')
    body = ",".join(parts[name] for name in sorted(parts))
    tag = TYPE_TAGS[cls]
    name = f"encode_{tag}"
    text = (
        _literal('{"body":{') + body + _literal('},"channel":') + "{channel}"
        + _literal(',"from":') + "{sender}" + _literal(',"seq":') + "{seq}"
        + _literal(',"to":') + "{receiver}" + _literal(',"type":' + _quote(tag) + "}")
    )
    source = f"def {name}(msg, channel, sender, receiver, seq):\n    return f'{text}'\n"
    namespace = {"_quote": _quote}
    exec(source, namespace)
    return namespace[name]


# The compiled line encoder of each message type. The kernel's pump looks
# the table up under this name, as encode_str does.
LINE_ENCODERS = {cls: _line_encoder(cls) for cls in MESSAGE_TYPES.values()}


def encode_str(env: Envelope) -> str:
    """Canonical JSON text: sorted keys, compact separators, lowercase hex."""
    seq, sender, receiver, channel, msg = env
    return LINE_ENCODERS[type(msg)](msg, _quote(channel), _quote(sender), _quote(receiver), seq)


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


# Each channel name quoted as a JSON string, as a trace line renders it.
QUOTED_CHANNELS = {c: _quote(c) for c in (CHANNEL_INTRA, CHANNEL_INTER, CHANNEL_CONTROL)}


class Transport:
    """Instrumented in-memory message fabric.

    send() wraps each message in one immutable Envelope and appends it to
    ``queue``, a deque in global send order, which the kernel's pump
    drains in place. Nothing here keeps a delivered envelope, so it lives
    only as long as its receiver and the caller that traces it hold it.
    Per-sender seq numbers are assigned here, and armed fault rules are
    applied at send time; a rule that fires is removed, as it can never
    match again. Each send reads its channel off the two entities' nodes:
    control when either end is outside every node (the controller),
    intra_node when both ends share a node, else inter_node. So an unknown
    id raises on every send and no per-pair state is kept. ``quoted``
    holds each entity id quoted as a JSON string, once, when the entity
    registers; the kernel's pump renders trace lines from it. `dropped`
    and `corrupted` keep the envelopes a fault actually changed; a corrupt
    rule that fires on a message with no non-empty octet field leaves it
    as it was and is not kept.
    """

    def __init__(self):
        self.entities: dict[str, Entity] = {}
        self.queue: deque[Envelope] = deque()
        self.dropped: list[Envelope] = []
        self.corrupted: list[Envelope] = []
        self.faults: list[FaultRule] = []
        self._seq: dict[str, int] = {}
        self.quoted: dict[str, str] = {}

    def register(self, entity: Entity) -> None:
        entity_id = entity.entity_id
        if entity_id in self.entities:
            raise UnknownEntityError(f"entity {entity_id!r} already registered")
        self.entities[entity_id] = entity
        self.quoted[entity_id] = _quote(entity_id)

    def add_fault(self, rule: FaultRule) -> None:
        self.faults.append(rule)

    def send(self, sender_id: str, receiver_id: str, msg: Message) -> None:
        entities = self.entities
        try:
            sender_node = entities[sender_id].node_id
        except KeyError:
            raise UnknownEntityError(f"unknown sender {sender_id!r}") from None
        try:
            receiver_node = entities[receiver_id].node_id
        except KeyError:
            raise UnknownEntityError(f"unknown receiver {receiver_id!r}") from None
        # The channel rule of the class docstring, inline: a helper would
        # cost a call per send.
        if sender_node is None or receiver_node is None:
            channel = CHANNEL_CONTROL
        elif sender_node == receiver_node:
            channel = CHANNEL_INTRA
        else:
            channel = CHANNEL_INTER
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

