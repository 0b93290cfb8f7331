"""Wire protocol: OTP, codec strictness, round-trip, transport, faults."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import encode, faulted_grid_run, run_events
from qkdrelay import protocol
from qkdrelay.protocol import (
    CHANNEL_CONTROL,
    CHANNEL_INTER,
    CHANNEL_INTRA,
    MESSAGE_TYPES,
    STATUSES,
    AckRequest,
    CodecError,
    Entity,
    Envelope,
    ExtKeyRequest,
    FaultRule,
    GetKey,
    KeyDelivery,
    KeyRelay,
    KmsDiscoveryRequest,
    LengthMismatchError,
    RelayPathInstall,
    Transport,
    UnknownEntityError,
    channel_for,
    corrupt_message,
    decode,
    message_type,
    otp_xor,
)
from qkdrelay.harness import RecordChecker, SimKernel
from qkdrelay.topology import topology_from_dict
from qkdrelay.trace import records_to_lines

# ── one-time pad ──


def test_otp_hand_value():
    assert otp_xor(b"\xff", b"\x0f") == b"\xf0"
    assert otp_xor(b"\x00\x01", b"\x00\x01") == b"\x00\x00"


@pytest.mark.parametrize("size", [0, 1, 32])
def test_otp_matches_bytewise_xor(size):
    rng = random.Random(size)
    cases = [
        (bytes(size), bytes(size)),
        (bytes(rng.randrange(256) for _ in range(size)), bytes(size)),
        (
            bytes(rng.randrange(256) for _ in range(size)),
            bytes(rng.randrange(256) for _ in range(size)),
        ),
    ]
    if size > 1:
        # Leading zero bytes in the operands and in the result.
        tail = bytes(rng.randrange(1, 256) for _ in range(size - 1))
        cases.append((b"\x00" + tail, b"\x00" + tail))
        cases.append((b"\x00\x07" + tail[1:], b"\x00\x05" + tail[1:]))
    for a, b in cases:
        got = otp_xor(a, b)
        assert got == bytes(x ^ y for x, y in zip(a, b))
        assert len(got) == size


def test_otp_length_mismatch():
    with pytest.raises(LengthMismatchError):
        otp_xor(b"\x00", b"\x00\x00")


@given(st.binary(min_size=0, max_size=64))
def test_otp_zero_pad_is_identity(data):
    assert otp_xor(data, bytes(len(data))) == data


@given(st.binary(min_size=1, max_size=64), st.data())
def test_otp_involution(a, data):
    b = data.draw(st.binary(min_size=len(a), max_size=len(a)))
    assert otp_xor(otp_xor(a, b), b) == a


# ── codec ──


# Nested JSON values for ext: every type except floats, whose round trip
# is not the codec's concern.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _field_value(name: str, draw) -> object:
    if name in protocol.OCTET_FIELDS:
        return draw(st.binary(min_size=0, max_size=48))
    if name in ("status", "ack_status"):
        return draw(st.sampled_from(STATUSES))
    if name in ("prev_hop", "next_hop", "id_kms"):
        return draw(st.one_of(st.none(), st.text(min_size=1, max_size=12)))
    if name == "ext":
        return draw(st.dictionaries(st.text(max_size=8), _json_values, max_size=3))
    if name == "kind":
        return draw(st.sampled_from(protocol.REQUEST_KINDS))
    return draw(st.text(min_size=0, max_size=16))


@st.composite
def envelopes(draw):
    tag = draw(st.sampled_from(sorted(MESSAGE_TYPES)))
    cls = MESSAGE_TYPES[tag]
    import dataclasses

    kwargs = {f.name: _field_value(f.name, draw) for f in dataclasses.fields(cls)}
    return Envelope(
        seq=draw(st.integers(min_value=0, max_value=2**70)),
        sender=draw(st.text(min_size=1, max_size=12)),
        receiver=draw(st.text(min_size=1, max_size=12)),
        channel=draw(st.sampled_from([CHANNEL_INTRA, CHANNEL_INTER, CHANNEL_CONTROL])),
        msg=cls(**kwargs),
    )


@given(envelopes())
@settings(max_examples=200, deadline=None)
def test_codec_round_trip(env):
    assert decode(encode(env)) == env


@given(envelopes())
@settings(max_examples=50, deadline=None)
def test_encoding_is_canonical(env):
    data = encode(env)
    obj = json.loads(data)
    assert data == json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    for name in protocol.OCTET_FIELDS:
        if name in obj["body"]:
            assert obj["body"][name] == obj["body"][name].lower()


def reference_encode(env: Envelope) -> bytes:
    """The codec before field plans: fields() and json.dumps on every call."""
    body = {}
    for f in dataclasses.fields(env.msg):
        value = getattr(env.msg, f.name)
        body[f.name] = value.hex() if f.name in protocol.OCTET_FIELDS else value
    obj = {
        "seq": env.seq,
        "from": env.sender,
        "to": env.receiver,
        "channel": env.channel,
        "type": message_type(env.msg),
        "body": body,
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# Per field, the values every combination of is encoded: empty octets,
# leading zero octets, null hops, a non-empty ext and non-ASCII text.
_EDGE_VALUES = {
    "octets": [b"", b"\x00\x00\x07", bytes(range(32))],
    "status": ["ok", "failed_no_key"],
    "ack_status": ["ok"],
    "prev_hop": [None, "KMS_1a"],
    "next_hop": [None, "KMS_2\u00e9"],
    "id_kms": [None, "KMS_1a"],
    "ext": [{}, {"z": "1", "a": "\u00f1", "m": ""}],
    "kind": ["get_key", "get_key_with_id"],
}


@pytest.mark.parametrize("tag", sorted(MESSAGE_TYPES))
def test_encode_matches_reference_codec(tag):
    cls = MESSAGE_TYPES[tag]
    names = [f.name for f in dataclasses.fields(cls)]
    choices = [
        _EDGE_VALUES["octets"] if name in protocol.OCTET_FIELDS
        else _EDGE_VALUES.get(name, [f"{name}-1", ""])
        for name in names
    ]
    envs = [
        Envelope(seq=i, sender="KMS_1a", receiver="KMS_1b", channel=CHANNEL_INTER,
                 msg=cls(**dict(zip(names, values))))
        for i, values in enumerate(itertools.product(*choices))
    ]
    for env in envs:
        assert encode(env) == reference_encode(env)
        assert decode(encode(env)) == env
    assert records_to_lines(envs) == [reference_encode(env).decode() for env in envs]


@given(envelopes())
@settings(max_examples=100, deadline=None)
def test_encode_matches_reference_codec_on_random_envelopes(env):
    assert encode(env) == reference_encode(env)


# Strings whose escaping must match json.dumps exactly: quotes, backslashes,
# control characters, DEL, non-BMP characters (written as surrogate-pair
# escapes), other non-ASCII text and the empty string.
_HARD_STRINGS = [
    "",
    'say "hi"',
    "back\\slash\\",
    "ctl \x00\x01\x08\t\n\x0b\x0c\r\x1b\x1f",
    "del \x7f",
    "astral \U0001f511 \U00010000 \U0010ffff",
    "\u00e9\u2028\u2029\ufeff",
]
# Nested values and keys whose sorted order differs from insertion order,
# some of them non-ASCII.
_HARD_EXT = {
    "z": {"b": [1, "\u00e9", {"y": None, "x": True}], "a": -2},
    "\u00e9t\u00e9": [],
    "A": "",
    "\U0001f511": {"\u00f1": 'q"\\\x7f', "n": [[], {}]},
    "a": [False, 10**20],
}


@pytest.mark.parametrize("text", _HARD_STRINGS)
@pytest.mark.parametrize("tag", sorted(MESSAGE_TYPES))
def test_encode_matches_reference_codec_on_hard_strings(tag, text):
    """Every string field, hop and envelope name holds `text`; ext is
    nested and unsorted; seq is larger than any machine word."""
    cls = MESSAGE_TYPES[tag]
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in protocol.OCTET_FIELDS:
            kwargs[f.name] = b"\x00\x7f\xff"
        elif f.name == "ext":
            kwargs[f.name] = _HARD_EXT
        else:
            kwargs[f.name] = text
    envs = [
        Envelope(seq=seq, sender=text, receiver=text + "\x7f", channel=CHANNEL_CONTROL,
                 msg=cls(**kwargs))
        for seq in (0, 2**64 + 1, 10**30)
    ]
    for env in envs:
        assert encode(env) == reference_encode(env)
    assert records_to_lines(envs) == [reference_encode(env).decode() for env in envs]


def test_records_to_lines_matches_reference_codec_on_a_faulted_grid():
    result = faulted_grid_run()
    records = result.records
    assert len(result.sim.transport.corrupted) == 3 and result.sim.transport.dropped
    assert set(MESSAGE_TYPES) <= {message_type(env.msg) for env in records}
    assert records_to_lines(records) == [reference_encode(env).decode() for env in records]


def _sample_line() -> dict:
    env = Envelope(
        seq=1,
        sender="APP_A",
        receiver="vKMS_1",
        channel=CHANNEL_INTRA,
        msg=GetKey(app_src="APP_A", app_dst="APP_B", id_request="R1"),
    )
    return json.loads(encode(env))


def test_decode_rejects_unknown_type():
    obj = _sample_line()
    obj["type"] = "put_key"
    with pytest.raises(CodecError, match="unknown message type"):
        decode(json.dumps(obj))


def test_decode_rejects_unknown_field():
    obj = _sample_line()
    obj["body"]["hmac"] = "00"
    with pytest.raises(CodecError, match="unknown field"):
        decode(json.dumps(obj))


def test_decode_rejects_missing_field():
    obj = _sample_line()
    del obj["body"]["app_dst"]
    with pytest.raises(CodecError, match="missing field"):
        decode(json.dumps(obj))


def test_decode_rejects_unknown_envelope_key():
    obj = _sample_line()
    obj["hop_count"] = 3
    with pytest.raises(CodecError, match="unknown key"):
        decode(json.dumps(obj))


def test_decode_rejects_bad_channel():
    obj = _sample_line()
    obj["channel"] = "quantum"
    with pytest.raises(CodecError, match="bad channel"):
        decode(json.dumps(obj))


def test_decode_rejects_bad_status():
    env = Envelope(
        seq=1,
        sender="KMS_3d",
        receiver="vKMS_3",
        channel=CHANNEL_INTRA,
        msg=KeyDelivery(key_id="k", material=b"\x01", status="ok", id_request="R1"),
    )
    obj = json.loads(encode(env))
    obj["body"]["status"] = "great_success"
    with pytest.raises(CodecError, match="bad status"):
        decode(json.dumps(obj))


def test_decode_rejects_uppercase_hex():
    env = Envelope(
        seq=1,
        sender="KMS_3d",
        receiver="vKMS_3",
        channel=CHANNEL_INTRA,
        msg=KeyDelivery(key_id="k", material=b"\xab", status="ok", id_request="R1"),
    )
    obj = json.loads(encode(env))
    obj["body"]["material"] = obj["body"]["material"].upper()
    with pytest.raises(CodecError, match="lowercase"):
        decode(json.dumps(obj))


def _line_of(msg, sender="KMS_3d", receiver="vKMS_3") -> dict:
    env = Envelope(seq=1, sender=sender, receiver=receiver, channel=CHANNEL_INTRA, msg=msg)
    return json.loads(encode(env))


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\xff\xfe", "not UTF-8"),
        ("{", "invalid JSON"),
        ("[]", "envelope must be an object"),
    ],
)
def test_decode_rejects_unreadable_input(data, message):
    with pytest.raises(CodecError, match=message):
        decode(data)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("seq", "1", "'seq' must be an integer"),
        ("seq", True, "'seq' must be an integer"),
        ("from", 5, "'from' must be a string"),
        ("to", None, "'to' must be a string"),
        ("type", 7, "'type' must be a string"),
        ("body", [], "body must be an object"),
    ],
)
def test_decode_rejects_bad_envelope_value(key, value, message):
    obj = _sample_line()
    obj[key] = value
    with pytest.raises(CodecError, match=message):
        decode(json.dumps(obj))


_ACK = AckRequest(id_relay_key="k1", ack_status="ok", app_src="APP_A", app_dst="APP_B")
_INSTALL = RelayPathInstall(
    id_association="a1", prev_hop=None, next_hop="KMS_3d", app_src="APP_A", app_dst="APP_B"
)


@pytest.mark.parametrize(
    "msg, field, value, message",
    [
        (KeyDelivery(key_id="k", material=b"\x01", status="ok", id_request="R1"), "material", 5,
         "key_delivery: field 'material' must be hex"),
        (KeyDelivery(key_id="k", material=b"\x01", status="ok", id_request="R1"), "material", "zz",
         "key_delivery: field 'material' must be hex"),
        (_ACK, "ext", [], "ack_request: field 'ext' must be an object"),
        (_INSTALL, "prev_hop", 5, "relay_path_install: field 'prev_hop' must be string or null"),
        (_INSTALL, "next_hop", ["KMS_3d"],
         "relay_path_install: field 'next_hop' must be string or null"),
        (GetKey(app_src="APP_A", app_dst="APP_B", id_request="R1"), "app_src", 5,
         "get_key: field 'app_src' must be a string"),
        (KmsDiscoveryRequest("APP_A", "APP_B", "get_key", "R1"), "kind", "key_relay",
         "kms_discovery_request: bad kind 'key_relay'"),
    ],
)
def test_decode_rejects_bad_field_value(msg, field, value, message):
    obj = _line_of(msg)
    obj["body"][field] = value
    with pytest.raises(CodecError, match=message):
        decode(json.dumps(obj))


def test_null_hops_encode_as_json_null():
    env = Envelope(
        seq=1,
        sender="QuSeC",
        receiver="KMS_4d",
        channel=CHANNEL_CONTROL,
        msg=RelayPathInstall(
            id_association="a1",
            prev_hop="KMS_3d",
            next_hop=None,
            app_src="APP_A",
            app_dst="APP_B",
        ),
    )
    obj = json.loads(encode(env))
    assert obj["body"]["next_hop"] is None
    assert decode(encode(env)) == env


def test_message_type_tags():
    assert message_type(GetKey(app_src="x", app_dst="y", id_request="R1")) == "get_key"
    assert set(MESSAGE_TYPES) == {
        "get_key",
        "get_key_with_id",
        "kms_discovery_request",
        "kms_discovery_response",
        "relay_path_install",
        "relay_process_request",
        "ext_key_request",
        "key_relay",
        "key_relay_response",
        "ack_request",
        "relay_process_response",
        "key_delivery",
    }


# ── message contract ──


def plain_dataclass(cls):
    """A frozen dataclass with cls's name and fields, built the standard way:
    the behaviour every message type must keep."""
    specs = [
        (f.name, f.type, dataclasses.field(default_factory=f.default_factory))
        if f.default_factory is not dataclasses.MISSING
        else (f.name, f.type)
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def sample_values(cls, tag: str = "v") -> dict:
    """A valid value for every field of cls without a default; each tag
    gives every field another value."""
    kind, status = {"v": ("get_key", "ok"), "w": ("get_key_with_id", "failed_no_key")}[tag]
    fixed = {"kind": kind, "status": status, "ack_status": status}
    return {
        f.name: f"{f.name}-{tag}".encode() if f.name in protocol.OCTET_FIELDS
        else fixed.get(f.name, f"{f.name}-{tag}")
        for f in dataclasses.fields(cls)
        if f.name != "ext"
    }


@pytest.mark.parametrize("tag", sorted(MESSAGE_TYPES))
def test_message_contract(tag):
    cls = MESSAGE_TYPES[tag]
    names = [f.name for f in dataclasses.fields(cls)]
    values = sample_values(cls)
    msg = cls(**values)
    plain = plain_dataclass(cls)(**values)
    assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
    assert cls(*values.values()) == msg

    # repr, == and hash are the plain dataclass's, on every type.
    assert repr(msg) == repr(plain)
    assert msg == cls(**values) and not msg != cls(**values)
    assert msg != plain and msg != tuple(values.values())
    assert hash(msg) == hash(plain) == hash(tuple(getattr(msg, n) for n in names))

    # No assignment or deletion gets through, field or not.
    for name in names + ["not_a_field"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(msg, name, "x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(msg, name)
    assert msg == cls(**values)

    # replace builds a new message and leaves the old one as it was.
    for name in values:
        other = sample_values(cls, "w")[name]
        changed = dataclasses.replace(msg, **{name: other})
        assert getattr(changed, name) == other
        assert changed != msg and msg == cls(**values)
        assert [getattr(changed, n) for n in names if n != name] == [
            getattr(msg, n) for n in names if n != name
        ]

    # A message left without ext shares the one empty ext. A given ext is
    # frozen all the way down into a mapping equal to it, which hashes,
    # encodes to the same bytes and refuses every change.
    if "ext" in names:
        assert msg.ext == {} and msg.ext is protocol.EMPTY_EXT is cls(**values).ext
        assert cls(**values, ext={}).ext is protocol.EMPTY_EXT
        ext = {"b": [1, {"c": None}], "a": "1"}
        frozen = cls(**values, ext=ext).ext
        assert frozen == ext and frozen is not ext
        assert ext == {"b": [1, {"c": None}], "a": "1"}  # the given dict is left as it was
        assert protocol.canonical_json(frozen) == protocol.canonical_json(ext)
        assert cls(**values, ext=frozen).ext is frozen
        assert hash(cls(**values, ext=ext)) == hash(cls(**values, ext=frozen))
        for change in (
            lambda: frozen.__setitem__("a", "2"),
            lambda: frozen.update(a="2"),
            lambda: frozen.pop("a"),
            lambda: frozen["b"].append(2),
            lambda: frozen["b"].__setitem__(0, 2),
            lambda: frozen["b"][1].__setitem__("c", 2),
        ):
            with pytest.raises(TypeError, match="immutable"):
                change()
        assert frozen == ext
        assert copy.deepcopy(frozen) == ext and pickle.loads(pickle.dumps(frozen)) == ext

    # Argument errors are the dataclass __init__'s.
    first = names[0]
    with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{first}'"):
        cls(**{k: v for k, v in values.items() if k != first})
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(**values, bogus=1)
    with pytest.raises(TypeError):
        cls(*values.values(), *(["extra"] * (len(names) - len(values) + 1)))

    assert weakref.ref(msg)() is msg


# ── transport ──


class Sink(Entity):
    def __init__(self, entity_id, node_id=None):
        super().__init__(entity_id, node_id)
        self.seen = []

    def on_message(self, env):
        self.seen.append(env)


def pop_next(transport):
    """The oldest queued envelope, or None once the queue is empty."""
    return transport.queue.popleft() if transport.queue else None


def make_transport():
    transport = Transport()
    for entity in (
        Sink("APP_A", "N1"),
        Sink("vKMS_1", "N1"),
        Sink("KMS_1b", "N1"),
        Sink("KMS_3b", "N3"),
    ):
        transport.register(entity)
    return transport


def test_transport_fifo_and_seq():
    transport = make_transport()
    for _ in range(3):
        transport.send("APP_A", "vKMS_1", GetKey(app_src="APP_A", app_dst="APP_B", id_request="R1"))
    envs = [pop_next(transport) for _ in range(3)]
    assert [e.seq for e in envs] == [1, 2, 3]
    assert pop_next(transport) is None


def test_kernel_traces_in_delivered_order():
    transport = make_transport()
    kernel = SimKernel(transport, RecordChecker())  # no KeyRelay: otp_wire reads no key
    for _ in range(2):
        transport.send("APP_A", "vKMS_1", GetKey(app_src="APP_A", app_dst="APP_B", id_request="R1"))
    transport.send("KMS_1b", "KMS_3b", GetKey(app_src="APP_A", app_dst="APP_B", id_request="R1"))
    kernel.run_to_quiescence()
    envs = transport.entities["vKMS_1"].seen + transport.entities["KMS_3b"].seen
    assert [e.seq for e in envs] == [1, 2, 1]
    assert [decode(line) for line in kernel.trace_lines] == envs  # delivered order is the trace


def hard_ids_run():
    """A relay, a pickup and a reverse request on a mesh whose node, link
    and app ids all need escaping."""
    nodes = ['N"1', "N\\2", "Né3", "N\x7f4"]
    link_ends = [(0, 1), (0, 2), (1, 2), (2, 3)]
    raw = {
        "nodes": [{"id": node} for node in nodes],
        "links": [
            {"id": link_id, "a": nodes[a], "b": nodes[b], "key_rate": 10.0,
             "distance_km": 5.0, "initial_pool": 8}
            for link_id, (a, b) in zip(['a"', "b\\", "cé", "d\x7f"], link_ends)
        ],
        "apps": [{"id": 'A"pp', "node": nodes[0]}, {"id": "Bñ", "node": nodes[3]}],
        "weight_policy": "hop_count",
    }
    events = [
        {"at": 0, "event": "app_get_key", "app_src": 'A"pp', "app_dst": "Bñ"},
        {"at": 10, "event": "app_get_key_with_id", "app_src": "Bñ", "app_dst": 'A"pp',
         "key_id_from": 'A"pp'},
        {"at": 20, "event": "app_get_key", "app_src": "Bñ", "app_dst": 'A"pp'},
    ]
    return run_events(topology_from_dict(raw), events, seed=3)


def test_kernel_traces_hard_ids_as_the_reference_codec_does():
    """Node, link and app ids that need escaping reach every envelope name
    and body field, so each id, quoted once by the transport when its
    entity registered, is checked against the reference codec and
    encode_str line by line."""
    result = hard_ids_run()
    assert result.exit_code == 0
    assert [r["status"] for r in result.report["requests"]] == ["ok"] * 3
    names = {name for env in result.records for name in (env.sender, env.receiver)}
    for hard in ('"', "\\", "é", "\x7f", "ñ"):
        assert any(hard in name for name in names)
    assert {"relay_path_install", "ext_key_request", "key_relay", "ack_request"} <= {
        message_type(env.msg) for env in result.records
    }
    for line in result.trace_lines:
        env = decode(line)
        assert line == reference_encode(env).decode() == protocol.encode_str(env)


def test_channel_derivation():
    transport = make_transport()
    transport.send("APP_A", "vKMS_1", GetKey(app_src="APP_A", app_dst="APP_B", id_request="R1"))
    transport.send("KMS_1b", "KMS_3b", GetKey(app_src="APP_A", app_dst="APP_B", id_request="R1"))
    intra, inter = pop_next(transport), pop_next(transport)
    assert intra.channel == CHANNEL_INTRA
    assert inter.channel == CHANNEL_INTER


def test_controller_channel():
    transport = Transport()
    transport.register(Sink("QuSeC"))  # no node: the controller
    transport.register(Sink("vKMS_1", "N1"))
    transport.send("vKMS_1", "QuSeC", GetKey(app_src="APP_A", app_dst="APP_B", id_request="R1"))
    assert pop_next(transport).channel == CHANNEL_CONTROL


def test_unknown_entities_rejected():
    transport = make_transport()
    with pytest.raises(UnknownEntityError):
        transport.send("ghost", "vKMS_1", GetKey(app_src="a", app_dst="b", id_request="R1"))
    with pytest.raises(UnknownEntityError):
        transport.send("APP_A", "ghost", GetKey(app_src="a", app_dst="b", id_request="R1"))


def test_register_rejects_a_duplicate_entity_id():
    transport = make_transport()
    with pytest.raises(UnknownEntityError, match="entity 'KMS_1b' already registered"):
        transport.register(Sink("KMS_1b", "N1"))


def test_unknown_entities_rejected_after_the_pair_map_is_warm():
    transport = make_transport()
    transport.send("APP_A", "vKMS_1", GetKey(app_src="a", app_dst="b", id_request="R1"))
    for _ in range(2):
        with pytest.raises(UnknownEntityError, match="unknown receiver 'ghost'"):
            transport.send("APP_A", "ghost", GetKey(app_src="a", app_dst="b", id_request="R1"))
        with pytest.raises(UnknownEntityError, match="unknown sender 'ghost'"):
            transport.send("ghost", "vKMS_1", GetKey(app_src="a", app_dst="b", id_request="R1"))
    transport.send("APP_A", "vKMS_1", GetKey(app_src="a", app_dst="b", id_request="R1"))
    assert [pop_next(transport).seq for _ in range(2)] == [1, 2]
    assert pop_next(transport) is None
    # An entity registered later gets its own channel, not a stale one.
    transport.register(Sink("ghost", "N3"))
    transport.send("APP_A", "ghost", GetKey(app_src="a", app_dst="b", id_request="R1"))
    transport.send("KMS_3b", "ghost", GetKey(app_src="a", app_dst="b", id_request="R1"))
    assert [pop_next(transport).channel for _ in range(2)] == [CHANNEL_INTER, CHANNEL_INTRA]


def test_every_record_channel_matches_channel_for_on_a_faulted_grid():
    result = faulted_grid_run()
    entities = result.sim.transport.entities
    for env in result.records:
        assert env.channel == channel_for(entities[env.sender], entities[env.receiver])
    channels = {env.channel for env in result.records}
    assert channels == {CHANNEL_INTRA, CHANNEL_INTER, CHANNEL_CONTROL}


def test_lines_from_quoted_ids_on_faulted_and_hard_ids_runs(monkeypatch):
    """Each line is rendered from the ids the transport quoted when their
    entities registered: every delivered record's line, on a faulted grid
    run and on a run with ids that need escaping, is the reference codec's
    encoding of that record, and each record's channel is channel_for of
    its two entities."""
    delivered = []
    check = RecordChecker.check

    def watched_check(self, i, env):
        delivered.append(env)
        check(self, i, env)

    monkeypatch.setattr(RecordChecker, "check", watched_check)
    for run_it in (faulted_grid_run, hard_ids_run):
        delivered.clear()
        result = run_it()
        transport = result.sim.transport
        entities = transport.entities
        assert transport.quoted == {entity_id: json.dumps(entity_id) for entity_id in entities}
        assert len(delivered) == len(result.trace_lines) > 10
        for env, line in zip(delivered, result.trace_lines):
            assert line == reference_encode(env).decode()
            assert env.channel == channel_for(entities[env.sender], entities[env.receiver])


def test_envelope_is_immutable():
    env = Envelope(seq=1, sender="APP_A", receiver="vKMS_1", channel=CHANNEL_INTRA,
                   msg=GetKey(app_src="APP_A", app_dst="APP_B", id_request="R1"))
    for name in ("seq", "sender", "receiver", "channel", "msg"):
        with pytest.raises(AttributeError):
            setattr(env, name, None)
    assert env._replace(seq=2) == Envelope(2, "APP_A", "vKMS_1", CHANNEL_INTRA, env.msg)
    assert env.seq == 1


# ── fault injection ──


def test_drop_nth_of_type():
    transport = make_transport()
    transport.add_fault(FaultRule(op="drop", nth=2, of_type="get_key"))
    for _ in range(3):
        transport.send("APP_A", "vKMS_1", GetKey(app_src="APP_A", app_dst="APP_B", id_request="R1"))
    delivered = []
    while (env := pop_next(transport)) is not None:
        delivered.append(env)
    assert len(delivered) == 2
    assert [e.seq for e in delivered] == [1, 3]  # seq was assigned, then dropped
    assert len(transport.dropped) == 1
    assert transport.dropped[0].seq == 2


def test_drop_counts_only_matching_type():
    transport = make_transport()
    transport.add_fault(FaultRule(op="drop", nth=1, of_type="key_delivery"))
    transport.send("APP_A", "vKMS_1", GetKey(app_src="APP_A", app_dst="APP_B", id_request="R1"))
    transport.send(
        "vKMS_1", "APP_A", KeyDelivery(key_id="k", material=b"", status="ok", id_request="R1")
    )
    assert pop_next(transport).msg == GetKey(app_src="APP_A", app_dst="APP_B", id_request="R1")
    assert pop_next(transport) is None


def test_fault_fires_once():
    rule = FaultRule(op="drop", nth=1, of_type=None)
    transport = make_transport()
    transport.add_fault(rule)
    transport.send("APP_A", "vKMS_1", GetKey(app_src="APP_A", app_dst="APP_B", id_request="R1"))
    transport.send("APP_A", "vKMS_1", GetKey(app_src="APP_A", app_dst="APP_B", id_request="R1"))
    assert transport.faults == []  # fired, so never tested again
    assert pop_next(transport) is not None
    assert pop_next(transport) is None


def test_corrupt_flips_octet_fields_only():
    msg = KeyRelay(
        encrypted_relay_key=b"\x00\xff",
        id_key_encryption="k2",
        id_relay_key="k1",
        app_src="APP_A",
        app_dst="APP_B",
        id_association="a1",
    )
    bad = corrupt_message(msg)
    assert bad.encrypted_relay_key == b"\xa5\x5a"
    assert bad.id_relay_key == "k1"
    assert corrupt_message(corrupt_message(msg)) == msg  # involution


def test_corrupt_leaves_empty_payloads():
    msg = KeyDelivery(key_id="k", material=b"", status="ok", id_request="R1")
    assert corrupt_message(msg) == msg


def test_corrupt_on_wire():
    transport = make_transport()
    transport.add_fault(FaultRule(op="corrupt", nth=1, of_type="key_delivery"))
    transport.send(
        "vKMS_1", "APP_A", KeyDelivery(key_id="k", material=b"\x01", status="ok", id_request="R1")
    )
    env = pop_next(transport)
    assert env.msg.material == b"\xa4"
    assert env.msg.status == "ok"


def test_ext_field_round_trips():
    env = Envelope(
        seq=4,
        sender="KMS_3d",
        receiver="KMS_3b",
        channel=CHANNEL_INTRA,
        msg=AckRequest(
            id_relay_key="k1",
            ack_status="ok",
            app_src="APP_A",
            app_dst="APP_B",
            ext={"note": "spare"},
        ),
    )
    assert decode(encode(env)) == env


def test_ext_key_request_carries_plaintext_flag_fields():
    msg = ExtKeyRequest(
        id_relay_key="k1",
        value_relay_key=b"\x01\x02",
        app_src="APP_A",
        app_dst="APP_B",
        id_association="a1",
    )
    assert msg.ext == {}
    assert "value_relay_key" in protocol.PLAINTEXT_OCTET_FIELDS
