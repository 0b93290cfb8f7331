"""Wire protocol: OTP, codec strictness, round-trip, transport, faults."""

from __future__ import annotations

import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import encode, grid_dict, grid_events, run_events
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


def faulted_grid_run():
    """A 5x5 grid run with three corruptions and one drop."""
    raw = grid_dict(5, initial_pool=16, session_lifetime_ms=60)
    faults = [
        {"at": 0, "event": "corrupt_message", "n": 3, "of_type": "key_relay"},
        {"at": 0, "event": "corrupt_message", "n": 5, "of_type": "ext_key_request"},
        {"at": 0, "event": "corrupt_message", "n": 7, "of_type": "key_delivery"},
        {"at": 0, "event": "drop_message", "n": 4, "of_type": "key_relay_response"},
    ]
    events = faults + grid_events(raw, random.Random(8), pairs=30)
    return run_events(topology_from_dict(raw), events, seed=2)


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
