"""The four trace audits: each flags a bad record built by hand, lets its
near-misses pass, and the two that test octet fields agree with the
body-based scans they replaced on real runs."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid_dict, grid_events, mesh4, run_events
from test_protocol import Sink
from qkdrelay import data_path
from qkdrelay.harness import (
    RecordChecker,
    SimKernel,
    audit_controller_blindness,
    audit_fifo,
    audit_otp_wire,
    audit_plaintext_channels,
    load_scenario,
    load_topology_file,
    run,
)
from qkdrelay.linksim import LinkSimulator
from qkdrelay.protocol import (
    CHANNEL_CONTROL,
    CHANNEL_INTER,
    CHANNEL_INTRA,
    OCTET_FIELDS,
    OCTET_TYPES,
    PLAINTEXT_OCTET_FIELDS,
    STATUS_NO_KEY,
    STATUS_OK,
    Envelope,
    ExtKeyRequest,
    GetKey,
    KeyDelivery,
    KeyRelay,
    KmsDiscoveryRequest,
    KmsDiscoveryResponse,
    Transport,
    decode,
    message_to_body,
    message_type,
    otp_xor,
)
from qkdrelay.qusec import QUSEC_ID
from qkdrelay.topology import topology_from_dict

KEY = bytes.fromhex("00a1b2c3")


def env(msg, sender="KMS_1a", receiver="KMS_2a", channel=CHANNEL_INTER, seq=1) -> Envelope:
    return Envelope(seq=seq, sender=sender, receiver=receiver, channel=channel, msg=msg)


def ext_request(value: bytes) -> ExtKeyRequest:
    return ExtKeyRequest(
        id_relay_key="k1",
        value_relay_key=value,
        app_src="APP_A",
        app_dst="APP_B",
        id_association="a1",
    )


# ── controller_blindness ──


@pytest.mark.parametrize("sender,receiver", [("vKMS_1", QUSEC_ID), (QUSEC_ID, "vKMS_1")])
def test_controller_blindness_flags_key_delivery_at_controller(sender, receiver):
    record = env(KeyDelivery("k1", KEY, STATUS_OK, "R1"), sender, receiver, CHANNEL_CONTROL)
    assert audit_controller_blindness([record]) == [
        "record 0: controller record carries ['material'] (key_delivery)"
    ]


def test_controller_blindness_flags_declared_field_even_when_empty():
    record = env(KeyDelivery("", b"", STATUS_NO_KEY, "R1"), "vKMS_1", QUSEC_ID, CHANNEL_CONTROL)
    assert len(audit_controller_blindness([record])) == 1


def test_controller_blindness_passes_control_records_without_octet_fields():
    records = [
        env(KmsDiscoveryRequest("APP_A", "APP_B", "get_key", "R1"), "vKMS_1", QUSEC_ID, CHANNEL_CONTROL),
        env(KmsDiscoveryResponse("APP_A", "APP_B", None, "R1"), QUSEC_ID, "vKMS_1", CHANNEL_CONTROL),
        # Key material away from the controller is not this audit's business.
        env(KeyDelivery("k1", KEY, STATUS_OK, "R1"), "KMS_1a", "vKMS_1", CHANNEL_INTRA),
    ]
    assert audit_controller_blindness(records) == []


# ── plaintext_channels ──


@pytest.mark.parametrize("channel", [CHANNEL_INTER, CHANNEL_CONTROL])
def test_plaintext_channels_flags_material_off_node(channel):
    records = [env(KeyDelivery("k1", KEY, STATUS_OK, "R1"), channel=channel)]
    assert audit_plaintext_channels(records) == [
        f"record 0: plaintext 'material' on {channel} channel"
    ]


@pytest.mark.parametrize("channel", [CHANNEL_INTER, CHANNEL_CONTROL])
def test_plaintext_channels_flags_relay_key_value_off_node(channel):
    records = [env(GetKey("APP_A", "APP_B", "R1")), env(ext_request(KEY), channel=channel)]
    assert audit_plaintext_channels(records) == [
        f"record 1: plaintext 'value_relay_key' on {channel} channel"
    ]


def test_plaintext_channels_passes_near_misses():
    records = [
        env(KeyDelivery("", b"", STATUS_NO_KEY, "R1"), channel=CHANNEL_INTER),
        env(ext_request(b""), channel=CHANNEL_CONTROL),
        env(KeyDelivery("k1", KEY, STATUS_OK, "R1"), channel=CHANNEL_INTRA),
        env(ext_request(KEY), channel=CHANNEL_INTRA),
        # The OTP-encrypted payload may cross nodes.
        env(KeyRelay(KEY, "k2", "k1", "APP_A", "APP_B", "a1"), channel=CHANNEL_INTER),
    ]
    assert audit_plaintext_channels(records) == []


# ── otp_wire ──


def relay_keys() -> tuple[LinkSimulator, str, str]:
    linksim = LinkSimulator(mesh4(), seed=1)
    linksim.generate_keys("a", 1)
    linksim.generate_keys("c", 1)
    return linksim, linksim.tables["a"].id_at(0), linksim.tables["c"].id_at(0)


def key_relay(payload: bytes, k1: str, k2: str) -> Envelope:
    return env(KeyRelay(payload, k2, k1, "APP_A", "APP_B", "a1"))


def test_otp_wire_passes_k1_xor_k2():
    linksim, k1, k2 = relay_keys()
    payload = otp_xor(linksim.find_material(k1), linksim.find_material(k2))
    assert audit_otp_wire([key_relay(payload, k1, k2)], linksim) == []


def test_otp_wire_flags_payload_that_is_not_k1_xor_k2():
    linksim, k1, k2 = relay_keys()
    good = otp_xor(linksim.find_material(k1), linksim.find_material(k2))
    bad = bytes([good[0] ^ 1]) + good[1:]
    records = [key_relay(good, k1, k2), key_relay(bad, k1, k2)]
    assert audit_otp_wire(records, linksim) == ["record 1: payload != K1 xor K2"]


def test_otp_wire_flags_plaintext_k1_and_unknown_ids():
    linksim, k1, k2 = relay_keys()
    records = [
        key_relay(linksim.find_material(k1), k1, k2),
        key_relay(KEY, k1, "no-such-key"),
    ]
    assert audit_otp_wire(records, linksim) == [
        "record 0: payload != K1 xor K2",
        "record 0: payload equals K1 with non-zero K2",
        "record 1: KeyRelay names unknown key ids",
    ]


# ── fifo ──


def test_fifo_flags_seq_that_does_not_rise_per_sender():
    msg = GetKey("APP_A", "APP_B", "R1")
    records = [
        env(msg, "APP_A", "vKMS_1", seq=1),
        env(msg, "APP_A", "vKMS_2", seq=1),  # same seq, other receiver: flagged
        env(msg, "APP_A", "vKMS_1", seq=2),
        env(msg, "APP_A", "vKMS_1", seq=2),
        env(msg, "APP_A", "vKMS_1", seq=1),
        env(msg, "APP_B", "vKMS_1", seq=0),  # a sender's first record: fine
        env(msg, "X", "Y", seq=2),
        env(msg, "X", "Z", seq=1),  # goes back across two receivers
    ]
    assert audit_fifo(records) == [
        "record 1: seq 1 after 1 from 'APP_A'",
        "record 3: seq 2 after 2 from 'APP_A'",
        "record 4: seq 1 after 2 from 'APP_A'",
        "record 7: seq 1 after 2 from 'X'",
    ]
    # The per-pair rule misses records 1 and 7.
    assert pair_fifo(records) == [3, 4]


def pair_fifo(records: list[Envelope]) -> list[int]:
    """The indices the old rule flags: per ordered (sender, receiver) pair,
    seq numbers strictly increase."""
    last: dict[tuple[str, str], int] = {}
    flagged = []
    for i, record in enumerate(records):
        pair = (record.sender, record.receiver)
        if pair in last and record.seq <= last[pair]:
            flagged.append(i)
        last[pair] = record.seq
    return flagged


def flagged_indices(violations: list[str]) -> list[int]:
    return [int(v.split(":")[0].removeprefix("record ")) for v in violations]


IDS = st.sampled_from(["APP_A", "vKMS_1", "KMS_1a", "KMS_2a"])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(IDS, IDS, st.integers(0, 6)), max_size=30))
def test_fifo_flags_every_record_the_per_pair_rule_flags(forged):
    msg = GetKey("APP_A", "APP_B", "R1")
    records = [env(msg, sender, receiver, seq=seq) for sender, receiver, seq in forged]
    assert set(pair_fifo(records)) <= set(flagged_indices(audit_fifo(records)))


def test_fifo_rules_find_nothing_on_real_runs():
    for result in oracle_runs():
        records = [decode(line) for line in result.trace_lines]
        assert audit_fifo(records) == []
        assert pair_fifo(records) == []


# ── oracle: the body-based scans the two octet audits replaced ──


def body_controller_blindness(records: list[Envelope]) -> list[str]:
    violations = []
    for i, record in enumerate(records):
        if record.sender != QUSEC_ID and record.receiver != QUSEC_ID:
            continue
        body = message_to_body(record.msg)
        present = [f for f in OCTET_FIELDS if f in body]
        if present:
            violations.append(
                f"record {i}: controller record carries {present} ({message_type(record.msg)})"
            )
    return violations


def body_plaintext_channels(records: list[Envelope]) -> list[str]:
    violations = []
    for i, record in enumerate(records):
        body = message_to_body(record.msg)
        for name in PLAINTEXT_OCTET_FIELDS:
            if body.get(name) and record.channel != CHANNEL_INTRA:
                violations.append(f"record {i}: plaintext {name!r} on {record.channel} channel")
    return violations


BAD_RECORDS = [
    env(KeyDelivery("k1", KEY, STATUS_OK, "R1"), "vKMS_1", QUSEC_ID, CHANNEL_CONTROL),
    env(KeyDelivery("k1", b"", STATUS_OK, "R1"), QUSEC_ID, "vKMS_1", CHANNEL_CONTROL),
    env(ext_request(KEY), channel=CHANNEL_CONTROL),
    env(ext_request(KEY), channel=CHANNEL_INTER),
    env(KeyDelivery("k1", KEY, STATUS_OK, "R1"), channel=CHANNEL_INTER),
]


def oracle_runs():
    for topology, scenario in (
        ("mesh4_direct.json", "direct.json"),
        ("mesh4_relay.json", "relay1hop.json"),
        ("chain32.json", "linear32.json"),
    ):
        yield run(
            load_topology_file(data_path("topologies", topology)),
            load_scenario(data_path("scenarios", scenario)),
            seed=3,
        )
    raw = grid_dict(5, initial_pool=16, session_lifetime_ms=150)
    events = grid_events(raw, random.Random(5), pairs=30)
    faults = [
        {"at": 0, "event": "corrupt_message", "n": 2, "of_type": "key_relay"},
        {"at": 0, "event": "corrupt_message", "n": 9, "of_type": "ext_key_request"},
        {"at": 0, "event": "drop_message", "n": 40},
    ]
    yield run_events(topology_from_dict(raw), faults + events, seed=4)


def test_octet_audits_match_body_scans():
    compared = 0
    for result in oracle_runs():
        records = [decode(line) for line in result.trace_lines] + BAD_RECORDS
        for new, old in (
            (audit_controller_blindness, body_controller_blindness),
            (audit_plaintext_channels, body_plaintext_channels),
        ):
            want = old(records)
            assert want, "the bad records must give the oracle something to find"
            assert new(records) == want
        compared += len(records)
    assert compared > 1000


# ── the streamed pass: audits run at delivery ──


def test_run_audits_equal_batch_audits_over_the_trace():
    """run() audits each record as it is delivered; over the finished trace,
    the batch audits give exactly the same violations."""
    faulted = 0
    for result in oracle_runs():
        records = [decode(line) for line in result.trace_lines]
        linksim = result.sim.linksim
        assert result.report["audits"] == {
            "controller_blindness": audit_controller_blindness(records),
            "plaintext_channels": audit_plaintext_channels(records),
            "otp_wire": audit_otp_wire(records, linksim),
            "fifo": audit_fifo(records),
        }
        faulted += bool(result.report["audits"]["otp_wire"])
    assert faulted == 1, "the faulted grid must give otp_wire something to find"


def test_corrupted_key_relay_violation_names_its_trace_line():
    result = run_events(
        mesh4({"APP_A": "N1", "APP_B": "N4"}),
        [
            {"at": 0, "event": "corrupt_message", "n": 1, "of_type": "key_relay"},
            {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        ],
    )
    (violation,) = result.report["audits"]["otp_wire"]
    index = int(violation.split(":")[0].removeprefix("record "))
    assert violation == f"record {index}: payload != K1 xor K2"
    record = decode(result.trace_lines[index])
    assert message_type(record.msg) == "key_relay"
    assert record == result.sim.transport.corrupted[0]
    assert result.exit_code == 0  # a corrupted KeyRelay excuses otp_wire


def pumped(records: list[Envelope], linksim: LinkSimulator) -> dict[str, list[str]]:
    """The violations a kernel's pump finds when records are delivered in
    order, each to a sink, with their seqs as given."""
    transport = Transport()
    for entity_id in sorted({r.sender for r in records} | {r.receiver for r in records}):
        transport.register(Sink(entity_id))
    kernel = SimKernel(transport, RecordChecker(linksim))
    transport.queue.extend(records)
    kernel.run_to_quiescence()
    assert [decode(line) for line in kernel.trace_lines] == records
    return kernel.checker.violations


def batch_audits(records: list[Envelope], linksim: LinkSimulator) -> dict[str, list[str]]:
    return {
        "controller_blindness": audit_controller_blindness(records),
        "plaintext_channels": audit_plaintext_channels(records),
        "otp_wire": audit_otp_wire(records, linksim),
        "fifo": audit_fifo(records),
    }


def test_pump_audits_equal_batch_audits_on_bad_records():
    """Records that break each rule, delivered by a real pump, give the
    violations the batch audits give, every rule finding something."""
    linksim, k1, k2 = relay_keys()
    good = otp_xor(linksim.find_material(k1), linksim.find_material(k2))
    msg = GetKey("APP_A", "APP_B", "R1")
    records = BAD_RECORDS + [
        key_relay(good, k1, k2),
        key_relay(linksim.find_material(k1), k1, k2),
        env(KeyRelay(KEY, "no-such-key", k1, "APP_A", "APP_B", "a1"), QUSEC_ID, "KMS_2a",
            CHANNEL_CONTROL, seq=2),
        env(msg, "APP_A", "vKMS_1", CHANNEL_INTRA, seq=3),
        env(msg, "APP_A", "vKMS_1", CHANNEL_INTRA, seq=3),  # repeats APP_A's seq
    ]
    online = pumped(records, linksim)
    assert online == batch_audits(records, linksim)
    assert all(online.values())
    assert online["fifo"][-1] == f"record {len(records) - 1}: seq 3 after 3 from 'APP_A'"


def relay_messages(linksim: LinkSimulator, k1: str, k2: str) -> list:
    good = otp_xor(linksim.find_material(k1), linksim.find_material(k2))
    return [
        GetKey("APP_A", "APP_B", "R1"),
        KmsDiscoveryRequest("APP_A", "APP_B", "get_key", "R1"),
        KeyDelivery("k1", KEY, STATUS_OK, "R1"),
        KeyDelivery("", b"", STATUS_NO_KEY, "R1"),
        ext_request(KEY),
        ext_request(b""),
        KeyRelay(good, k2, k1, "APP_A", "APP_B", "a1"),
        KeyRelay(linksim.find_material(k1), k2, k1, "APP_A", "APP_B", "a1"),
        KeyRelay(KEY, "no-such-key", k1, "APP_A", "APP_B", "a1"),
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 8),
            st.sampled_from(["APP_A", "vKMS_1", "KMS_1a", QUSEC_ID]),
            st.sampled_from(["vKMS_1", "KMS_2a", QUSEC_ID]),
            st.sampled_from([CHANNEL_INTRA, CHANNEL_INTER, CHANNEL_CONTROL]),
            st.integers(-1, 4),
        ),
        max_size=25,
    )
)
def test_pump_audits_equal_batch_audits_on_drawn_records(drawn):
    """Any stream of records, key material on any channel to or from any
    entity, with seqs that repeat, fall or start at or below zero: the pump
    finds what the batch audits find."""
    linksim, k1, k2 = relay_keys()
    messages = relay_messages(linksim, k1, k2)
    records = [
        env(messages[m], sender, receiver, channel, seq)
        for m, sender, receiver, channel, seq in drawn
    ]
    assert pumped(records, linksim) == batch_audits(records, linksim)


# Per key-material rule, the records it can flag: the ones its guard lets through.
RULE_ADMITS = {
    "controller_blindness": lambda r: type(r.msg) in OCTET_TYPES
    and QUSEC_ID in (r.sender, r.receiver),
    "plaintext_channels": lambda r: type(r.msg) in OCTET_TYPES and r.channel != CHANNEL_INTRA,
    "otp_wire": lambda r: isinstance(r.msg, KeyRelay),
}


@pytest.mark.parametrize(
    "topology, scenario",
    [
        ("mesh4_direct.json", "direct.json"),
        ("mesh4_relay.json", "relay1hop.json"),
        ("chain32.json", "linear32.json"),
    ],
)
def test_pump_calls_each_rule_on_every_record_it_can_flag(monkeypatch, topology, scenario):
    """On the packaged runs the pump calls each key-material rule on exactly
    the records its guard admits: otp_wire once per delivered key_relay,
    and on the direct run no key-material rule at all."""
    calls: dict[str, list[int]] = {name: [] for name in RULE_ADMITS}
    for name in RULE_ADMITS:
        rule = getattr(RecordChecker, name)

        def spy(self, i, record, rule=rule, seen=calls[name]):
            seen.append(i)
            rule(self, i, record)

        monkeypatch.setattr(RecordChecker, name, spy)
    result = run(
        load_topology_file(data_path("topologies", topology)),
        load_scenario(data_path("scenarios", scenario)),
        seed=3,
    )
    assert result.exit_code == 0
    records = result.records
    for name, admits in RULE_ADMITS.items():
        assert calls[name] == [i for i, r in enumerate(records) if admits(r)], name
    key_relays = result.report["message_counts"].get("key_relay", 0)
    assert len(calls["otp_wire"]) == key_relays
    if scenario == "direct.json":
        assert calls == {name: [] for name in RULE_ADMITS}
    else:
        assert key_relays > 0
