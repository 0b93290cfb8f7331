"""Trace canonicalization and diffing."""

from __future__ import annotations

import itertools
import json

import pytest

from conftest import faulted_grid_run, mesh4, pair_scenario, parse_trace_line
from qkdrelay import data_path
from qkdrelay.harness import run
from qkdrelay.topology import topology_from_dict
from qkdrelay.trace import (
    TraceDiff,
    TraceParseError,
    canonicalize_lines,
    compare_lines,
    read_trace_lines,
    trace_compare,
)


def relay_lines(seed: int) -> list[str]:
    topo = mesh4({"APP_A": "N1", "APP_B": "N4"})
    return run(topo, pair_scenario(), seed=seed).trace_lines


def test_same_scenario_different_seeds_canonically_equal():
    one, two = relay_lines(1), relay_lines(2)
    assert one != two  # raw ids differ
    assert compare_lines(one, two).is_empty


def test_canonical_form_uses_first_occurrence_tokens():
    lines = relay_lines(3)
    canon = [json.loads(l) for l in canonicalize_lines(lines)]
    key_ids = {
        body.get(f)
        for obj in canon
        for body in [obj["body"]]
        for f in ("key_id", "id_relay_key", "id_key_encryption")
        if body.get(f)
    }
    assert key_ids and all(t.startswith("K") for t in key_ids)
    assocs = {
        obj["body"]["id_association"]
        for obj in canon
        if obj["body"].get("id_association")
    }
    assert assocs == {"A1"}


def test_canonicalization_preserves_material_equality():
    lines = relay_lines(4)
    canon = [json.loads(l) for l in canonicalize_lines(lines)]
    deliveries = [o["body"]["material"] for o in canon if o["type"] == "key_delivery"]
    # Four deliveries of the same E2E key: all carry the same token.
    assert len(deliveries) == 4
    assert len(set(deliveries)) == 1
    relays = [o["body"]["encrypted_relay_key"] for o in canon if o["type"] == "key_relay"]
    assert set(relays).isdisjoint(set(deliveries))  # ciphertext differs from key


def test_seq_renumbered_per_sender_in_delivered_order():
    lines = relay_lines(5)
    canon = [json.loads(l) for l in canonicalize_lines(lines)]
    seen: dict[str, int] = {}
    for obj in canon:
        sender = obj["from"]
        seen[sender] = seen.get(sender, 0) + 1
        assert obj["seq"] == seen[sender]


def test_diff_between_relay_and_direct_traces():
    # Same app placement, different graph: N3-N4 either adjacent or joined
    # through N5. The first records (request + discovery) are identical, so
    # the first divergence is the controller's answer: an install shows up.
    direct = topology_from_dict(
        {
            "nodes": [{"id": "N3"}, {"id": "N4"}],
            "links": [
                {"id": "d", "a": "N3", "b": "N4", "key_rate": 10.0, "distance_km": 5.0, "initial_pool": 4}
            ],
            "apps": [{"id": "APP_A", "node": "N3"}, {"id": "APP_B", "node": "N4"}],
            "weight_policy": "hop_count",
        }
    )
    relayed = topology_from_dict(
        {
            "nodes": [{"id": "N3"}, {"id": "N4"}, {"id": "N5"}],
            "links": [
                {"id": "e", "a": "N3", "b": "N5", "key_rate": 10.0, "distance_km": 5.0, "initial_pool": 4},
                {"id": "f", "a": "N5", "b": "N4", "key_rate": 10.0, "distance_km": 5.0, "initial_pool": 4},
            ],
            "apps": [{"id": "APP_A", "node": "N3"}, {"id": "APP_B", "node": "N4"}],
            "weight_policy": "hop_count",
        }
    )
    expected = run(direct, pair_scenario(), seed=1).trace_lines
    actual = run(relayed, pair_scenario(), seed=1).trace_lines
    diff = compare_lines(expected, actual)
    assert not diff.is_empty
    assert diff.index == 2  # request and discovery match; then installs begin
    assert "relay_path_install" in diff.actual
    assert "diverge" in diff.describe()


def test_diff_on_truncated_trace():
    lines = relay_lines(1)
    diff = compare_lines(lines, lines[:-1])
    assert diff.index == len(lines) - 1
    assert diff.actual is None
    assert "<end of trace>" in diff.describe()


def test_identity_diff_is_empty():
    lines = relay_lines(1)
    diff = compare_lines(lines, list(lines))
    assert diff.is_empty
    assert diff.describe() == "traces identical"


def test_malformed_line_raises():
    with pytest.raises(TraceParseError, match="record 0"):
        canonicalize_lines(["not json"])
    with pytest.raises(TraceParseError, match="not an envelope"):
        canonicalize_lines(['{"seq": 1}'])


def test_trace_compare_reads_files(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    a.write_text("\n".join(relay_lines(1)) + "\n")
    b.write_text("\n".join(relay_lines(9)) + "\n")
    assert trace_compare(str(a), str(b)).is_empty


def test_trace_lines_decode_back_to_envelopes():
    lines = relay_lines(1)
    envs = [parse_trace_line(line) for line in lines]
    assert len(envs) == len(lines)
    assert envs[0].sender == "APP_A"
    with pytest.raises(TraceParseError):
        parse_trace_line('{"seq": "x"}')


# ── the canonical form against its definition ──

# Renamed body fields and their token prefixes, in the order each record's
# fields draw tokens.
REFERENCE_RENAMES = (
    [(name, "K") for name in ("key_id", "id_relay_key", "id_key_encryption")]
    + [("id_association", "A")]
    + [(name, "M") for name in ("material", "value_relay_key", "encrypted_relay_key")]
)


def reference_canonicalize(lines: list[str]) -> list[str]:
    """The canonical form by its definition: json.loads each line, give each
    renamed field's value its first-occurrence token, renumber seq per
    sender, and json.dumps with sorted keys and compact separators."""
    tokens: dict[str, dict] = {"K": {}, "A": {}, "M": {}}
    sent: dict[str, int] = {}
    out = []
    for line in lines:
        obj = json.loads(line)
        body = obj["body"]
        for name, prefix in REFERENCE_RENAMES:
            value = body.get(name)
            if value:
                seen = tokens[prefix]
                if value not in seen:
                    seen[value] = f"{prefix}{len(seen) + 1}"
                body[name] = seen[value]
        sender = obj.get("from", "")
        sent[sender] = sent.get(sender, 0) + 1
        obj["seq"] = sent[sender]
        out.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    return out


def reference_compare(expected: list[str], actual: list[str]) -> TraceDiff:
    exp, act = reference_canonicalize(expected), reference_canonicalize(actual)
    for i in range(max(len(exp), len(act))):
        e = exp[i] if i < len(exp) else None
        a = act[i] if i < len(act) else None
        if e != a:
            return TraceDiff(index=i, expected=e, actual=a)
    return TraceDiff()


def hand_edited(lines: list[str]) -> list[str]:
    """lines as a hand-edited golden might hold them: spaces after
    separators, keys in reverse order, a sender id with é written raw on
    even lines and as \\u00e9 on odd ones, and on a few records a nested
    non-empty ext and true, 1.0 and null values."""
    out = []
    for i, line in enumerate(lines):
        obj = json.loads(line)
        obj["from"] += "é"
        body = obj["body"]
        if i % 5 == 0:
            body["ext"] = {"z": [1.0, True, None, {"é": "é"}], "a": {"b": 1, "a": -0.5}}
        if i % 7 == 3:
            body.update(flag=True, ratio=1.0, none=None)
        obj["body"] = dict(reversed(body.items()))
        obj = dict(reversed(obj.items()))
        out.append(json.dumps(obj, separators=(", ", ": "), ensure_ascii=i % 2 == 1))
    return out


def test_canonical_form_and_diff_match_the_reference():
    goldens = [
        read_trace_lines(data_path("goldens", name))
        for name in ("direct.trace.jsonl", "relay1hop.trace.jsonl")
    ]
    edited = [hand_edited(lines) for lines in goldens]
    assert "\\u00e9" in edited[0][1] and "é" in edited[0][0]
    # One record whose seven renamed fields are all new, in reverse order.
    fields = [name for name, _ in REFERENCE_RENAMES]
    fresh = [json.dumps({"body": {name: f"v{i}" for i, name in reversed(list(enumerate(fields)))}})]
    traces = [*goldens, faulted_grid_run().trace_lines, *edited, fresh]
    for lines in traces:
        assert canonicalize_lines(lines) == reference_canonicalize(lines)
    for expected, actual in itertools.product(traces, repeat=2):
        assert compare_lines(expected, actual) == reference_compare(expected, actual)
    assert compare_lines(goldens[1], edited[1]).index == 0
    padded = [f" {line}\t" for line in goldens[1]]
    assert canonicalize_lines(padded) == reference_canonicalize(padded)


@pytest.mark.parametrize(
    "line", ["not json", '{"body":{}} x', "\ufeff{}", '{"body":{"a":"\\x"}}', "{"]
)
def test_unreadable_line_reports_the_json_loads_error(line):
    with pytest.raises(json.JSONDecodeError) as loads_error:
        json.loads(line)
    with pytest.raises(TraceParseError) as exc:
        canonicalize_lines(['{"body":{}}', line])
    assert str(exc.value) == f"record 1: invalid JSON: {loads_error.value}"
