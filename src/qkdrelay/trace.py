"""Trace canonicalization and comparison.

Golden traces must stay valid across seeds, so comparing replaces every
run-specific value by a first-occurrence token: key ids become K1, K2, ...,
association ids A1, ..., octet payloads M1, ... (value-keyed, so records
carrying the same bytes keep the same token and end-to-end equality remains
visible), and per-sender seq numbers are renumbered in delivered order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .protocol import OCTET_FIELDS, Envelope, canonical_json, encode_str

_KEY_ID_FIELDS = ("key_id", "id_relay_key", "id_key_encryption")
_ASSOC_FIELDS = ("id_association",)


class TraceParseError(Exception):
    pass


@dataclass(frozen=True)
class TraceDiff:
    """First divergence between two canonicalized traces; index is None
    when the traces are identical."""

    index: int | None = None
    expected: str | None = None
    actual: str | None = None

    @property
    def is_empty(self) -> bool:
        return self.index is None

    def describe(self) -> str:
        if self.is_empty:
            return "traces identical"
        lines = [f"traces diverge at record {self.index}"]
        lines.append(f"  expected: {self.expected if self.expected is not None else '<end of trace>'}")
        lines.append(f"  actual:   {self.actual if self.actual is not None else '<end of trace>'}")
        return "\n".join(lines)


class _Renamer:
    def __init__(self, prefix: str):
        self.prefix = prefix
        self.names: dict[str, str] = {}

    def __call__(self, value: str) -> str:
        if value not in self.names:
            self.names[value] = f"{self.prefix}{len(self.names) + 1}"
        return self.names[value]


def canonicalize_lines(lines: list[str]) -> list[str]:
    """Canonical form of a JSON-lines trace (one envelope per line)."""
    keys = _Renamer("K")
    assocs = _Renamer("A")
    materials = _Renamer("M")
    sent_by: dict[str, int] = {}
    out = []
    for i, line in enumerate(lines):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceParseError(f"record {i}: invalid JSON: {exc}") from None
        if not isinstance(obj, dict) or not isinstance(obj.get("body"), dict):
            raise TraceParseError(f"record {i}: not an envelope object")
        body = dict(obj["body"])
        for name in _KEY_ID_FIELDS:
            if name in body and body[name]:
                body[name] = keys(body[name])
        for name in _ASSOC_FIELDS:
            if name in body and body[name]:
                body[name] = assocs(body[name])
        for name in OCTET_FIELDS:
            if name in body and body[name]:
                body[name] = materials(body[name])
        obj["body"] = body
        sender = obj.get("from", "")
        sent_by[sender] = sent_by.get(sender, 0) + 1
        obj["seq"] = sent_by[sender]
        out.append(canonical_json(obj))
    return out


def read_trace_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line for line in (l.strip() for l in fh) if line]


def compare_lines(expected: list[str], actual: list[str]) -> TraceDiff:
    exp = canonicalize_lines(expected)
    act = canonicalize_lines(actual)
    for i in range(max(len(exp), len(act))):
        e = exp[i] if i < len(exp) else None
        a = act[i] if i < len(act) else None
        if e != a:
            return TraceDiff(index=i, expected=e, actual=a)
    return TraceDiff()


def trace_compare(expected_path: str, actual_path: str) -> TraceDiff:
    return compare_lines(read_trace_lines(expected_path), read_trace_lines(actual_path))


def records_to_lines(records: list[Envelope]) -> list[str]:
    return [encode_str(env) for env in records]
