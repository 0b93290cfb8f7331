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

from .protocol import OCTET_FIELDS, Envelope, encode_str


def _canonical_encoder():
    """canonical_json: JSON text with sorted keys, compact separators and
    ensure_ascii, so every canonical line is ASCII.

    JSONEncoder.encode builds a new C encoder per call, which costs about
    as much as encoding a small record, so the C encoder is built once,
    with the arguments JSONEncoder.iterencode gives it, bar the memo of
    open containers: one shared between calls would keep the entries of a
    call that raised. What canonical_json encodes is parsed JSON, which
    holds no cycle for that memo to catch.
    """
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    make = json.encoder.c_make_encoder
    if make is None:
        return encoder.encode
    iterencode = make(
        None, encoder.default, json.encoder.encode_basestring_ascii, None,
        encoder.key_separator, encoder.item_separator,
        encoder.sort_keys, encoder.skipkeys, encoder.allow_nan,
    )

    def canonical_json(obj) -> str:
        return "".join(iterencode(obj, 0))

    return canonical_json


canonical_json = _canonical_encoder()


# Each renamed body field with its token prefix, in the order a record's
# fields draw tokens: key ids, then association ids, then octet payloads.
_RENAMED_FIELDS = (
    *((name, "K") for name in ("key_id", "id_relay_key", "id_key_encryption")),
    ("id_association", "A"),
    *((name, "M") for name in OCTET_FIELDS),
)

# The scanner that json.loads ends in, called directly to skip the checks
# around it. A line it reads to its end holds exactly the value json.loads
# would return, and a value it cannot read raises the error json.loads
# would. Any other line (whitespace around the value, a BOM, extra data, no
# value at the start, not a str) goes to json.loads, which reads it or
# raises.
_scan = json.JSONDecoder().scan_once


def _parse(line: str):
    try:
        obj, end = _scan(line, 0)
    except (StopIteration, TypeError):
        return json.loads(line)
    return obj if end == len(line) else json.loads(line)


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


def canonicalize_lines(lines: list[str]) -> list[str]:
    """Canonical form of a JSON-lines trace (one envelope per line)."""
    # prefix -> (value -> its token), one renaming per prefix.
    names: dict[str, dict] = {prefix: {} for _, prefix in _RENAMED_FIELDS}
    renamed = [(name, names[prefix], prefix) for name, prefix in _RENAMED_FIELDS]
    sent_by: dict[str, int] = {}
    out = []
    for i, line in enumerate(lines):
        try:
            obj = _parse(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: a value nested deeper than the parser can go.
            raise TraceParseError(f"record {i}: invalid JSON: {exc}") from None
        if not isinstance(obj, dict) or not isinstance(obj.get("body"), dict):
            raise TraceParseError(f"record {i}: not an envelope object")
        # obj is this call's own parse, so its body is renamed in place.
        body = obj["body"]
        for name, tokens, prefix in renamed:
            value = body.get(name)
            if value:
                token = tokens.get(value)
                if token is None:
                    token = tokens[value] = f"{prefix}{len(tokens) + 1}"
                body[name] = token
        sender = obj.get("from", "")
        seq = sent_by[sender] = sent_by.get(sender, 0) + 1
        obj["seq"] = seq
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
