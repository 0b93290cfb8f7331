"""Scenario runner: builds a network from a topology, drives timed events
through a single deterministic event loop, and checks the resulting trace
against expectations, golden traces, and the protocol's safety audits.

The event loop makes one pass over each record, at the point where it is
delivered: it encodes the trace line, counts the message type and runs the
safety audits that can flag it, and then hands the envelope to its
receiver. Nothing keeps the envelope afterwards, so a run holds its trace
as lines only.

Time is simulated integer milliseconds. Message hops are instantaneous;
the clock only moves between timed events (scenario entries and timers), so
traces carry no timestamps and are stable for golden comparison.
"""

from __future__ import annotations

import heapq
import json
import logging
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

from .kms import KmsEntity
from .linksim import LinkSimulator
from .protocol import (
    CHANNEL_INTRA,
    LINE_ENCODERS,
    MESSAGE_TYPES,
    OCTET_TYPES,
    PLAINTEXT_OCTET_FIELDS,
    QUOTED_CHANNELS,
    STATUS_OK,
    STATUSES,
    TYPE_TAGS,
    Entity,
    Envelope,
    ExtKeyRequest,
    FaultRule,
    GetKey,
    GetKeyWithId,
    KeyDelivery,
    KeyRelay,
    Transport,
    decode,
    message_to_body,  # noqa: F401  unused here; a lookup point the benchmark's tracer patches
    message_type,
    octet_fields,
    otp_xor,
)
from .qusec import QUSEC_ID, QusecEntity
from .topology import (
    ParseError,
    Topology,
    ValidationError,
    load_topology,
)
from .trace import (
    TraceDiff,
    TraceParseError,
    compare_lines,
    read_trace_lines,
    records_to_lines,  # noqa: F401  unused here; a lookup point the benchmark's tracer patches
)
from .vkms import VkmsEntity

log = logging.getLogger(__name__)

_MESSAGE_BUDGET = 1_000_000


class ConfigError(Exception):
    """Bad scenario/topology input; maps to exit code 2. violations lists a
    topology's semantic violations, one per item, when they are the cause."""

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = violations or []


# ── scenario schema ──

_EVENT_FIELDS = {
    "app_get_key": ({"app_src", "app_dst"}, {"via_node"}),
    "app_get_key_with_id": (
        {"app_src", "app_dst"},
        {"via_node", "key_id", "key_id_from"},
    ),
    "tick_links": ({"dt_ms"}, {"links"}),
    "drop_message": ({"n"}, {"of_type"}),
    "corrupt_message": ({"n"}, {"of_type"}),
    "advance_clock": (set(), set()),
}
# Per event kind, the keys its entry must have and the keys it may have,
# "at" and "event" included.
_ENTRY_KEYS = {
    kind: (required | {"at", "event"}, required | optional | {"at", "event"})
    for kind, (required, optional) in _EVENT_FIELDS.items()
}
# The name fields an event may have, in the order they are checked.
_NAME_KEYS = ("app_src", "app_dst", "via_node", "key_id_from")

_EXPECT_KEYS = {
    "final_statuses",
    "e2e_match",
    "pool_consumed",
    "message_counts",
    "trace",
}


@dataclass
class Scenario:
    """A checked scenario. Each event is its entry as given, a mapping with
    "at" and "event" beside the handler's own fields; a name field holds the
    one str object the scenario keeps for that name. topology is the path
    the scenario names, relative to base_dir, or None; run does not read it."""

    name: str
    events: list[dict]
    expect: dict
    base_dir: str = "."
    topology: str | None = None


def scenario_from_dict(raw: dict, base_dir: str = ".", name: str = "scenario") -> Scenario:
    """Check raw and return it as a Scenario, its entries kept as its events.

    Each entry is checked in one pass: its "at" and kind first, then its
    key set, then its values. An entry's shape is its kind and its keys in
    order, and a scenario repeats a few shapes many times, so each shape's
    key set is checked at its first entry only; the values are checked on
    every entry. A ConfigError names the first bad entry and its first
    fault."""
    if not isinstance(raw, dict):
        raise ConfigError("scenario: top level must be an object")
    unknown = set(raw) - {"name", "topology", "events", "expect"}
    if unknown:
        raise ConfigError(f"scenario: unknown key {sorted(unknown)[0]!r}")
    for key in ("name", "topology"):
        if key in raw and not isinstance(raw[key], str):
            raise ConfigError(f"scenario: {key!r} must be a string")
    if "events" not in raw or not isinstance(raw["events"], list):
        raise ConfigError("scenario: 'events' must be an array")

    events = raw["events"]
    last_at = 0
    names: dict[str, str] = {}  # name -> the one str object held for it
    # Per kind, each shape seen so far whose key set passed (the entry's
    # keys, in order) and the name fields it holds.
    shapes: dict[str, dict[tuple, tuple[str, ...]]] = {kind: {} for kind in _ENTRY_KEYS}
    for i, entry in enumerate(events):
        if not isinstance(entry, dict):
            raise ConfigError(f"events[{i}]: expected an object")
        at = entry.get("at")
        if not isinstance(at, int) or isinstance(at, bool):
            raise ConfigError(f"events[{i}]: 'at' must be an integer (simulated ms)")
        kind = entry.get("event")
        try:
            kind_shapes = shapes.get(kind)
        except TypeError:  # a list or an object
            kind_shapes = None
        if kind_shapes is None:
            raise ConfigError(f"events[{i}]: unknown event {kind!r}")
        if at < 0:
            raise ConfigError(f"events[{i}]: 'at' must be >= 0")
        if at < last_at:
            raise ConfigError(f"events[{i}]: events must be sorted by time")
        last_at = at
        shape = tuple(entry)
        name_keys = kind_shapes.get(shape)
        if name_keys is None:
            required, allowed = _ENTRY_KEYS[kind]
            if not required <= entry.keys() <= allowed:
                missing = required - entry.keys()
                if missing:
                    raise ConfigError(f"events[{i}]: missing field {sorted(missing)[0]!r}")
                extra = entry.keys() - allowed
                raise ConfigError(f"events[{i}]: unknown field {sorted(extra)[0]!r}")
            if kind == "app_get_key_with_id" and ("key_id" in entry) == ("key_id_from" in entry):
                raise ConfigError(f"events[{i}]: exactly one of 'key_id'/'key_id_from' is required")
            name_keys = kind_shapes[shape] = tuple(key for key in _NAME_KEYS if key in entry)
        if name_keys:  # an app request: it has app_src and app_dst
            # Names are stored once: equal values, but one str object per
            # name across the scenario, not one per event. The table is the
            # scenario's own, not sys.intern's, which would grow for the rest
            # of the process. A str subclass is accepted and stored as a str.
            for key in name_keys:
                value = entry[key]
                if type(value) is not str:
                    if not isinstance(value, str):
                        raise ConfigError(f"events[{i}]: {key!r} must be a string")
                    value = str(value)
                entry[key] = names.setdefault(value, value)
            if "key_id" in entry and not (isinstance(entry["key_id"], str) and entry["key_id"]):
                raise ConfigError(f"events[{i}]: 'key_id' must be a non-empty string")
        elif kind in ("drop_message", "corrupt_message"):
            n = entry["n"]
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise ConfigError(f"events[{i}]: 'n' must be a positive integer")
            # An absent of_type counts every message; a present one names a type.
            if "of_type" in entry:
                of_type = entry["of_type"]
                if not isinstance(of_type, str) or of_type not in MESSAGE_TYPES:
                    raise ConfigError(f"events[{i}]: unknown message type {of_type!r}")
        elif kind == "tick_links":
            dt = entry["dt_ms"]
            if isinstance(dt, bool) or not isinstance(dt, int) or dt <= 0:
                raise ConfigError(f"events[{i}]: 'dt_ms' must be a positive integer")
            links = entry.get("links", [])
            if not isinstance(links, list) or not all(isinstance(l, str) for l in links):
                raise ConfigError(f"events[{i}]: 'links' must be an array of strings")

    expect = raw.get("expect", {})
    if not isinstance(expect, dict):
        raise ConfigError("scenario: 'expect' must be an object")
    unknown = set(expect) - _EXPECT_KEYS
    if unknown:
        raise ConfigError(f"scenario expect: unknown key {sorted(unknown)[0]!r}")
    _check_expect_schema(expect)

    return Scenario(
        name=raw.get("name", name),
        events=events,
        expect=expect,
        base_dir=base_dir,
        topology=raw.get("topology"),
    )


def _check_expect_schema(expect: dict) -> None:
    statuses = expect.get("final_statuses", [])
    if not isinstance(statuses, list) or not all(s is None or s in STATUSES for s in statuses):
        raise ConfigError("scenario expect: 'final_statuses' must be an array of statuses or null")
    if not isinstance(expect.get("e2e_match", False), bool):
        raise ConfigError("scenario expect: 'e2e_match' must be a boolean")
    for key, what in (("pool_consumed", "link ids"), ("message_counts", "message types")):
        counts = expect.get(key, {})
        if not isinstance(counts, dict) or not all(
            isinstance(k, str) and isinstance(v, int) and not isinstance(v, bool) and v >= 0
            for k, v in counts.items()
        ):
            raise ConfigError(f"scenario expect: {key!r} must map {what} to counts >= 0")
    unknown = expect.get("message_counts", {}).keys() - MESSAGE_TYPES.keys()
    if unknown:
        raise ConfigError(f"scenario expect: unknown message type {sorted(unknown)[0]!r}")
    if not isinstance(expect.get("trace", ""), str):
        raise ConfigError("scenario expect: 'trace' must be a string")


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: a value nested deeper than the parser can go.
        raise ConfigError(f"scenario is not valid JSON: {exc}") from None
    return scenario_from_dict(
        raw,
        base_dir=os.path.dirname(os.path.abspath(path)),
        name=os.path.splitext(os.path.basename(path))[0],
    )


# ── application endpoints ──


@dataclass(slots=True)
class AppRequest:
    app_src: str
    app_dst: str
    kind: str
    status: str | None = None
    key_id: str | None = None
    material: bytes | None = None


class AppEndpoint(Entity):
    """Harness-driven application; each delivery fills in the outstanding
    request its id_request names."""

    def __init__(self, app_id: str, node_id: str):
        super().__init__(app_id, node_id=node_id)
        # id_request -> the request, until its delivery arrives.
        self.outstanding: dict[str, AppRequest] = {}
        self.last_ok_key_id: str | None = None

    def on_message(self, env: Envelope) -> None:
        msg = env.msg
        if not isinstance(msg, KeyDelivery):
            log.warning("%s ignoring %s", self.entity_id, message_type(msg))
            return
        request = self.outstanding.pop(msg.id_request, None)
        if request is None:
            log.warning("%s dropping orphan delivery for %s", self.entity_id, msg.id_request)
            return
        request.status = msg.status
        request.key_id = msg.key_id
        request.material = msg.material
        if msg.status == STATUS_OK and msg.key_id:
            self.last_ok_key_id = msg.key_id


# ── deterministic kernel: event heap + instantaneous message pump ──


class TimerHandle:
    """A timer armed at the kernel: ``at`` is its deadline (simulated ms)
    and ``callback`` is what it will run, None once it is cancelled or has
    fired. A spent handle holds nothing, so what its callback referenced is
    freed by reference counting as soon as the wait ends, not by the
    cyclic collector. The handle enters the kernel's heap only if it is
    still armed when the drain that armed it ends."""

    __slots__ = ("callback", "at")

    def __init__(self, callback, at: int):
        self.callback = callback
        self.at = at


class SimKernel:
    """Single event loop owning the clock, the transport pump, and timers.

    The loop walks two time-ordered sources at once: the scenario's events,
    in a list sorted by ``at``, and the runtime timers, in a heap ordered by
    (time, arm order). At each step it runs the next event if its time is
    not after the heap's top, else it pops the heap, so an event beats a
    timer due at the same ms. Scenario events never enter the heap.

    A timer is armed into ``_armed``, the list of the current drain, and
    enters the heap only if it is still armed when the pump runs the queue
    dry. Message hops take no simulated time, so a wait whose reply comes
    back in the same drain (every wait of a fault-free run) never reaches
    the heap. The flush pushes in arm order, and no timer fires while the
    pump drains; the loop pumps once before it first reads the heap and
    again after every event and every timer callback, so the heap still
    yields timers in (time, arm order).

    The pump is where each record is delivered, and the one place that
    reads it. It drains the transport's ``queue`` in place, so what
    handlers send while it runs is delivered in the same pass. For each
    record it appends the line to ``trace_lines`` (record i is line i),
    bumps its message class in ``type_counts`` and audits it into
    ``checker``, whose violation lists are the run's audits. The FIFO rule
    runs inline, on the checker's ``last_seq`` table; ``checker.fifo`` is
    called only on a seq that does not rise, to record it. Each
    key-material rule is called only on the records its guard admits:
    controller_blindness on OCTET_TYPES records to or from the controller,
    plaintext_channels on those off ``intra_node``, otp_wire on each
    KeyRelay. Then the receiver's ``on_message`` gets it. The line is
    the message type's encoder from ``LINE_ENCODERS`` applied to the
    message, the record's channel and its sender and receiver ids, each
    quoted as a JSON string once (the channels at import, the ids when
    their entities registered), and its seq.
    """

    def __init__(self, transport: Transport, checker: RecordChecker):
        self.transport = transport
        self.now_ms = 0
        self._heap: list[tuple[int, int, TimerHandle]] = []
        self._tie = 0
        self._armed: list[TimerHandle] = []
        self.send = transport.send
        self.trace_lines: list[str] = []
        self.type_counts: dict[type, int] = {}
        self.checker = checker

    def schedule_timer(self, delay_ms: int, callback) -> TimerHandle:
        at_ms = self.now_ms + delay_ms
        if at_ms < self.now_ms:
            raise ConfigError(f"cannot schedule in the past ({at_ms} < {self.now_ms})")
        handle = TimerHandle(callback, at_ms)
        self._armed.append(handle)
        return handle

    def cancel_timer(self, handle) -> None:
        """Disarm handle and drop its callback. Cancelled in the drain that
        armed it, the handle never enters the heap; cancelled later, it
        stays there until its time comes. None, or a spent handle, is a
        no-op."""
        if handle is not None:
            handle.callback = None

    def _pump_messages(self) -> None:
        queue = self.transport.queue
        popleft = queue.popleft
        entities = self.transport.entities
        quoted = self.transport.quoted
        channels = QUOTED_CHANNELS
        encoders = LINE_ENCODERS
        lines = self.trace_lines
        counts = self.type_counts
        checker = self.checker
        last_seq = checker.last_seq
        octet_types = OCTET_TYPES
        # The budget bounds one drain, not the run: a dispatch loop is a
        # drain that never ends, while a long clean run has many short ones.
        limit = len(lines) + _MESSAGE_BUDGET
        while queue:
            env = popleft()
            i = len(lines)
            if i >= limit:
                raise RuntimeError("message budget exhausted; dispatch loop suspected")
            seq, sender, receiver, channel, msg = env
            cls = type(msg)
            lines.append(
                encoders[cls](msg, channels[channel], quoted[sender], quoted[receiver], seq)
            )
            counts[cls] = counts.get(cls, 0) + 1
            # The FIFO rule inline. A seq not above the sender's last (0
            # before its first) goes to fifo, which applies the full rule:
            # it records the violation, or stores a first seq below 1,
            # which the transport never sends.
            if seq > last_seq.get(sender, 0):
                last_seq[sender] = seq
            else:
                checker.fifo(i, env)
            # Each key-material rule on the records its guard admits.
            if cls in octet_types:
                if sender == QUSEC_ID or receiver == QUSEC_ID:
                    checker.controller_blindness(i, env)
                if channel != CHANNEL_INTRA:
                    checker.plaintext_channels(i, env)
                if cls is KeyRelay:
                    checker.otp_wire(i, env)
            entities[receiver].on_message(env)
        # The queue is dry: push the waits this drain left open, in arm order.
        armed = self._armed
        if armed:
            heap = self._heap
            for handle in armed:
                if handle.callback is not None:
                    self._tie += 1
                    heapq.heappush(heap, (handle.at, self._tie, handle))
            armed.clear()

    def run_to_quiescence(self, events: Sequence[dict] = (), execute=None) -> None:
        """Run until no message, event or live timer is left. events are
        mappings whose "at" is their time; they must be sorted by it and not
        start before the clock. execute(event) runs one of them."""
        if events and events[0]["at"] < self.now_ms:
            raise ConfigError(
                f"cannot schedule in the past ({events[0]['at']} < {self.now_ms})"
            )
        heap = self._heap
        heappop = heapq.heappop
        pump = self._pump_messages
        pump()
        next_event, n_events = 0, len(events)
        while True:
            if next_event < n_events and (not heap or events[next_event]["at"] <= heap[0][0]):
                event = events[next_event]
                next_event += 1
                self.now_ms = event["at"]
                execute(event)
            elif heap:
                at, _, handle = heappop(heap)
                callback = handle.callback
                if callback is None:
                    continue
                handle.callback = None
                self.now_ms = max(self.now_ms, at)
                callback()
            else:
                return
            pump()

    def live_timers(self) -> int:
        handles = self._armed + [h for _, _, h in self._heap]
        return sum(1 for h in handles if h.callback is not None)


# ── simulation assembly ──


class Simulation:
    """One network instance wired to a kernel, ready to execute scenarios."""

    def __init__(self, topology: Topology, seed: int):
        self.topology = topology
        self.transport = Transport()
        self.linksim = LinkSimulator(topology, seed)
        self.kernel = SimKernel(self.transport, RecordChecker(self.linksim))

        self.qusec = QusecEntity(topology, seed)
        self.vkms: dict[str, VkmsEntity] = {}
        self.kms: dict[str, KmsEntity] = {}
        self.apps: dict[str, AppEndpoint] = {}
        # Every app request, in creation (= scenario event) order.
        self.requests: list[AppRequest] = []

        entities: list[Entity] = [self.qusec]
        for node_id in topology.nodes:
            vkms = VkmsEntity(node_id, topology)
            self.vkms[node_id] = vkms
            entities.append(vkms)
        for link in topology.links.values():
            pool_a, pool_b = self.linksim.link_pools(link.id)
            store_a, store_b = {}, {}
            for end, pool, store, peer_pool, peer_store in (
                (link.a, pool_a, store_a, pool_b, store_b),
                (link.b, pool_b, store_b, pool_a, store_a),
            ):
                kms = KmsEntity(end, pool, store, peer_pool, peer_store, topology.config)
                self.kms[pool.owner_kms] = kms
                entities.append(kms)
        for app_id, node_id in topology.apps.items():
            app = AppEndpoint(app_id, node_id)
            self.apps[app_id] = app
            entities.append(app)

        for entity in entities:
            entity.bind(self.kernel)
            self.transport.register(entity)

        self.linksim.fill_initial()

    # ── scenario event execution ──

    def _resolve_key_id(self, event: dict) -> str:
        if "key_id" in event:
            return event["key_id"]
        source = event["key_id_from"]
        key_id = self.apps[source].last_ok_key_id
        if key_id is None:
            raise ConfigError(f"app {source!r} has no delivered key to reference")
        return key_id

    def _app_request(self, event: dict, with_id: bool) -> None:
        """Send one app request. Its id is its 1-based place in `requests`,
        so it is unique in the run and the same for every seed."""
        app_id = event["app_src"]
        app = self.apps[app_id]
        app_dst = event["app_dst"]
        via_node = event.get("via_node", self.topology.apps[app_id])
        id_request = f"R{len(self.requests) + 1}"
        if with_id:
            msg = GetKeyWithId(app_id, app_dst, self._resolve_key_id(event), id_request)
        else:
            msg = GetKey(app_id, app_dst, id_request)
        request = AppRequest(app_src=app_id, app_dst=app_dst, kind=message_type(msg))
        app.outstanding[id_request] = request
        self.requests.append(request)
        app.send(self.vkms[via_node].entity_id, msg)

    def execute_event(self, event: dict) -> None:
        """Run one scenario entry: its "event" names the kind, and the
        handler reads its own fields from the entry."""
        kind = event["event"]
        if kind == "app_get_key":
            self._app_request(event, with_id=False)
        elif kind == "app_get_key_with_id":
            self._app_request(event, with_id=True)
        elif kind == "tick_links":
            dt_seconds = event["dt_ms"] / 1000.0
            for link_id in event.get("links", self.topology.links):
                self.linksim.tick(link_id, dt_seconds)
        elif kind in ("drop_message", "corrupt_message"):
            op = kind.removesuffix("_message")
            self.transport.add_fault(FaultRule(op=op, nth=event["n"], of_type=event.get("of_type")))
        elif kind == "advance_clock":
            pass  # the timestamp itself moved the clock
        else:  # pragma: no cover - schema rejects earlier
            raise ConfigError(f"unknown event {kind!r}")

    def run_events(self, events: list[dict]) -> None:
        """Run events in time order (a stable sort: equal times keep list
        order) to quiescence."""
        self.kernel.run_to_quiescence(sorted(events, key=itemgetter("at")), self.execute_event)


# ── audits: trace-level safety properties ──


class RecordChecker:
    """The four safety audits, applied one record at a time in delivered
    order; ``i`` is the record's index, which is its trace line. Each rule
    is one method that appends to its own list in ``violations``, and each
    starts with a guard that returns on any record it cannot flag, so the
    batch ``audit_*`` functions apply it to every record. The kernel's
    pump gives the same result with less work: it runs the FIFO rule
    inline and calls each other rule only on the records its guard admits
    (see SimKernel). ``linksim`` is read by otp_wire alone; ``last_seq``,
    the FIFO rule's table, keeps one int per sender, its highest seq."""

    def __init__(self, linksim: LinkSimulator | None = None):
        self.linksim = linksim
        self.violations: dict[str, list[str]] = {
            "controller_blindness": [],
            "plaintext_channels": [],
            "otp_wire": [],
            "fifo": [],
        }
        self.last_seq: dict[str, int] = {}

    def controller_blindness(self, i: int, env: Envelope) -> None:
        """No record to or from the controller may carry a key-material field."""
        if env.sender != QUSEC_ID and env.receiver != QUSEC_ID:
            return
        present = octet_fields(env.msg)
        if present:
            self.violations["controller_blindness"].append(
                f"record {i}: controller record carries {list(present)} ({message_type(env.msg)})"
            )

    def plaintext_channels(self, i: int, env: Envelope) -> None:
        """Plaintext key material only ever rides intra-node records."""
        if env.channel == CHANNEL_INTRA:
            return
        for name in PLAINTEXT_OCTET_FIELDS:
            if getattr(env.msg, name, None):
                self.violations["plaintext_channels"].append(
                    f"record {i}: plaintext {name!r} on {env.channel} channel"
                )

    def otp_wire(self, i: int, env: Envelope) -> None:
        """Every KeyRelay payload must equal K1 xor K2 and differ from K1.

        Material depends only on (seed, link, index), and a KeyRelay names
        only ids its sender already reserved, so the verdict at delivery is
        the one a check after the run would give."""
        msg = env.msg
        if not isinstance(msg, KeyRelay):
            return
        found = self.violations["otp_wire"]
        k1 = self.linksim.find_material(msg.id_relay_key)
        k2 = self.linksim.find_material(msg.id_key_encryption)
        if k1 is None or k2 is None:
            found.append(f"record {i}: KeyRelay names unknown key ids")
            return
        if msg.encrypted_relay_key != otp_xor(k1, k2):
            found.append(f"record {i}: payload != K1 xor K2")
        if any(k2) and msg.encrypted_relay_key == k1:
            found.append(f"record {i}: payload equals K1 with non-zero K2")

    def fifo(self, i: int, env: Envelope) -> None:
        """Each sender's seq exceeds every seq it sent before, as the transport numbers."""
        last = self.last_seq.get(env.sender)
        if last is None or env.seq > last:
            self.last_seq[env.sender] = env.seq
        else:
            self.violations["fifo"].append(f"record {i}: seq {env.seq} after {last} from {env.sender!r}")


def _audit(name: str, records: Sequence[Envelope], linksim: LinkSimulator | None = None) -> list[str]:
    """One audit over a whole trace, by the same rule the run applies."""
    checker = RecordChecker(linksim)
    rule = getattr(checker, name)
    for i, env in enumerate(records):
        rule(i, env)
    return checker.violations[name]


def audit_controller_blindness(records: Sequence[Envelope]) -> list[str]:
    return _audit("controller_blindness", records)


def audit_plaintext_channels(records: Sequence[Envelope]) -> list[str]:
    return _audit("plaintext_channels", records)


def audit_otp_wire(records: Sequence[Envelope], linksim: LinkSimulator) -> list[str]:
    return _audit("otp_wire", records, linksim)


def audit_fifo(records: Sequence[Envelope]) -> list[str]:
    return _audit("fifo", records)


# ── full run with expectations ──


class TraceRecords(Sequence[Envelope]):
    """Read-only view of trace lines as envelopes: item i is
    decode(lines[i]), decoded anew on each read; len() decodes nothing."""

    __slots__ = ("_lines",)

    def __init__(self, lines: list[str]):
        self._lines = lines

    def __len__(self) -> int:
        return len(self._lines)

    def __getitem__(self, index: int) -> Envelope:
        return decode(self._lines[index])


@dataclass
class RunResult:
    sim: Simulation
    trace_lines: list[str]
    report: dict
    exit_code: int
    diff: TraceDiff | None = None

    @property
    def records(self) -> TraceRecords:
        """The delivered envelopes, decoded from trace_lines when read."""
        return TraceRecords(self.trace_lines)


def _check_expectations(
    report: dict, expect: dict, trace_lines: list[str], golden: list[str] | None
) -> tuple[list[dict], TraceDiff | None]:
    """One check per expectation the scenario states, each read from the
    run's report (its requests, pools and message counts), plus the golden
    trace diff when a golden is given."""
    checks: list[dict] = []
    diff: TraceDiff | None = None

    def add(name: str, ok: bool, detail: str = "") -> None:
        checks.append({"check": name, "ok": bool(ok), "detail": detail})

    requests = report["requests"]
    if "final_statuses" in expect:
        wanted = expect["final_statuses"]
        got = [r["status"] for r in requests]
        ok = got == wanted
        add(
            "final_statuses",
            ok,
            "" if ok else f"expected {wanted}, got {got}",
        )

    if "e2e_match" in expect:
        # Materials are hex here, and hex is one-to-one on bytes. A key id
        # is shared when any ok delivery of it differs from its first.
        first: dict[str, str] = {}
        shared: set[str] = set()
        for request in requests:
            key_id, material = request["key_id"], request["material"]
            if request["status"] == STATUS_OK and key_id:
                if first.setdefault(key_id, material) != material:
                    shared.add(key_id)
        matched = not shared
        ok = matched == bool(expect["e2e_match"])
        add(
            "e2e_match",
            ok,
            "" if ok else f"mismatched material for key ids {sorted(shared)}",
        )

    if "pool_consumed" in expect:
        wanted = expect["pool_consumed"]
        pools = report["pools"]
        got = {link_id: pools[link_id]["consumed_distinct"] for link_id in wanted}
        ok = got == wanted
        add("pool_consumed", ok, "" if ok else f"expected {wanted}, got {got}")

    if "message_counts" in expect:
        wanted = expect["message_counts"]
        counts = report["message_counts"]
        got = {k: counts.get(k, 0) for k in wanted}
        ok = got == wanted
        add("message_counts", ok, "" if ok else f"expected {wanted}, got {got}")

    if golden is not None:
        try:
            diff = compare_lines(golden, trace_lines)
        except TraceParseError as exc:  # the run's own lines always parse
            raise ConfigError(f"golden trace: {exc}") from None
        add("golden_trace", diff.is_empty, "" if diff.is_empty else diff.describe())

    return checks, diff


def check_scenario(topology: Topology, scenario: Scenario) -> None:
    """Every check that depends only on (topology, scenario): the links,
    apps and nodes the scenario names exist, each tick generates a finite
    number of keys, and expectations name only known links."""
    unknown = scenario.expect.get("pool_consumed", {}).keys() - topology.links.keys()
    if unknown:
        raise ConfigError(f"expect pool_consumed: unknown link {sorted(unknown)[0]!r}")
    for event in scenario.events:
        kind = event["event"]
        if kind == "tick_links":
            for link_id in event.get("links", topology.links):
                link = topology.links.get(link_id)
                if link is None:
                    raise ConfigError(f"tick_links: unknown link {link_id!r}")
                # key_rate * dt must be a finite float.
                try:
                    finite = math.isfinite(link.key_rate * (event["dt_ms"] / 1000.0))
                except OverflowError:  # dt_ms itself is too large for a float
                    finite = False
                if not finite:
                    raise ConfigError(
                        f"tick_links at {event['at']} ms: key_rate * dt on link {link_id!r} is not finite"
                    )
        elif kind in ("app_get_key", "app_get_key_with_id"):
            app_id = event["app_src"]
            if app_id not in topology.apps:
                raise ConfigError(f"unknown app {app_id!r} in scenario event")
            via_node = event.get("via_node", topology.apps[app_id])
            if via_node not in topology.nodes:
                raise ConfigError(f"'via_node' names unknown node {via_node!r}")
            source = event.get("key_id_from")
            if source is not None and source not in topology.apps:
                raise ConfigError(f"'key_id_from' names unknown app {source!r}")


def run(topology: Topology, scenario: Scenario, seed: int) -> RunResult:
    """Run scenario on a fresh Simulation. Every setting comes from topology:
    its weight_policy and its config. Configuration errors are raised before
    anything is simulated, except a key_id_from whose app has no delivered
    key yet, which only the run can tell, and a golden trace that does not
    parse, which its diff finds after the run."""
    check_scenario(topology, scenario)
    golden = None
    if "trace" in scenario.expect:
        try:
            golden = read_trace_lines(os.path.join(scenario.base_dir, scenario.expect["trace"]))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read golden trace: {exc}") from None

    sim = Simulation(topology, seed)
    sim.run_events(scenario.events)

    kernel = sim.kernel
    trace_lines = kernel.trace_lines

    audits = kernel.checker.violations
    quiescent = (
        sim.transport.pending() == 0
        and sim.kernel.live_timers() == 0
        and all(r.status is not None for r in sim.requests)
    )

    # Altered key material on a KeyRelay, or on an ExtKeyRequest that the
    # next KMS re-encrypts into one, breaks otp_wire: expectations decide.
    # No fault can break another audit, so none excuses it.
    relay_corrupted = any(
        isinstance(env.msg, (KeyRelay, ExtKeyRequest)) for env in sim.transport.corrupted
    )
    audit_ok = all(not v or (name == "otp_wire" and relay_corrupted) for name, v in audits.items())

    report = {
        "scenario": scenario.name,
        "seed": seed,
        "sim_time_ms": sim.kernel.now_ms,
        "quiescent": quiescent,
        "records": len(trace_lines),
        "message_counts": {TYPE_TAGS[cls]: n for cls, n in kernel.type_counts.items()},
        "requests": [
            {
                "app_src": r.app_src,
                "app_dst": r.app_dst,
                "kind": r.kind,
                "status": r.status,
                "key_id": r.key_id,
                "material": r.material.hex() if r.material else "",
            }
            for r in sim.requests
        ],
        "pools": sim.linksim.pool_report(),
        "controller": sim.qusec.dump_state(),
        "audits": audits,
    }
    checks, diff = _check_expectations(report, scenario.expect, trace_lines, golden)
    report["checks"] = checks

    passed = all(c["ok"] for c in checks) and audit_ok and quiescent
    return RunResult(
        sim=sim,
        trace_lines=trace_lines,
        report=report,
        exit_code=0 if passed else 1,
        diff=diff,
    )


def load_topology_file(path: str) -> Topology:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read topology: {exc}") from None
    try:
        return load_topology(text)
    except ParseError as exc:
        raise ConfigError(f"invalid topology: {exc}") from None
    except ValidationError as exc:
        raise ConfigError(f"invalid topology: {exc}", exc.violations) from None
