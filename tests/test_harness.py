"""Scenario runner: schema checks, timers, faults, determinism, reports."""

from __future__ import annotations

import gc
import json
import random
import re
import weakref

import pytest

from conftest import (
    chain,
    grid_dict,
    grid_events,
    mesh4,
    mesh4_dict,
    pair_scenario,
    resolved,
    run_events,
    write_json,
)
from qkdrelay import data_path, harness, kms, linksim, load_scenario, protocol, run, vkms
from qkdrelay.harness import (
    ConfigError,
    Scenario,
    ScenarioEvent,
    Simulation,
    load_topology_file,
    scenario_from_dict,
)
from qkdrelay.linksim import derive_key_id
from qkdrelay.protocol import STATUS_NO_KEY, STATUS_OK, STATUS_TIMEOUT
from qkdrelay.topology import topology_from_dict

# ── scenario schema ──


def minimal_events():
    return [{"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"}]


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"events": "nope"}, "must be an array"),
        ({"events": [{"event": "app_get_key"}]}, "'at' must be an integer"),
        ({"events": [{"at": 0, "event": "warp"}]}, "unknown event"),
        ({"events": [{"at": -1, "event": "advance_clock"}]}, ">= 0"),
        (
            {"events": [{"at": 5, "event": "advance_clock"}, {"at": 1, "event": "advance_clock"}]},
            "sorted by time",
        ),
        ({"events": [{"at": 0, "event": "app_get_key", "app_src": "A"}]}, "missing field"),
        (
            {"events": [{"at": 0, "event": "app_get_key", "app_src": "A", "app_dst": "B", "hops": 2}]},
            "unknown field",
        ),
        (
            {"events": [{"at": 0, "event": "app_get_key_with_id", "app_src": "A", "app_dst": "B"}]},
            "exactly one",
        ),
        (
            {"events": [{"at": 0, "event": "app_get_key_with_id", "app_src": "A",
                         "app_dst": "B", "key_id": "k", "key_id_from": "A"}]},
            "exactly one",
        ),
        ({"events": [{"at": 0, "event": "drop_message", "n": 0}]}, "positive"),
        ({"events": [{"at": 0, "event": "tick_links", "dt_ms": 0}]}, "positive"),
        ({"events": [], "expect": {"exit_code": 0}}, "unknown key"),
        ({"events": [], "retries": 3}, "unknown key"),
        (
            {"events": [{"at": 0, "event": "tick_links", "dt_ms": 1, "links": 5}]},
            "array of strings",
        ),
        (
            {"events": [{"at": 0, "event": "tick_links", "dt_ms": 1, "links": "ab"}]},
            "array of strings",
        ),
        (
            {"events": [{"at": 0, "event": "tick_links", "dt_ms": 1, "links": ["a", 1]}]},
            "array of strings",
        ),
        (
            {"events": [{"at": 0, "event": "app_get_key", "app_src": "A", "app_dst": "B",
                         "via_node": ["N1"]}]},
            "'via_node' must be a string",
        ),
        (
            {"events": [{"at": 0, "event": "app_get_key", "app_src": ["A"], "app_dst": "B"}]},
            "'app_src' must be a string",
        ),
        (
            {"events": [{"at": 0, "event": "app_get_key", "app_src": "A", "app_dst": ["B"]}]},
            "'app_dst' must be a string",
        ),
        (
            {"events": [{"at": 0, "event": "app_get_key_with_id", "app_src": "B",
                         "app_dst": "A", "key_id_from": ["A"]}]},
            "'key_id_from' must be a string",
        ),
        (
            {"events": [{"at": 0, "event": "drop_message", "n": 1, "of_type": "key_rely"}]},
            "unknown message type",
        ),
        (
            {"events": [{"at": 0, "event": "corrupt_message", "n": 1, "of_type": ["key_relay"]}]},
            "unknown message type",
        ),
        ({"events": [], "expect": {"final_statuses": "ok"}}, "'final_statuses' must be"),
        ({"events": [], "expect": {"final_statuses": ["ok", "fine"]}}, "'final_statuses' must be"),
        ({"events": [], "expect": {"e2e_match": "yes"}}, "'e2e_match' must be a boolean"),
        ({"events": [], "expect": {"pool_consumed": 5}}, "'pool_consumed' must map"),
        ({"events": [], "expect": {"pool_consumed": {"b": -1}}}, "'pool_consumed' must map"),
        ({"events": [], "expect": {"pool_consumed": {"b": True}}}, "'pool_consumed' must map"),
        ({"events": [], "expect": {"message_counts": 5}}, "'message_counts' must map"),
        ({"events": [], "expect": {"message_counts": {"key_relay": "1"}}}, "'message_counts' must map"),
        ({"events": [], "expect": {"message_counts": {"key_rely": 1}}}, "unknown message type"),
        ({"events": [], "expect": {"trace": 5}}, "'trace' must be a string"),
        (
            {"events": [{"at": 0, "event": "app_get_key_with_id", "app_src": "B",
                         "app_dst": "A", "key_id": ""}]},
            "'key_id' must be a non-empty string",
        ),
        (
            {"events": [{"at": 0, "event": "app_get_key_with_id", "app_src": "B",
                         "app_dst": "A", "key_id": 5}]},
            "'key_id' must be a non-empty string",
        ),
        ({"name": 5, "events": []}, "'name' must be a string"),
        ({"topology": 7, "events": []}, "'topology' must be a string"),
        (
            {"events": [{"at": 0, "event": "drop_message", "n": 1, "of_type": None}]},
            "unknown message type None",
        ),
    ],
)
def test_scenario_schema_rejections(raw, message):
    with pytest.raises(ConfigError, match=message):
        scenario_from_dict(raw)


@pytest.mark.parametrize(
    "raw, message",
    [
        ([], "scenario: top level must be an object"),
        ("events", "scenario: top level must be an object"),
        ({"events": ["app_get_key"]}, "events[0]: expected an object"),
        (
            {"events": [{"at": 0, "event": "advance_clock"}, None]},
            "events[1]: expected an object",
        ),
        ({"events": [], "expect": ["final_statuses"]}, "scenario: 'expect' must be an object"),
        ({"events": [], "expect": None}, "scenario: 'expect' must be an object"),
    ],
)
def test_scenario_rejects_non_objects(raw, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(raw)


def test_scenario_accepts_all_event_kinds():
    scenario = scenario_from_dict(
        {
            "events": [
                {"at": 0, "event": "app_get_key", "app_src": "A", "app_dst": "B"},
                {"at": 1, "event": "tick_links", "dt_ms": 100, "links": ["d"]},
                {"at": 2, "event": "drop_message", "n": 1, "of_type": "key_relay"},
                {"at": 3, "event": "corrupt_message", "n": 2},
                {"at": 4, "event": "advance_clock"},
                {"at": 5, "event": "app_get_key_with_id", "app_src": "B",
                 "app_dst": "A", "key_id_from": "A"},
            ]
        }
    )
    assert [e.event for e in scenario.events] == [
        "app_get_key",
        "tick_links",
        "drop_message",
        "corrupt_message",
        "advance_clock",
        "app_get_key_with_id",
    ]


def test_scenario_accepts_every_expect_key():
    expect = {
        "final_statuses": ["ok", None],
        "e2e_match": False,
        "pool_consumed": {"b": 0},
        "message_counts": {"key_relay": 1},
        "trace": "golden.jsonl",
    }
    assert scenario_from_dict({"events": [], "expect": expect}).expect == expect


def test_key_id_from_without_prior_key_is_config_error(mesh4_relay_topology):
    with pytest.raises(ConfigError, match="no delivered key"):
        run_events(
            mesh4_relay_topology,
            [{"at": 0, "event": "app_get_key_with_id", "app_src": "APP_B",
              "app_dst": "APP_A", "key_id_from": "APP_A"}],
        )


def test_unknown_scenario_app_is_config_error(mesh4_relay_topology):
    with pytest.raises(ConfigError, match="unknown app"):
        run_events(
            mesh4_relay_topology,
            [{"at": 0, "event": "app_get_key", "app_src": "APP_Z", "app_dst": "APP_B"}],
        )


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"event": "tick_links", "dt_ms": 100, "links": ["a", "zz"]},
         "tick_links: unknown link 'zz'"),
        ({"event": "app_get_key", "app_src": "APP_Z", "app_dst": "APP_B"},
         "unknown app 'APP_Z' in scenario event"),
        ({"event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B", "via_node": "N9"},
         "'via_node' names unknown node 'N9'"),
        ({"event": "app_get_key_with_id", "app_src": "APP_B", "app_dst": "APP_A",
          "key_id_from": "APP_Z"},
         "'key_id_from' names unknown app 'APP_Z'"),
    ],
)
def test_scenario_naming_unknown_entities_fails_before_any_event(
    mesh4_relay_topology, monkeypatch, bad, message
):
    executed = []
    execute_event = Simulation.execute_event

    def spy(self, event):
        executed.append(event.event)
        execute_event(self, event)

    monkeypatch.setattr(Simulation, "execute_event", spy)
    events = [
        {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        {"at": 10, **bad},
    ]
    with pytest.raises(ConfigError) as info:
        run_events(mesh4_relay_topology, events)
    assert str(info.value) == message
    assert executed == []
    # The same scenario without the bad event runs, through the same spy.
    assert run_events(mesh4_relay_topology, events[:1]).exit_code == 0
    assert executed == ["app_get_key"]


def test_message_budget_counts_trace_lines(mesh4_relay_topology, monkeypatch):
    monkeypatch.setattr(harness, "_MESSAGE_BUDGET", 5)
    sim = Simulation(mesh4_relay_topology, seed=1)
    sim.execute_event(harness.ScenarioEvent(
        at=0, event="app_get_key", params={"app_src": "APP_A", "app_dst": "APP_B"}
    ))
    with pytest.raises(RuntimeError, match="message budget exhausted"):
        sim.kernel.run_to_quiescence()
    assert len(sim.kernel.trace_lines) == 5


# ── time, timers, faults ──


def test_advance_clock_moves_simulated_time(mesh4_relay_topology):
    result = run_events(
        mesh4_relay_topology, [{"at": 5000, "event": "advance_clock"}]
    )
    assert result.sim.kernel.now_ms == 5000
    assert result.trace_lines == [] and len(result.records) == 0


def test_event_runs_before_a_timer_due_at_the_same_ms():
    """X's get_key at 1000 ms ties with the timeout of A's request, whose
    KeyRelay was dropped at 0: the scenario event runs first."""
    topo = mesh4({"APP_A": "N1", "APP_B": "N4", "APP_X": "N1", "APP_C": "N3"})
    timeout_ms = topo.config.request_timeout_ms
    result = run_events(
        topo,
        [
            {"at": 0, "event": "drop_message", "n": 1, "of_type": "key_relay"},
            {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
            {"at": timeout_ms, "event": "app_get_key", "app_src": "APP_X", "app_dst": "APP_C"},
        ],
        seed=3,
    )
    lines = result.trace_lines
    x_get_key = next(
        i for i, line in enumerate(lines) if '"from":"APP_X"' in line and '"type":"get_key"' in line
    )
    first_timeout = next(i for i, line in enumerate(lines) if STATUS_TIMEOUT in line)
    assert x_get_key < first_timeout
    assert result.sim.kernel.now_ms == timeout_ms


def get_key_event(at: int, app_src: str, app_dst: str) -> ScenarioEvent:
    return ScenarioEvent(at, "app_get_key", {"app_src": app_src, "app_dst": app_dst})


def test_hand_built_scenario_runs_in_stable_time_order():
    topo = mesh4({"APP_A": "N1", "APP_B": "N4", "APP_X": "N1", "APP_C": "N3"})
    unsorted = [
        get_key_event(20, "APP_A", "APP_B"),
        get_key_event(0, "APP_X", "APP_C"),
        get_key_event(20, "APP_C", "APP_X"),
        get_key_event(10, "APP_B", "APP_A"),
    ]
    ordered = [unsorted[1], unsorted[3], unsorted[0], unsorted[2]]
    results = [run(topo, Scenario("s", events, {}), seed=1) for events in (unsorted, ordered)]
    assert [r.app_src for r in results[0].sim.requests] == ["APP_X", "APP_B", "APP_A", "APP_C"]
    assert results[0].trace_lines == results[1].trace_lines
    assert results[0].exit_code == 0


def test_event_before_the_kernel_clock_is_config_error(mesh4_relay_topology):
    sim = Simulation(mesh4_relay_topology, seed=1)
    sim.run_events([ScenarioEvent(at=50, event="advance_clock", params={})])
    with pytest.raises(ConfigError, match="in the past"):
        sim.run_events([get_key_event(60, "APP_A", "APP_B"), get_key_event(40, "APP_A", "APP_B")])
    assert sim.requests == [] and sim.kernel.trace_lines == []
    with pytest.raises(ConfigError, match="in the past"):
        run(mesh4_relay_topology, Scenario("s", [get_key_event(-1, "APP_A", "APP_B")], {}), seed=1)


def test_timer_in_the_past_is_config_error(mesh4_relay_topology):
    sim = Simulation(mesh4_relay_topology, seed=1)
    sim.run_events([ScenarioEvent(at=50, event="advance_clock", params={})])
    with pytest.raises(ConfigError, match=r"in the past \(49 < 50\)"):
        sim.kernel.schedule_timer(-1, lambda: None)
    assert sim.kernel.live_timers() == 0


def test_a_spent_timer_holds_no_callback(mesh4_relay_topology):
    """Cancelling a timer and firing it both drop its callback, and
    live_timers() counts only the handles that still hold one."""
    kernel = Simulation(mesh4_relay_topology, seed=1).kernel
    fired = []
    cancelled = kernel.schedule_timer(10, lambda: fired.append("cancelled"))
    due = kernel.schedule_timer(20, lambda: fired.append("due"))
    armed = kernel.schedule_timer(30, lambda: fired.append("armed"))
    assert kernel.live_timers() == 3
    kernel.cancel_timer(cancelled)
    assert cancelled.callback is None
    assert kernel.live_timers() == 2
    kernel.cancel_timer(cancelled)
    kernel.cancel_timer(None)
    assert kernel.live_timers() == 2
    kernel.run_to_quiescence([ScenarioEvent(25, "advance_clock", {})], lambda event: None)
    assert fired == ["due", "armed"]
    assert due.callback is None and armed.callback is None
    assert kernel.live_timers() == 0


def test_tick_links_selected_links_only():
    topo = mesh4({"APP_A": "N1", "APP_B": "N4"})
    result = run_events(
        topo, [{"at": 0, "event": "tick_links", "dt_ms": 1000, "links": ["a"]}]
    )
    pools = result.sim.linksim.pools
    assert pools["KMS_1a"].generated_total == 8 + 10
    assert pools["KMS_1b"].generated_total == 8


def fast_link_a():
    """mesh4 whose link a has a finite rate that overflows a float once
    multiplied by a dt of two seconds."""
    raw = mesh4_dict({"APP_A": "N1", "APP_B": "N4"})
    raw["links"][0]["key_rate"] = 1e308
    return topology_from_dict(raw)


@pytest.mark.parametrize(
    "params, link_id",
    [
        ({"dt_ms": 2000}, "a"),
        ({"dt_ms": 2000, "links": ["b", "a"]}, "a"),
        ({"dt_ms": 10**400, "links": ["b"]}, "b"),  # dt_ms alone overflows a float
    ],
)
def test_tick_of_non_finite_key_count_is_config_error_before_building(
    monkeypatch, params, link_id
):
    topo = fast_link_a()
    scenario = scenario_from_dict({"events": [{"at": 0, "event": "tick_links", **params}]})
    monkeypatch.setattr(harness, "Simulation", None)  # a run that builds one fails otherwise
    with pytest.raises(ConfigError, match=f"key_rate \\* dt on link '{link_id}' is not finite"):
        run(topo, scenario, seed=1)


def test_tick_of_huge_finite_key_count_runs(monkeypatch):
    derived = []

    def derive(seed, link_id, index):
        derived.append(index)
        assert len(derived) < 1000, "derived ids the run never needed"
        return derive_key_id(seed, link_id, index)

    monkeypatch.setattr(linksim, "derive_key_id", derive)
    topo = fast_link_a()
    events = [
        {"at": 0, "event": "tick_links", "dt_ms": 1000, "links": ["a"]},
        {"at": 1, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
    ]
    result = run(topo, scenario_from_dict({"events": events}), seed=1)
    assert result.exit_code == 0
    assert result.sim.linksim.pools["KMS_1a"].generated_total == 8 + int(1e308)


def test_dropped_relay_process_request_times_out(mesh4_relay_topology):
    result = run_events(
        mesh4_relay_topology,
        [
            {"at": 0, "event": "drop_message", "n": 1, "of_type": "relay_process_request"},
            {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        ],
    )
    (request,) = resolved(result.sim, "APP_A")
    assert request.status == STATUS_TIMEOUT
    assert result.sim.kernel.now_ms == 1000  # the request timeout fired
    assert result.report["quiescent"]
    # K1 was reserved and is gone for good, even though nothing used it.
    assert len(result.sim.linksim.link_consumed_ids("b")) == 1


@pytest.mark.parametrize(
    "of_type, n",
    [
        ("relay_process_request", 1),  # the initiating KMS's timer
        ("get_key", 2),  # vKMS -> KMS: the vKMS's timer alone
    ],
)
def test_topology_request_timeout_reaches_every_hop(of_type, n):
    topo = mesh4({"APP_A": "N1", "APP_B": "N4"}, config={"request_timeout_ms": 50})
    result = run_events(
        topo,
        [
            {"at": 0, "event": "drop_message", "n": n, "of_type": of_type},
            {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        ],
    )
    (request,) = resolved(result.sim, "APP_A")
    assert request.status == STATUS_TIMEOUT
    assert result.sim.kernel.now_ms == 50
    assert result.report["quiescent"]


def test_dropped_key_relay_cascades_timeouts(mesh4_relay_topology):
    result = run_events(
        mesh4_relay_topology,
        [
            {"at": 0, "event": "drop_message", "n": 1, "of_type": "key_relay"},
            {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        ],
    )
    (request,) = resolved(result.sim, "APP_A")
    assert request.status == STATUS_TIMEOUT
    assert result.report["quiescent"]
    # Late completions from upstream hops land as logged orphans.
    orphans = sum(k.orphan_count for k in result.sim.kms.values())
    assert orphans >= 1
    assert result.sim.kms["KMS_4d"].delivered == {}


def test_a_fault_without_of_type_counts_every_message(mesh4_relay_topology):
    request = {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"}
    clean = run_events(mesh4_relay_topology, [request])
    result = run_events(
        mesh4_relay_topology, [{"at": 0, "event": "drop_message", "n": 3}, request]
    )
    # Sends are delivered in send order, so the clean run's third record is
    # the third message sent, whatever its type.
    (dropped,) = result.sim.transport.dropped
    assert dropped == protocol.decode(clean.trace_lines[2])
    assert protocol.message_type(dropped.msg) != "get_key"
    assert result.trace_lines[:2] == clean.trace_lines[:2]


def test_corrupted_key_relay_breaks_e2e_equality(mesh4_relay_topology):
    result = run_events(
        mesh4_relay_topology,
        [
            {"at": 0, "event": "corrupt_message", "n": 1, "of_type": "key_relay"},
            {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
            {"at": 10, "event": "app_get_key_with_id", "app_src": "APP_B",
             "app_dst": "APP_A", "key_id_from": "APP_A"},
        ],
    )
    got_a = resolved(result.sim, "APP_A")[0]
    got_b = resolved(result.sim, "APP_B")[0]
    # Nothing in the protocol detects the flip; only the materials disagree.
    assert got_a.status == got_b.status == STATUS_OK
    assert got_a.material != got_b.material


def test_corruption_detected_by_e2e_expectation(mesh4_relay_topology, tmp_path):
    scenario = scenario_from_dict(
        {
            "name": "corrupted",
            "events": [
                {"at": 0, "event": "corrupt_message", "n": 1, "of_type": "key_relay"},
                {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
                {"at": 10, "event": "app_get_key_with_id", "app_src": "APP_B",
                 "app_dst": "APP_A", "key_id_from": "APP_A"},
            ],
            "expect": {"e2e_match": True},
        }
    )
    result = run(mesh4_relay_topology, scenario, seed=1)
    assert result.exit_code == 1
    (check,) = [c for c in result.report["checks"] if c["check"] == "e2e_match"]
    assert not check["ok"]


def planted(audit: str):
    """A RecordChecker rule that reports one violation, on the first record
    it is applied to."""

    def rule(self, i, env):
        if not self.violations[audit]:
            self.violations[audit].append(f"record {i}: planted")

    return rule


@pytest.mark.parametrize(
    "fault, changed",
    [
        # relay_process_request carries no octet field: corrupting it is a no-op.
        ({"event": "corrupt_message", "n": 1, "of_type": "relay_process_request"}, False),
        # One pair sends a single key_relay, so the fifth never comes.
        ({"event": "drop_message", "n": 5, "of_type": "key_relay"}, False),
        ({"event": "corrupt_message", "n": 1, "of_type": "key_relay"}, True),
        # KMS_3d re-encrypts the altered K1 into the next key_relay.
        ({"event": "corrupt_message", "n": 1, "of_type": "ext_key_request"}, True),
    ],
)
def test_only_a_fault_that_changed_a_message_excuses_audits(
    mesh4_relay_topology, monkeypatch, caplog, fault, changed
):
    """A corruption that alters relayed key material breaks otp_wire and
    excuses it; no fault excuses any other audit."""
    events = [{"at": 0, **fault}] + [
        {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        {"at": 10, "event": "app_get_key_with_id", "app_src": "APP_B",
         "app_dst": "APP_A", "key_id_from": "APP_A"},
    ]
    result = run_events(mesh4_relay_topology, events)
    transport = result.sim.transport
    assert result.report["quiescent"]
    assert len(transport.corrupted) + len(transport.dropped) == int(changed)
    assert ("fault: corrupted" in caplog.text) == changed
    assert bool(result.report["audits"]["otp_wire"]) == changed
    assert result.exit_code == 0

    monkeypatch.setattr(harness.RecordChecker, "fifo", planted("fifo"))
    result = run_events(mesh4_relay_topology, events)
    assert result.report["audits"]["fifo"] == ["record 0: planted"]
    assert result.exit_code == 1


def test_a_drop_excuses_no_audit(mesh4_relay_topology, monkeypatch):
    monkeypatch.setattr(harness.RecordChecker, "otp_wire", planted("otp_wire"))
    result = run_events(
        mesh4_relay_topology,
        [
            {"at": 0, "event": "drop_message", "n": 1, "of_type": "key_relay"},
            {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
        ],
    )
    assert len(result.sim.transport.dropped) == 1
    assert result.report["quiescent"]
    assert result.report["audits"]["otp_wire"]
    assert result.exit_code == 1


# ── determinism and quiescence ──


def test_identical_scenario_and_seed_identical_raw_trace(mesh4_relay_topology):
    one = run(mesh4_relay_topology, pair_scenario(), seed=123)
    two = run(mesh4_relay_topology, pair_scenario(), seed=123)
    assert one.trace_lines == two.trace_lines
    assert one.report["message_counts"] == two.report["message_counts"]


def test_fault_free_runs_quiesce(mesh4_relay_topology):
    result = run(mesh4_relay_topology, pair_scenario(), seed=1)
    assert result.report["quiescent"]
    assert result.sim.transport.pending() == 0
    assert result.sim.kernel.live_timers() == 0


def test_report_shape(mesh4_relay_topology):
    result = run(mesh4_relay_topology, pair_scenario(), seed=1)
    report = result.report
    assert report["records"] == 22
    assert report["requests"][0]["status"] == STATUS_OK
    assert report["requests"][0]["app_src"] == "APP_A"
    assert report["pools"]["b"]["consumed_distinct"] == 1
    assert report["controller"]["install_count"] == 4
    assert all(not v for v in report["audits"].values())
    assert report["sim_time_ms"] == 10


def test_final_status_expectation_failure_sets_exit_1(mesh4_relay_topology):
    scenario = pair_scenario(expect={"final_statuses": ["ok", "failed_no_key"]})
    result = run(mesh4_relay_topology, scenario, seed=1)
    assert result.exit_code == 1


def test_message_count_expectation(mesh4_relay_topology):
    scenario = pair_scenario(expect={"message_counts": {"key_relay": 1, "relay_path_install": 4}})
    assert run(mesh4_relay_topology, scenario, seed=1).exit_code == 0
    scenario = pair_scenario(expect={"message_counts": {"key_relay": 2}})
    assert run(mesh4_relay_topology, scenario, seed=1).exit_code == 1


# ── packaged data ──


def test_packaged_direct_scenario_passes_golden():
    topology = load_topology_file(data_path("topologies", "mesh4_direct.json"))
    scenario = load_scenario(data_path("scenarios", "direct.json"))
    result = run(topology, scenario, seed=7)  # any seed must match the golden
    assert result.exit_code == 0
    assert result.diff is not None and result.diff.is_empty


def test_packaged_relay_scenario_passes_golden():
    topology = load_topology_file(data_path("topologies", "mesh4_relay.json"))
    scenario = load_scenario(data_path("scenarios", "relay1hop.json"))
    result = run(topology, scenario, seed=7)
    assert result.exit_code == 0
    assert result.diff is not None and result.diff.is_empty


def test_packaged_linear32_scenario():
    topology = load_topology_file(data_path("topologies", "chain32.json"))
    scenario = load_scenario(data_path("scenarios", "linear32.json"))
    result = run(topology, scenario, seed=7)
    assert result.exit_code == 0
    assert result.report["message_counts"]["relay_path_install"] == 62


def test_each_record_is_encoded_once(monkeypatch):
    encoded = []

    def counted(encoder):
        def counted_encoder(msg, channel, sender, receiver, seq):
            line = encoder(msg, channel, sender, receiver, seq)
            encoded.append((msg, seq, line))
            return line

        return counted_encoder

    bodies = []
    to_body = protocol.message_to_body

    def counted_body(msg):
        bodies.append(msg)
        return to_body(msg)

    table = {cls: counted(encoder) for cls, encoder in protocol.LINE_ENCODERS.items()}
    # Where delivery looks the encoder table up, and where encode_str (so
    # records_to_lines) does.
    monkeypatch.setattr(harness, "LINE_ENCODERS", table)
    monkeypatch.setattr(protocol, "LINE_ENCODERS", table)
    # Both places a caller may look message_to_body up, as the benchmark patches them.
    monkeypatch.setattr(protocol, "message_to_body", counted_body)
    monkeypatch.setattr(harness, "message_to_body", counted_body)
    topology = load_topology_file(data_path("topologies", "mesh4_relay.json"))
    scenario = load_scenario(data_path("scenarios", "relay1hop.json"))
    result = run(topology, scenario, seed=7)
    assert result.exit_code == 0
    assert result.diff is not None and result.diff.is_empty
    assert len(encoded) == len(result.trace_lines) == 22
    assert [line for _, _, line in encoded] == result.trace_lines
    assert [(env.msg, env.seq) for env in result.records] == [
        (msg, seq) for msg, seq, _ in encoded
    ]
    assert bodies == []


def test_no_delivered_message_outlives_the_run(monkeypatch):
    """After run(), neither the Simulation nor the RunResult holds a
    delivered message: the trace keeps lines only. The one exception is a
    KMS's rule table, whose rules are the RelayPathInstall messages it was
    sent; every survivor must be one of those, and each rule one survivor.
    The kernel hands every delivered record to RecordChecker.check once, so
    that is where the messages are watched."""
    refs = []
    check = harness.RecordChecker.check

    def watched_check(self, i, env):
        refs.append(weakref.ref(env.msg))
        check(self, i, env)

    monkeypatch.setattr(harness.RecordChecker, "check", watched_check)
    for topology, scenario in (
        ("mesh4_direct.json", "direct.json"),
        ("mesh4_relay.json", "relay1hop.json"),
        ("chain32.json", "linear32.json"),
    ):
        result = run(
            load_topology_file(data_path("topologies", topology)),
            load_scenario(data_path("scenarios", scenario)),
            seed=7,
        )
        assert result.exit_code == 0
        gc.collect()
        assert len(refs) == len(result.trace_lines)
        rules = {id(rule) for kms in result.sim.kms.values() for rule in kms.rules.values()}
        alive = [r() for r in refs if r() is not None]
        assert sorted(id(msg) for msg in alive) == sorted(rules)
        refs.clear()


# Rules that fire on all three grid sizes below, after every app's warm-up
# pair has delivered it a key: a lost discovery reply times out at the
# vKMS, a lost or altered relay message at the KMSes of its chain.
GRID_FAULTS = [
    {"at": 0, "event": "drop_message", "n": 3, "of_type": "key_relay"},
    {"at": 0, "event": "corrupt_message", "n": 2, "of_type": "key_relay"},
    {"at": 0, "event": "drop_message", "n": 40, "of_type": "kms_discovery_response"},
    {"at": 0, "event": "drop_message", "n": 70, "of_type": "key_delivery"},
    {"at": 0, "event": "drop_message", "n": 2, "of_type": "relay_process_response"},
]


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("pairs", [10, 40, 160])
def test_a_run_leaves_no_cyclic_garbage(pairs, faults, monkeypatch):
    """Request state is freed by reference counting as each request
    resolves, whether answered or timed out: with the collector off for
    the run and its result kept, a collection afterwards finds nothing."""
    timeouts = {"vkms": 0, "kms": 0}

    def counted(name, on_timeout):
        def spy(self, *args):
            timeouts[name] += 1
            return on_timeout(self, *args)

        return spy

    for name, cls in (("vkms", vkms.VkmsEntity), ("kms", kms.KmsEntity)):
        monkeypatch.setattr(cls, "_on_timeout", counted(name, cls._on_timeout))
    raw = grid_dict(4, initial_pool=24, session_lifetime_ms=None)
    events = grid_events(raw, random.Random(pairs), pairs=pairs)
    if faults:
        events = GRID_FAULTS + events
    topology = topology_from_dict(raw)
    gc.collect()
    gc.disable()
    try:
        result = run_events(topology, events, seed=3)
    finally:
        gc.enable()
    assert gc.collect() == 0
    assert sum(r.status == STATUS_OK for r in result.sim.requests) > pairs
    if faults:
        assert result.sim.transport.faults == []
        assert timeouts["vkms"] > 0 and timeouts["kms"] > 0
    else:
        assert result.exit_code == 0 and timeouts == {"vkms": 0, "kms": 0}


def test_golden_mismatch_reported_with_diff(mesh4_relay_topology, tmp_path):
    golden = tmp_path / "golden.jsonl"
    lines = run(mesh4_relay_topology, pair_scenario(), seed=1).trace_lines
    golden.write_text("\n".join(lines[:-1]) + "\n")  # truncated golden
    scenario = pair_scenario(expect={"trace": "golden.jsonl"})
    scenario.base_dir = str(tmp_path)
    result = run(mesh4_relay_topology, scenario, seed=1)
    assert result.exit_code == 1
    assert result.diff is not None
    assert result.diff.index == len(lines) - 1


def test_missing_scenario_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{{{")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_scenario(str(bad))


def test_topology_file_errors_are_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_topology_file(str(tmp_path / "nope.json"))
    bad = write_json(tmp_path / "bad.json", {"nodes": []})
    with pytest.raises(ConfigError, match="invalid topology"):
        load_topology_file(bad)


# ── multi-request interleaving ──


def test_two_initiators_share_links_without_interference():
    # APP_A and APP_C both relay through link d concurrently.
    topo = mesh4(
        {"APP_A": "N1", "APP_B": "N4", "APP_C": "N2", "APP_D": "N4"}
    )
    result = run_events(
        topo,
        [
            {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
            {"at": 0, "event": "app_get_key", "app_src": "APP_C", "app_dst": "APP_D"},
        ],
    )
    a = resolved(result.sim, "APP_A")[0]
    c = resolved(result.sim, "APP_C")[0]
    assert a.status == c.status == STATUS_OK
    assert a.key_id != c.key_id
    assert a.material != c.material
    assert len(result.sim.linksim.link_consumed_ids("d")) == 2


def test_pool_exhaustion_across_consecutive_relays():
    topo = chain(2, initial_pool=2)
    events = [
        {"at": t, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"}
        for t in (0, 1, 2)
    ]
    result = run_events(topo, events)
    statuses = [r.status for r in resolved(result.sim, "APP_A")]
    assert statuses == [STATUS_OK, STATUS_OK, STATUS_NO_KEY]
