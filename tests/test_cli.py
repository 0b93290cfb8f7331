"""Command-line interface: run, validate, diff, and their exit codes."""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from conftest import ENTITY_ID_CLASHES, chain_dict, mesh4_dict, write_json
from qkdrelay import data_path
from qkdrelay.cli import main
from qkdrelay.harness import load_scenario, load_topology_file, run


@pytest.fixture
def relay_files(tmp_path):
    topo = write_json(
        tmp_path / "topo.json", mesh4_dict({"APP_A": "N1", "APP_B": "N4"})
    )
    scenario = write_json(
        tmp_path / "scenario.json",
        {
            "events": [
                {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
                {"at": 10, "event": "app_get_key_with_id", "app_src": "APP_B",
                 "app_dst": "APP_A", "key_id_from": "APP_A"},
            ],
            "expect": {"final_statuses": ["ok", "ok"], "e2e_match": True},
        },
    )
    return topo, scenario


def test_run_exit_zero_and_report_on_stdout(relay_files, capsys):
    topo, scenario = relay_files
    code = main(["run", "--topology", topo, "--scenario", scenario, "--seed", "5"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["quiescent"] is True
    assert [r["status"] for r in report["requests"]] == ["ok", "ok"]


def test_run_writes_trace_and_report_files(relay_files, tmp_path, capsys):
    topo, scenario = relay_files
    trace = tmp_path / "out.jsonl"
    report_file = tmp_path / "report.json"
    code = main(
        ["run", "--topology", topo, "--scenario", scenario, "--seed", "5",
         "--trace-out", str(trace), "--report-out", str(report_file), "--quiet"]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    lines = trace.read_text().splitlines()
    assert len(lines) == 22
    for line in lines:
        record = json.loads(line)
        assert {"seq", "from", "to", "channel", "type", "body"} <= set(record)
    assert json.loads(report_file.read_text())["records"] == 22


def test_run_expectation_failure_exits_one(relay_files, tmp_path, capsys):
    topo, _ = relay_files
    scenario = write_json(
        tmp_path / "wrong.json",
        {
            "events": [
                {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"}
            ],
            "expect": {"final_statuses": ["failed_no_key"]},
        },
    )
    code = main(["run", "--topology", topo, "--scenario", scenario, "--seed", "5"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    (check,) = report["checks"]
    assert check["ok"] is False and "expected" in check["detail"]


def test_run_golden_diff_goes_to_stderr(relay_files, tmp_path, capsys):
    topo, scenario_path = relay_files
    trace = tmp_path / "actual.jsonl"
    assert main(["run", "--topology", topo, "--scenario", scenario_path,
                 "--seed", "5", "--trace-out", str(trace), "--quiet"]) == 0
    # Drop one line so the golden comparison must fail.
    lines = trace.read_text().splitlines()
    golden = tmp_path / "golden.jsonl"
    golden.write_text("\n".join(lines[:-1]) + "\n")
    scenario = write_json(
        tmp_path / "with_golden.json",
        {
            "events": [
                {"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"},
                {"at": 10, "event": "app_get_key_with_id", "app_src": "APP_B",
                 "app_dst": "APP_A", "key_id_from": "APP_A"},
            ],
            "expect": {"trace": "golden.jsonl"},
        },
    )
    code = main(["run", "--topology", topo, "--scenario", scenario, "--seed", "5", "--quiet"])
    assert code == 1
    assert "trace" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_run_rejects_out_of_range_seed(relay_files, seed, capsys):
    topo, scenario = relay_files
    code = main(["run", "--topology", topo, "--scenario", scenario, "--seed", seed])
    assert code == 2
    assert "u64" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_topology_setting_cache_ttl_is_refused(relay_files, tmp_path, command, capsys):
    # There is no discovery cache: its old key is unknown, whatever its value.
    _, scenario = relay_files
    topo = write_json(tmp_path / "ttl.json", mesh4_dict(config={"cache_ttl_ms": 0}))
    args = ["--topology", topo]
    if command == "run":
        args += ["--scenario", scenario, "--seed", "1"]
    assert main([command, *args]) == 2
    assert "config: unknown key 'cache_ttl_ms'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", [["--weight-policy", "distance"], ["--cache-ttl", "60000"]]
)
def test_run_has_no_setting_flags(relay_files, flag, capsys):
    """Every setting comes from the topology file; run takes no override."""
    topo, scenario = relay_files
    with pytest.raises(SystemExit) as exc:
        main(["run", "--topology", topo, "--scenario", scenario, "--seed", "1", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_removed_delivered_key_ttl_is_an_unknown_key(relay_files, tmp_path, capsys):
    """The delivered store lapses with the session; its old setting is
    rejected like any unknown key."""
    _, scenario = relay_files
    topo = write_json(
        tmp_path / "ttl.json", mesh4_dict(config={"delivered_key_ttl_ms": 500})
    )
    message = "config: unknown key 'delivered_key_ttl_ms'"
    assert main(["validate", "--topology", topo]) == 2
    assert message in capsys.readouterr().err
    assert main(["run", "--topology", topo, "--scenario", scenario, "--seed", "1"]) == 2
    assert message in capsys.readouterr().err


def test_run_expectation_on_unknown_link_exits_two(relay_files, tmp_path, capsys):
    topo, _ = relay_files
    scenario = write_json(
        tmp_path / "zz.json", {"events": [], "expect": {"pool_consumed": {"zz": 1}}}
    )
    assert main(["run", "--topology", topo, "--scenario", scenario, "--seed", "5"]) == 2
    assert "unknown link 'zz'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "expect, message",
    [
        ({"pool_consumed": {"zz": 1}}, "unknown link 'zz'"),
        ({"trace": "no-such-golden.jsonl"}, "cannot read golden trace"),
    ],
)
def test_run_config_error_found_before_simulating(relay_files, tmp_path, capsys, expect, message):
    topo, scenario = relay_files
    raw = json.loads(pathlib.Path(scenario).read_text())
    bad = write_json(tmp_path / "bad.json", {**raw, "expect": expect})
    trace = tmp_path / "trace.jsonl"
    code = main(["run", "--topology", topo, "--scenario", bad, "--seed", "5",
                 "--trace-out", str(trace), "--quiet"])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not trace.exists()


@pytest.mark.parametrize(
    "flag, target",
    [
        ("--trace-out", lambda tmp: tmp / "no-such-dir" / "trace.jsonl"),
        ("--report-out", lambda tmp: tmp),  # a directory
    ],
)
def test_run_unwritable_output_exits_two(relay_files, tmp_path, capsys, flag, target):
    """An output file that cannot be written is a configuration error, not an
    expectation failure: exit 2 with one error line and no traceback."""
    topo, scenario = relay_files
    code = main(["run", "--topology", topo, "--scenario", scenario, "--seed", "5",
                 flag, str(target(tmp_path)), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {flag} file: ")
    assert err.count("\n") == 1


def test_run_missing_files_exit_two(relay_files, tmp_path, capsys):
    topo, scenario = relay_files
    assert main(["run", "--topology", str(tmp_path / "no.json"),
                 "--scenario", scenario, "--seed", "1"]) == 2
    assert main(["run", "--topology", topo,
                 "--scenario", str(tmp_path / "no.json"), "--seed", "1"]) == 2
    capsys.readouterr()


def test_run_weight_policy_changes_path(tmp_path):
    # Two relay routes: 2 hops of 5 km each vs 3 hops of 1 km each.
    raw = chain_dict(2)
    raw["nodes"] += [{"id": "NX"}, {"id": "NY"}]
    raw["links"] += [
        {"id": "x1", "a": "N1", "b": "NX", "key_rate": 10.0, "distance_km": 1.0, "initial_pool": 4},
        {"id": "x2", "a": "NX", "b": "NY", "key_rate": 10.0, "distance_km": 1.0, "initial_pool": 4},
        {"id": "x3", "a": "NY", "b": "N3", "key_rate": 10.0, "distance_km": 1.0, "initial_pool": 4},
    ]
    scenario = write_json(
        tmp_path / "s.json",
        {"events": [{"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"}]},
    )

    def counts(policy):
        # Every setting comes from the topology file, and the report shows it.
        topo = write_json(
            tmp_path / f"{policy}.json",
            {**raw, "weight_policy": policy, "config": {"session_lifetime_ms": 60000}},
        )
        report_file = tmp_path / f"{policy}.report.json"
        code = main(["run", "--topology", topo, "--scenario", scenario, "--seed", "3",
                     "--quiet", "--report-out", str(report_file)])
        assert code == 0
        report = json.loads(report_file.read_text())
        controller = report["controller"]
        assert (controller["weight_policy"], controller["session_lifetime_ms"]) == (policy, 60000)
        return report["message_counts"]

    assert counts("hop_count")["relay_path_install"] == 4  # 2-hop chain
    assert counts("distance")["relay_path_install"] == 6  # 3-hop detour


def test_run_ignores_the_scenario_topology_key(relay_files, tmp_path):
    """run reads its topology from --topology alone: a scenario's own
    `topology` key is not read, even when it names no file. The loaded
    scenario keeps the key, None when it is absent."""
    topo, scenario = relay_files
    raw = json.loads(pathlib.Path(scenario).read_text())
    named = write_json(tmp_path / "named.json", {**raw, "topology": "no-such-topology.json"})
    assert main(["run", "--topology", topo, "--scenario", named, "--seed", "5", "--quiet"]) == 0
    assert load_scenario(named).topology == "no-such-topology.json"
    assert load_scenario(scenario).topology is None


def test_run_unhashable_event_kind_exits_two(relay_files, tmp_path, capsys):
    """An event kind that is a list is an unknown event: one error line,
    no traceback."""
    topo, _ = relay_files
    scenario = write_json(tmp_path / "kind.json", {"events": [{"at": 0, "event": ["x"]}]})
    assert main(["run", "--topology", topo, "--scenario", scenario, "--seed", "5"]) == 2
    assert capsys.readouterr().err == "error: events[0]: unknown event ['x']\n"


def test_validate_reports_derived_kms_layout(tmp_path, capsys):
    topo = write_json(tmp_path / "t.json", mesh4_dict())
    assert main(["validate", "--topology", topo]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["nodes"] == 4 and summary["links"] == 4 and summary["apps"] == 2
    assert summary["weight_policy"] == "hop_count"
    assert {"KMS_1a", "KMS_1b", "KMS_2a", "KMS_2c", "KMS_3b", "KMS_3c", "KMS_3d", "KMS_4d"} == set(
        summary["kms"]
    )


# packaged topology -> sha256 of its `qkdrelay validate` stdout; the two mesh4
# files differ only in where APP_A sits, which the summary does not show.
VALIDATE_STDOUT = {
    "chain32.json": "5989df69f49fe416db257794bfc78ae2e8835a563e144ce24e0e6e4855ba61fe",
    "mesh4_direct.json": "e1a20cc3b26e58571fda5a07f454ad1e1b8df766353786550cf63a101834fbf0",
    "mesh4_relay.json": "e1a20cc3b26e58571fda5a07f454ad1e1b8df766353786550cf63a101834fbf0",
}


@pytest.mark.parametrize("name", sorted(VALIDATE_STDOUT))
def test_validate_packaged_stdout_pinned(name, capsys):
    assert main(["validate", "--topology", data_path("topologies", name)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VALIDATE_STDOUT[name]


def test_validate_lists_all_violations(tmp_path, capsys):
    raw = mesh4_dict()
    raw["links"][0]["key_rate"] = -1.0
    raw["links"][1]["distance_km"] = 0.0
    topo = write_json(tmp_path / "t.json", raw)
    assert main(["validate", "--topology", topo]) == 2
    err = capsys.readouterr().err
    assert err.count("invalid:") == 2


@pytest.mark.parametrize("name", sorted(ENTITY_ID_CLASHES))
def test_shared_entity_ids_exit_two(name, tmp_path, capsys):
    raw, violations = ENTITY_ID_CLASHES[name]
    topo = write_json(tmp_path / "t.json", raw)
    scenario = write_json(tmp_path / "s.json", {"events": []})
    assert main(["validate", "--topology", topo]) == 2
    assert capsys.readouterr().err == "".join(f"invalid: {v}\n" for v in violations)
    assert main(["run", "--topology", topo, "--scenario", scenario, "--seed", "1"]) == 2
    assert capsys.readouterr().err == f"error: invalid topology: {'; '.join(violations)}\n"


def test_validate_bad_json_exits_two(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text("not json")
    assert main(["validate", "--topology", str(path)]) == 2
    assert main(["validate", "--topology", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_validate_read_and_parse_errors_match_run(relay_files, tmp_path, capsys):
    _, scenario = relay_files
    bad = tmp_path / "t.json"
    bad.write_text("not json")
    missing = str(tmp_path / "missing.json")
    for path in (str(bad), missing):
        assert main(["validate", "--topology", path]) == 2
        validate_err = capsys.readouterr().err
        assert main(["run", "--topology", path, "--scenario", scenario, "--seed", "1"]) == 2
        assert capsys.readouterr().err == validate_err
    assert main(["validate", "--topology", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid topology: invalid JSON: ")
    assert main(["validate", "--topology", missing]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read topology: ")


def test_run_writes_the_trace_of_a_failing_run(relay_files, tmp_path, capsys):
    topo, _ = relay_files
    raw = {
        "events": [{"at": 0, "event": "app_get_key", "app_src": "APP_A", "app_dst": "APP_B"}],
        "expect": {"final_statuses": ["failed_no_key"]},
    }
    scenario = write_json(tmp_path / "wrong.json", raw)
    trace = tmp_path / "out.jsonl"
    code = main(["run", "--topology", topo, "--scenario", scenario, "--seed", "5",
                 "--trace-out", str(trace), "--quiet"])
    assert code == 1
    capsys.readouterr()
    result = run(load_topology_file(topo), load_scenario(scenario), seed=5)
    assert result.exit_code == 1 and result.trace_lines
    assert trace.read_bytes() == "".join(f"{line}\n" for line in result.trace_lines).encode()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("key", ["key_rate", "distance_km"])
def test_non_finite_link_number_exits_two(relay_files, tmp_path, capsys, key, literal):
    _, scenario = relay_files
    raw = mesh4_dict({"APP_A": "N1", "APP_B": "N4"})
    raw["links"][0][key] = "@"
    topo = tmp_path / "t.json"
    topo.write_text(json.dumps(raw).replace('"@"', literal), encoding="utf-8")
    assert main(["validate", "--topology", str(topo)]) == 2
    assert main(["run", "--topology", str(topo), "--scenario", scenario, "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count(f"{key!r} must be a finite number") == 2
    assert "Traceback" not in err


def test_tick_of_non_finite_key_count_exits_two(tmp_path, capsys):
    raw = mesh4_dict({"APP_A": "N1", "APP_B": "N4"})
    raw["links"][0]["key_rate"] = 1e308
    topo = write_json(tmp_path / "t.json", raw)
    scenario = write_json(
        tmp_path / "s.json", {"events": [{"at": 0, "event": "tick_links", "dt_ms": 2000}]}
    )
    trace = tmp_path / "trace.jsonl"
    assert main(["validate", "--topology", topo]) == 0
    code = main(["run", "--topology", topo, "--scenario", scenario, "--seed", "1",
                 "--trace-out", str(trace)])
    assert code == 2
    err = capsys.readouterr().err
    assert "tick_links at 0 ms: key_rate * dt on link 'a' is not finite" in err
    assert "Traceback" not in err
    assert not trace.exists()


def test_diff_matching_traces(relay_files, tmp_path, capsys):
    topo, scenario = relay_files
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["run", "--topology", topo, "--scenario", scenario, "--seed", "1",
          "--trace-out", str(a), "--quiet"])
    main(["run", "--topology", topo, "--scenario", scenario, "--seed", "77",
          "--trace-out", str(b), "--quiet"])
    capsys.readouterr()
    assert main(["diff", str(a), str(b)]) == 0
    assert "traces match" in capsys.readouterr().out


def test_diff_divergent_traces(relay_files, tmp_path, capsys):
    topo, scenario = relay_files
    a = tmp_path / "a.jsonl"
    main(["run", "--topology", topo, "--scenario", scenario, "--seed", "1",
          "--trace-out", str(a), "--quiet"])
    lines = a.read_text().splitlines()
    b = tmp_path / "b.jsonl"
    b.write_text("\n".join(reversed(lines)) + "\n")
    capsys.readouterr()
    assert main(["diff", str(a), str(b)]) == 1
    assert "record 0" in capsys.readouterr().out


def test_diff_unreadable_or_malformed_exits_two(tmp_path, capsys):
    good = tmp_path / "good.jsonl"
    good.write_text("")
    assert main(["diff", str(good), str(tmp_path / "missing.jsonl")]) == 2
    bad = tmp_path / "bad.jsonl"
    bad.write_text("garbage\n")
    assert main(["diff", str(good), str(bad)]) == 2
    capsys.readouterr()


# ── files that are not UTF-8: a configuration error, exit 2 ──


@pytest.fixture
def non_utf8(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\xff\xfe{bad")
    return str(path)


def test_validate_non_utf8_topology_exits_two(non_utf8, capsys):
    assert main(["validate", "--topology", non_utf8]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read topology: ")


def test_run_non_utf8_scenario_exits_two(relay_files, non_utf8, capsys):
    topo, _ = relay_files
    assert main(["run", "--topology", topo, "--scenario", non_utf8, "--seed", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read scenario: ")


def test_run_non_utf8_golden_exits_two(relay_files, non_utf8, tmp_path, capsys):
    topo, scenario = relay_files
    raw = json.loads(pathlib.Path(scenario).read_text())
    bad = write_json(tmp_path / "s.json", {**raw, "expect": {"trace": "bad.bin"}})
    assert main(["run", "--topology", topo, "--scenario", bad, "--seed", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read golden trace: ")


def test_diff_non_utf8_trace_exits_two(non_utf8, tmp_path, capsys):
    good = tmp_path / "good.jsonl"
    good.write_text("")
    for expected, actual in ((str(good), non_utf8), (non_utf8, non_utf8)):
        assert main(["diff", expected, actual]) == 2
        assert capsys.readouterr().err.startswith("error: ")


# ── files that cannot be parsed: a configuration error, exit 2 ──


@pytest.fixture
def too_deep(tmp_path):
    """A JSON array nested deeper than the parser can go."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "\n")
    return str(path)


@pytest.mark.parametrize(
    "command, error",
    [
        ("validate", "error: invalid topology: invalid JSON: "),
        ("run", "error: scenario is not valid JSON: "),
        ("diff", "error: record 0: invalid JSON: "),
    ],
    ids=["validate", "run", "diff"],
)
def test_too_deeply_nested_input_exits_two(relay_files, too_deep, capsys, command, error):
    topo, _ = relay_files
    argv = {
        "validate": ["validate", "--topology", too_deep],
        "run": ["run", "--topology", topo, "--scenario", too_deep, "--seed", "1"],
        "diff": ["diff", too_deep, too_deep],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(error) and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, error",
    [
        ("not json\n", "record 0: invalid JSON: "),
        ("[" * 100_000 + "\n", "record 0: invalid JSON: "),
        ("[]\n", "record 0: not an envelope object"),
    ],
    ids=["not_json", "too_deep", "not_an_envelope"],
)
def test_run_unparseable_golden_exits_two(relay_files, tmp_path, capsys, text, error):
    topo, scenario = relay_files
    raw = json.loads(pathlib.Path(scenario).read_text())
    (tmp_path / "golden.jsonl").write_text(text)
    bad = write_json(tmp_path / "s.json", {**raw, "expect": {"trace": "golden.jsonl"}})
    assert main(["run", "--topology", topo, "--scenario", bad, "--seed", "1", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: golden trace: {error}") and err.count("\n") == 1


def test_packaged_golden_survives_cli_diff(tmp_path, capsys):
    # A run at an arbitrary seed must canonically match the shipped golden.
    trace = tmp_path / "t.jsonl"
    code = main(
        ["run",
         "--topology", str(data_path("topologies", "mesh4_relay.json")),
         "--scenario", str(data_path("scenarios", "relay1hop.json")),
         "--seed", "20260819", "--trace-out", str(trace), "--quiet"]
    )
    assert code == 0
    capsys.readouterr()
    golden = str(data_path("goldens", "relay1hop.trace.jsonl"))
    assert main(["diff", golden, str(trace)]) == 0
    capsys.readouterr()
