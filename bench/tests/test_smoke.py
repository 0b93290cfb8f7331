"""Smoke test of the benchmark at tiny sizes; runs in seconds.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_DIR = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

MODULES = run.import_simulator()
with open(os.path.join(REPO_DIR, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def tiny_cases(workload: str, workdir: str) -> list[workloads.Case]:
    if workload == "grid_relay":
        return workloads.grid_relay(3, workdir, k=3, pairs=12, initial_pool=32, draws=2)
    if workload == "direct_bulk":
        return workloads.direct_bulk(3, workdir, pairs=40, initial_pool=100, draws=2)
    return workloads.packaged_replay(3, MODULES["qkdrelay"].data_path(), loops=2)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_reports_every_metric(workload, tmp_path):
    cases = tiny_cases(workload, str(tmp_path))
    e2e, untraced = run.measure(MODULES["harness"], cases, seconds=0)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in e2e.values())

    layers, traced = run.trace_layers(MODULES, cases, 0, str(tmp_path / "spans.json"))
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert traced["trace_sha256"] == untraced["trace_sha256"]
    assert traced["counts"] == untraced["counts"]
    assert layers["harness.records"][0] == untraced["counts"]["records"]
    assert json.loads((tmp_path / "spans.json").read_text())["spans"]


def test_failed_requests_counts_both_sides_of_a_bad_pair():
    def req(kind, src, dst, status="ok", key_id="k", material="ab"):
        return {"kind": kind, "app_src": src, "app_dst": dst, "status": status,
                "key_id": key_id, "material": material}

    good = [req("get_key", "A", "B"), req("get_key_with_id", "B", "A")]
    other_key = [req("get_key", "A", "B"), req("get_key_with_id", "B", "A", material="cd")]
    failed = [req("get_key", "A", "B", status="failed_no_key", material=""),
              req("get_key_with_id", "B", "A")]
    unresolved = [req("get_key", "A", "B"), req("get_key_with_id", "B", "A", status=None)]
    assert workloads.failed_requests(good) == 0
    assert workloads.failed_requests(good + other_key + failed + unresolved) == 6


def test_reference_job_gives_the_same_result_each_call():
    assert reference.reference_work() == reference.reference_work()


def test_seed_fixes_the_inputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = workloads.grid_relay(7, str(tmp_path / "a"), k=3, pairs=12, draws=2)
    second = workloads.grid_relay(7, str(tmp_path / "b"), k=3, pairs=12, draws=2)
    for one, two in zip(first, second):
        for r1, r2 in zip(one.runs, two.runs):
            assert r1.seed == r2.seed
            with open(r1.scenario_path) as f1, open(r2.scenario_path) as f2:
                assert f1.read() == f2.read()


def test_command_fails_without_the_simulator(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    shutil.copy(os.path.join(REPO_DIR, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "packaged_replay", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
