#!/usr/bin/env python3
"""qkdrelay benchmark: end-to-end metrics untraced, per-layer metrics traced.

Usage, from the repository root:

    python3 bench/run.py --workload grid_relay --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

One process runs one workload on one thread, so ``peak_rss_mb`` is that
workload's own high-water mark; ``--workload all`` runs each workload in a
fresh child process, one after another. The simulator is imported from
``src/`` next to this directory and driven as ``qkdrelay run`` drives it:
load the topology and scenario files, then ``harness.run``. The traced run
wraps simulator callables where their callers look them up. Every run must exit 0 (audits and
expectations, goldens included), end quiescent, and give the same trace
bytes and simulated counts each time its inputs recur and in the traced
run. The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every check held.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from reference import REFERENCE_SECONDS, reference_work
from spans import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
WORK_DIR = os.path.join(BENCH_DIR, "work")
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = ("grid_relay", "direct_bulk", "packaged_replay")

# A run times at least this many iterations, and every case at least once
# and the first case twice, so that repeat determinism is always checked.
# Each iteration first times a set-up of its case on its own.
MIN_ITERATIONS = 5
# Shortest timed span that one end-to-end sample averages over.
BLOCK_SECONDS = 0.5
# Share of a block's timed work that the reference job runs after it, and
# how long it runs before the first block (see reference.py).
REFERENCE_SHARE = 0.25
FIRST_REFERENCE_SECONDS = 0.25

clock = time.perf_counter


class CheckFailed(Exception):
    """An output check did not hold."""


def import_simulator() -> dict:
    """The qkdrelay package and its modules, from this checkout's src/ only."""
    if not os.path.isfile(os.path.join(SRC_DIR, "qkdrelay", "__init__.py")):
        raise SystemExit(f"error: no qkdrelay sources under {SRC_DIR}")
    sys.path.insert(0, SRC_DIR)
    import qkdrelay
    from qkdrelay import harness, kms, linksim, protocol, qusec, topology, vkms

    if not os.path.abspath(qkdrelay.__file__).startswith(SRC_DIR + os.sep):
        raise SystemExit(f"error: qkdrelay imported from {qkdrelay.__file__}, not {SRC_DIR}")
    return {
        "qkdrelay": qkdrelay, "harness": harness, "kms": kms, "linksim": linksim,
        "protocol": protocol, "qusec": qusec, "topology": topology, "vkms": vkms,
    }


def build_cases(qkdrelay, workload: str, seed: int, workdir: str) -> list[workloads.Case]:
    if workload == "grid_relay":
        return workloads.grid_relay(seed, workdir)
    if workload == "direct_bulk":
        return workloads.direct_bulk(seed, workdir)
    return workloads.packaged_replay(seed, qkdrelay.data_path())


# ── one case: execute, then check and summarise its outputs ──


def execute(harness, case: workloads.Case) -> list:
    """The case's runs as `qkdrelay run` performs them."""
    results = []
    for r in case.runs:
        topology = harness.load_topology_file(r.topology_path)
        scenario = harness.load_scenario(r.scenario_path)
        results.append(harness.run(topology, scenario, r.seed))
    return results


def set_up(harness, case: workloads.Case) -> None:
    """Everything before the first scenario event: load, validate, build."""
    for r in case.runs:
        topology = harness.load_topology_file(r.topology_path)
        harness.load_scenario(r.scenario_path)
        harness.Simulation(topology, r.seed)


def summarize(results: list) -> dict:
    """Checked outputs of one case: trace digest and exact simulated counts."""
    digest = hashlib.sha256()
    counts: dict[str, int] = {
        "requests": 0,
        "failed_requests": 0,
        "records": 0,
        "trace_bytes": 0,
        "keys_generated": 0,
        "keys_consumed": 0,
        "min_available_end": -1,
        "discoveries": 0,
        "installs": 0,
        "sessions_end": 0,
        "rules_end": 0,
        "delivered_end": 0,
        "orphans": 0,
    }
    statuses: dict[str, int] = {}
    for result in results:
        report = result.report
        where = f"{report['scenario']} seed {report['seed']}"
        if result.exit_code != 0:
            failed = [c for c in report["checks"] if not c["ok"]]
            audits = {k: v[:3] for k, v in report["audits"].items() if v}
            raise CheckFailed(f"{where}: exit code {result.exit_code}; checks {failed}; audits {audits}")
        if not report["quiescent"]:
            raise CheckFailed(f"{where}: run did not reach quiescence")
        # The trace file's bytes, hashed line by line so that no copy of the
        # whole trace adds to the process's peak memory.
        trace_bytes = 0
        for line in result.trace_lines:
            data = line.encode("utf-8") + b"\n"
            digest.update(data)
            trace_bytes += len(data)
        sim = result.sim
        pools = sim.linksim.pools.values()
        available = min(p.counts()["available"] for p in pools)
        counts["requests"] += len(report["requests"])
        counts["failed_requests"] += workloads.failed_requests(report["requests"])
        counts["records"] += len(result.records)
        counts["trace_bytes"] += trace_bytes
        counts["keys_generated"] += sum(p.generated_total for p in pools) // 2
        counts["keys_consumed"] += sum(p.consumed_total for p in pools)
        if counts["min_available_end"] < 0 or available < counts["min_available_end"]:
            counts["min_available_end"] = available
        counts["discoveries"] += sim.qusec.discovery_count
        counts["installs"] += sim.qusec.install_count
        counts["sessions_end"] += len(sim.qusec.sessions)
        counts["rules_end"] += sum(len(k.rules) for k in sim.kms.values())
        counts["delivered_end"] += sum(len(k.delivered) for k in sim.kms.values())
        counts["orphans"] += sum(k.orphan_count for k in sim.kms.values())
        for r in report["requests"]:
            statuses[str(r["status"])] = statuses.get(str(r["status"]), 0) + 1
    return {"sha256": digest.hexdigest(), "counts": counts, "statuses": statuses}


def check_repeat(seen: dict[int, dict], index: int, outcome: dict) -> None:
    if index in seen and seen[index] != outcome:
        raise CheckFailed(
            f"case {index}: outputs differ between runs of the same inputs: "
            f"{seen[index]} != {outcome}"
        )
    seen[index] = outcome


def totals(outcomes: dict[int, dict]) -> dict:
    """Counts and a combined digest over one pass of every case."""
    digest = hashlib.sha256()
    counts: dict[str, int] = {}
    statuses: dict[str, int] = {}
    for index in sorted(outcomes):
        outcome = outcomes[index]
        digest.update(outcome["sha256"].encode())
        for key, value in outcome["counts"].items():
            if key == "min_available_end":
                counts[key] = min(value, counts.get(key, value))
            else:
                counts[key] = counts.get(key, 0) + value
        for key, value in outcome["statuses"].items():
            statuses[key] = statuses.get(key, 0) + value
    return {"trace_sha256": digest.hexdigest(), "counts": counts, "statuses": statuses}


# ── untraced run: end-to-end metrics ──


def reference_slice(seconds: float) -> float:
    """Median host seconds of a reference_work() call, over about `seconds`
    of calls (at least three)."""
    gc.collect()
    calls: list[float] = []
    end = clock() + seconds
    while len(calls) < 3 or clock() < end:
        t0 = clock()
        reference_work()
        calls.append(clock() - t0)
    return statistics.median(calls)


def measure(harness, cases: list[workloads.Case], seconds: float) -> tuple[dict, dict]:
    # Consecutive iterations are grouped into blocks of at least BLOCK_SECONDS
    # of timed work. The reference job runs before the first block and after
    # each one. A block gives one sample: its mean per iteration, scaled to
    # reference speed by the mean reference call time on either side of it.
    samples: list[tuple[float, float, float]] = []
    host: list[tuple[float, float, float]] = []
    n = records = 0
    setup = wall = 0.0
    outcomes: dict[int, dict] = {}
    minimum = max(MIN_ITERATIONS, len(cases) + 1)
    start = clock()
    before = reference_slice(FIRST_REFERENCE_SECONDS)
    i = 0
    while i < minimum or clock() - start < seconds:
        index = i % len(cases)
        # A CLI run starts without garbage from earlier runs; so does each timing.
        gc.collect()
        t0 = clock()
        set_up(harness, cases[index])
        setup += clock() - t0
        gc.collect()
        t0 = clock()
        results = execute(harness, cases[index])
        wall += clock() - t0
        outcome = summarize(results)
        del results
        check_repeat(outcomes, index, outcome)
        records += outcome["counts"]["records"]
        n += 1
        i += 1
        if wall >= BLOCK_SECONDS or (not samples and i >= minimum and clock() - start >= seconds):
            after = reference_slice(REFERENCE_SHARE * (setup + wall))
            scale = 2 * REFERENCE_SECONDS / (before + after)
            samples.append((setup / n * scale, wall / n * scale, records / (wall * scale)))
            host.append((setup / n, wall / n, after))
            before = after
            n = records = 0
            setup = wall = 0.0

    summary = totals(outcomes)
    summary["iterations"] = i
    summary["host_medians"] = {
        "setup_s": statistics.median(h[0] for h in host),
        "wall_s": statistics.median(h[1] for h in host),
        "reference_call_s": statistics.median(h[2] for h in host),
    }
    counts = summary["counts"]
    metrics = {
        "wall_s": (statistics.median(s[1] for s in samples), "s"),
        "setup_s": (statistics.median(s[0] for s in samples), "s"),
        "msgs_per_s": (statistics.median(s[2] for s in samples), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_share": (1.0 - counts["failed_requests"] / counts["requests"], "ratio"),
    }
    return metrics, summary


# ── traced run: per-layer metrics ──

# (metric prefix, module attribute holding the owner, attribute name)
SPANS = (
    ("topology.load", "harness", "load_topology_file"),
    ("harness.load_scenario", "harness", "load_scenario"),
    ("harness.run", "harness", "run"),
    ("harness.simulation_init", "harness.Simulation", "__init__"),
    ("harness.run_events", "harness.Simulation", "run_events"),
    ("harness.audit.controller_blindness", "harness", "audit_controller_blindness"),
    ("harness.audit.plaintext_channels", "harness", "audit_plaintext_channels"),
    ("harness.audit.otp_wire", "harness", "audit_otp_wire"),
    ("harness.audit.fifo", "harness", "audit_fifo"),
    ("harness.expectations", "harness", "_check_expectations"),
    ("trace.records_to_lines", "harness", "records_to_lines"),
    ("trace.canonical_diff", "harness", "compare_lines"),
    ("topology.neighbors", "topology.Topology", "neighbors"),
    ("topology.links_between", "topology.Topology", "links_between"),
    ("linksim.generate_keys", "linksim.LinkSimulator", "generate_keys"),
    ("linksim.reserve_next", "linksim.KeyPool", "reserve_next"),
    ("linksim.find_material", "linksim.LinkSimulator", "find_material"),
    ("qusec.shortest_path", "qusec", "shortest_path"),
    ("qusec.on_message", "qusec.QusecEntity", "on_message"),
    ("vkms.on_message", "vkms.VkmsEntity", "on_message"),
    ("kms.on_message", "kms.KmsEntity", "on_message"),
    ("protocol.send", "protocol.Transport", "send"),
    ("protocol.otp_xor", "kms", "otp_xor"),
    ("protocol.otp_xor", "harness", "otp_xor"),
)
COUNTED = (
    ("protocol.message_to_body", "harness", "message_to_body"),
    ("protocol.message_to_body", "protocol", "message_to_body"),
)
# Span names whose call count is reported next to their self time.
CALL_COUNTS = (
    "topology.neighbors",
    "topology.links_between",
    "linksim.reserve_next",
    "linksim.find_material",
    "qusec.shortest_path",
    "vkms.on_message",
    "kms.on_message",
    "protocol.send",
    "protocol.otp_xor",
)


def install_tracer(modules: dict) -> Tracer:
    tracer = Tracer()

    def owner(path: str):
        module, _, cls = path.partition(".")
        return getattr(modules[module], cls) if cls else modules[module]

    for name, where, attr in SPANS:
        tracer.patch(owner(where), attr, lambda fn, name=name: tracer.span(name, fn))
    for name, where, attr in COUNTED:
        tracer.patch(owner(where), attr, lambda fn, name=name: tracer.count(name, fn))
    return tracer


def layer_metrics(tracer: Tracer, counts: dict) -> dict[str, float]:
    spans = tracer.totals()
    out: dict[str, float] = {}
    for name, _, _ in SPANS:
        calls, self_s = spans.get(name, (0, 0.0))
        out[f"{name}.self_s"] = self_s
        if name in CALL_COUNTS:
            out[f"{name}.calls"] = calls
    out["protocol.message_to_body.per_record"] = (
        tracer.counters["protocol.message_to_body"] / counts["records"]
    )
    return out


def trace_layers(modules: dict, cases: list[workloads.Case], seconds: float,
                 spans_path: str) -> tuple[dict, dict]:
    harness = modules["harness"]
    start = clock()
    outcomes: dict[int, dict] = {}
    untraced_wall = 0.0
    for index, case in enumerate(cases):
        gc.collect()
        t0 = clock()
        results = execute(harness, case)
        untraced_wall += clock() - t0
        check_repeat(outcomes, index, summarize(results))
    summary = totals(outcomes)

    tracer = install_tracer(modules)
    passes: list[dict[str, float]] = []
    walls: list[float] = []
    try:
        while not passes or clock() - start < seconds:
            tracer.reset()
            wall = 0.0
            for index, case in enumerate(cases):
                gc.collect()
                t0 = clock()
                results = tracer.span("bench.case", execute)(harness, case)
                wall += clock() - t0
                check_repeat(outcomes, index, summarize(results))
            walls.append(wall)
            passes.append(layer_metrics(tracer, summary["counts"]))
    finally:
        tracer.restore()
    tracer.write(spans_path, {"summary": summary})

    counts = summary["counts"]
    per_pass_counts = [{k: v for k, v in p.items() if not k.endswith("_s")} for p in passes]
    if any(c != per_pass_counts[0] for c in per_pass_counts):
        raise CheckFailed("traced call counts differ between passes")
    metrics: dict[str, tuple[float, str]] = {}
    for name, value in passes[0].items():
        if name.endswith("_s"):
            metrics[name] = (statistics.median(p[name] for p in passes), "s")
        else:
            metrics[name] = (value, "1/record" if name.endswith("per_record") else "count")
    metrics.update(
        {
            "linksim.generate_keys.keys": (counts["keys_generated"], "count"),
            "linksim.keys_consumed": (counts["keys_consumed"], "count"),
            "linksim.min_available_end": (counts["min_available_end"], "count"),
            "qusec.discoveries": (counts["discoveries"], "count"),
            "qusec.installs": (counts["installs"], "count"),
            "qusec.sessions_end": (counts["sessions_end"], "count"),
            "kms.rules_end": (counts["rules_end"], "count"),
            "kms.delivered_end": (counts["delivered_end"], "count"),
            "kms.orphans": (counts["orphans"], "count"),
            "harness.records": (counts["records"], "count"),
            "trace.encode.bytes": (counts["trace_bytes"], "bytes"),
            "tracing.overhead_ratio": (statistics.median(walls) / untraced_wall, "ratio"),
        }
    )
    summary["iterations"] = len(passes)
    return metrics, summary


# ── command line ──


def result_line(correct: bool, summary: dict | None, metrics: dict) -> str:
    counts = summary["counts"] if summary else {"requests": 1, "failed_requests": 0}
    return json.dumps(
        {
            "correct": correct,
            "attempted": counts["requests"],
            "failed": counts["failed_requests"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_one(args) -> int:
    modules = import_simulator()
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=WORK_DIR) as workdir:
        cases = build_cases(modules["qkdrelay"], args.workload, args.seed, workdir)
        try:
            if args.trace:
                os.makedirs(OUT_DIR, exist_ok=True)
                spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
                metrics, summary = trace_layers(modules, cases, args.seconds, spans_path)
            else:
                metrics, summary = measure(modules["harness"], cases, args.seconds)
        except (CheckFailed, modules["harness"].ConfigError) as exc:
            print(f"check failed: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
            print(result_line(False, None, {}))
            return 1

    counts = summary["counts"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(cases)} case(s), {summary['iterations']} "
          f"{'traced pass(es)' if args.trace else 'timed iteration(s)'}")
    if args.trace:
        print(f"  spans written to {os.path.relpath(spans_path)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {unit}")
    print(f"  {'failed_share':<42} {counts['failed_requests'] / counts['requests']:>16.6g} ratio"
          f"  ({counts['failed_requests']} of {counts['requests']} requests)")
    if not args.trace:
        host = summary["host_medians"]
        print(f"  host time, unscaled: wall {host['wall_s']:.6g} s, setup {host['setup_s']:.6g} s;"
              f" reference call {host['reference_call_s']:.6g} s"
              f" (times above are scaled to {REFERENCE_SECONDS} s per call)")
    print("outputs " + json.dumps(summary, sort_keys=True))
    print(result_line(True, summary, metrics))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    correct = True
    attempted = failed = 0
    metrics: dict[str, tuple[float, str]] = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False}
        if proc.returncode != 0 or not result.get("correct"):
            correct = False
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            metrics[f"{workload}.{name}"] = (m["value"], m["unit"])
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
