"""The repros under tests/repros/ and the packaged scenarios, each run through
`qkdrelay run` at seed 5 against the topology its `topology` key names,
relative to the scenario file. tests/repros/README.md says what each repro
pins.

Every run must exit 0, so its expectations, audits and quiescence all hold.
Its trace and report must also not depend on str hashing, so the files run
once under each of two hash seeds and their digests must match.

Run as a script, this module runs every file once, writes each trace and
report into the directory it is given, and prints one line per file: its
name, then the sha256 of the trace and of the report as `--trace-out` and
`--report-out` wrote them.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pathlib
import subprocess
import sys

from qkdrelay import data_path
from qkdrelay.cli import main
from qkdrelay.harness import ConfigError, RunResult, load_scenario, load_topology_file, run

REPROS = pathlib.Path(__file__).parent / "repros"
SEED = 5
HASH_SEEDS = (1, 2)


def scenario_files() -> list[pathlib.Path]:
    """Every repro, then every packaged scenario."""
    packaged = pathlib.Path(data_path("scenarios"))
    return sorted(REPROS.glob("*.json")) + sorted(packaged.glob("*.json"))


def label(scenario: pathlib.Path) -> str:
    return f"{scenario.parent.name}/{scenario.name}"


def topology_of(scenario: pathlib.Path) -> pathlib.Path:
    """The topology file that the scenario's `topology` key names."""
    try:
        named = load_scenario(str(scenario)).topology
    except ConfigError as exc:
        raise ValueError(f"{label(scenario)}: {exc}") from None
    if named is None:
        raise ValueError(f"{label(scenario)}: no 'topology' key")
    topology = scenario.parent / named
    if not topology.is_file():
        raise ValueError(f"{label(scenario)}: topology {named!r} is not a file")
    return topology


def run_repro(name: str) -> RunResult:
    scenario = REPROS / f"{name}.json"
    return run(load_topology_file(str(topology_of(scenario))), load_scenario(str(scenario)), SEED)


def digest_all(outdir: pathlib.Path) -> int:
    failures = []
    for scenario in scenario_files():
        try:
            topology = topology_of(scenario)
        except ValueError as exc:
            failures.append(str(exc))
            continue
        stem = f"{scenario.parent.name}-{scenario.stem}"
        trace, report = outdir / f"{stem}.jsonl", outdir / f"{stem}.report.json"
        code = main(
            ["run", "--topology", str(topology), "--scenario", str(scenario),
             "--seed", str(SEED), "--quiet", "--trace-out", str(trace), "--report-out", str(report)]
        )
        if code != 0:
            failed = []
            if code == 1:
                checks = json.loads(report.read_text(encoding="utf-8"))["checks"]
                failed = [c["detail"] for c in checks if not c["ok"]]
            failures.append(f"{label(scenario)}: qkdrelay run exited {code} {failed}")
            continue
        digests = (hashlib.sha256(path.read_bytes()).hexdigest() for path in (trace, report))
        print(label(scenario), *digests)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


def test_every_repro_and_packaged_scenario_passes_alike_under_two_hash_seeds(tmp_path):
    procs = []
    try:
        for hash_seed in HASH_SEEDS:
            outdir = tmp_path / f"hash{hash_seed}"
            outdir.mkdir()
            procs.append(subprocess.Popen(
                [sys.executable, __file__, str(outdir)],
                env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            ))
        outputs = []
        for hash_seed, proc in zip(HASH_SEEDS, procs):
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, f"PYTHONHASHSEED={hash_seed}:\n{err}"
            outputs.append(out)
    finally:
        for proc in procs:
            proc.kill()
    first, second = (out.splitlines() for out in outputs)
    assert [line.split()[0] for line in first] == [label(s) for s in scenario_files()]
    assert first == second, [a.split()[0] for a, b in zip(first, second) if a != b]


if __name__ == "__main__":
    logging.disable()  # the runs' fault and timeout logs would bury the failures
    sys.exit(digest_all(pathlib.Path(sys.argv[1])))
