"""Command-line entry points: run a scenario, validate a topology, or diff
two trace files. Exit codes: 0 success, 1 expectation/diff failure,
2 configuration error (bad files, bad flags, schema violations) or an
output file that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import ConfigError, load_scenario, load_topology_file, run
from .trace import TraceParseError, trace_compare

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdrelay",
        description="Simulated QKD key-management network: scenario runner and trace tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario against a topology")
    p_run.set_defaults(handler=_cmd_run)
    p_run.add_argument("--topology", required=True, help="topology JSON file")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--seed", required=True, type=int, help="run seed (u64)")
    p_run.add_argument("--trace-out", default=None, help="write JSON-lines trace here")
    p_run.add_argument(
        "--report-out", default=None, help="also write the JSON report to a file"
    )
    p_run.add_argument(
        "--quiet", action="store_true", help="suppress the report on stdout"
    )

    p_val = sub.add_parser("validate", help="check a topology file")
    p_val.add_argument("--topology", required=True, help="topology JSON file")
    p_val.set_defaults(handler=_cmd_validate)

    p_diff = sub.add_parser(
        "diff", help="compare two traces after canonical renumbering"
    )
    p_diff.add_argument("expected", help="expected JSON-lines trace")
    p_diff.add_argument("actual", help="actual JSON-lines trace")
    p_diff.set_defaults(handler=_cmd_diff)

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if args.seed < 0 or args.seed >= 2**64:
        print("error: --seed must fit in u64", file=sys.stderr)
        return EXIT_CONFIG
    try:
        topology = load_topology_file(args.topology)
        scenario = load_scenario(args.scenario)
        result = run(topology, scenario, seed=args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    payload = json.dumps(result.report, indent=2, sort_keys=True)
    for flag, path, lines in (
        ("--trace-out", args.trace_out, result.trace_lines),
        ("--report-out", args.report_out, [payload]),
    ):
        if not path:
            continue
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(line + "\n" for line in lines)
        except OSError as exc:
            print(f"error: cannot write {flag} file: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    if not args.quiet:
        print(payload)
    if result.exit_code != 0 and result.diff is not None and not result.diff.is_empty:
        print(result.diff.describe(), file=sys.stderr)
    return result.exit_code


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        topology = load_topology_file(args.topology)
    except ConfigError as exc:
        if not exc.violations:
            print(f"error: {exc}", file=sys.stderr)
        for violation in exc.violations:
            print(f"invalid: {violation}", file=sys.stderr)
        return EXIT_CONFIG
    print(
        json.dumps(
            {
                "nodes": len(topology.nodes),
                "links": len(topology.links),
                "apps": len(topology.apps),
                "kms": sorted(topology.kms_ids.values()),
                "weight_policy": topology.weight_policy,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return EXIT_OK


def _cmd_diff(args: argparse.Namespace) -> int:
    try:
        diff = trace_compare(args.expected, args.actual)
    except (OSError, UnicodeDecodeError, TraceParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if diff.is_empty:
        print("traces match")
        return EXIT_OK
    print(diff.describe())
    return EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
