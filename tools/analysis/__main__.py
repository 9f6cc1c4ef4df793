"""CLI for the engine invariant checker (``python -m tools.analysis``)."""

from __future__ import annotations

import argparse
import json
import sys

from tools.analysis.engine import Report, check_paths, describe_checkers


def report_to_json(report: Report) -> dict:
    """Stable machine-readable findings (the ``--json`` payload)."""
    return {
        "violations": [
            {
                "code": v.code,
                "path": v.path,
                "line": v.line,
                "col": v.col,
                "message": v.message,
                "checker": v.checker,
            }
            for v in sorted(report.violations)
        ],
        "suppressed_count": len(report.suppressed),
        "files_checked": report.files_checked,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.analysis",
        description="Static analysis of the nmad reproduction's engine "
                    "invariants (determinism, monotonic counters, write "
                    "ownership, event-loop hygiene).",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to analyze "
                             "(default: src/repro)")
    parser.add_argument("--list", action="store_true",
                        help="list checkers and violation codes, then exit")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also print findings silenced by "
                             "`# nm: allow[...]` comments")
    parser.add_argument("--interprocedural", action="store_true",
                        help="also run the project-wide NM501 pass (call "
                             "graph, alias tracking, helper chains)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON object on stdout "
                             "instead of text lines")
    args = parser.parse_args(argv)

    if args.list:
        print(describe_checkers())
        return 0

    report = check_paths(args.paths or ["src/repro"])
    if args.interprocedural:
        from tools.analysis.interproc import check_project

        # The interprocedural pass re-reads the same files into a project
        # model; its files_checked would double-count the per-file walk.
        inter = check_project(args.paths or ["src/repro"])
        report.violations.extend(inter.violations)
        report.suppressed.extend(inter.suppressed)

    if args.json:
        print(json.dumps(report_to_json(report), indent=2, sort_keys=True))
        return 1 if report.violations else 0

    for violation in sorted(report.violations):
        print(violation.render())
    if args.show_suppressed:
        for violation in sorted(report.suppressed):
            print(violation.render())
    n = len(report.violations)
    summary = (
        f"{report.files_checked} file(s) checked, {n} violation(s), "
        f"{len(report.suppressed)} suppressed"
    )
    print(summary if n == 0 else f"FAILED: {summary}", file=sys.stderr)
    return 1 if report.violations else 0


if __name__ == "__main__":
    sys.exit(main())
