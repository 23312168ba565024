"""The ``reprolint`` command line: ``python -m repro.devtools.lint src/``.

Exit status: 0 when the tree is clean, 1 when any finding (or parse
error) is reported, 2 on usage errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Sequence

from repro.devtools.registry import all_rules, unknown_selectors
from repro.devtools.runner import run_paths


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description=(
            "reprolint: AST and flow checks for the project's "
            "reproducibility, asyncio, and bytes-hygiene invariants"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories to lint"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help=(
            "comma-separated rule codes or family prefixes to run "
            "(e.g. RACE selects every RACE-* rule; default: all)"
        ),
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes or family prefixes to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _split_codes(
    raw: str | None, parser: argparse.ArgumentParser
) -> list[str] | None:
    if raw is None:
        return None
    codes = [code.strip() for code in raw.split(",") if code.strip()]
    if not codes:
        parser.error("expected at least one rule code (e.g. SIM-DET)")
    unknown = unknown_selectors(codes)
    if unknown:
        parser.error(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    return codes


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            where = ", ".join(rule.scope) if rule.scope else "everywhere"
            print(f"{rule.code:18} [{where}] {rule.description}")
        return 0

    select = _split_codes(args.select, parser)
    ignore = _split_codes(args.ignore, parser)

    run = run_paths(args.paths, select=select, ignore=ignore)
    if not run.checked_files:
        # a typo'd path must not read as "clean" in CI
        print(
            f"error: no python files found under: {', '.join(args.paths)}",
            file=sys.stderr,
        )
        return 2

    if args.format == "json":
        counts = Counter(finding.code for finding in run.findings)
        print(
            json.dumps(
                {
                    "checked_files": len(run.checked_files),
                    "findings": [finding.to_json() for finding in run.findings],
                    "counts": dict(sorted(counts.items())),
                    "suppressed": run.suppressed,
                },
                indent=2,
            )
        )
    else:
        for finding in run.findings:
            print(finding.format_text())
        detail = f" ({run.suppressed} suppressed)" if run.suppressed else ""
        if run.findings:
            summary = (
                f"reprolint: {len(run.findings)} finding(s) in "
                f"{len(run.checked_files)} file(s){detail}"
            )
        else:
            summary = (
                f"reprolint: clean ({len(run.checked_files)} file(s) "
                f"checked){detail}"
            )
        print(summary, file=sys.stderr)

    return 1 if run.findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
