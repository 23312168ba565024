"""The ``reprolint`` command line: ``python -m repro.devtools.lint [paths]``.

Prints one ``path:line:col: CODE message`` line per finding on stdout and
a summary (with the count of suppressed findings) on stderr.  Exit
status: 0 when the tree is clean, 1 when any finding (or parse error) is
reported, 2 on usage errors (argparse's convention, and a path holding no
python file).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.devtools.runner import run_paths


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description=(
            "reprolint: AST and flow checks for the project's "
            "reproducibility and asyncio invariants"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories to lint"
    )
    args = parser.parse_args(argv)

    run = run_paths(args.paths)
    if not run.checked_files:
        # a typo'd path must not read as "clean" in CI
        print(
            f"error: no python files found under: {', '.join(args.paths)}",
            file=sys.stderr,
        )
        return 2

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
