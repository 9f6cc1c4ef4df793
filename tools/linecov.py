"""Line coverage of ``src/repro`` with the standard library only.

``coverage`` is not a dependency, so this is the smallest collector that
answers "which lines does the suite never run": a ``sys.settrace`` hook
that records ``(file, line)`` for frames whose code lives under the
measured root and declines to trace every other frame, plus the set of
executable lines read off each module's compiled code objects
(``co_lines``).  Run pytest under it::

    python -m tools.linecov [--root src/repro] [--json cov.json] -- -q tests

Everything after ``--`` goes to ``pytest.main``.  The per-module table
(executed / missed / percent, grouped by subpackage) goes to stdout; the
exit code is pytest's.

Tracing makes the suite roughly 2.5x slower, and any test that counts
live objects or allocations sees the tracer's own bookkeeping: deselect
``tests/test_bench_perf.py::TestBenches::test_object_census`` and the
two ``test_hotpath_budget.py`` object-budget tests (both parameters).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from types import CodeType


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode in ``path`` (docstrings included:
    a module or function body executes its docstring's line)."""
    lines: set[int] = set()
    todo: list[CodeType] = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(ln for _, _, ln in code.co_lines() if ln is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


class LineCollector:
    def __init__(self, root: Path) -> None:
        self.prefix = str(root.resolve())
        self.hits: dict[str, set[int]] = defaultdict(set)
        self._wanted: dict[str, bool] = {}

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        wanted = self._wanted.get(filename)
        if wanted is None:
            wanted = self._wanted[filename] = filename.startswith(self.prefix)
        if not wanted:
            return None
        self.hits[filename].add(frame.f_lineno)
        return self._local

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def __enter__(self) -> LineCollector:
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def report(self, root: Path) -> dict[str, dict[str, int]]:
        """``{module path: {"executed": n, "missed": m}}`` for every file."""
        table = {}
        for path in sorted(root.rglob("*.py")):
            lines = executable_lines(path)
            hit = self.hits.get(str(path.resolve()), set()) & lines
            table[str(path.relative_to(root.parent))] = {
                "executed": len(hit), "missed": len(lines - hit)}
        return table


def _row(name: str, done: int, missed: int) -> str:
    pct = 100.0 * done / (done + missed) if done + missed else 100.0
    return f"{name:<48} {done:>6} {missed:>6} {pct:>6.1f}%"


def render(table: dict[str, dict[str, int]]) -> str:
    """Per-module rows, then per-subpackage subtotals, then the total."""
    packages: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    rows = [f"{'module':<48} {'exec':>6} {'miss':>6} {'cover':>7}"]
    for module, row in table.items():
        rows.append(_row(module, row["executed"], row["missed"]))
        for key in ("/".join(Path(module).parts[:2]), "TOTAL"):
            packages[key][0] += row["executed"]
            packages[key][1] += row["missed"]
    rows.append("")
    total = packages.pop("TOTAL", [0, 0])
    rows += [_row(p, *counts) for p, counts in sorted(packages.items())]
    rows.append(_row("TOTAL", *total))
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tools.linecov")
    parser.add_argument("--root", type=Path, default=Path("src/repro"))
    parser.add_argument("--json", type=Path, help="write the table here")
    parser.add_argument("pytest_args", nargs="*")
    args = parser.parse_args(argv)

    import pytest
    with LineCollector(args.root) as collector:
        code = pytest.main(args.pytest_args)
    table = collector.report(args.root)
    print(render(table))
    if args.json:
        args.json.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
