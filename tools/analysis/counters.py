"""Monotonic-counter checker (NM203).

``EngineStats`` counters are cumulative totals: the report, the chaos
totals and every A/B comparison between engines assume they only grow.
A plain assignment (``stats.wire_bytes = wire``) resets the total on
whatever path takes it, and no figure moves until that path runs.  The
rule:

* **NM203** — only ``+=`` on a ``*.stats.<counter>`` target is a legal
  mutation.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from tools.analysis.base import WriteChecker

#: The counters of ``repro.core.engine.EngineStats``: every ``name: int =
#: counter(group)`` declaration under repro/core/, read from the source (the
#: lint runs without the package installed) so a new counter needs no edit
#: here.
STATS_COUNTERS = frozenset(
    name
    for path in sorted((Path(__file__).resolve().parents[2]
                        / "src" / "repro" / "core").glob("*.py"))
    for name in re.findall(r"^    (\w+): int = counter\(",
                           path.read_text(encoding="utf-8"), re.MULTILINE))


def _is_stats_attr(node: ast.Attribute) -> bool:
    """True for a syntactic ``<...>.stats.X`` or ``stats.X`` target."""
    base = node.value
    if isinstance(base, ast.Name):
        return base.id == "stats"
    if isinstance(base, ast.Attribute):
        return base.attr == "stats"
    return False


class CounterChecker(WriteChecker):
    name = "counters"
    codes = {
        "NM203": "EngineStats counter mutated other than by +=",
    }
    scope = ("repro/",)

    def check_write(self, stmt: ast.stmt, target: ast.Attribute) -> None:
        if (target.attr in STATS_COUNTERS and _is_stats_attr(target)
                and not (isinstance(stmt, ast.AugAssign)
                         and isinstance(stmt.op, ast.Add))):
            self.report(target, "NM203",
                        f"EngineStats.{target.attr} must only be incremented "
                        "(+=); resets/assignment desynchronize engine "
                        "comparisons")
