"""Counter-pairing checker (NM2xx).

PR 2 replaced the window's linear accounting with incrementally-maintained
counters (global/per-rail byte totals, per-destination backlog).  Those
counters are only correct while **every** mutation goes through the paired
mutator methods (``OptimizationWindow.submit`` / ``take``) — one stray
``window._count = 0`` from a strategy and the O(1) bookkeeping silently
diverges from the real contents, which no test catches until a scheduling
decision goes wrong under load.  The rules:

* **NM201** — the window's private storage and counters
  (``_common``/``_dedicated``/``_by_dest``/byte totals) may be *written*
  only inside ``repro/core/window.py``, or via ``self`` in a class that
  owns fields of the same name.
* **NM202** — ``pending_bytes`` / ``backlog`` / ``backlog_bytes`` are
  accessor *methods*; assigning an attribute of that name anywhere
  shadows the accessor and is always a bug.
* **NM203** — ``EngineStats`` counters are monotonic: only ``+=`` on a
  ``*.stats.<counter>`` target is a legal mutation.  Plain assignment
  (resets) would desynchronize A/B comparisons between engines.
* **NM204** — only the engine layers in ``repro/core/`` (and not the
  strategies) may bump ``EngineStats`` counters: strategies observe the
  window through :class:`SchedulingContext` and must stay side-effect
  free outside their own tuning state.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from tools.analysis.base import Checker, assignment_targets, is_self_access

#: Private storage + incremental counters of ``OptimizationWindow``.
WINDOW_PRIVATE = frozenset({
    "_common", "_dedicated", "_by_dest",
    "_count", "_total_bytes", "_common_bytes", "_dedicated_bytes",
    "_dest_bytes",
    "_blocked_dests", "_dest_exempt", "_exempt_floor", "_gated",
})

#: Read-only accessor methods of the window (never data attributes).
WINDOW_ACCESSORS = frozenset({"pending_bytes", "backlog", "backlog_bytes"})

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

WINDOW_MODULE = "repro/core/window.py"

#: Modules allowed to increment EngineStats counters: the engine layers.
STATS_MUTATOR_PREFIX = "repro/core/"
STATS_FORBIDDEN_PREFIX = "repro/core/strategies/"


def _is_stats_attr(node: ast.Attribute) -> bool:
    """True for a syntactic ``<...>.stats.X`` or ``stats.X`` target."""
    base = node.value
    if isinstance(base, ast.Name):
        return base.id == "stats"
    if isinstance(base, ast.Attribute):
        return base.attr == "stats"
    return False


class CounterChecker(Checker):
    name = "counters"
    codes = {
        "NM201": "window-private counter/storage written outside window.py",
        "NM202": "window accessor method shadowed by attribute assignment",
        "NM203": "EngineStats counter mutated other than by +=",
        "NM204": "EngineStats counter bumped outside the core engine layers",
    }
    scope = ("repro/",)

    def _check_write(self, stmt: ast.AST, target: ast.expr) -> None:
        if not isinstance(target, ast.Attribute):
            return
        attr = target.attr
        if attr in WINDOW_PRIVATE:
            if self.ctx.path != WINDOW_MODULE and not is_self_access(target):
                self.report(target, "NM201",
                            f"write to window-private {attr!r} outside "
                            "repro/core/window.py; use submit()/take() "
                            "so the incremental counters stay paired")
        if attr in WINDOW_ACCESSORS:
            self.report(target, "NM202",
                        f"assignment to {attr!r} shadows the window's O(1) "
                        "accessor method; counters may only change through "
                        "the paired mutators")
        if attr in STATS_COUNTERS and _is_stats_attr(target):
            if not (isinstance(stmt, ast.AugAssign)
                    and isinstance(stmt.op, ast.Add)):
                self.report(target, "NM203",
                            f"EngineStats.{attr} must only be incremented "
                            "(+=); resets/assignment desynchronize engine "
                            "comparisons")
            elif (self.ctx.path.startswith(STATS_FORBIDDEN_PREFIX)
                    or not self.ctx.path.startswith(STATS_MUTATOR_PREFIX)):
                self.report(target, "NM204",
                            f"EngineStats.{attr} bumped from "
                            f"{self.ctx.path}; only the core engine layers "
                            "account engine activity (strategies must stay "
                            "side-effect free)")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in assignment_targets(node):
            self._check_write(node, target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        for target in assignment_targets(node):
            self._check_write(node, target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        for target in assignment_targets(node):
            self._check_write(node, target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in assignment_targets(node):
            self._check_write(node, target)
        self.generic_visit(node)
