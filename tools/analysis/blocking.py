"""Event-loop hygiene checker (NM4xx).

Everything under ``repro/core``, ``repro/sim`` and ``repro/netsim`` runs
inside (or is reachable from) simulator callbacks: NIC idle hooks, frame
arrival handlers, retransmit timers.  A single blocking call there stalls
the *host* process while the simulated clock stands still — the classic
"simulation that takes a day because a print sat in the frame handler".
The rule:

* **NM401** — no blocking or I/O-performing calls in the scheduling core:
  ``time.sleep``, ``input()``, ``open()``, ``print()``, ``breakpoint()``,
  ``os.system``, any ``subprocess.*`` / ``socket.*`` use.  Reporting
  belongs in the CLI/bench layers; trace *export* helpers that run after
  the event loop may suppress with a justification
  (``# nm: allow[NM401] -- …``).
* **NM402** — tracing off must cost one attribute test per site: every
  ``<tracer>.emit(...)`` sits lexically inside ``if <same tracer>.enabled:``
  (alone or and-ed with more conditions), so a disabled tracer never pays
  for the call, its keyword dict or its arguments.  An early
  ``if not tracer.enabled: return`` does not count — the guard has to be
  visible at the call.  This rule also binds ``repro/madmpi``.
"""

from __future__ import annotations

import ast

from tools.analysis.base import Checker, FileContext, attr_chain_root

_BLOCKING_BUILTINS = frozenset({"input", "open", "print", "breakpoint"})
_BLOCKING_MODULES = frozenset({"subprocess", "socket"})
_BLOCKING_ATTRS = {
    "time": frozenset({"sleep"}),
    "os": frozenset({"system", "popen", "fork", "wait", "waitpid"}),
}


class BlockingChecker(Checker):
    name = "blocking"
    codes = {
        "NM401": "blocking or I/O call reachable from kernel callbacks",
    }
    scope = ("repro/core/", "repro/sim/", "repro/netsim/")

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in _BLOCKING_BUILTINS:
            self.report(node, "NM401",
                        f"{func.id}() in the scheduling core: kernel "
                        "callbacks must never block or perform I/O")
        elif isinstance(func, ast.Attribute):
            root = attr_chain_root(func)
            if isinstance(root, ast.Name):
                if root.id in _BLOCKING_MODULES:
                    self.report(node, "NM401",
                                f"{root.id}.{func.attr}() in the scheduling "
                                "core: kernel callbacks must never block or "
                                "perform I/O")
                elif func.attr in _BLOCKING_ATTRS.get(root.id, ()):
                    self.report(node, "NM401",
                                f"{root.id}.{func.attr}() in the scheduling "
                                "core: kernel callbacks must never block or "
                                "perform I/O")
        self.generic_visit(node)


def _is_tracer(node: ast.expr) -> bool:
    """``tracer``, ``self.tracer``, ``self.engine.tracer``, ``x._tracer``."""
    name = node.id if isinstance(node, ast.Name) else (
        node.attr if isinstance(node, ast.Attribute) else "")
    return name.lstrip("_") == "tracer"


def _enabled_receivers(test: ast.expr) -> frozenset[str]:
    """Tracers whose ``.enabled`` the ``if`` test requires to be true."""
    terms = test.values if (isinstance(test, ast.BoolOp)
                            and isinstance(test.op, ast.And)) else [test]
    return frozenset(
        ast.unparse(t.value) for t in terms
        if isinstance(t, ast.Attribute) and t.attr == "enabled")


class EmitGateChecker(Checker):
    name = "emitgate"
    codes = {
        "NM402": "tracer.emit() outside an `if <tracer>.enabled:` guard",
    }
    scope = ("repro/core/", "repro/sim/", "repro/netsim/", "repro/madmpi/")

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self._gated: list[frozenset[str]] = []

    def visit_If(self, node: ast.If) -> None:
        self.visit(node.test)
        self._gated.append(_enabled_receivers(node.test))
        for stmt in node.body:
            self.visit(stmt)
        self._gated.pop()
        for stmt in node.orelse:
            self.visit(stmt)

    def _visit_deferred(self, node: ast.AST) -> None:
        # A nested function runs later, when the tracer may be off again.
        gated, self._gated = self._gated, []
        self.generic_visit(node)
        self._gated = gated

    visit_FunctionDef = _visit_deferred
    visit_AsyncFunctionDef = _visit_deferred
    visit_Lambda = _visit_deferred

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "emit"
                and _is_tracer(func.value)):
            receiver = ast.unparse(func.value)
            if not any(receiver in gated for gated in self._gated):
                self.report(node, "NM402",
                            f"{receiver}.emit() is not inside `if "
                            f"{receiver}.enabled:` — a disabled tracer "
                            "would still pay for the call and its arguments")
        self.generic_visit(node)
