"""NM502: frame-kind exhaustiveness (interprocedural).

Frame kinds are free-form strings by design (the NIC layer never inspects
them), so the failure mode is always the same: a kind that exists in the
registry but that some stage of the receive funnel silently ignores.  The
per-file NM304 catches typo'd *literals*; NM502 checks the round trip for
every **registered** kind, resolving evidence across module boundaries:

* **registry** — the ``FrameKind`` string-constant class is the source of
  truth (NM304 reads the same class).
* **demux evidence** — some handler dispatches on the kind: a
  ``.kind ==``/``!=`` comparison (literal or ``FrameKind.X``), a
  ``.kind in NAME`` membership where ``NAME`` resolves to a string set
  (e.g. ``_SESSION_KINDS``), or membership in the *payload demux table*:
  ``data``/``rdv_req``/``rdv_ack``/``rdv_data`` frames are demultiplexed
  structurally by item type in ``TransferLayer.demux_frame``, so the rule
  verifies that function exists rather than expecting a kind comparison.
* **producer + header accounting** — at least one engine-side
  (``repro/core/``) ``Frame(...)`` construction (``kind``/``wire_size``
  by keyword or in dataclass position) whose wire-size expression traces
  to header-spec fields or a ``wire_size()``/``sizes()`` call (through
  plain or tuple local assignments).  Kind arguments passed as function
  *parameters* (``_send_session_frame(st, FrameKind.SESSION_HELLO)``) are
  resolved through the call graph.  ``rdv_req``/``rdv_ack`` are exempt:
  in the engine they ride as items inside DATA frames; standalone frames
  of those kinds exist only in the baseline models.
* **stats counter** — the kind's declared counter (below) is bumped in a
  module that produces it, so a frame class cannot silently vanish from
  the engine reports.  Handshake kinds are exempt by design (session
  traffic is accounted by ``heartbeats_sent`` alone; hello/welcome occur
  O(peers) times and would drown in the counters they'd need).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from tools.analysis.base import Violation
from tools.analysis.callgraph import (
    FunctionInfo,
    ModuleInfo,
    Project,
    kwarg_to_param,
    resolve_str_expr,
)
from tools.analysis.lifecycle import CHAOS_FAULT_KINDS

REGISTRY_CLASS = "FrameKind"

#: Kinds demultiplexed structurally (by payload item type) in this
#: function — no ``.kind`` comparison exists for them by design.
PAYLOAD_DEMUX_KINDS = frozenset({"data", "rdv_req", "rdv_ack", "rdv_data"})
PAYLOAD_DEMUX_MODULE = "repro/core/transfer.py"
PAYLOAD_DEMUX_FUNCTION = "demux_frame"

#: Kinds with no engine-side standalone producer: rendezvous control
#: records ride inside DATA frames; only the baselines send them bare.
NO_ENGINE_PRODUCER = frozenset({"rdv_req", "rdv_ack"})

#: kind -> the EngineStats counter that accounts for it (None = exempt,
#: with the justification in the module docstring).
KIND_STATS: dict[str, str | None] = {
    "data": "phys_packets",
    "rdv_data": "rdv_bytes",
    "rel_ack": "acks_sent",
    "credit": "credits_granted",
    "heartbeat": "heartbeats_sent",
    "rdv_req": None,
    "rdv_ack": None,
    "session_hello": None,
    "session_welcome": None,
}

#: Attribute names that count as header-size accounting in a
#: ``wire_size=`` expression (HeaderSpec fields + Packet.wire_size()).
HEADER_ATTRS = frozenset({
    "global_header", "seg_header", "rdv_req", "rdv_ack", "rdv_data_header",
    "rel_header", "checksum", "credit_header", "session_header",
    "wire_size", "sizes",
})

ENGINE_SCOPE = "repro/core/"


@dataclass
class _Evidence:
    """What the project shows for one kind."""

    consumed: bool = False
    produced_in_engine: bool = False
    header_accounted: bool = False
    stats_modules: set[str] = field(default_factory=set)
    #: Module + line of the registry constant (violation anchor).
    anchor: tuple[str, int] | None = None


class FrameKindRule:
    """Registered frame kinds round-trip through the receive funnel."""

    name = "framekinds"
    codes = {
        "NM502": "frame kind missing demux/producer/header/stats evidence "
                 "or used without being registered",
    }
    scope = ("repro/",)

    def __init__(self, project: Project) -> None:
        self.project = project
        self.violations: list[Violation] = []

    # -- driver ---------------------------------------------------------------
    def run(self) -> list[Violation]:
        registry = self._collect_registry()
        if not registry:
            return []
        evidence = {kind: _Evidence(anchor=anchor)
                    for kind, anchor in registry.items()}
        for mod in self.project.modules.values():
            if not mod.path.startswith("repro/"):
                continue
            self._scan_module(mod, evidence)
        self._apply_payload_demux(evidence)
        for kind in sorted(evidence):
            self._judge(kind, evidence[kind])
        return self.violations

    # -- registry -------------------------------------------------------------
    def _collect_registry(self) -> dict[str, tuple[str, int]]:
        """kind -> (report path, line) from every ``FrameKind`` class."""
        out: dict[str, tuple[str, int]] = {}
        for mod in self.project.modules.values():
            if REGISTRY_CLASS not in mod.str_const_classes:
                continue
            for node in mod.tree.body:
                if not (isinstance(node, ast.ClassDef)
                        and node.name == REGISTRY_CLASS):
                    continue
                for item in node.body:
                    if (isinstance(item, ast.Assign)
                            and len(item.targets) == 1
                            and isinstance(item.targets[0], ast.Name)
                            and isinstance(item.value, ast.Constant)
                            and isinstance(item.value.value, str)):
                        out.setdefault(item.value.value,
                                       (mod.report_path, item.lineno))
        return out

    # -- evidence collection --------------------------------------------------
    def _scan_module(
        self, mod: ModuleInfo, evidence: dict[str, _Evidence]
    ) -> None:
        for info in _functions_of(mod):
            for node in ast.walk(info.node):
                if isinstance(node, ast.Compare):
                    self._scan_compare(mod, info, node, evidence)
                elif isinstance(node, ast.Call):
                    self._scan_call(mod, info, node, evidence)

    def _scan_compare(
        self,
        mod: ModuleInfo,
        info: FunctionInfo,
        node: ast.Compare,
        evidence: dict[str, _Evidence],
    ) -> None:
        operands = [node.left, *node.comparators]
        if not any(isinstance(o, ast.Attribute) and o.attr == "kind"
                   for o in operands):
            return
        for op, operand in zip(node.ops, node.comparators, strict=False):
            resolved: frozenset[str] | None = None
            if isinstance(op, (ast.Eq, ast.NotEq)):
                one = resolve_str_expr(self.project, mod, operand)
                if one is None and isinstance(node.left, ast.expr):
                    one = resolve_str_expr(self.project, mod, node.left)
                if one is not None:
                    resolved = frozenset({one})
            elif isinstance(op, (ast.In, ast.NotIn)):
                if isinstance(operand, ast.Name):
                    resolved = self.project.resolve_str_set(mod, operand.id)
            if resolved is None:
                continue
            for kind in resolved:
                ev = evidence.get(kind)
                if ev is None:
                    # ``.kind`` is also the field name of chaos *fault*
                    # records — a separate namespace policed by NM305.
                    if kind in CHAOS_FAULT_KINDS:
                        continue
                    self.violations.append(Violation(
                        path=mod.report_path, line=node.lineno,
                        col=node.col_offset, code="NM502",
                        message=f"handler dispatches on frame kind {kind!r} "
                                "which is not registered in FrameKind",
                        checker=self.name))
                else:
                    ev.consumed = True

    def _scan_call(
        self,
        mod: ModuleInfo,
        info: FunctionInfo,
        node: ast.Call,
        evidence: dict[str, _Evidence],
    ) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else "")
        if name != "Frame":
            return
        # Positional order of the Frame dataclass: src, dst, kind, wire_size.
        kind_expr = node.args[2] if len(node.args) > 2 else None
        wire_expr = node.args[3] if len(node.args) > 3 else None
        for kw in node.keywords:
            if kw.arg == "kind":
                kind_expr = kw.value
            elif kw.arg == "wire_size":
                wire_expr = kw.value
        if kind_expr is None:
            return
        kinds = self._resolve_kind_expr(mod, info, kind_expr)
        accounted = wire_expr is not None and \
            self._is_header_accounted(info, wire_expr)
        in_engine = mod.path.startswith(ENGINE_SCOPE)
        for kind in kinds:
            ev = evidence.get(kind)
            if ev is None:
                self.violations.append(Violation(
                    path=mod.report_path, line=node.lineno,
                    col=node.col_offset, code="NM502",
                    message=f"Frame constructed with kind {kind!r} which is "
                            "not registered in FrameKind",
                    checker=self.name))
                continue
            if in_engine:
                ev.produced_in_engine = True
                ev.stats_modules.add(mod.path)
                if accounted:
                    ev.header_accounted = True

    def _resolve_kind_expr(
        self, mod: ModuleInfo, info: FunctionInfo, expr: ast.expr
    ) -> frozenset[str]:
        direct = resolve_str_expr(self.project, mod, expr)
        if direct is not None:
            return frozenset({direct})
        # A parameter of the enclosing function: resolve through call sites
        # (e.g. ``_send_session_frame(st, FrameKind.SESSION_HELLO)``).
        if isinstance(expr, ast.Name) and expr.id in info.params:
            return self._kinds_from_call_sites(info, expr.id)
        return frozenset()

    def _kinds_from_call_sites(
        self, callee: FunctionInfo, param: str
    ) -> frozenset[str]:
        out: set[str] = set()
        position = callee.params.index(param)
        for mod in self.project.modules.values():
            for info in _functions_of(mod):
                for node in ast.walk(info.node):
                    if not isinstance(node, ast.Call):
                        continue
                    if callee not in self.project.resolve_callable(
                            mod, info.cls, node.func):
                        continue
                    offset = 1 if (isinstance(node.func, ast.Attribute)
                                   and callee.is_method) else 0
                    idx = position - offset
                    arg: ast.expr | None = None
                    if 0 <= idx < len(node.args):
                        arg = node.args[idx]
                    else:
                        for kw in node.keywords:
                            if kw.arg == param:
                                arg = kw.value
                    if arg is None:
                        continue
                    value = resolve_str_expr(self.project, mod, arg)
                    if value is not None:
                        out.add(value)
        return frozenset(out)

    def _is_header_accounted(
        self, info: FunctionInfo, expr: ast.expr
    ) -> bool:
        """``wire_size=`` traces to header fields or a wire_size() call."""
        seen: set[str] = set()

        def check(e: ast.expr, depth: int) -> bool:
            if depth > 4:
                return False
            for node in ast.walk(e):
                if isinstance(node, ast.Attribute) \
                        and node.attr in HEADER_ATTRS:
                    return True
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Name) \
                        and node.func.id == "wire_size":
                    return True
            # Plain local name: follow its assignment in this function.
            for node in ast.walk(e):
                if isinstance(node, ast.Name) and node.id not in seen:
                    seen.add(node.id)
                    for stmt in ast.walk(info.node):
                        if isinstance(stmt, ast.Assign) \
                                and len(stmt.targets) == 1 \
                                and node.id in _assigned_names(
                                    stmt.targets[0]) \
                                and check(stmt.value, depth + 1):
                            return True
                        if isinstance(stmt, ast.AugAssign) \
                                and isinstance(stmt.target, ast.Name) \
                                and stmt.target.id == node.id \
                                and check(stmt.value, depth + 1):
                            return True
            return False

        return check(expr, 0)

    # -- judgment -------------------------------------------------------------
    def _apply_payload_demux(self, evidence: dict[str, _Evidence]) -> None:
        """Item-type-dispatched kinds count as consumed iff the declared
        demux function actually exists where the table says it does."""
        mod = self.project.modules.get(PAYLOAD_DEMUX_MODULE)
        if mod is None:
            return
        present = any(PAYLOAD_DEMUX_FUNCTION in methods
                      for methods in mod.classes.values()) \
            or PAYLOAD_DEMUX_FUNCTION in mod.functions
        if not present:
            return
        for kind in PAYLOAD_DEMUX_KINDS:
            ev = evidence.get(kind)
            if ev is not None:
                ev.consumed = True

    def _judge(self, kind: str, ev: _Evidence) -> None:
        missing: list[str] = []
        if not ev.consumed:
            missing.append("no demux handler dispatches on it")
        if not ev.produced_in_engine and kind not in NO_ENGINE_PRODUCER:
            missing.append("no engine-side Frame(kind=...) producer")
        elif ev.produced_in_engine and not ev.header_accounted:
            missing.append("no producer charges header bytes in wire_size=")
        counter = KIND_STATS.get(kind, "")
        if counter and ev.produced_in_engine \
                and not self._counter_bumped(counter, ev.stats_modules):
            missing.append(f"producing module never bumps stats.{counter}")
        if not missing:
            return
        path, line = ev.anchor if ev.anchor is not None else ("<registry>", 1)
        self.violations.append(Violation(
            path=path, line=line, col=0, code="NM502",
            message=f"registered frame kind {kind!r}: " + "; ".join(missing),
            checker=self.name))

    def _counter_bumped(self, counter: str, modules: set[str]) -> bool:
        for path in modules:
            mod = self.project.modules.get(path)
            if mod is None:
                continue
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.AugAssign) \
                        and isinstance(node.target, ast.Attribute) \
                        and node.target.attr == counter:
                    return True
        return False


def _assigned_names(target: ast.expr) -> list[str]:
    """Names bound by ``x = ...`` or ``x, y = ...``."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, ast.Tuple):
        return [e.id for e in target.elts if isinstance(e, ast.Name)]
    return []


def _functions_of(mod: ModuleInfo) -> list[FunctionInfo]:
    out = list(mod.functions.values())
    for methods in mod.classes.values():
        out.extend(methods.values())
    return out
