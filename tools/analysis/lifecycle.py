"""Lifecycle-discipline checker (NM3xx).

Wrap, packet and request state transitions (submit → commit at NIC
hand-over → complete, or submit → cancel) must happen through the API
surface — ``Event.succeed``/``fail``/``defuse``, ``RecvRequest.finish``,
``RendezvousManager``'s transition methods — never by poking the state
fields from outside the owning module.  The failure mode is exactly the
one cancel() guards against: a half-applied transition that leaves the
window, the rendezvous table and the completion event telling three
different stories.  The rules:

* **NM301** — the kernel-private fields of :class:`repro.sim.core.Event`
  (``_ok``/``_value``/``_exc``/``_defused``/``_callbacks``/…) are
  touched only inside ``repro/sim/core.py``.  Outside the kernel, use
  ``triggered``/``ok``/``value``/``exception``/``defuse()``.
* **NM302** — rendezvous transfer state (``granted``/``next_offset``/
  ``bytes_sent``/``received``) transitions only inside
  ``repro/core/rendezvous.py``; receive results
  (``actual_src``/``actual_tag``/``actual_len``) only via
  ``RecvRequest.finish`` in ``repro/core/requests.py``.
* **NM303** — the window's private storage is not even *read* from
  outside ``repro/core/window.py``: strategies consume the
  ``eligible*``/``backlog*``/``pending_bytes`` accessors, which is what
  keeps the storage layout swappable (the deque→dict rewrite of PR 2
  touched nothing outside window.py precisely because of this).
* **NM304** — frame kinds are free-form strings by design (the NIC layer
  never inspects them), so a typo in a kind literal silently creates a
  frame no dispatcher matches.  Every kind used in a ``Frame(kind=...)``
  construction or a ``.kind == "..."`` comparison must be registered in
  :data:`FRAME_KINDS` (mirroring ``repro.netsim.frames.FrameKind``).
  Inside ``repro/chaos/`` the same comparison shape dispatches on
  :class:`~repro.chaos.schedule.ChaosFault` kinds instead, so literals
  there are checked against :data:`CHAOS_FAULT_KINDS`.
* **NM305** — the chaos auditor deliberately crosses layer boundaries
  (it cross-checks the flow-control ledgers against each other), which
  is safe only while that stays read-only and in one place.  Within
  ``repro/chaos/`` an underscore-private attribute of another object may
  be *read* only in ``repro/chaos/audit.py`` and *written* nowhere — the
  auditor inspects, never mutates.
"""

from __future__ import annotations

import ast

from tools.analysis.base import Checker, assignment_targets, is_self_access
from tools.analysis.counters import WINDOW_MODULE, WINDOW_PRIVATE

#: Kernel-private Event/Process/Condition state, owner repro/sim/core.py.
EVENT_PRIVATE = frozenset({
    "_ok", "_value", "_exc", "_defused", "_callbacks",
    "_gen", "_waiting_on", "_n_left",
})
EVENT_MODULES = frozenset({"repro/sim/core.py"})
#: What a simulator is called where one is held (``sim.now``,
#: ``self.sim.now``, ``engine.sim.now``, ``self._sim.now``).
SIMULATOR_NAMES = frozenset({"sim", "_sim", "simulator"})

#: NM302 applies where engine state objects circulate.  The baselines
#: (repro/baselines/) reimplement a classic library with their own local
#: state machines that reuse field names like ``next_offset``; they never
#: hold engine rendezvous/request objects, so they are out of scope.  The
#: chaos auditor *does* hold them (it cross-checks the ledgers), so it is in.
_NM302_SCOPE = ("repro/core/", "repro/madmpi/", "repro/chaos/")

#: Transition fields and the single module allowed to write them.
_WRITE_OWNERS: dict[str, frozenset[str]] = {
    "repro/core/rendezvous.py": frozenset({
        "granted", "next_offset", "bytes_sent", "received",
    }),
    "repro/core/requests.py": frozenset({
        "actual_src", "actual_tag", "actual_len",
    }),
    # Credit-conservation totals: monotonic cumulative counters whose
    # idempotence under duplicated grants depends on every mutation going
    # through FlowControlLayer's consume/release/_apply_grant.
    "repro/core/flowcontrol.py": frozenset({
        "sent_bytes_total", "sent_wraps_total",
        "released_bytes_total", "released_wraps_total",
        "peer_released_bytes", "peer_released_wraps",
    }),
    # Rail health has exactly one owner, which exists in paper mode too:
    # the reliability layer asks TransferLayer.quarantine()/readmit().
    "repro/core/transfer.py": frozenset({
        "quarantined",
    }),
    # The matcher's unexpected-byte gauge (the credit bound is read off it).
    "repro/core/matching.py": frozenset({
        "unexpected_bytes",
    }),
    # Per-peer session state: the epoch fence is only sound while the
    # handshake state machine and liveness clocks advance exclusively
    # through SessionLayer (_establish/_declare_dead/_note_liveness) —
    # a stray write to peer_incarnation would let stale frames through.
    "repro/core/sessions.py": frozenset({
        "sess_state", "peer_incarnation", "last_heard_us", "last_tx_us",
    }),
}

#: Registered on-wire frame kinds; mirrors ``repro.netsim.frames.FrameKind``.
#: A new protocol (like the reliability layer's ``rel_ack`` or the
#: flow-control ``credit`` frame) registers its kinds here so a typo'd kind
#: literal cannot create a frame that every dispatcher silently ignores.
FRAME_KINDS = frozenset({
    "data", "rdv_req", "rdv_ack", "rdv_data",
    "rel_ack", "credit",
    "session_hello", "session_welcome", "heartbeat",
})

#: Registered chaos fault kinds; mirrors ``repro.chaos.schedule.FAULT_KINDS``.
#: Within repro/chaos/ a ``.kind == "..."`` comparison dispatches on
#: :class:`ChaosFault` records, not frames, so literals there are checked
#: against this vocabulary instead (same typo failure mode, NM304).
CHAOS_FAULT_KINDS = frozenset({
    "drop", "burst", "corrupt", "slow", "dup", "reorder",
    "jitter", "partition", "crash", "rack_partition", "switch_kill",
})

#: The chaos package (NM305 scope) and its one sanctioned inspector.
CHAOS_SCOPE = "repro/chaos/"
CHAOS_AUDIT_MODULE = "repro/chaos/audit.py"


def _names_simulator(receiver: ast.expr) -> bool:
    """Is ``receiver`` (the ``X`` of ``X.now``) named like a simulator?"""
    if isinstance(receiver, ast.Name):
        return receiver.id in SIMULATOR_NAMES
    return (isinstance(receiver, ast.Attribute)
            and receiver.attr in SIMULATOR_NAMES)


class LifecycleChecker(Checker):
    name = "lifecycle"
    codes = {
        "NM301": "Event kernel-private state touched, or the clock "
                 "assigned, outside sim/core.py",
        "NM302": "lifecycle transition field written outside its owner module",
        "NM303": "window-private storage read outside window.py",
        "NM304": "unregistered frame-kind string literal",
        "NM305": "layer-private state touched in repro/chaos/ outside audit.py",
    }
    scope = ("repro/",)

    # -- NM301 / NM303 / NM305: any access (read or write) ---------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = node.attr
        if (attr in EVENT_PRIVATE and self.ctx.path not in EVENT_MODULES
                and not is_self_access(node)):
            self.report(node, "NM301",
                        f"access to kernel-private {attr!r} outside the "
                        "simulation kernel; use the public Event API "
                        "(triggered/ok/value/exception/defuse)")
        if (attr == "now" and not isinstance(node.ctx, ast.Load)
                and self.ctx.path not in EVENT_MODULES
                and _names_simulator(node.value)):
            self.report(node, "NM301",
                        "assignment to the simulation clock outside the "
                        "kernel; 'now' is an attribute only Simulator.run "
                        "writes (schedule a callback instead)")
        if (attr in WINDOW_PRIVATE and self.ctx.path != WINDOW_MODULE
                and not is_self_access(node)
                and isinstance(node.ctx, ast.Load)):
            # Writes are NM201 (counters checker); this code covers reads.
            self.report(node, "NM303",
                        f"read of window-private {attr!r} outside "
                        "repro/core/window.py; consume the eligible*/"
                        "backlog*/pending_bytes accessors instead")
        if (self.ctx.path.startswith(CHAOS_SCOPE)
                and attr.startswith("_") and not attr.startswith("__")
                and not is_self_access(node)):
            if not isinstance(node.ctx, ast.Load):
                self.report(node, "NM305",
                            f"write to layer-private {attr!r} from the "
                            "chaos package; the auditor inspects engine "
                            "state, it never mutates it")
            elif self.ctx.path != CHAOS_AUDIT_MODULE:
                self.report(node, "NM305",
                            f"read of layer-private {attr!r} from "
                            f"{self.ctx.path}; only repro/chaos/audit.py "
                            "may cross layer boundaries (and read-only)")
        self.generic_visit(node)

    # -- NM304: frame-kind / chaos-fault-kind literals -------------------------
    def _check_kind_literal(self, node: ast.expr, frame_only: bool = False,
                            ) -> None:
        if not (isinstance(node, ast.Constant)
                and isinstance(node.value, str)):
            return
        if not frame_only and self.ctx.path.startswith(CHAOS_SCOPE):
            # ``.kind`` in the chaos package dispatches ChaosFault records.
            if node.value not in CHAOS_FAULT_KINDS:
                self.report(node, "NM304",
                            f"chaos fault kind {node.value!r} is not "
                            "registered; add it to schedule.FAULT_KINDS and "
                            "tools/analysis/lifecycle.CHAOS_FAULT_KINDS "
                            "(typo'd kinds dispatch nowhere)")
        elif node.value not in FRAME_KINDS:
            self.report(node, "NM304",
                        f"frame kind {node.value!r} is not registered; add "
                        "it to FrameKind and to tools/analysis/lifecycle."
                        "FRAME_KINDS (typo'd kinds dispatch nowhere)")

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) and any(
            isinstance(o, ast.Attribute) and o.attr == "kind"
            for o in operands
        ):
            for operand in operands:
                self._check_kind_literal(operand)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else "")
        if name == "Frame":
            for kw in node.keywords:
                if kw.arg == "kind":
                    self._check_kind_literal(kw.value, frame_only=True)
        self.generic_visit(node)

    # -- NM302: writes only ----------------------------------------------------
    def _check_write(self, target: ast.expr) -> None:
        if not isinstance(target, ast.Attribute) or is_self_access(target):
            return
        if not self.ctx.path.startswith(_NM302_SCOPE):
            return
        for owner, fields in _WRITE_OWNERS.items():
            if target.attr in fields and self.ctx.path != owner:
                self.report(target, "NM302",
                            f"write to transition field {target.attr!r} "
                            f"outside {owner}; state machines advance only "
                            "through their owner's API")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in assignment_targets(node):
            self._check_write(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        for target in assignment_targets(node):
            self._check_write(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        for target in assignment_targets(node):
            self._check_write(target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in assignment_targets(node):
            self._check_write(target)
        self.generic_visit(node)
