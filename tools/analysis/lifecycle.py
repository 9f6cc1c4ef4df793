"""Ownership and lifecycle checker (NM3xx).

Engine state advances through a small API surface — ``Event.succeed``/
``fail``/``defuse``, ``RecvRequest.finish``, the window's ``submit``/
``take``, ``RendezvousManager``'s and ``TransferLayer``'s transition
methods — never by poking the state fields from outside the owning module.
A half-applied transition leaves the window, the rendezvous table and the
completion event telling three different stories, and a test sees it only
on the path that takes it.  Who owns what is declared once,
:data:`WRITE_OWNERS`, which the interprocedural NM501 reads too.  The rules:

* **NM301** — the kernel-private fields of :class:`repro.sim.core.Event`
  are not even *read* outside ``repro/sim/core.py`` (use ``triggered``/
  ``ok``/``value``/``exception``/``defuse()``), and the simulated clock
  is never assigned there: ``Simulator.now`` is a plain attribute that only
  ``Simulator.run`` moves.
* **NM302** — an owned field (a :data:`WRITE_OWNERS` row) is written only
  in its owner module.
* **NM303** — the window's private storage is not even *read* outside
  ``repro/core/window.py``: strategies consume the ``eligible*``/
  ``backlog*``/``pending_bytes`` accessors, which is what keeps the
  storage layout swappable.
* **NM304** — inside ``repro/chaos/`` a ``.kind == "..."`` comparison
  dispatches on chaos faults, so its literal must be registered in
  ``repro.chaos.schedule.FAULT_KINDS``: a typo'd kind dispatches nowhere,
  and the sweep silently skips that fault.
* **NM305** — within ``repro/chaos/`` an underscore-private attribute of
  another object may be *read* only in ``repro/chaos/audit.py`` and
  *written* nowhere — the auditor inspects, never mutates.

``self``-access is exempt throughout: a class may always touch its own
state; the rules are about reaching across a boundary.
"""

from __future__ import annotations

import ast
from pathlib import Path

from tools.analysis.base import WriteChecker, is_self_access

WINDOW_MODULE = "repro/core/window.py"
#: Private storage + incremental counters of ``OptimizationWindow``.
WINDOW_PRIVATE = frozenset({
    "_common", "_dedicated", "_by_dest",
    "_count", "_total_bytes", "_common_bytes", "_dedicated_bytes",
    "_dest_bytes",
    "_blocked_dests", "_dest_exempt", "_exempt_floor", "_gated",
})
EVENT_MODULE = "repro/sim/core.py"
#: Kernel-private Event/Process/Condition state.
EVENT_PRIVATE = frozenset({
    "_ok", "_value", "_callbacks", "_gen", "_n_left",
})
#: What a simulator is called where one is held (``sim.now``,
#: ``self.sim.now``, ``engine.sim.now``, ``self._sim.now``).
SIMULATOR_NAMES = frozenset({"sim", "_sim", "simulator"})

#: Where engine state objects circulate.  The baselines (repro/baselines/)
#: keep local state machines that reuse field names like ``next_offset``
#: and never hold engine objects; the chaos auditor does hold them.
_ENGINE_STATE = ("repro/core/", "repro/madmpi/", "repro/chaos/")

#: Write ownership, declared once: (owner module, owned fields, the
#: virtual-path prefixes the rule applies to).  NM302 checks attribute
#: writes against it, NM501 container mutations.
WRITE_OWNERS: tuple[tuple[str, frozenset[str], tuple[str, ...]], ...] = (
    (WINDOW_MODULE, WINDOW_PRIVATE, ("repro/",)),
    (EVENT_MODULE, EVENT_PRIVATE, ("repro/",)),
    ("repro/core/rendezvous.py", frozenset({
        "granted", "next_offset", "bytes_sent", "received",
    }), _ENGINE_STATE),
    # A receive's (src, tag) pair: the posted selectors until
    # RecvRequest.finish overwrites them with the status.
    ("repro/core/requests.py", frozenset({
        "match_src", "match_tag",
    }), _ENGINE_STATE),
    # Credit-conservation totals: idempotent under duplicated grants only
    # while every mutation goes through consume/release/_apply_grant.
    ("repro/core/flowcontrol.py", frozenset({
        "sent_bytes_total", "sent_wraps_total",
        "released_bytes_total", "released_wraps_total",
        "peer_released_bytes", "peer_released_wraps",
    }), _ENGINE_STATE),
    # Rail health: TransferLayer.quarantine()/readmit() also re-home the
    # rail's granted bulk and kick the idle rails.
    ("repro/core/transfer.py", frozenset({"quarantined"}), _ENGINE_STATE),
    # The matcher's unexpected-byte gauge (the credit bound is read off it).
    ("repro/core/matching.py", frozenset({"unexpected_bytes"}),
     _ENGINE_STATE),
    # Per-peer session state: the epoch fence holds only while handshake
    # and liveness clocks advance through SessionLayer.
    ("repro/core/sessions.py", frozenset({
        "sess_state", "peer_incarnation", "last_heard_us", "last_tx_us",
    }), _ENGINE_STATE),
)

_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Registered chaos fault kinds: ``repro.chaos.schedule.FAULT_KINDS``, read
#: from the source (the lint runs without the package installed).
CHAOS_FAULT_KINDS = frozenset(next(
    ast.literal_eval(stmt.value)
    for stmt in ast.parse((_SRC / "chaos" / "schedule.py").read_text(
        encoding="utf-8")).body
    if isinstance(stmt, ast.Assign)
    and [ast.unparse(t) for t in stmt.targets] == ["FAULT_KINDS"]))

#: The chaos package (NM305 scope) and its one sanctioned inspector.
CHAOS_SCOPE = "repro/chaos/"
CHAOS_AUDIT_MODULE = "repro/chaos/audit.py"


def _names_simulator(receiver: ast.expr) -> bool:
    """Is ``receiver`` (the ``X`` of ``X.now``) named like a simulator?"""
    if isinstance(receiver, ast.Name):
        return receiver.id in SIMULATOR_NAMES
    return (isinstance(receiver, ast.Attribute)
            and receiver.attr in SIMULATOR_NAMES)


def foreign_owner(path: str, attr: str) -> str | None:
    """The owner module of ``attr`` if code at ``path`` may not write it."""
    for owner, fields, scope in WRITE_OWNERS:
        if attr in fields and path != owner and path.startswith(scope):
            return owner
    return None


class LifecycleChecker(WriteChecker):
    name = "lifecycle"
    codes = {
        "NM301": "Event kernel-private state read, or the clock assigned, "
                 "outside sim/core.py",
        "NM302": "owned field written outside its owner module",
        "NM303": "window-private storage read outside window.py",
        "NM304": "unregistered chaos-fault-kind literal in repro/chaos/",
        "NM305": "layer-private state touched in repro/chaos/ outside audit.py",
    }
    scope = ("repro/",)

    # -- NM301 / NM303 / NM305: reads (NM305 and the clock: writes too) -------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = node.attr
        path = self.ctx.path
        read = isinstance(node.ctx, ast.Load)
        foreign = not is_self_access(node)
        if attr in EVENT_PRIVATE and read and foreign and path != EVENT_MODULE:
            self.report(node, "NM301",
                        f"read of kernel-private {attr!r} outside the "
                        "simulation kernel; use the public Event API "
                        "(triggered/ok/value/exception/defuse)")
        if (attr == "now" and not read and path != EVENT_MODULE
                and _names_simulator(node.value)):
            self.report(node, "NM301",
                        "assignment to the simulation clock outside the "
                        "kernel; 'now' is an attribute only Simulator.run "
                        "writes (schedule a callback instead)")
        if attr in WINDOW_PRIVATE and read and foreign \
                and path != WINDOW_MODULE:
            self.report(node, "NM303",
                        f"read of window-private {attr!r} outside "
                        "repro/core/window.py; consume the eligible*/"
                        "backlog*/pending_bytes accessors instead")
        if (path.startswith(CHAOS_SCOPE) and attr.startswith("_")
                and not attr.startswith("__") and foreign):
            if not read:
                self.report(node, "NM305",
                            f"write to layer-private {attr!r} from the "
                            "chaos package; the auditor inspects engine "
                            "state, it never mutates it")
            elif path != CHAOS_AUDIT_MODULE:
                self.report(node, "NM305",
                            f"read of layer-private {attr!r} from {path}; "
                            "only repro/chaos/audit.py may cross layer "
                            "boundaries (and read-only)")
        self.generic_visit(node)

    # -- NM302: writes ---------------------------------------------------------
    def check_write(self, stmt: ast.stmt, target: ast.Attribute) -> None:
        if is_self_access(target):
            return
        owner = foreign_owner(self.ctx.path, target.attr)
        if owner is not None:
            self.report(target, "NM302",
                        f"write to {target.attr!r} outside {owner}; state "
                        "advances only through its owner's API")

    # -- NM304: chaos-fault-kind literals ---------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        if (self.ctx.path.startswith(CHAOS_SCOPE)
                and any(isinstance(op, ast.Eq | ast.NotEq) for op in node.ops)
                and any(isinstance(o, ast.Attribute) and o.attr == "kind"
                        for o in operands)):
            for o in operands:
                if (isinstance(o, ast.Constant) and isinstance(o.value, str)
                        and o.value not in CHAOS_FAULT_KINDS):
                    self.report(o, "NM304",
                                f"chaos fault kind {o.value!r} is not "
                                "registered; add it to schedule.FAULT_KINDS "
                                "(typo'd kinds dispatch nowhere)")
        self.generic_visit(node)
