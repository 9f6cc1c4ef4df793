"""Host node: CPU-side context owning one NIC per rail.

A node is deliberately thin — it groups the NICs of one machine with the
host memory model so upper layers (engines, MPI models) can charge memcpy
time and reach every rail from one handle.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import NetworkError
from repro.netsim.memory import MemoryModel
from repro.netsim.nic import Nic
from repro.sim import Simulator, Tracer

__all__ = ["Node"]


class Node:
    """One simulated host."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        memory: MemoryModel,
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.memory = memory
        self.tracer = tracer if tracer is not None else Tracer()
        self.nics: list[Nic] = []
        self.name = f"node{node_id}"
        # Crash/restart lifecycle.  ``incarnation`` counts restarts: the
        # session layer stamps it on every frame so peers can fence traffic
        # from a previous life of this node.
        self.up = True
        self.incarnation = 0
        self._crash_hooks: list[Callable[[], None]] = []
        # Host memory copies serialize on the CPU: concurrent protocol-level
        # copy requests queue behind each other (see serialize_copy).
        self._copy_free_at = 0.0

    def serialize_copy(self, cost_us: float) -> float:
        """Reserve ``cost_us`` of serialized host-copy time.

        Returns the delay from *now* until this copy completes.  Concurrent
        copies (several eager segments landing from one aggregate, a
        datatype unpack racing an eager copy) queue on the single memory
        engine instead of magically overlapping — without this, many tiny
        copies would be charged in parallel and undercut one large copy of
        the same byte count.
        """
        if cost_us < 0:
            raise ValueError(f"negative copy cost {cost_us}")
        start = max(self.sim.now, self._copy_free_at)
        self._copy_free_at = start + cost_us
        return self._copy_free_at - self.sim.now

    def add_nic(self, nic: Nic) -> None:
        """Attach a NIC (rails must be added in order, starting at 0)."""
        if nic.node_id != self.node_id:
            raise NetworkError(
                f"{self.name}: NIC {nic.name} belongs to node {nic.node_id}"
            )
        if nic.rail != len(self.nics):
            raise NetworkError(
                f"{self.name}: expected rail {len(self.nics)}, got {nic.rail}"
            )
        self.nics.append(nic)

    # -- crash / restart --------------------------------------------------------
    def add_crash_hook(self, fn: Callable[[], None]) -> None:
        """Register ``fn()`` to run (once) when this node crashes.

        The engine registers its :meth:`~repro.core.engine.NmadEngine.halt`
        here so a crash silences the dead process's timers and watchdog.
        Hooks are consumed by :meth:`crash` — a restarted node's new engine
        must register its own.
        """
        self._crash_hooks.append(fn)

    def crash(self) -> None:
        """Fail-stop this host: run crash hooks, then power down every NIC."""
        if not self.up:
            raise NetworkError(f"{self.name}: crash() on a node already down")
        self.up = False
        hooks, self._crash_hooks = self._crash_hooks, []
        for fn in hooks:
            fn()
        for nic in self.nics:
            nic.crash()
        self._copy_free_at = 0.0
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.name, "crash")

    def restart(self) -> None:
        """Bring the host back up as a fresh incarnation.

        NIC handlers were detached at crash time; whoever restarts the node
        (typically by constructing a new engine on it) re-installs them.
        """
        if self.up:
            raise NetworkError(f"{self.name}: restart() on a node already up")
        self.up = True
        self.incarnation += 1
        for nic in self.nics:
            nic.restart()
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.name, "restart",
                             incarnation=self.incarnation)

    def nic(self, rail: int = 0) -> Nic:
        """The NIC on ``rail`` (rail 0 is the default network)."""
        try:
            return self.nics[rail]
        except IndexError:
            raise NetworkError(
                f"{self.name}: no NIC on rail {rail} (has {len(self.nics)})"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id} nics={[n.profile.name for n in self.nics]}>"
