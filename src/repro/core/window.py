"""The optimization window.

Paper §3.1: "While the NICs are busy, NewMadeleine keeps accumulating
packets in its optimization window.  As soon as a NIC becomes idle, the
optimization window is analyzed so as to create a new ready-to-send packet."

The window holds submitted :class:`~repro.core.packet.PacketWrap` objects on
two kinds of lists (paper §3.3): a **common list** whose wraps may leave on
any rail ("for automatized load-balancing among all the NICs, possibly from
heterogeneous technologies"), and per-rail **dedicated lists** for wraps the
application pinned to a specific network.

Every operation on the strategy pull path is O(1) or O(answer size): the
lists are insertion-ordered dicts keyed by ``wrap_id`` so :meth:`take` is a
hash delete instead of a linear scan, and byte/wrap totals — global, per
rail, per destination — are maintained incrementally on submit/take rather
than recomputed.  The paper's pitch (§5.1) is that the scheduler adds only a
tiny constant cost per NIC refill; with linear accounting that constant
would silently grow with backlog depth, i.e. exactly when the window is
doing its job.  A per-destination index lets strategies enumerate the wraps
towards one node without scanning every other node's traffic.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from repro.core.packet import PacketWrap
from repro.errors import StrategyError

__all__ = ["OptimizationWindow"]


class OptimizationWindow:
    """Accumulates wraps between submission and scheduling."""

    def __init__(self, n_rails: int) -> None:
        if n_rails < 1:
            raise ValueError("window needs at least one rail")
        self.n_rails = n_rails
        # Insertion-ordered storage: wrap_id -> wrap.  Python dicts preserve
        # submission order and delete in O(1), which is what the old
        # deque.remove() take path could not do.
        self._common: dict[int, PacketWrap] = {}
        self._dedicated: list[dict[int, PacketWrap]] = [
            {} for _ in range(n_rails)
        ]
        # Per-destination index over *all* lists: dest -> {wrap_id: wrap}.
        self._by_dest: dict[int, dict[int, PacketWrap]] = {}
        # Incremental counters (kept exactly in sync by submit/_remove; the
        # property tests compare them against brute-force recomputation).
        self._count = 0
        self._total_bytes = 0
        self._common_bytes = 0
        self._dedicated_bytes = [0] * n_rails
        self._dest_bytes: dict[int, int] = {}
        # Credit-gating state (flow_control="credit"): destinations the
        # flow-control layer blocked, and — only once :meth:`gate_eager`
        # enabled gating — a per-dest count of gate-exempt wraps (control
        # records, and wraps above the floor, which travel by rendezvous
        # and pace themselves through its grant).
        self._exempt_floor = 0
        self._gated = False
        self._blocked_dests: set[int] = set()
        self._dest_exempt: dict[int, int] = {}
        # Peak-occupancy statistics for the ablation benches.
        self.peak_wraps = 0
        self.peak_bytes = 0
        self.total_submitted = 0

    # -- submission -----------------------------------------------------------
    def submit(self, wrap: PacketWrap) -> None:
        """Insert a wrap on its list (dedicated if ``wrap.rail`` is pinned)."""
        rail = wrap.rail
        if rail is not None:
            if not 0 <= rail < self.n_rails:
                raise StrategyError(
                    f"wrap pinned to rail {rail}, window has "
                    f"{self.n_rails} rails"
                )
            target = self._dedicated[rail]
        else:
            target = self._common
        wid = wrap.wrap_id
        if wid in target:
            raise StrategyError(f"{wrap!r} is already in the window")
        target[wid] = wrap
        length = wrap.length
        dest = wrap.dest
        self._count += 1
        self._total_bytes += length
        if rail is None:
            self._common_bytes += length
        else:
            self._dedicated_bytes[rail] += length
        by_dest = self._by_dest.get(dest)
        if by_dest is None:
            by_dest = self._by_dest[dest] = {}
            self._dest_bytes[dest] = 0
        by_dest[wid] = wrap
        self._dest_bytes[dest] += length
        if self._gated and (wrap.is_control or length > self._exempt_floor):
            self._dest_exempt[dest] = self._dest_exempt.get(dest, 0) + 1
        self.total_submitted += 1
        if self._count > self.peak_wraps:
            self.peak_wraps = self._count
        if self._total_bytes > self.peak_bytes:
            self.peak_bytes = self._total_bytes

    # -- credit gating (flow_control="credit") ---------------------------------
    def _is_exempt(self, wrap: PacketWrap) -> bool:
        """Control records and rendezvous-bound wraps bypass credit gating."""
        return wrap.is_control or wrap.length > self._exempt_floor

    def gate_eager(self, exempt_floor: int) -> None:
        """Enable credit gating: wraps above ``exempt_floor`` stay electable
        while their destination is blocked."""
        self._exempt_floor = exempt_floor
        self._gated = True

    def block_dest(self, dest: int) -> None:
        """Stop electing credit-gated wraps towards ``dest``."""
        self._blocked_dests.add(dest)

    def unblock_dest(self, dest: int) -> None:
        self._blocked_dests.discard(dest)

    def is_blocked(self, dest: int) -> bool:
        return dest in self._blocked_dests

    def blocked_dests(self) -> list[int]:
        """Destinations currently credit-blocked, in deterministic order."""
        return sorted(self._blocked_dests)

    # -- inspection (strategy input, paper §3.2) -------------------------------
    def eligible(self, rail: int) -> Iterator[PacketWrap]:
        """Wraps a NIC on ``rail`` may send, in submission order.

        Dedicated wraps for the rail come first (they can go nowhere else),
        then the common list.  Credit-gated wraps towards a blocked
        destination are withheld; with no destination blocked — always true
        in the default mode — the scan adds a single set check.
        """
        if not 0 <= rail < self.n_rails:
            raise StrategyError(f"no rail {rail} in window")
        blocked = self._blocked_dests
        if not blocked:
            yield from self._dedicated[rail].values()
            yield from self._common.values()
            return
        for wrap in self._dedicated[rail].values():
            if wrap.dest in blocked and not self._is_exempt(wrap):
                continue
            yield wrap
        for wrap in self._common.values():
            if wrap.dest in blocked and not self._is_exempt(wrap):
                continue
            yield wrap

    def eligible_for_dest(self, rail: int, dest: int) -> list[PacketWrap]:
        """Wraps towards ``dest`` a NIC on ``rail`` may send.

        Same ordering contract as :meth:`eligible` (dedicated first, then
        common, each in submission order) but computed from the
        per-destination index in O(wraps towards ``dest``) — a strategy
        synthesizing a point-to-point packet never scans the traffic queued
        for other nodes.  A credit-blocked destination with no exempt wraps
        answers ``[]`` in O(1) from the exempt counter.
        """
        if not 0 <= rail < self.n_rails:
            raise StrategyError(f"no rail {rail} in window")
        by_dest = self._by_dest.get(dest)
        if not by_dest:
            return []
        blocked = dest in self._blocked_dests
        if blocked and not self._dest_exempt.get(dest):
            return []
        pinned: list[PacketWrap] = []
        common: list[PacketWrap] = []
        for wrap in by_dest.values():
            if blocked and not self._is_exempt(wrap):
                continue
            if wrap.rail is None:
                common.append(wrap)
            elif wrap.rail == rail:
                pinned.append(wrap)
        pinned.extend(common)
        return pinned

    def dests(self) -> Iterator[int]:
        """Destinations with at least one waiting wrap."""
        return iter(self._by_dest)

    def __len__(self) -> int:
        return self._count

    def __contains__(self, wrap: PacketWrap) -> bool:
        by_dest = self._by_dest.get(wrap.dest)
        return by_dest is not None and wrap.wrap_id in by_dest

    @property
    def empty(self) -> bool:
        return self._count == 0

    def pending_bytes(self, rail: int | None = None) -> int:
        """Total payload bytes waiting (for one rail's view, or globally)."""
        if rail is None:
            return self._total_bytes
        if not 0 <= rail < self.n_rails:
            raise StrategyError(f"no rail {rail} in window")
        return self._common_bytes + self._dedicated_bytes[rail]

    def backlog(self, dest: int | None = None) -> int:
        """Number of waiting wraps (optionally only towards ``dest``)."""
        if dest is None:
            return self._count
        by_dest = self._by_dest.get(dest)
        return len(by_dest) if by_dest is not None else 0

    def backlog_bytes(self, dest: int) -> int:
        """Payload bytes waiting towards ``dest``."""
        return self._dest_bytes.get(dest, 0)

    def _all(self) -> Iterator[PacketWrap]:
        yield from self._common.values()
        for d in self._dedicated:
            yield from d.values()

    # -- removal (strategy commit) ----------------------------------------------
    def take(self, wrap: PacketWrap) -> None:
        """Remove a wrap the strategy committed to a physical packet.

        Raises :class:`StrategyError` if the wrap is not in the window —
        strategies may only send what actually exists.
        """
        rail = wrap.rail
        if rail is not None and not 0 <= rail < self.n_rails:
            raise StrategyError(
                f"strategy tried to take {wrap!r} which is not in the window"
            )
        target = self._dedicated[rail] if rail is not None else self._common
        wid = wrap.wrap_id
        if target.pop(wid, None) is None:
            raise StrategyError(
                f"strategy tried to take {wrap!r} which is not in the window"
            )
        length = wrap.length
        dest = wrap.dest
        self._count -= 1
        self._total_bytes -= length
        if rail is None:
            self._common_bytes -= length
        else:
            self._dedicated_bytes[rail] -= length
        by_dest = self._by_dest[dest]
        del by_dest[wid]
        if by_dest:
            self._dest_bytes[dest] -= length
        else:
            del self._by_dest[dest]
            del self._dest_bytes[dest]
        if self._gated and (wrap.is_control or length > self._exempt_floor):
            left = self._dest_exempt[dest] - 1
            if left:
                self._dest_exempt[dest] = left
            else:
                del self._dest_exempt[dest]

    def drain_matching(self, pred: Callable[[PacketWrap], bool]) -> list[PacketWrap]:
        """Remove and return every wrap satisfying ``pred`` (error paths)."""
        taken = [w for w in self._all() if pred(w)]
        for w in taken:
            self.take(w)
        return taken
