"""Receive-side demultiplexing: in-order delivery plus request matching.

The engine may *physically* reorder packets — aggregate across flows, send
out-of-order, split across rails (paper §7) — so the receive side restores
logical order from the metadata the collect layer attached: sender id, flow
tag and sequence number (paper §3.3).  Two mechanisms compose:

1. **Sequence parking**: incoming message descriptors for one ``(src,
   flow)`` stream enter matching strictly in sequence order; early arrivals
   park until the gap fills.  This is what makes physical reordering safe.

2. **MPI-style matching**: in-order descriptors match against posted
   receives (first posted match wins, wildcards allowed) or join the
   unexpected queue until a matching receive is posted.

Descriptors are either eager segments (data is already here) or rendezvous
announcements (data follows after the grant); what happens on a match is
the engine's business, injected as the ``on_match`` callback.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from repro.core.packet import RdvReqItem, SegItem
from repro.core.requests import RecvRequest
from repro.errors import ProtocolError
from repro.sim import Event, Tracer

__all__ = ["Incoming", "Matcher"]


@dataclass(slots=True)
class Incoming:
    """One logical incoming message descriptor, pre-matching."""

    src: int
    flow: int
    tag: int
    seq: int
    nbytes: int
    item: SegItem | RdvReqItem | None
    arrived_at: float = 0.0
    #: Tombstone of a cancelled send: consumes its sequence slot, matches
    #: nothing (see :class:`repro.core.packet.CancelItem`).
    is_skip: bool = False

    @property
    def is_rdv(self) -> bool:
        return type(self.item) is RdvReqItem


class Matcher:
    """Orders, matches, and queues incoming message descriptors.

    A replayed seq (below the expected one, or parked twice) raises
    :class:`ProtocolError` in every configuration: the reliability layer's
    transport filter drops every replay before the demultiplexer.
    """

    def __init__(
        self,
        on_match: Callable[[Incoming, RecvRequest], None],
        tracer: Tracer | None = None,
        name: str = "matcher",
    ) -> None:
        self._on_match = on_match
        self.tracer = tracer if tracer is not None else Tracer()
        self.name = name
        self._expected: dict[tuple[int, int], int] = {}
        self._parked: dict[tuple[int, int], dict[int, Incoming]] = {}
        self._posted: list[RecvRequest] = []
        self._unexpected: list[Incoming] = []
        self._watchers: list[tuple[int, int, int, object]] = []
        # Statistics for tests and reports.
        self.delivered = 0
        self.parked_total = 0
        self.unexpected_total = 0
        self.unexpected_bytes = 0
        self.peak_unexpected_bytes = 0

    # -- arrivals ------------------------------------------------------------
    def deliver(self, inc: Incoming, now: float = 0.0) -> None:
        """Accept a descriptor from the wire; releases any unblocked parkers."""
        inc.arrived_at = now
        key = (inc.src, inc.flow)
        expected = self._expected.get(key, 0)
        if inc.seq < expected:
            raise ProtocolError(
                f"{self.name}: duplicate or replayed seq {inc.seq} from "
                f"src={inc.src} flow={inc.flow} (expected {expected})"
            )
        if inc.seq > expected:
            parked = self._parked.setdefault(key, {})
            if inc.seq in parked:
                raise ProtocolError(
                    f"{self.name}: two deliveries for seq {inc.seq} "
                    f"(src={inc.src} flow={inc.flow})"
                )
            parked[inc.seq] = inc
            self.parked_total += 1
            if self.tracer.enabled:
                self.tracer.emit(now, self.name, "park",
                                 src=inc.src, flow=inc.flow, seq=inc.seq)
            return
        self._admit(inc)
        # Drain consecutively-parked descriptors.
        parked = self._parked.get(key)
        while parked:
            follower = parked.pop(self._expected[key], None)
            if follower is None:
                break
            self._admit(follower)
        if parked is not None and not parked:
            del self._parked[key]

    def _admit(self, inc: Incoming) -> None:
        """Admit an in-sequence descriptor: match it or queue it unexpected."""
        key = (inc.src, inc.flow)
        if inc.is_skip:
            self._expected[key] = inc.seq + 1
            self.delivered += 1
            if self.tracer.enabled:
                self.tracer.emit(inc.arrived_at, self.name, "skip",
                                 src=inc.src, flow=inc.flow, seq=inc.seq)
            return
        # Find the posted match before the watchers run.
        match_idx = -1
        for idx, req in enumerate(self._posted):
            if req.flow == inc.flow and req.matches(inc.src, inc.tag):
                match_idx = idx
                break
        self._expected[key] = inc.seq + 1
        self.delivered += 1
        # Watchers fire on *admission*, before matching: a probe reports
        # that a message arrived, never that it is reserved.  If a
        # pre-posted receive consumes the descriptor in the same instant,
        # the prober still wakes with its metadata — the MPI probe/recv
        # race, where another receive may always steal the probed message —
        # instead of waiting forever on a watcher tuple that leaks.
        if self._watchers:
            self._wake_watchers(inc)
        if match_idx >= 0:
            req = self._posted.pop(match_idx)
            if self.tracer.enabled:
                self.tracer.emit(inc.arrived_at, self.name, "match",
                                 src=inc.src, flow=inc.flow, tag=inc.tag,
                                 seq=inc.seq)
            self._on_match(inc, req)
            return
        self._unexpected.append(inc)
        self.unexpected_total += 1
        if type(inc.item) is SegItem:
            self.unexpected_bytes += inc.item.data.nbytes
            if self.unexpected_bytes > self.peak_unexpected_bytes:
                self.peak_unexpected_bytes = self.unexpected_bytes
        if self.tracer.enabled:
            self.tracer.emit(inc.arrived_at, self.name, "unexpected",
                             src=inc.src, flow=inc.flow, tag=inc.tag,
                             seq=inc.seq)

    # -- receive posting ----------------------------------------------------
    def post(self, req: RecvRequest, now: float = 0.0) -> None:
        """Post a receive at ``now``; matches the oldest waiting descriptor
        if any."""
        for idx, inc in enumerate(self._unexpected):
            if req.flow == inc.flow and req.matches(inc.src, inc.tag):
                del self._unexpected[idx]
                if type(inc.item) is SegItem:
                    self.unexpected_bytes -= inc.item.data.nbytes
                if self.tracer.enabled:
                    self.tracer.emit(now, self.name,
                                     "match_unexpected", src=inc.src,
                                     flow=inc.flow, tag=inc.tag)
                self._on_match(inc, req)
                return
        self._posted.append(req)

    def unpost(self, req: RecvRequest, now: float = 0.0) -> bool:
        """Withdraw a still-unmatched posted receive (deadline expiry).

        Returns ``True`` when the request was waiting and is now gone —
        the caller owns failing its completion.  ``False`` means the
        receive already matched (or was never posted): too late to
        withdraw, the data is landing.
        """
        try:
            self._posted.remove(req)
        except ValueError:
            return False
        if self.tracer.enabled:
            self.tracer.emit(now, self.name, "unpost", src=req.match_src,
                             flow=req.flow, tag=req.match_tag)
        return True

    # -- probing (MPI_Probe / MPI_Iprobe support) ----------------------------
    @staticmethod
    def _probe_matches(inc: Incoming, src: int, flow: int, tag: int) -> bool:
        return (inc.flow == flow and src in (-1, inc.src)
                and tag in (-1, inc.tag))

    def peek(self, src: int, flow: int, tag: int) -> Incoming | None:
        """Oldest unexpected descriptor matching (src, flow, tag), if any.

        The descriptor stays queued — probing never consumes a message.
        """
        for inc in self._unexpected:
            if self._probe_matches(inc, src, flow, tag):
                return inc
        return None

    def watch(self, src: int, flow: int, tag: int, event: Event) -> None:
        """Trigger ``event`` (with the descriptor) when a match arrives.

        Fires immediately if a matching descriptor is already queued,
        otherwise when the next matching descriptor is *admitted* — even if
        a pre-posted receive consumes it in the same instant.  Probing
        reports arrival, not reservation: like MPI_Probe, a concurrent
        receive may consume the probed message before the prober's own
        receive posts, in which case that receive simply waits for the next
        match.
        """
        existing = self.peek(src, flow, tag)
        if existing is not None:
            event.succeed(existing)
            return
        self._watchers.append((src, flow, tag, event))

    def _wake_watchers(self, inc: Incoming) -> None:
        kept = []
        for src, flow, tag, event in self._watchers:
            if self._probe_matches(inc, src, flow, tag):
                # Probing is non-consuming: every matching prober sees it.
                event.succeed(inc)
            else:
                kept.append((src, flow, tag, event))
        self._watchers = kept

    # -- session-layer hooks --------------------------------------------------
    def reset_peer(self, src: int) -> None:
        """Drop all sequencing and buffered state from ``src``.

        The session layer's epoch fence: the peer's next incarnation
        restarts its sequence streams at zero, so the old expected
        counters, parked early arrivals and unexpected descriptors must
        vanish together — keeping any of them would either wedge the new
        streams (stale expected counter) or ghost-deliver old-epoch data
        into them.  Posted receives are *not* touched: see
        :meth:`fail_src` for the confirmed-death path.
        """
        for key in [k for k in self._expected if k[0] == src]:
            del self._expected[key]
        for key in [k for k in self._parked if k[0] == src]:
            del self._parked[key]
        kept = []
        for inc in self._unexpected:
            if inc.src != src:
                kept.append(inc)
            elif type(inc.item) is SegItem:
                self.unexpected_bytes -= inc.item.data.nbytes
        self._unexpected = kept

    def fail_src(self, src: int, exc: BaseException, now: float = 0.0) -> None:
        """Fail every posted receive pinned to a now-dead ``src``.

        Wildcard receives stay posted — another peer may still complete
        them.  Death is reported through the non-raising failed/error API;
        wait() re-raises it.
        """
        kept = []
        for req in self._posted:
            if req.match_src == src:
                req.fail_observed(exc)
                if self.tracer.enabled:
                    self.tracer.emit(now, self.name, "fail_src", src=src,
                                     flow=req.flow, tag=req.match_tag)
            else:
                kept.append(req)
        self._posted = kept

    def has_posted_from(self, src: int) -> bool:
        """Any posted receive pinned to ``src`` (liveness interest)?"""
        return any(req.match_src == src for req in self._posted)

    # -- introspection -------------------------------------------------------
    @property
    def n_posted(self) -> int:
        return len(self._posted)

    @property
    def n_unexpected(self) -> int:
        return len(self._unexpected)

    @property
    def n_parked(self) -> int:
        return sum(len(p) for p in self._parked.values())

    @property
    def n_watchers(self) -> int:
        return len(self._watchers)
