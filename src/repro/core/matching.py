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
        return isinstance(self.item, RdvReqItem)


class Matcher:
    """Orders, matches, and queues incoming message descriptors."""

    def __init__(
        self,
        on_match: Callable[[Incoming, RecvRequest], None],
        tracer: Tracer | None = None,
        name: str = "matcher",
        dedup: bool = False,
        max_unexpected_bytes: int = 0,
    ) -> None:
        self._on_match = on_match
        self.tracer = tracer if tracer is not None else Tracer()
        self.name = name
        #: With ``dedup=True`` (set by engines running the reliability
        #: layer) a replayed sequence number is silently discarded instead
        #: of raising: retransmission makes duplicates legitimate, and the
        #: layer's contract is that the application never sees one.
        self.dedup = dedup
        #: Receiver memory budget: cap on buffered unexpected eager payload
        #: bytes (0 = the paper's unbounded queue).  An eager arrival that
        #: finds no posted receive and would overflow is *refused* — handed
        #: to ``on_refuse`` (the engine NACKs it back to its sender) without
        #: advancing the sequence stream, so the delayed resend slots
        #: straight back in.  The flow-control layer installs itself here.
        self._max_unexpected = max_unexpected_bytes
        self.on_refuse: Callable[[Incoming], None] | None = None
        self._expected: dict[tuple[int, int], int] = {}
        self._parked: dict[tuple[int, int], dict[int, Incoming]] = {}
        self._posted: list[RecvRequest] = []
        self._unexpected: list[Incoming] = []
        self._watchers: list[tuple[int, int, int, object]] = []
        # Statistics for tests and reports.
        self.delivered = 0
        self.parked_total = 0
        self.unexpected_total = 0
        self.duplicates_dropped = 0
        self.unexpected_bytes = 0
        self.peak_unexpected_bytes = 0
        self.refused_total = 0

    # -- arrivals ------------------------------------------------------------
    def deliver(self, inc: Incoming, now: float = 0.0) -> None:
        """Accept a descriptor from the wire; releases any unblocked parkers."""
        inc.arrived_at = now
        key = (inc.src, inc.flow)
        expected = self._expected.get(key, 0)
        if inc.seq < expected:
            if self.dedup:
                self.duplicates_dropped += 1
                if self.tracer.enabled:
                    self.tracer.emit(now, self.name, "dup_drop", src=inc.src,
                                     flow=inc.flow, seq=inc.seq)
                return
            raise ProtocolError(
                f"{self.name}: duplicate or replayed seq {inc.seq} from "
                f"src={inc.src} flow={inc.flow} (expected {expected})"
            )
        if inc.seq > expected:
            parked = self._parked.setdefault(key, {})
            if inc.seq in parked:
                if self.dedup:
                    self.duplicates_dropped += 1
                    if self.tracer.enabled:
                        self.tracer.emit(now, self.name, "dup_drop",
                                         src=inc.src, flow=inc.flow,
                                         seq=inc.seq)
                    return
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
        if not self._admit(inc):
            return
        # Drain consecutively-parked descriptors.
        parked = self._parked.get(key)
        while parked:
            nxt = self._expected[key]
            follower = parked.pop(nxt, None)
            if follower is None:
                break
            if not self._admit(follower):
                # Refused (budget full) and bounced to its sender: the
                # descriptor is dropped locally — the delayed resend will
                # redeliver it at this same, still-expected seq — and the
                # drain stops, as nothing later may overtake it.
                break
        if parked is not None and not parked:
            del self._parked[key]

    def _admit(self, inc: Incoming) -> bool:
        """Admit an in-sequence descriptor; ``False`` = refused (bounced)."""
        key = (inc.src, inc.flow)
        if inc.is_skip:
            self._expected[key] = inc.seq + 1
            self.delivered += 1
            if self.tracer.enabled:
                self.tracer.emit(inc.arrived_at, self.name, "skip",
                                 src=inc.src, flow=inc.flow, seq=inc.seq)
            return True
        # Find the posted match before mutating any state: a refusal must
        # leave the matcher exactly as it was (sequence stream included).
        match_idx = -1
        for idx, req in enumerate(self._posted):
            if req.flow == inc.flow and req.matches(inc.src, inc.tag):
                match_idx = idx
                break
        if match_idx < 0 and self._over_budget(inc):
            self.refused_total += 1
            if self.tracer.enabled:
                self.tracer.emit(inc.arrived_at, self.name, "refuse",
                                 src=inc.src, flow=inc.flow, tag=inc.tag,
                                 seq=inc.seq, buffered=self.unexpected_bytes)
            if self.on_refuse is not None:
                self.on_refuse(inc)
            return False
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
            return True
        self._unexpected.append(inc)
        self.unexpected_total += 1
        if isinstance(inc.item, SegItem):
            self.unexpected_bytes += inc.item.data.nbytes
            if self.unexpected_bytes > self.peak_unexpected_bytes:
                self.peak_unexpected_bytes = self.unexpected_bytes
        if self.tracer.enabled:
            self.tracer.emit(inc.arrived_at, self.name, "unexpected",
                             src=inc.src, flow=inc.flow, tag=inc.tag,
                             seq=inc.seq)
        return True

    def _over_budget(self, inc: Incoming) -> bool:
        """Would buffering ``inc`` unexpected overflow the byte budget?

        Rendezvous announcements buffer no payload (the data waits on the
        sender), and an empty buffer always accepts one message regardless
        of its size — the liveness floor that keeps a budget smaller than
        one message from wedging the stream.
        """
        if not self._max_unexpected:
            return False
        item = inc.item
        if not isinstance(item, SegItem) or item.data.nbytes == 0:
            return False
        if not self.unexpected_bytes:
            return False
        return (self.unexpected_bytes + item.data.nbytes
                > self._max_unexpected)

    # -- receive posting ----------------------------------------------------
    def post(self, req: RecvRequest) -> None:
        """Post a receive; matches the oldest waiting descriptor if any."""
        for idx, inc in enumerate(self._unexpected):
            if req.flow == inc.flow and req.matches(inc.src, inc.tag):
                del self._unexpected[idx]
                if isinstance(inc.item, SegItem):
                    self.unexpected_bytes -= inc.item.data.nbytes
                if self.tracer.enabled:
                    self.tracer.emit(req.posted_at, self.name,
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
            self.tracer.emit(now, self.name, "unpost", src=req.posted_src,
                             flow=req.flow, tag=req.posted_tag)
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
            elif isinstance(inc.item, SegItem):
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
            if req.posted_src == src:
                req.fail_observed(exc)
                if self.tracer.enabled:
                    self.tracer.emit(now, self.name, "fail_src", src=src,
                                     flow=req.flow, tag=req.posted_tag)
            else:
                kept.append(req)
        self._posted = kept

    def has_posted_from(self, src: int) -> bool:
        """Any posted receive pinned to ``src`` (liveness interest)?"""
        return any(req.posted_src == src for req in self._posted)

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
