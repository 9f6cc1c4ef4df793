"""In-memory spans for the traced run: where a message's simulated µs go.

The traced run wraps the public functions at six layer boundaries *from
here* (nothing under ``src/`` knows it is being watched) and notes, per
message, the simulated time it first crossed each one.  Consecutive marks
are the message's stage spans; they share the message id
``(src, dst, communicator, seq)`` and hang off one root span per message.
Everything stays in memory until the run is over.

The wrappers are installed on the classes for the life of the process: the
traced run is a process of its own and is never mixed into a timed one.
"""

from __future__ import annotations

import json

from repro.core.engine import NmadEngine
from repro.core.matching import Matcher
from repro.core.packet import RdvReqItem, SegItem
from repro.core.rendezvous import RendezvousManager
from repro.core.requests import RecvRequest
from repro.core.transfer import TransferLayer
from repro.core.window import OptimizationWindow
from repro.netsim import Nic

from workloads import quantile

ISEND, TAKE, POST, DEMUX, DELIVER, DONE = range(6)

#: (metric stem, layer owning the stage, opening mark, closing mark)
STAGES = (
    ("window.wait_us", "window", ISEND, TAKE),
    ("transfer.pull_us", "transfer", TAKE, POST),
    ("netsim.wire_us", "netsim", POST, DEMUX),
    ("transfer.demux_us", "transfer", DEMUX, DELIVER),
    ("matching.match_us", "matching", DELIVER, DONE),
)
HANDSHAKE = "rendezvous.handshake_us"
#: Spans of at most this many messages (evenly spaced) reach the trace file.
MAX_TRACED_MESSAGES = 2000


class SpanTracer:
    def __init__(self, stack) -> None:
        self.sim = stack.sim
        #: per boundary: message id -> simulated time of the first crossing
        #: (a retransmission crosses again; setdefault keeps the first)
        self.at: list[dict[tuple, float]] = [{} for _ in range(6)]
        self.handshakes: list[float] = []
        self.selects = 0
        self.empty_selects = 0
        self._awaiting_copy: dict[int, tuple] = {}     # id(data) -> message
        self._awaiting_chunk: dict[tuple, float] = {}  # (src, handle) -> t
        self._node_of = {id(part): e.node_id for e in stack.engines
                         for part in (e.window, e.matcher)}
        self._install(type(stack.engines[0].strategy))

    def _mark_items(self, frame, boundary: int) -> None:
        now = self.sim.now
        crossed = self.at[boundary]
        for item in getattr(frame.payload, "items", ()):
            if isinstance(item, (SegItem, RdvReqItem)):
                crossed.setdefault(
                    (item.src, frame.dst_node, item.flow, item.seq), now)

    def _install(self, strategy_cls) -> None:
        tracer = self
        sim = self.sim
        at_isend, at_take, _, _, at_deliver, at_done = self.at
        isend, take = NmadEngine.isend, OptimizationWindow.take
        post_send, demux = Nic.post_send, TransferLayer.demux_frame
        deliver, finish = Matcher.deliver, RecvRequest.finish
        on_data, select = RendezvousManager.on_data, strategy_cls.select

        def traced_isend(self, dest, data, *args, **kwargs):
            req = isend(self, dest, data, *args, **kwargs)
            wrap = req.wrap
            at_isend.setdefault((self.node_id, dest, wrap.flow, wrap.seq),
                                sim.now)
            return req

        def traced_take(self, wrap):
            if not wrap.is_control:
                at_take.setdefault((tracer._node_of[id(self)], wrap.dest,
                                    wrap.flow, wrap.seq), sim.now)
            return take(self, wrap)

        def traced_post_send(self, frame, cpu_gap_us=0.0):
            tracer._mark_items(frame, POST)
            return post_send(self, frame, cpu_gap_us)

        def traced_demux(self, rail, frame):
            tracer._mark_items(frame, DEMUX)
            return demux(self, rail, frame)

        def traced_deliver(self, inc, now=0.0):
            item = inc.item
            if item is not None:
                msg = (inc.src, tracer._node_of[id(self)], inc.flow, inc.seq)
                now = sim.now
                at_deliver.setdefault(msg, now)
                if isinstance(item, SegItem):
                    tracer._awaiting_copy[id(item.data)] = msg
                else:
                    tracer._awaiting_chunk.setdefault(
                        (item.src, item.handle), now)
            return deliver(self, inc, now)

        def traced_finish(self, data, src, tag):
            msg = tracer._awaiting_copy.pop(id(data), None)
            if msg is not None:
                at_done.setdefault(msg, sim.now)
            return finish(self, data, src, tag)

        def traced_on_data(self, item):
            announced = tracer._awaiting_chunk.pop((item.src, item.handle),
                                                   None)
            if announced is not None:
                tracer.handshakes.append(sim.now - announced)
            return on_data(self, item)

        def traced_select(self, ctx):
            plan = select(self, ctx)
            tracer.selects += 1
            tracer.empty_selects += plan is None
            return plan

        NmadEngine.isend = traced_isend
        OptimizationWindow.take = traced_take
        Nic.post_send = traced_post_send
        TransferLayer.demux_frame = traced_demux
        Matcher.deliver = traced_deliver
        RecvRequest.finish = traced_finish
        RendezvousManager.on_data = traced_on_data
        strategy_cls.select = traced_select

    # -- results -------------------------------------------------------------
    def stage_metrics(self) -> dict[str, float]:
        """p50/p99 of each stage over every message that crossed both ends."""
        out = {}
        samples = {stem: sorted(t - self.at[a][msg]
                                for msg, t in self.at[b].items()
                                if msg in self.at[a])
                   for stem, _layer, a, b in STAGES}
        samples[HANDSHAKE] = sorted(self.handshakes)
        for stem, values in samples.items():
            out[f"{stem}_p50"] = quantile(values, 0.50) if values else 0.0
            out[f"{stem}_p99"] = quantile(values, 0.99) if values else 0.0
        return out

    def write(self, path: str) -> None:
        """Dump the spans of an evenly spaced sample of messages as JSON."""
        msgs = list(self.at[ISEND])
        step = max(1, len(msgs) // MAX_TRACED_MESSAGES)
        spans = []
        for msg in msgs[::step]:
            rec = [crossed.get(msg) for crossed in self.at]
            root = len(spans)
            spans.append({"name": "message", "layer": "engine",
                          "start_us": rec[ISEND],
                          "end_us": max(t for t in rec if t is not None),
                          "parent": None, "msg": msg})
            for stem, layer, a, b in STAGES:
                if rec[a] is not None and rec[b] is not None:
                    spans.append({"name": stem, "layer": layer,
                                  "start_us": rec[a], "end_us": rec[b],
                                  "parent": root, "msg": msg})
        with open(path, "w") as fh:
            json.dump({"clock": "simulated_us", "messages": len(msgs),
                       "sampled_every": step, "spans": spans}, fh)
