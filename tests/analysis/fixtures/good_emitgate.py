# nm-path: repro/netsim/fixture_good_emitgate.py
"""Fixture: guarded emits (and non-tracer ``emit`` methods) pass."""


class Nic:
    def transmit(self, frame):
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, self.name, "tx", frame=frame.frame_id)
        if frame.corrupted and tracer.enabled:
            tracer.emit(self.sim.now, self.name, "corrupt")
        if self.engine.tracer.enabled:
            for item in frame.payload.items:
                self.engine.tracer.emit(self.sim.now, self.name, "item",
                                        kind=type(item).__name__)

    def notify(self, signal):
        signal.emit("not a tracer")
