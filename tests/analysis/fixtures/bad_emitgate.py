# nm-path: repro/core/fixture_bad_emitgate.py
"""Fixture: tracer emits a disabled tracer would still pay for."""


class Layer:
    def send(self, frame):
        self.engine.tracer.emit(self.sim.now, self._name, "send",  # NM402
                                frame=frame.frame_id)

    def receive(self, frame):
        tracer = self.tracer
        if not tracer.enabled:
            return
        tracer.emit(self.sim.now, self._name, "rx")  # NM402 (guard not at the call)

    def drop(self, frame, other):
        if other.tracer.enabled:
            self.tracer.emit(self.sim.now, self._name, "drop")  # NM402 (another tracer)

    def later(self, sim):
        if self.tracer.enabled:
            sim.schedule(1.0, lambda: self.tracer.emit(0.0, "x", "late"))  # NM402

    def fallback(self):
        if self.tracer.enabled:
            pass
        else:
            self.tracer.emit(0.0, self._name, "else")  # NM402 (else branch)
