# nm-path: repro/core/fixture_bad_simclock.py
"""Fixture: every way of assigning the simulation clock outside the kernel."""


def rewind(sim):
    sim.now = 0.0  # NM301 (the clock is the run loop's)


class Layer:
    def __init__(self, engine, sim):
        self.engine = engine
        self.sim = sim
        self._sim = sim

    def skip_ahead(self, delay):
        self.sim.now += delay  # NM301 (augmented assignment)
        self.engine.sim.now = self.sim.now + delay  # NM301 (through a holder)
        self._sim.now, _ = delay, None  # NM301 (tuple target)


def forget(simulator):
    del simulator.now  # NM301 (deleting it is a write too)
