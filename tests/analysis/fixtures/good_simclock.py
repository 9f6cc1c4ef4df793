# nm-path: repro/core/fixture_good_simclock.py
"""Fixture: clock idioms the checker must accept."""


class Layer:
    def __init__(self, engine):
        self.engine = engine
        self.sim = engine.sim
        self.now = 0.0  # an attribute of our own that happens to share the name

    def stamp(self, ctx, wrap):
        ctx.now = self.engine.sim.now  # reading the clock into a context
        wrap.submitted_at = self.sim.now
        self.now = self.sim.now
        return ctx.now - wrap.submitted_at

    def later(self, delay, fn):
        self.sim.schedule(delay, fn)  # how time is made to pass
