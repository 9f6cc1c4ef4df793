# nm-path: repro/core/strategies/fixture_bad_counters.py
"""Fixture: the window's incremental counters written from outside."""


def tamper(ctx):
    ctx.window._count = 0  # NM302 (window-private write outside window.py)
    ctx.window._by_dest.clear()  # NM303 (window-private read)
