# nm-path: repro/core/strategies/fixture_bad_flowcontrol.py
"""Fixture: flow-control state violations the checker must catch."""


def poke_credit(state, n):
    state.sent_bytes_total += n  # NM302 (owned by flowcontrol.py)
    state.peer_released_bytes = 0  # NM302 (grant application is owned)


def poke_matcher(matcher):
    matcher.unexpected_bytes = 0  # NM302 (budget gauge owned by matching.py)


def poke_gate(window):
    window._blocked_dests = set()  # NM302 (window storage is window.py's)
    return window._dest_exempt  # NM303 (window-private read)


def reset_stats(engine):
    engine.stats.credit_stalls = 0  # NM203 (counters are monotonic)
