# nm-path: repro/core/strategies/fixture_bad_sessions.py
"""Fixture: session-state violations the checker must catch."""


def poke_session(state):
    state.sess_state = "established"  # NM302 (owned by sessions.py)
    state.peer_incarnation = 3  # NM302 (the epoch fence depends on it)
    state.last_heard_us = 0.0  # NM302 (liveness clock is owned)


def reset_stats(engine):
    engine.stats.stale_frames_fenced = 0  # NM203 (counters are monotonic)
