# nm-path: repro/netsim/fixture_frames.py
"""Fixture: a frame-kind registry with a dead entry (the evidence checks
run against every ``FrameKind`` class, wherever it lives)."""


class FrameKind:
    DATA = "data"
    HEARTBEAT = "heartbeat"
    GHOST = "ghost"  # NM502: registered but no handler/producer anywhere
