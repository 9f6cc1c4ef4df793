# nm-path: repro/chaos/audit.py
"""Fixture: even the auditor may only inspect, never mutate."""


def cook_the_books(engine, peer):
    ledger = engine.flowcontrol._peers[peer]  # allowed: audit.py reads
    ledger.sent_bytes_total = 0  # NM302 (flow-control owns the totals)
    engine.flowcontrol._peers = {}  # NM305 (auditor must not write)
