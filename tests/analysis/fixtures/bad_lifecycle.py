# nm-path: repro/core/fixture_bad_lifecycle.py
"""Fixture: every lifecycle violation the checker must catch."""


def poke_event(evt, exc):
    evt._value = exc  # NM302 (the kernel owns Event state)
    evt._ok = False
    if evt._defused:  # NM301 (kernel-private read)
        return None
    return evt._value


def poke_rendezvous(state, n):
    state.granted = True  # NM302 (transition owned by rendezvous.py)
    state.next_offset += n


def poke_request(req, src, tag):
    req.actual_src = src  # NM302 (result owned by RecvRequest.finish)
    req.actual_tag = tag


def peek_window(window):
    return list(window._common)  # NM303 (window-private read)
