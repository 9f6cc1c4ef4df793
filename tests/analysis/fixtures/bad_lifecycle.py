# nm-path: repro/core/fixture_bad_lifecycle.py
"""Fixture: every lifecycle violation the checker must catch."""


def poke_event(evt, exc):
    evt._value = exc  # NM302 (the kernel owns Event state)
    evt._ok = False
    if evt._ok is not False:  # NM301 (kernel-private read of the outcome)
        return None
    return evt._value


def poke_rendezvous(state, n):
    state.granted = True  # NM302 (transition owned by rendezvous.py)
    state.next_offset += n


def poke_request(req, src, tag):
    req.match_src = src  # NM302 (status owned by RecvRequest.finish)
    req.match_tag = tag


def peek_window(window):
    return list(window._common)  # NM303 (window-private read)
