"""Layer map: which source file belongs to which layer, and what that costs.

Every per-layer metric is named ``<layer>.<metric>``.  Host self time comes
from the interpreter's profiling hook (``cProfile``) around
``Simulator.run``: each function's own time is folded into the layer that
owns its source file, so coverage is complete and nothing private is
patched.  ``harness`` owns the benchmark's own files plus stdlib/builtin
time that no repo frame called for.
"""

from __future__ import annotations

import os
import pstats

import repro
from repro.core.collect import CollectLayer
from repro.core.engine import NmadEngine
from repro.core.flowcontrol import FlowControlLayer
from repro.core.matching import Matcher
from repro.core.reliability import ReliabilityLayer
from repro.core.rendezvous import RendezvousManager
from repro.core.sessions import SessionLayer
from repro.core import strategies
from repro.core.transfer import TransferLayer
from repro.core.window import OptimizationWindow
from repro.madmpi import MadMpi
from repro.netsim import Link, Nic
from repro.sim import Simulator

REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__))
HERE = os.path.dirname(os.path.abspath(__file__))

#: layer -> paths relative to ``src/repro`` (a trailing "/" owns a package).
LAYER_FILES: dict[str, tuple[str, ...]] = {
    "sim": ("sim/",),
    "netsim": ("netsim/",),
    "madmpi": ("madmpi/",),
    "engine": ("core/__init__.py", "core/engine.py", "core/interface.py"),
    "collect": ("core/collect.py", "core/packet.py", "core/data.py"),
    "window": ("core/window.py",),
    "strategy": ("core/strategy.py", "core/tactics.py", "core/strategies/"),
    "transfer": ("core/transfer.py", "core/protocols.py"),
    "matching": ("core/matching.py", "core/requests.py"),
    "rendezvous": ("core/rendezvous.py",),
    "reliability": ("core/reliability.py", "core/rttstat.py"),
    "flowcontrol": ("core/flowcontrol.py",),
    "sessions": ("core/sessions.py",),
}
HARNESS = "harness"
REPO_LAYERS = tuple(LAYER_FILES)
LAYERS = REPO_LAYERS + (HARNESS,)

#: The public functions whose entries are counted as ``<layer>.calls``.
PUBLIC: dict[str, tuple[tuple[type, tuple[str, ...]], ...]] = {
    "sim": ((Simulator, ("schedule", "schedule_batch", "timeout")),),
    "netsim": ((Nic, ("post_send",)), (Link, ("transmit",))),
    "madmpi": ((MadMpi, ("isend", "irecv")),),
    "engine": ((NmadEngine, ("isend", "irecv")),),
    "collect": ((CollectLayer, ("submit", "submit_control")),),
    "window": ((OptimizationWindow,
                ("submit", "take", "eligible", "eligible_for_dest")),),
    "strategy": tuple((getattr(strategies, name), ("select", "hold_until"))
                      for name in strategies.__all__),
    "transfer": ((TransferLayer, ("kick", "demux_frame")),),
    "matching": ((Matcher, ("post", "deliver")),),
    "rendezvous": ((RendezvousManager,
                    ("announce", "grant", "on_ack", "on_data",
                     "next_chunk")),),
    "reliability": ((ReliabilityLayer, ("send", "on_frame")),),
    "flowcontrol": ((FlowControlLayer,
                     ("stamp", "accept", "consume", "release")),),
    "sessions": ((SessionLayer, ("stamp", "on_frame", "defer_tx")),),
}


def layers_of(rel_path: str) -> list[str]:
    """Every layer claiming ``rel_path`` (relative to ``src/repro``)."""
    rel_path = rel_path.replace(os.sep, "/")
    return [layer for layer, owned in LAYER_FILES.items()
            if any(rel_path == o or (o.endswith("/") and rel_path.startswith(o))
                   for o in owned)]


def _owner(filename: str) -> str | None:
    """The layer owning a profiled function's file; None = owned by callers."""
    if filename.startswith(REPRO_ROOT + os.sep):
        owners = layers_of(os.path.relpath(filename, REPRO_ROOT))
        return owners[0] if owners else HARNESS
    if filename.startswith(HERE + os.sep):
        return HARNESS
    return None


def _public_codes() -> dict[tuple[str, int, str], str]:
    """pstats key (file, first line, name) of each public function -> layer."""
    codes = {}
    for layer, entries in PUBLIC.items():
        for cls, names in entries:
            for name in names:
                code = getattr(cls, name).__code__
                codes[(code.co_filename, code.co_firstlineno,
                       code.co_name)] = layer
    return codes


def fold_profile(profile) -> dict[str, dict[str, float]]:
    """Fold a finished ``cProfile.Profile`` into per-layer self time and calls.

    Builtins, stdlib and generated code (dataclass ``__init__``) have no
    owning file in the repo: their self time goes to whoever called them,
    in proportion to the time spent on each caller's behalf, recursively.
    """
    stats = pstats.Stats(profile).stats   # func -> (cc, nc, tt, ct, callers)
    shares: dict[tuple, dict[str, float]] = {}

    def share(func, trail=()) -> dict[str, float]:
        if func in shares:
            return shares[func]
        owner = _owner(func[0])
        callers = stats[func][4] if func in stats else {}
        if owner is not None:
            result = {owner: 1.0}
        elif not callers or func in trail:
            return {HARNESS: 1.0}   # top of the stack, or a stdlib cycle
        else:
            result = {}
            total = sum(c[2] for c in callers.values()) or 1.0
            for caller, (_nc, _cc, tt, _ct) in callers.items():
                for layer, part in share(caller, trail + (func,)).items():
                    result[layer] = result.get(layer, 0.0) + part * tt / total
        shares[func] = result
        return result

    self_s = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, part in share(func).items():
            self_s[layer] += tt * part
    total = sum(self_s.values()) or 1.0
    calls = dict.fromkeys(REPO_LAYERS, 0)
    for key, layer in _public_codes().items():
        if key in stats:
            calls[layer] += stats[key][1]
    out: dict[str, dict[str, float]] = {}
    for layer in LAYERS:
        out[layer] = {"self_s": self_s[layer],
                      "self_share": self_s[layer] / total}
        if layer != HARNESS:
            out[layer]["calls"] = calls[layer]
    return out
