"""A layer that is off is not loaded.

The opt-in layers (``repro.core.engine.OPT_IN``) are imported by the
engine that builds one, never by a process that does not: a paper-mode
process neither compiles nor holds them.  Each check starts a fresh
interpreter (``repro.bench.perf.startup_modules``), so ``sys.modules``
starts clean, builds a two-node MAD-MPI pair and runs a ping-pong on it.
"""

import pytest

from repro.bench.perf import startup_modules
from repro.core.engine import OPT_IN

#: What each layer loads beyond paper mode: its module, and the RTT
#: estimator for the reliability layer.
LOADS = {
    "sessions": {"repro.core.sessions"},
    "reliability": {"repro.core.reliability", "repro.core.rttstat"},
    "flow_control": {"repro.core.flowcontrol"},
}


@pytest.fixture(scope="module")
def paper_mode() -> set[str]:
    return set(startup_modules())


def test_paper_mode_loads_no_layer(paper_mode):
    assert {"repro.core.engine", "repro.core.protocols",
            "repro.madmpi.mpi"} <= paper_mode
    assert not paper_mode & set().union(*LOADS.values())


@pytest.mark.parametrize("layer", OPT_IN, ids=lambda layer: layer.knob)
def test_one_layer_loads_exactly_its_modules(paper_mode, layer):
    loaded = set(startup_modules(**{layer.knob: layer.on}))
    assert layer.module in LOADS[layer.knob]
    assert paper_mode <= loaded
    assert loaded - paper_mode == LOADS[layer.knob]


def test_a_hardened_engine_loads_every_layer(paper_mode):
    loaded = set(startup_modules(**{layer.knob: layer.on
                                    for layer in OPT_IN}))
    assert loaded - paper_mode == set().union(*LOADS.values())
