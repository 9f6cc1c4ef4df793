"""Tier-1 runs every Hypothesis test derandomized: a red run is the same
red run everywhere, and draws no seed from a local example database.

Random exploration stays available through Hypothesis's own pytest flag —
``--hypothesis-profile=default`` (what the CI ``chaos-sweep`` job passes)
loads after this file and wins.
"""

import pytest
from hypothesis import settings

from repro.core import EngineParams, NmadEngine
from repro.core.engine import OPT_IN
from repro.netsim import MX_MYRI10G, Cluster
from repro.sim import Simulator

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")

#: The reliability layer's sequence filter is the engine's only duplicate
#: filter, so above the transport a replay must be loud in paper mode, with
#: the reliability layer alone, and with every opt-in layer on.
REPLAY_CONFIGS = {
    "paper": {},
    "ack": {"reliability": "ack"},
    "-".join(sorted(layer.on for layer in OPT_IN)):
        {layer.knob: layer.on for layer in OPT_IN},
}


@pytest.fixture(params=list(REPLAY_CONFIGS))
def replay_pair(request):
    """``(sim, e0, e1)`` on one MX rail, once per :data:`REPLAY_CONFIGS`."""
    sim = Simulator()
    cluster = Cluster(sim, rails=(MX_MYRI10G,))
    params = EngineParams(**REPLAY_CONFIGS[request.param])
    return (sim, NmadEngine(cluster.node(0), params=params),
            NmadEngine(cluster.node(1), params=params))
