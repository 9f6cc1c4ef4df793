"""Uniform construction of benchmark backends.

Every backend exposes the same interface (``isend``/``irecv``/``wait``/
``send``/``recv`` generators returning the handles of
:mod:`repro.madmpi.request`), so the ping-pong programs in :mod:`repro.bench.pingpong` are written once
and run against MAD-MPI and both baselines — the structure of the paper's
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.baselines import (
    MPICH_MX,
    MPICH_QUADRICS,
    OPENMPI_MX,
    BaselineParams,
    MpichMpi,
    OpenMpi,
)
from repro.core import EngineParams, NmadEngine
from repro.errors import ReproError
from repro.madmpi import Communicator, MadMpi
from repro.netsim import Cluster, NicProfile, TopologySpec
from repro.sim import Simulator, Tracer

__all__ = ["BackendPair", "make_backend_pair", "BACKENDS", "backend_label"]

#: Known backend keys.
BACKENDS = ("madmpi", "mpich", "openmpi", "madmpi-fifo")

#: OpenMPI constants when running over Quadrics (not shown in the paper's
#: Quadrics figures, but available for completeness).
OPENMPI_QUADRICS = BaselineParams(
    name="OpenMPI-Quadrics",
    sw_overhead_us=0.60,
    header_bytes=16,
    eager_threshold=16 * 1024,
    dt_pipeline_chunk=64 * 1024,
)


@dataclass
class BackendPair:
    """Two connected ranks of one backend, plus their simulation."""

    sim: Simulator
    cluster: Cluster
    world: Communicator
    ranks: list  # [rank0, rank1] endpoints
    backend: str

    @property
    def m0(self):
        return self.ranks[0]

    @property
    def m1(self):
        return self.ranks[1]


def backend_label(backend: str, profile: NicProfile) -> str:
    """The label the paper's figure legends use for this backend/network."""
    net = {"mx": "MX", "elan": "Quadrics"}.get(profile.tech, profile.tech)
    return {
        "madmpi": f"MadMPI/{net}",
        "madmpi-fifo": f"MadMPI-fifo/{net}",
        "mpich": f"MPICH-{net}",
        "openmpi": f"OpenMPI-{net}",
    }.get(backend, f"{backend}/{net}")


def make_backend_pair(
    backend: str,
    rails: Sequence[NicProfile],
    strategy: str = "aggregation",
    engine_params: EngineParams | None = None,
    tracer: Tracer | None = None,
    topology: str | TopologySpec = "mesh",
) -> BackendPair:
    """Build a fresh two-node simulation running ``backend`` on ``rails``.

    ``topology`` defaults to the paper-faithful flat mesh; pass
    ``"fat-tree"``/``"dragonfly"`` (or a built spec) to route the pair's
    traffic through a switched fabric instead.
    """
    sim = Simulator()
    cluster = Cluster(sim, n_nodes=2, rails=tuple(rails), tracer=tracer,
                      topology=topology)
    world = Communicator([0, 1])
    tech = rails[0].tech
    if backend == "madmpi" or backend == "madmpi-fifo":
        strat = "fifo" if backend == "madmpi-fifo" else strategy
        ranks = [
            MadMpi(
                NmadEngine(cluster.node(i), strategy=strat,
                           params=engine_params, tracer=tracer),
                world,
            )
            for i in range(2)
        ]
    elif backend == "mpich":
        params = MPICH_MX if tech == "mx" else MPICH_QUADRICS
        ranks = [MpichMpi(cluster.node(i), world, params=params,
                          tracer=tracer) for i in range(2)]
    elif backend == "openmpi":
        params = OPENMPI_MX if tech == "mx" else OPENMPI_QUADRICS
        ranks = [OpenMpi(cluster.node(i), world, params=params,
                         tracer=tracer) for i in range(2)]
    else:
        raise ReproError(f"unknown backend {backend!r}; known: {BACKENDS}")
    return BackendPair(sim=sim, cluster=cluster, world=world, ranks=ranks,
                       backend=backend)
