"""MAD-MPI: the paper's proof-of-concept MPI subset over NewMadeleine."""

from repro.madmpi.collectives import (
    allreduce,
    alltoall,
    barrier,
    bcast,
    gather,
    reduce,
    scatter,
)
from repro.madmpi.comm import Communicator
from repro.madmpi.datatype import (
    BYTE,
    Contiguous,
    Datatype,
    Hindexed,
    Hvector,
    Indexed,
    Struct,
    Vector,
    indexed_small_large,
)
from repro.madmpi.mpi import ANY, MadMpi
from repro.madmpi.request import MpiRecv, MpiRequest, MpiSend

__all__ = [
    "ANY",
    "BYTE",
    "allreduce",
    "alltoall",
    "barrier",
    "bcast",
    "gather",
    "reduce",
    "scatter",
    "Communicator",
    "Contiguous",
    "Datatype",
    "Hindexed",
    "Hvector",
    "Indexed",
    "MadMpi",
    "MpiRecv",
    "MpiRequest",
    "MpiSend",
    "Struct",
    "Vector",
    "indexed_small_large",
]
