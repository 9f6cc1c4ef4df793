"""Baseline MPI models (the paper's comparators) over the same NIC substrate."""

from repro.baselines.base import (
    MPICH_MX,
    MPICH_QUADRICS,
    OPENMPI_MX,
    OPENMPI_QUADRICS,
    BaselineMpi,
    BaselineParams,
    calibration,
)

__all__ = [
    "BaselineMpi",
    "BaselineParams",
    "MPICH_MX",
    "MPICH_QUADRICS",
    "OPENMPI_MX",
    "OPENMPI_QUADRICS",
    "calibration",
]
