"""Hardware profiles: the 2006 evaluation platform, parameterized.

The paper's testbed: two dual-core 1.8 GHz Opteron boxes (1 MB L2, 1 GB
RAM, Linux 2.6.17) interconnected by MYRI-10G NICs (MX 1.2.0 driver) and
QUADRICS QM500 NICs (Elan driver).  The prototype also ran over GM/Myrinet,
SISCI/SCI and TCP/Ethernet (paper §4), so profiles for those are provided
too (used by tests and the multirail example).

Calibration targets (paper §5): MPICH-class short-message half-round-trip
≈ 3 µs over MX and ≈ 2.2 µs over Quadrics; peak measured bandwidths
≈ 1200 MB/s (MX) and ≈ 910 MB/s (Quadrics); MAD-MPI lands < 0.5 µs above
the baselines at 4 B and at 1155 / 835 MB/s at 2 MB.  Absolute values are
era-plausible; the benches assert the *shapes*.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.netsim.memory import MemoryModel
from repro.netsim.units import KB

__all__ = [
    "NicProfile",
    "HostProfile",
    "MX_MYRI10G",
    "QUADRICS_QM500",
    "GM_MYRINET",
    "SISCI_SCI",
    "TCP_GIGE",
    "HOST_2006_OPTERON",
    "PROFILES",
    "profile_by_name",
]


@dataclass(frozen=True)
class NicProfile:
    """Nominal and functional characteristics of one NIC technology.

    These are exactly the facts the paper says the transfer layer collects
    about each driver (§4): "the threshold for the rendez-vous protocol or
    the availability of the gather/scatter or as well the remote direct
    access (RDMA) functionality" — plus the timing constants the simulator
    needs, among them the engine's per-MTU data-path cost on this driver
    (calibrated per driver, which is why the large-message bandwidth
    deficit of Figure 2 differs between MX and Quadrics).
    """

    name: str                    # profile identifier, e.g. "mx_myri10g"
    tech: str                    # technology family, e.g. "mx"
    latency_us: float            # one-way wire/switch propagation latency
    bandwidth_mbps: float        # raw serialization bandwidth (decimal MB/s)
    send_overhead_us: float      # host CPU cost to inject one frame
    recv_overhead_us: float      # host CPU cost to land one frame
    mtu_bytes: int               # max physical frame size for eager traffic
    rdv_threshold: int           # driver switches to rendezvous above this
    gather_scatter: bool         # NIC can gather segments without host copy
    rdma: bool                   # remote direct memory access available
    pipeline_gap_us: float       # inter-frame gap when streaming back-to-back
    per_mtu_cost_us: float = 0.10  # engine data-path cost per MTU pushed

    def __post_init__(self) -> None:
        if self.latency_us < 0 or self.bandwidth_mbps <= 0:
            raise ValueError(f"bad latency/bandwidth in profile {self.name!r}")
        if self.mtu_bytes <= 0 or self.rdv_threshold <= 0:
            raise ValueError(f"bad mtu/threshold in profile {self.name!r}")
        if min(self.send_overhead_us, self.recv_overhead_us,
               self.pipeline_gap_us, self.per_mtu_cost_us) < 0:
            raise ValueError(f"negative overhead in profile {self.name!r}")

    def with_overrides(self, **kwargs: Any) -> NicProfile:
        """A copy of this profile with some fields replaced (for ablations)."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class HostProfile:
    """Host-side characteristics (memory system)."""

    name: str
    memory: MemoryModel


#: Myri-10G with the MX 1.2.0 driver — the paper's primary network.
MX_MYRI10G = NicProfile(
    name="mx_myri10g",
    tech="mx",
    latency_us=1.40,
    bandwidth_mbps=1250.0,
    send_overhead_us=0.45,
    recv_overhead_us=0.45,
    mtu_bytes=4 * KB,
    rdv_threshold=32 * KB,
    gather_scatter=True,
    rdma=True,
    pipeline_gap_us=0.30,
    per_mtu_cost_us=0.12,
)

#: Quadrics QM500 with the Elan driver — the paper's second network.
QUADRICS_QM500 = NicProfile(
    name="quadrics_qm500",
    tech="elan",
    latency_us=1.00,
    bandwidth_mbps=910.0,
    send_overhead_us=0.25,
    recv_overhead_us=0.25,
    mtu_bytes=4 * KB,
    rdv_threshold=16 * KB,
    gather_scatter=True,
    rdma=True,
    pipeline_gap_us=0.25,
    per_mtu_cost_us=0.36,
)

#: First-generation Myrinet with the GM driver (paper §4 port list).
GM_MYRINET = NicProfile(
    name="gm_myrinet",
    tech="gm",
    latency_us=6.5,
    bandwidth_mbps=240.0,
    send_overhead_us=0.9,
    recv_overhead_us=0.9,
    mtu_bytes=4 * KB,
    rdv_threshold=16 * KB,
    gather_scatter=False,
    rdma=True,
    pipeline_gap_us=0.8,
)

#: Dolphin SCI with the SISCI driver (paper §4 port list).
SISCI_SCI = NicProfile(
    name="sisci_sci",
    tech="sisci",
    latency_us=2.3,
    bandwidth_mbps=320.0,
    send_overhead_us=0.7,
    recv_overhead_us=0.7,
    mtu_bytes=8 * KB,
    rdv_threshold=8 * KB,
    gather_scatter=False,
    rdma=True,
    pipeline_gap_us=0.6,
)

#: Gigabit Ethernet over TCP (paper §4 port list).
TCP_GIGE = NicProfile(
    name="tcp_gige",
    tech="tcp",
    latency_us=28.0,
    bandwidth_mbps=110.0,
    send_overhead_us=4.0,
    recv_overhead_us=4.0,
    mtu_bytes=1500,
    rdv_threshold=64 * KB,
    gather_scatter=False,
    rdma=False,
    pipeline_gap_us=2.0,
)

#: The evaluation hosts: dual-core 1.8 GHz Opteron, DDR-era memory.
#: 900 MB/s is a sustained single-threaded pack/unpack copy rate (cold
#: caches, byte-granular dataloops), below raw STREAM numbers on purpose —
#: it is what calibrates Figure 4's "about 70 %" gain over MPICH.
HOST_2006_OPTERON = HostProfile(
    name="opteron_1_8ghz",
    memory=MemoryModel(copy_bandwidth_mbps=900.0, per_call_overhead_us=0.08),
)

PROFILES: dict[str, NicProfile] = {
    p.name: p
    for p in (MX_MYRI10G, QUADRICS_QM500, GM_MYRINET, SISCI_SCI, TCP_GIGE)
}


def profile_by_name(name: str) -> NicProfile:
    """Look up a NIC profile; raises ``KeyError`` with the known names."""
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown NIC profile {name!r}; known: {sorted(PROFILES)}"
        ) from None
