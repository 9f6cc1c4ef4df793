"""Utilization and throughput reporting over a finished simulation.

Answers the question the paper's design keeps returning to — are the NICs
"exploited at their maximum ... not overloaded when there is a high demand
of transfers and under exploited when there is not" (§3.1) — with per-NIC
busy fractions and achieved throughput, plus a cluster-wide summary the
multirail benches print.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.netsim.nic import Nic
from repro.netsim.topology import Cluster

__all__ = ["NicUtilization", "SWITCH_COUNTERS", "RTT_SNAPSHOT_KEYS",
           "nic_utilization", "cluster_utilization", "topology_summary",
           "adaptive_summary"]

#: Every per-switch integer counter, in report order.  This is the
#: NM304-style registry for the topology layer: the ``--json`` report and
#: the chaos report emit exactly these keys per switch, and the registry
#: test asserts the tuple stays exhaustive against ``fabric.Switch``.
SWITCH_COUNTERS: tuple[str, ...] = (
    "frames_forwarded",
    "bytes_forwarded",
    "frames_dropped",
    "bytes_dropped",
    "paths_rerouted",
)


@dataclass(frozen=True)
class NicUtilization:
    """One NIC's activity summary over ``[0, horizon_us]``."""

    name: str
    busy_us: float
    horizon_us: float
    frames_sent: int
    bytes_sent: int
    frames_received: int
    bytes_received: int

    @property
    def busy_fraction(self) -> float:
        """Fraction of the horizon the card spent transmitting."""
        return self.busy_us / self.horizon_us if self.horizon_us > 0 else 0.0

    @property
    def achieved_tx_mbps(self) -> float:
        """Average injected bandwidth over the horizon (decimal MB/s)."""
        return self.bytes_sent / self.horizon_us if self.horizon_us > 0 \
            else 0.0


def nic_utilization(nic: Nic, horizon_us: float) -> NicUtilization:
    """Snapshot one NIC's counters against a time horizon."""
    if horizon_us < 0:
        raise ValueError(f"negative horizon {horizon_us}")
    return NicUtilization(
        name=nic.name,
        busy_us=nic.busy_time,
        horizon_us=horizon_us,
        frames_sent=nic.frames_sent,
        bytes_sent=nic.bytes_sent,
        frames_received=nic.frames_received,
        bytes_received=nic.bytes_received,
    )


def cluster_utilization(cluster: Cluster) -> list[NicUtilization]:
    """Utilization of every NIC at the cluster's current time."""
    horizon = cluster.sim.now
    return [nic_utilization(nic, horizon)
            for node in cluster.nodes for nic in node.nics]


#: The tier whose load spread measures ECMP quality, per topology.
_SPINE_TIER = {"fat-tree": "core", "dragonfly": "router"}


def topology_summary(cluster: Cluster) -> dict[str, Any]:
    """Machine-readable snapshot of the switching fabric.

    Flat mesh clusters (the paper-faithful default) have no switches and
    report an empty-but-well-formed summary so consumers never need to
    special-case the topology.  The per-switch entries carry exactly the
    :data:`SWITCH_COUNTERS` keys; ``ecmp_spread`` measures load balance
    over the spine tier (max − min frames forwarded across live spines —
    0 means perfectly even).
    """
    switches = cluster.switches
    summary: dict[str, Any] = {
        "name": cluster.topology_name,
        "n_switches": len(switches),
        "switches_down": sum(1 for sw in switches if not sw.up),
        "paths_rerouted": sum(sw.paths_rerouted for sw in switches),
        "switch_frames_forwarded": sum(sw.frames_forwarded
                                       for sw in switches),
        "switch_frames_dropped": sum(sw.frames_dropped for sw in switches),
        "switch_bytes_dropped": sum(sw.bytes_dropped for sw in switches),
        "n_racks": len(cluster.racks),
        "switches": [
            {"name": sw.name, "tier": sw.tier, "rail": sw.rail,
             "up": sw.up,
             **{c: getattr(sw, c) for c in SWITCH_COUNTERS}}
            for sw in switches
        ],
    }
    spine_tier = _SPINE_TIER.get(cluster.topology_name)
    spine_loads = [sw.frames_forwarded for sw in switches
                   if spine_tier is not None and sw.tier == spine_tier
                   and sw.rail == 0]
    summary["spine_loads"] = spine_loads
    summary["ecmp_spread"] = (max(spine_loads) - min(spine_loads)
                              if spine_loads else 0)
    return summary


#: Per-peer keys of one :meth:`~repro.core.rttstat.RttEstimator.snapshot`
#: entry, in report order.  The ``--json`` report emits exactly these keys
#: per measured peer and the registry test pins the tuple against the
#: estimator, in the same spirit as :data:`SWITCH_COUNTERS`.
RTT_SNAPSHOT_KEYS: tuple[str, ...] = (
    "srtt_us",
    "rttvar_us",
    "rto_us",
    "samples",
)


def adaptive_summary(
    snapshot: dict[int, dict[str, float | int]],
) -> dict[str, dict[str, float | int]]:
    """JSON-ready view of an RTT-estimator snapshot.

    Takes the raw per-peer dump from
    :meth:`~repro.core.rttstat.RttEstimator.snapshot` and stringifies the
    peer keys (JSON objects cannot have integer keys); entries keep
    exactly the :data:`RTT_SNAPSHOT_KEYS`.  An engine without the
    adaptive layer contributes an empty dict, so consumers never
    special-case the mode.
    """
    return {str(peer): dict(entry) for peer, entry in snapshot.items()}
