"""Topology-aware fault domains: fabrics, switch kills, rack partitions.

Covers the PR's tentpole end to end:

* builders — the flat mesh stays the default (and byte-identical), while
  fat-tree and dragonfly wire hosts through switches and allocate only
  the links that physically exist (no O(n^2) eager mesh);
* ECMP — deterministic, hash-seed-immune path selection, with local
  reroute around a dead switch counted and observable;
* fault domains — a spine kill mid-transfer heals byte-exactly, a rack
  partition severs only boundary links, and ``fail_domain`` takes a
  correlated group down as one event;
* the drill harness — seeded fat-tree chaos schedules with switch kills
  pass the full 11-invariant audit (a Hypothesis property), and the
  report's topology group carries the switch counters.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import EngineParams, NmadEngine
from repro.errors import NetworkError
from repro.netsim import (
    MX_MYRI10G,
    QUADRICS_QM500,
    Cluster,
    Dragonfly,
    FatTree,
    FaultPlan,
    Mesh,
    Switch,
    flow_hash,
)
from repro.netsim.stats import SWITCH_COUNTERS, render_topology, topology_summary
from repro.sim import Simulator

ACK = dict(reliability="ack", rel_timeout_us=100.0, rel_ack_delay_us=10.0)


def make_pair(params, topology, rails=(MX_MYRI10G,), strategy="aggregation",
              n_nodes=2):
    sim = Simulator()
    cluster = Cluster(sim, n_nodes=n_nodes, rails=rails, topology=topology)
    engines = [NmadEngine(cluster.node(i), strategy=strategy, params=params)
               for i in range(n_nodes)]
    return sim, cluster, engines


def fat_tree_link_budget(spec: FatTree, n_nodes: int) -> int:
    """The exact number of directed links a fat-tree rail allocates."""
    k, half, m = spec.k, spec.half, spec.cores_per_group
    return 2 * n_nodes + 2 * k * half * half + 2 * k * half * m


# -- builders -----------------------------------------------------------------

class TestBuilders:
    def test_mesh_default_has_no_switches(self):
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=3, rails=(MX_MYRI10G,))
        assert cluster.topology_name == "mesh"
        assert cluster.switches == []
        assert cluster.racks == []
        assert cluster.host_uplinks == {}
        assert len(cluster.links) == 3 * 2  # the full directed mesh
        assert cluster.path(0, 1) == []

    def test_fat_tree_link_count_is_linear_not_quadratic(self):
        # The satellite bugfix: link construction goes through the builder,
        # so a switched fabric never pays the mesh's O(n^2) eager links.
        spec = FatTree(k=4)
        n = spec.capacity()  # 16 hosts
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=n, rails=(MX_MYRI10G,), topology=spec)
        assert len(cluster.links) == fat_tree_link_budget(spec, n) == 96
        assert len(cluster.links) < n * (n - 1)  # the mesh would need 240
        assert len(cluster.switches) == 20  # 8 edge + 8 agg + 4 core

    def test_fat_tree_scales_linearly_at_k8(self):
        spec = FatTree(k=8)
        n = 64
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=n, rails=(MX_MYRI10G,), topology=spec)
        budget = fat_tree_link_budget(spec, n)
        assert len(cluster.links) == budget
        assert budget < n * (n - 1) // 4  # far below the mesh's 4032

    def test_oversubscription_trims_the_spine_only(self):
        full = FatTree(k=4, oversubscription=1)
        trimmed = FatTree(k=4, oversubscription=2)
        assert full.cores_per_group == 2
        assert trimmed.cores_per_group == 1
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=4, rails=(MX_MYRI10G,),
                          topology=trimmed)
        cores = [s for s in cluster.switches if s.tier == "core"]
        assert len(cores) == 2  # half groups x 1 member
        # Edge connectivity is untouched: every cross-pod path still routes.
        assert cluster.path(0, 1)[0].endswith("edge0")

    def test_two_hosts_cross_the_spine(self):
        # Hosts round-robin ACROSS pods, so even the two-node drill exercises
        # edge -> agg -> core -> agg -> edge.
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=2, rails=(MX_MYRI10G,),
                          topology="fat-tree")
        hops = cluster.path(0, 1)
        assert len(hops) == 5
        tiers = [cluster.switches[
            next(i for i, s in enumerate(cluster.switches) if s.name == h)
        ].tier for h in hops]
        assert tiers == ["edge", "agg", "core", "agg", "edge"]

    def test_capacity_is_enforced(self):
        with pytest.raises(NetworkError, match="at most 16"):
            Cluster(Simulator(), n_nodes=17, rails=(MX_MYRI10G,),
                    topology=FatTree(k=4))
        with pytest.raises(NetworkError, match="even"):
            FatTree(k=5)
        with pytest.raises(NetworkError, match="under-provisioned"):
            Dragonfly(groups=8, routers=2, global_links=2)

    def test_fat_tree_delivery_end_to_end(self):
        sim, cluster, (e0, e1) = make_pair(EngineParams(), "fat-tree")
        req = e1.irecv(src=0, tag=0, nbytes=64)
        e0.isend(1, bytes(range(64)), tag=0)
        sim.run()
        assert req.complete and req.data.tobytes() == bytes(range(64))
        assert cluster.fault_summary()["switch_frames_forwarded"] > 0
        assert cluster.conservation_ok()  # per-link, switch hops included

    def test_dragonfly_delivery_end_to_end(self):
        sim, cluster, (e0, e1, e2, e3) = make_pair(
            EngineParams(), Dragonfly(groups=2, routers=2,
                                      hosts_per_router=1, global_links=1),
            n_nodes=4)
        # host 0,1 in group 0; host 2,3 in group 1: cross-group traffic.
        req = e2.irecv(src=0, tag=0, nbytes=32)
        e0.isend(2, b"x" * 32, tag=0)
        sim.run()
        assert req.complete and req.data.tobytes() == b"x" * 32
        assert any(s.frames_forwarded for s in cluster.switches
                   if s.tier == "router")
        assert cluster.racks == [[0, 1], [2, 3]]


# -- ECMP determinism ---------------------------------------------------------

class TestEcmp:
    @given(src=st.integers(0, 2**20), dst=st.integers(0, 2**20),
           salt=st.integers(0, 2**32 - 1))
    def test_flow_hash_is_a_stable_32bit_mixer(self, src, dst, salt):
        h = flow_hash(src, dst, salt)
        assert 0 <= h <= 0xFFFFFFFF
        assert h == flow_hash(src, dst, salt)  # pure function

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**16),
           src=st.integers(0, 15), dst=st.integers(0, 15))
    def test_paths_identical_across_rebuilds_with_same_seed(
            self, seed, src, dst):
        # The ECMP property the sanitizer relies on: path choice is a pure
        # function of (flow, builder seed) — two independently built
        # clusters agree on every path, regardless of PYTHONHASHSEED.
        if src == dst:
            return
        spec = FatTree(k=4, seed=seed)
        paths = []
        for _ in range(2):
            cluster = Cluster(Simulator(), n_nodes=16, rails=(MX_MYRI10G,),
                              topology=spec)
            paths.append(cluster.path(src, dst))
        assert paths[0] == paths[1]
        assert paths[0]  # never empty on a switched fabric

    def test_seed_changes_spread_flows_over_the_spine(self):
        # Different builder seeds re-salt the switches; over many flows at
        # least one flow must take a different path (ECMP actually spreads).
        def all_paths(seed):
            cluster = Cluster(Simulator(), n_nodes=16, rails=(MX_MYRI10G,),
                              topology=FatTree(k=4, seed=seed))
            return [tuple(cluster.path(s, d))
                    for s in range(16) for d in range(16) if s != d]

        assert all_paths(1) != all_paths(2)


# -- fault domains ------------------------------------------------------------

class TestFaultDomains:
    def test_spine_kill_mid_transfer_heals_byte_exact(self):
        # The acceptance drill: kill the on-path core mid-transfer; the
        # upstream agg reroutes to the surviving core of the same group and
        # the 2 MiB transfer completes byte-exact with no endpoint help.
        params = EngineParams(**ACK)
        sim, cluster, (e0, e1) = make_pair(params, "fat-tree")
        on_path = cluster.path(0, 1)
        core = next(s for s in cluster.switches
                    if s.tier == "core" and s.name in on_path)
        cluster.schedule_switch_fault(
            core.switch_id, FaultPlan(switch_down_at=50.0))
        payload = bytes(range(256)) * 8192  # 2 MiB

        def app():
            req = e1.irecv(src=0, tag=0)
            sreq = e0.isend(1, payload, tag=0)
            yield req.done
            if not sreq.complete:
                yield sreq.done
            return req, sreq

        req, sreq = sim.run_process(app())
        assert req.data.tobytes() == payload
        assert not sreq.failed
        assert not core.up
        summary = cluster.fault_summary()
        assert summary["paths_rerouted"] > 0
        assert summary["switches_down"] == 1
        # The new path avoids the corpse.
        assert core.name not in cluster.path(0, 1)
        assert cluster.conservation_ok(allow_faults=True)

    def test_fail_domain_kills_the_group_as_one_event(self):
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=4, rails=(MX_MYRI10G,),
                          topology="fat-tree")
        cores = [s for s in cluster.switches if s.tier == "core"
                 and s.group == 0]
        assert len(cores) == 2
        cluster.fail_domain([s.switch_id for s in cores], at_us=10.0)
        sim.run()
        assert all(not s.up for s in cores)
        assert cluster.fault_summary()["switches_down"] == 2

    def test_dead_ecmp_set_black_holes_with_accounting(self):
        # With the on-path core *group* dead, the upstream agg has no live
        # uplink for this flow: frames are dropped *and counted*.
        sim, cluster, (e0, e1) = make_pair(EngineParams(), "fat-tree")
        on_path_core = next(s for s in cluster.switches
                            if s.tier == "core"
                            and s.name in cluster.path(0, 1))
        for s in cluster.switches:
            if s.tier == "core" and s.group == on_path_core.group:
                s.fail()
        req = e1.irecv(src=0, tag=0, nbytes=16)
        e0.isend(1, b"y" * 16, tag=0)
        sim.run()
        assert not req.complete  # the frame died inside the fabric
        assert cluster.fault_summary()["switch_frames_dropped"] >= 1
        assert cluster.conservation_ok(allow_faults=True)

    def test_rack_partition_severs_only_boundary_links(self):
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=8, rails=(MX_MYRI10G,),
                          topology="fat-tree")
        installed = cluster.rack_partition(0, 10.0, 200.0)
        # Rack 0 = host 0 behind pod0.edge0: the boundary is that edge's
        # uplinks/downlinks to the pod's aggs, both directions.
        assert installed == 4
        uplink = cluster.host_uplinks[(0, 0)]
        assert uplink.fault_plan is None  # intra-rack wiring untouched

    def test_rack_partition_heals_and_traffic_recovers(self):
        params = EngineParams(**ACK)
        sim, cluster, (e0, e1) = make_pair(params, "fat-tree")
        rack_of_1 = next(i for i, hosts in enumerate(cluster.racks)
                         if 1 in hosts)
        cluster.rack_partition(rack_of_1, 0.0, 500.0)

        def app():
            req = e1.irecv(src=0, tag=0)
            sreq = e0.isend(1, b"after-heal" * 10, tag=0)
            yield req.done
            if not sreq.complete:
                yield sreq.done
            return req

        req = sim.run_process(app())
        assert req.data.tobytes() == b"after-heal" * 10
        assert e0.stats.retransmits >= 1  # the in-window copies died
        assert sim.now >= 500.0  # delivery had to wait for the heal

    def test_rack_partition_rejected_on_the_mesh(self):
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=2, rails=(MX_MYRI10G,))
        with pytest.raises(NetworkError, match="no racks"):
            cluster.rack_partition(0, 0.0, None)

    def test_faultplan_switch_down_validation(self):
        with pytest.raises(NetworkError):
            FaultPlan(switch_down_at=-1.0)
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=2, rails=(MX_MYRI10G,),
                          topology="fat-tree")
        with pytest.raises(NetworkError, match="switch_down_at"):
            cluster.schedule_switch_fault(0, FaultPlan())

    def test_switch_fail_is_idempotent(self):
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=2, rails=(MX_MYRI10G,),
                          topology="fat-tree")
        sw = cluster.switches[0]
        sw.fail()
        gen = sw.generation
        sw.fail()
        assert sw.generation == gen  # second power-off is a no-op


# -- multirail failover around a dead switch ----------------------------------

class TestSwitchFailover:
    def test_mid_transfer_failover_reroutes_around_dead_switch(self):
        # Two fat-tree rails; rail 1's entire spine dies mid-transfer.  The
        # reliability layer quarantines rail 1 (its frames black-hole) and
        # the transfer completes on rail 0 — rerouting *around a switch*,
        # not a link.  The RTO must budget for fabric port queueing (the
        # retry clock starts at tx completion and cannot see the 5-hop
        # switch queues), or healthy-rail frames time out spuriously.
        params = EngineParams(reliability="ack", rel_timeout_us=2_000.0,
                              rel_ack_delay_us=10.0,
                              rel_quarantine_threshold=2,
                              rel_probe_after_us=float("inf"))
        sim, cluster, (e0, e1) = make_pair(
            params, "fat-tree", rails=(MX_MYRI10G, QUADRICS_QM500),
            strategy="multirail")
        rail1_cores = [s for s in cluster.switches
                       if s.tier == "core" and s.rail == 1]
        cluster.fail_domain([s.switch_id for s in rail1_cores], at_us=100.0)
        payload = bytes(range(256)) * 4096  # 1 MiB

        def app():
            req = e1.irecv(src=0, tag=0)
            sreq = e0.isend(1, payload, tag=0)
            yield req.done
            if not sreq.complete:
                yield sreq.done
            return req, sreq

        req, sreq = sim.run_process(app())
        assert req.data.tobytes() == payload
        assert not sreq.failed
        assert e0.stats.failovers >= 1
        assert e0.stats.rails_quarantined == 1
        assert e0.transfer.rail_ok(0)
        assert cluster.conservation_ok(allow_faults=True)


# -- registry / reporting -----------------------------------------------------

class TestTopologyReporting:
    def test_switch_counter_registry_is_exhaustive(self):
        # Every SWITCH_COUNTERS name is a real zero-initialized int on a
        # fresh Switch, and every int counter on Switch is registered — a
        # new counter cannot silently fall out of the report (NM304 style).
        sw = Switch(Simulator(), 0, "s0", "core", 0, salt=1)
        for counter in SWITCH_COUNTERS:
            assert getattr(sw, counter) == 0
        actual = {name for name, value in vars(sw).items()
                  if isinstance(value, int) and not isinstance(value, bool)
                  and not name.startswith("_")
                  and name not in ("switch_id", "node_id", "rail", "group",
                                   "salt")}
        assert actual == set(SWITCH_COUNTERS)

    def test_chaos_fault_kinds_mirror(self):
        from repro.chaos.schedule import FAULT_KINDS
        from tools.analysis.lifecycle import CHAOS_FAULT_KINDS
        assert set(FAULT_KINDS) == CHAOS_FAULT_KINDS

    def test_topology_summary_mesh_is_well_formed(self):
        cluster = Cluster(Simulator(), n_nodes=2, rails=(MX_MYRI10G,))
        summary = topology_summary(cluster)
        assert summary["name"] == "mesh"
        assert summary["n_switches"] == 0
        assert summary["switches"] == []
        assert summary["ecmp_spread"] == 0

    def test_topology_summary_counts_fabric_activity(self):
        sim, cluster, (e0, e1) = make_pair(EngineParams(), "fat-tree")
        req = e1.irecv(src=0, tag=0, nbytes=64)
        e0.isend(1, bytes(64), tag=0)
        sim.run()
        assert req.complete
        summary = topology_summary(cluster)
        assert summary["n_switches"] == 20
        assert summary["switch_frames_forwarded"] > 0
        assert len(summary["spine_loads"]) == 4  # rail-0 cores
        assert summary["ecmp_spread"] >= 0
        text = render_topology(summary)
        assert "fat-tree" in text and "edge" in text


# -- the drill harness (Hypothesis property) ----------------------------------

class TestChaosDrills:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_exactly_once_under_random_switch_kills(self, seed):
        # Any seeded fat-tree schedule with a spine kill must pass the full
        # invariant audit: every message delivered exactly once, byte-exact,
        # no counter ledger torn by the mid-flight switch death.
        from repro.chaos import ChaosSpec, run_chaos

        report = run_chaos(seed, ChaosSpec.quick(topology="fat-tree",
                                                 switch_kills=1))
        assert report.ok, report.describe()
        assert report.delivered == report.n_messages
        assert report.topology["switches_down"] >= 1
        assert any(f.kind == "switch_kill" for f in report.faults)

    def test_schedules_are_deterministic_per_seed(self):
        from repro.chaos import ChaosSpec, generate_schedule

        spec = ChaosSpec.quick(topology="fat-tree", switch_kills=2)
        assert generate_schedule(7, spec) == generate_schedule(7, spec)
        assert generate_schedule(7, spec) != generate_schedule(8, spec)

    def test_mesh_schedules_unchanged_by_the_topology_knob(self):
        # The RNG draw sequence for mesh schedules must be byte-identical
        # to the pre-topology engine: same seed, same faults.
        from repro.chaos import ChaosSpec, generate_schedule

        mesh = generate_schedule(42, ChaosSpec.quick())
        assert all(f.kind != "rack_partition" for f in mesh)
        assert all(f.kind != "switch_kill" for f in mesh)
