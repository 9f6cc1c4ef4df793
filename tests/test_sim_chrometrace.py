"""Unit tests for the Chrome-trace exporter and NIC utilization stats."""

import json

import pytest

from repro.errors import ReproError
from repro.netsim.stats import cluster_utilization, nic_utilization
from repro.sim import Tracer
from repro.sim.chrometrace import to_chrome_trace, write_chrome_trace
from repro.sim.trace import TraceRecord


def rec(t, source, kind, **detail):
    return TraceRecord(time=t, source=source, kind=kind, detail=detail)


class TestChromeTrace:
    def test_start_done_becomes_duration_span(self):
        events = to_chrome_trace([
            rec(1.0, "nic0", "tx_start", size=64),
            rec(3.5, "nic0", "tx_done"),
        ])
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 1
        assert spans[0]["name"] == "tx"
        assert spans[0]["ts"] == 1.0
        assert spans[0]["dur"] == 2.5
        assert spans[0]["args"]["size"] == 64

    def test_other_kinds_become_instants(self):
        events = to_chrome_trace([rec(2.0, "sched", "pull", rail=0)])
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "pull"

    def test_sources_get_named_tracks(self):
        events = to_chrome_trace([
            rec(1.0, "nicA", "idle"),
            rec(2.0, "nicB", "idle"),
        ])
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert names == {"nicA", "nicB"}
        tids = {e["tid"] for e in events if e["ph"] == "i"}
        assert len(tids) == 2

    def test_nested_same_kind_span_rejected(self):
        with pytest.raises(ReproError, match="nested"):
            to_chrome_trace([
                rec(1.0, "nic0", "tx_start"),
                rec(2.0, "nic0", "tx_start"),
            ])

    def test_done_without_start_becomes_instant(self):
        events = to_chrome_trace([rec(5.0, "nic0", "tx_done")])
        assert events[-1]["ph"] == "i"

    def test_dangling_start_closed_with_zero_duration(self):
        events = to_chrome_trace([rec(1.0, "nic0", "tx_start")])
        spans = [e for e in events if e["ph"] == "X"]
        assert spans[0]["dur"] == 0.0

    def test_non_serializable_detail_dropped(self):
        events = to_chrome_trace([rec(1.0, "s", "note", obj=object(), n=3)])
        args = [e for e in events if e["ph"] == "i"][0]["args"]
        assert args == {"n": 3}

    def test_write_produces_valid_json(self, tmp_path):
        tracer = Tracer(enabled=True)
        tracer.emit(1.0, "nic0", "tx_start", size=10)
        tracer.emit(2.0, "nic0", "tx_done")
        path = tmp_path / "trace.json"
        n = write_chrome_trace(tracer, str(path))
        assert n >= 2
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc

    def test_real_simulation_exports(self, tmp_path):
        from repro.core import NmadEngine
        from repro.netsim import Cluster, MX_MYRI10G
        from repro.sim import Simulator

        sim = Simulator()
        tracer = Tracer(enabled=True)
        cluster = Cluster(sim, rails=(MX_MYRI10G,), tracer=tracer)
        e0 = NmadEngine(cluster.node(0), tracer=tracer)
        e1 = NmadEngine(cluster.node(1), tracer=tracer)

        def app():
            e0.isend(1, b"traced", tag=0)
            req = yield from e1.recv(src=0)
            return req

        sim.run_process(app())
        n = write_chrome_trace(tracer, str(tmp_path / "t.json"))
        assert n > 5


class TestUtilization:
    def _loaded_cluster(self):
        from repro.core import NmadEngine, VirtualData
        from repro.netsim import Cluster, MX_MYRI10G
        from repro.sim import Simulator

        sim = Simulator()
        cluster = Cluster(sim, rails=(MX_MYRI10G,))
        e0 = NmadEngine(cluster.node(0))
        e1 = NmadEngine(cluster.node(1))

        def app():
            req = e1.irecv(src=0)
            e0.isend(1, VirtualData(1 << 20))
            yield req.done

        sim.run_process(app())
        return cluster

    def test_busy_fraction_bounds(self):
        cluster = self._loaded_cluster()
        utils = cluster_utilization(cluster)
        assert len(utils) == 2
        for u in utils:
            assert 0.0 <= u.busy_fraction <= 1.0
        # The sender streamed a 1MB rendezvous: it dominated the run.
        sender = next(u for u in utils if u.name.startswith("node0"))
        assert sender.busy_fraction > 0.8
        assert sender.achieved_tx_mbps > 1000

    def test_negative_horizon_rejected(self):
        cluster = self._loaded_cluster()
        with pytest.raises(ValueError):
            nic_utilization(cluster.node(0).nic(), -1.0)

    def test_zero_horizon(self):
        from repro.netsim import Cluster, MX_MYRI10G
        from repro.sim import Simulator

        cluster = Cluster(Simulator(), rails=(MX_MYRI10G,))
        u = nic_utilization(cluster.node(0).nic(), 0.0)
        assert u.busy_fraction == 0.0
        assert u.achieved_tx_mbps == 0.0

    def test_render_contains_all_nics(self):
        cluster = self._loaded_cluster()
        utils = cluster_utilization(cluster)
        assert [u.name for u in utils] == ["node0.nic0.mx", "node1.nic0.mx"]
        assert all(0.0 < u.busy_fraction <= 1.0 for u in utils)
