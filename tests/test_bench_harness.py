"""Unit tests for the benchmark harness (report, backends, sweeps, runners)."""

import pytest

from repro.bench import (
    FIG2_SIZES,
    FIG3_SIZES_MX,
    FIG3_SIZES_QUADRICS,
    FIG4_SIZES,
    Series,
    backend_label,
    find_series,
    gain_percent,
    make_backend_pair,
    pingpong_datatype,
    pingpong_multiseg,
    pingpong_single,
    render_gains,
    render_table,
    run_figure2,
    run_figure3,
    run_figure4,
)
from repro.baselines import BaselineMpi
from repro.errors import ReproError
from repro.madmpi import MadMpi
from repro.netsim import KB, MB, MX_MYRI10G, QUADRICS_QM500


class TestSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ReproError):
            Series(label="x", backend="x", sizes=[1, 2], values=[1.0])

    def test_to_bandwidth(self):
        s = Series(label="x", backend="x", sizes=[1000, 2000],
                   values=[1.0, 1.0])
        bw = s.to_bandwidth()
        assert bw.values == [1000.0, 2000.0]
        assert bw.unit == "MB/s"

    def test_to_bandwidth_twice_rejected(self):
        s = Series(label="x", backend="x", sizes=[1], values=[1.0])
        with pytest.raises(ReproError):
            s.to_bandwidth().to_bandwidth()

    def test_at_exact_size(self):
        s = Series(label="x", backend="x", sizes=[4, 8], values=[1.0, 2.0])
        assert s.at(8) == 2.0
        with pytest.raises(ReproError):
            s.at(16)

    def test_find_series(self):
        s1 = Series(label="a", backend="madmpi", sizes=[1], values=[1.0])
        s2 = Series(label="b", backend="mpich", sizes=[1], values=[2.0])
        assert find_series([s1, s2], "mpich") is s2
        with pytest.raises(ReproError):
            find_series([s1], "openmpi")


class TestGain:
    def test_gain_percent(self):
        assert gain_percent(10.0, 5.0) == pytest.approx(50.0)
        assert gain_percent(10.0, 10.0) == 0.0
        assert gain_percent(10.0, 12.0) == pytest.approx(-20.0)

    def test_non_positive_baseline_rejected(self):
        with pytest.raises(ReproError):
            gain_percent(0.0, 1.0)


class TestRendering:
    def _series(self):
        return [
            Series(label="MadMPI/MX", backend="madmpi", sizes=[4, 8],
                   values=[3.1, 3.2]),
            Series(label="MPICH-MX", backend="mpich", sizes=[4, 8],
                   values=[2.9, 3.0]),
        ]

    def test_render_table_contains_rows_and_labels(self):
        text = render_table("title", self._series())
        assert "title" in text
        assert "MadMPI/MX" in text and "MPICH-MX" in text
        assert "3.10" in text and "2.90" in text
        assert "(values in us)" in text

    def test_render_table_mismatched_axes_rejected(self):
        series = self._series()
        series[1] = Series(label="MPICH-MX", backend="mpich", sizes=[4, 16],
                           values=[2.9, 3.0])
        with pytest.raises(ReproError):
            render_table("t", series)

    def test_render_table_empty_rejected(self):
        with pytest.raises(ReproError):
            render_table("t", [])

    def test_render_gains(self):
        text = render_gains(self._series())
        assert "MadMPI/MX vs MPICH-MX" in text
        assert "peak gain" in text


class TestBackendFactory:
    def test_madmpi_pair(self):
        pair = make_backend_pair("madmpi", rails=(MX_MYRI10G,))
        assert isinstance(pair.m0, MadMpi) and isinstance(pair.m1, MadMpi)
        assert pair.m0.rank == 0 and pair.m1.rank == 1

    def test_madmpi_fifo_variant(self):
        from repro.core import FifoStrategy

        pair = make_backend_pair("madmpi-fifo", rails=(MX_MYRI10G,))
        assert isinstance(pair.m0.engine.strategy, FifoStrategy)

    def test_baseline_params_follow_rail_tech(self):
        pair = make_backend_pair("mpich", rails=(QUADRICS_QM500,))
        assert isinstance(pair.m0, BaselineMpi)
        assert pair.m0.params.name == "MPICH-Quadrics"
        pair2 = make_backend_pair("openmpi", rails=(QUADRICS_QM500,))
        assert isinstance(pair2.m0, BaselineMpi)
        assert pair2.m0.params.name == "OpenMPI-Quadrics"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="unknown backend"):
            make_backend_pair("lam-mpi", rails=(MX_MYRI10G,))

    def test_backend_label(self):
        assert backend_label("madmpi", MX_MYRI10G) == "MadMPI/MX"
        assert backend_label("mpich", QUADRICS_QM500) == "MPICH-Quadrics"
        assert backend_label("openmpi", MX_MYRI10G) == "OpenMPI-MX"


class TestSweepAxes:
    def test_fig2_axis_matches_paper(self):
        assert FIG2_SIZES[0] == 4 and FIG2_SIZES[-1] == 2 * MB

    def test_fig3_axes_match_paper(self):
        assert FIG3_SIZES_MX[-1] == 16 * KB
        assert FIG3_SIZES_QUADRICS[-1] == 8 * KB

    def test_fig4_axis_matches_paper(self):
        assert FIG4_SIZES == [256 * KB, 512 * KB, 1 * MB, 2 * MB]

    def test_run_figure2_backends_per_network(self):
        mx = run_figure2(MX_MYRI10G, sizes=[4], iters=1)
        assert [s.backend for s in mx] == ["madmpi", "mpich", "openmpi"]
        q = run_figure2(QUADRICS_QM500, sizes=[4], iters=1)
        assert [s.backend for s in q] == ["madmpi", "mpich"]

    def test_run_figure3_uses_network_default_sizes(self):
        series = run_figure3(QUADRICS_QM500, n_segments=2,
                             sizes=[4, 8], iters=1)
        assert series[0].sizes == [4, 8]

    def test_run_figure4_small(self):
        series = run_figure4(MX_MYRI10G, sizes=[256 * KB], iters=1)
        assert len(series) == 3
        assert all(len(s.values) == 1 for s in series)


class TestPingpongRunners:
    def test_single_deterministic(self):
        a = pingpong_single("madmpi", MX_MYRI10G, 1024, iters=2)
        b = pingpong_single("madmpi", MX_MYRI10G, 1024, iters=2)
        assert a == b

    def test_single_grows_with_size(self):
        small = pingpong_single("mpich", MX_MYRI10G, 4, iters=1)
        large = pingpong_single("mpich", MX_MYRI10G, 64 * KB, iters=1)
        assert large > small * 5

    def test_multiseg_grows_with_segments(self):
        t8 = pingpong_multiseg("mpich", MX_MYRI10G, 64, 8, iters=1)
        t16 = pingpong_multiseg("mpich", MX_MYRI10G, 64, 16, iters=1)
        assert t16 > t8

    def test_multiseg_validation(self):
        with pytest.raises(ReproError):
            pingpong_multiseg("madmpi", MX_MYRI10G, 64, 0)

    def test_bad_iteration_counts(self):
        with pytest.raises(ReproError):
            pingpong_single("madmpi", MX_MYRI10G, 4, iters=0)
        with pytest.raises(ReproError):
            pingpong_single("madmpi", MX_MYRI10G, 4, warmup=-1)

    def test_datatype_runner_orders_backends(self):
        mad = pingpong_datatype("madmpi", MX_MYRI10G, 256 * KB, iters=1)
        mpich = pingpong_datatype("mpich", MX_MYRI10G, 256 * KB, iters=1)
        assert mad < mpich
