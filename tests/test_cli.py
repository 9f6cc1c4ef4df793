"""Tests for the ``python -m repro`` command-line interface."""

import io
import json

import pytest

from repro.cli import REPORT_STAT_GROUPS, build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_only_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--only", "fig9"])


class TestCommands:
    def test_profiles_lists_all(self):
        code, text = run_cli("profiles")
        assert code == 0
        for name in ("mx_myri10g", "quadrics_qm500", "gm_myrinet",
                     "sisci_sci", "tcp_gige"):
            assert name in text

    def test_strategies_lists_database(self):
        code, text = run_cli("strategies")
        assert code == 0
        for name in ("fifo", "aggregation", "multirail", "adaptive"):
            assert name in text

    def test_quick_fig4(self):
        code, text = run_cli("figures", "--quick", "--only", "fig4",
                             "--iters", "1")
        assert code == 0
        assert "Figure 4" in text
        assert "MadMPI/MX" in text and "MPICH-MX" in text
        assert "peak gain" in text

    def test_quick_fig2(self):
        code, text = run_cli("figures", "--quick", "--only", "fig2",
                             "--iters", "1")
        assert code == 0
        assert "Figure 2" in text
        assert "derived bandwidth" in text
        assert "(values in MB/s)" in text

    def test_quick_fig3(self):
        code, text = run_cli("figures", "--quick", "--only", "fig3",
                             "--iters", "1")
        assert code == 0
        assert "8-segment" in text and "16-segment" in text

    def test_bad_iters_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("figures", "--quick", "--iters", "0")


class TestReport:
    def test_clean_report(self):
        code, text = run_cli("report", "--messages", "10")
        assert code == 0
        assert "replayed 10 messages" in text
        assert "retransmits" in text
        assert "conservation(with faults): ok" in text

    def test_ack_mode_with_drops_recovers(self):
        code, text = run_cli("report", "--reliability", "ack",
                             "--drop-nth", "1", "--messages", "10")
        assert code == 0
        assert "replayed 10 messages" in text
        assert "1 dropped" in text

    def test_off_mode_with_drop_reports_stall(self):
        code, text = run_cli("report", "--drop-nth", "1", "--messages", "5")
        assert code == 1
        assert "SIMULATION STALLED" in text
        assert "no retransmission" in text

    def test_two_rail_failover(self):
        code, text = run_cli("report", "--reliability", "ack", "--rails", "2",
                             "--link-down-at", "100", "--messages", "10")
        assert code == 0
        assert "replayed 10 messages" in text
        assert "1 link(s) down" in text

    def test_stats_table_prints_every_group(self):
        code, text = run_cli("report", "--messages", "10")
        assert code == 0
        for group, fields in REPORT_STAT_GROUPS:
            assert f"[{group}]" in text
            for field in fields:
                assert field in text
        assert "[matcher]" in text and "[window]" in text

    def test_credit_mode_report(self):
        code, text = run_cli("report", "--flow-control", "credit",
                             "--messages", "20")
        assert code == 0
        assert "flow_control=credit" in text
        assert "credit_stalls" in text

    def test_slow_link_reports_degradation(self):
        code, text = run_cli("report", "--slow-link", "8", "--messages", "10")
        assert code == 0
        assert "slowed on 1 link(s)" in text
        assert "conservation(with faults): ok" in text

    def test_json_report_is_machine_readable(self):
        code, text = run_cli("report", "--messages", "10", "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["replay"]["ok"] is True
        assert payload["replay"]["messages"] == 10
        assert payload["config"]["flow_control"] == "off"
        assert payload["faults"]["conservation_ok"] is True
        assert len(payload["engines"]) == 2
        for eng in payload["engines"]:
            for group, fields in REPORT_STAT_GROUPS:
                assert set(eng[group]) == set(fields)
            assert "matcher" in eng and "window" in eng

    def test_json_report_credit_mode_counts_grants(self):
        code, text = run_cli("report", "--flow-control", "credit",
                             "--messages", "40", "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["config"]["flow_control"] == "credit"
        granted = sum(e["flow_control"]["credits_granted"]
                      for e in payload["engines"])
        assert granted > 0

    def test_json_report_stall_sets_error(self):
        code, text = run_cli("report", "--drop-nth", "1", "--messages", "5",
                             "--json")
        assert code == 1
        payload = json.loads(text)
        assert payload["replay"]["ok"] is False
        assert "no retransmission" in payload["replay"]["error"]

    def test_bad_slow_link_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("report", "--slow-link", "0.5", "--messages", "5")


class TestReportPartitionGroup:
    def test_stat_groups_are_derived_from_the_counter_declarations(self):
        # One declaration (``counter(group)`` next to each layer) feeds the
        # report, its JSON and the lint: the report's groups and the set
        # the NM203/NM204 rule reads off the source must both be exactly
        # the EngineStats fields, each in one group.
        import dataclasses

        from repro.core.engine import EngineStats
        from tools.analysis.counters import STATS_COUNTERS

        declared = {f.name for f in dataclasses.fields(EngineStats)}
        grouped = [f for _, fields in REPORT_STAT_GROUPS for f in fields]
        assert len(grouped) == len(set(grouped)) == 36
        assert set(grouped) == declared == STATS_COUNTERS
        assert [g for g, _ in REPORT_STAT_GROUPS] == [
            "core", "reliability", "flow_control", "sessions", "partition",
            "adaptive"]

    def test_json_report_includes_partition_counters(self):
        code, text = run_cli("report", "--sessions", "epoch",
                             "--reliability", "ack", "--messages", "10",
                             "--json")
        assert code == 0
        payload = json.loads(text)
        for eng in payload["engines"]:
            assert set(eng["partition"]) == {"peers_recovered",
                                             "frames_parked"}


class TestTopologyCli:
    def test_report_mesh_default_has_no_switches(self):
        code, text = run_cli("report", "--messages", "5", "--json")
        assert code == 0
        topo = json.loads(text)["topology"]
        assert topo["name"] == "mesh"
        assert topo["n_switches"] == 0
        assert topo["switches"] == []

    def test_report_fat_tree_json_topology_group(self):
        code, text = run_cli("report", "--topology", "fat-tree",
                             "--messages", "5", "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["replay"]["ok"] is True
        assert payload["config"]["topology"] == "fat-tree"
        topo = payload["topology"]
        assert topo["name"] == "fat-tree"
        assert topo["n_switches"] > 0
        assert topo["switches_down"] == 0
        assert sum(sw["frames_forwarded"] for sw in topo["switches"]) > 0

    def test_report_fat_tree_text_prints_fabric_table(self):
        code, text = run_cli("report", "--topology", "fat-tree",
                             "--messages", "5")
        assert code == 0
        assert "fat-tree" in text
        assert "edge" in text and "core" in text

    def test_chaos_fat_tree_drill_clean_and_deterministic(self, tmp_path):
        j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ("chaos", "--seed", "0", "--seeds", "2", "--quick",
                "--topology", "fat-tree", "--switch-kills", "1")
        code1, text1 = run_cli(*argv, "--json", str(j1))
        code2, _ = run_cli(*argv, "--json", str(j2))
        assert code1 == code2 == 0
        assert "2/2 seed(s) clean" in text1
        assert j1.read_text() == j2.read_text()
        payload = json.loads(j1.read_text())
        assert payload["ok"] is True
        for seed_report in payload["seeds"]:
            assert seed_report["findings"] == []
            assert seed_report["topology"]["name"] == "fat-tree"
            assert seed_report["topology"]["switches_down"] >= 1

    def test_chaos_switch_kills_require_fat_tree(self):
        with pytest.raises(SystemExit):
            run_cli("chaos", "--switch-kills", "1", "--quick")

    def test_chaos_bad_fat_tree_k_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("chaos", "--topology", "fat-tree", "--fat-tree-k", "3",
                    "--quick")


class TestChaosCommand:
    def test_quick_sweep_is_clean_and_deterministic(self, tmp_path):
        j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
        code1, text1 = run_cli("chaos", "--seed", "0", "--seeds", "2",
                               "--quick", "--json", str(j1))
        code2, _ = run_cli("chaos", "--seed", "0", "--seeds", "2",
                           "--quick", "--json", str(j2))
        assert code1 == code2 == 0
        assert "2/2 seed(s) clean" in text1
        assert j1.read_text() == j2.read_text()
        payload = json.loads(j1.read_text())
        assert payload["ok"] is True
        assert len(payload["seeds"]) == 2
        for seed_report in payload["seeds"]:
            assert seed_report["findings"] == []
            assert seed_report["drained"] is True

    def test_failing_sweep_exits_nonzero_and_shrinks(self, monkeypatch):
        from repro.core.flowcontrol import FlowControlLayer

        monkeypatch.setattr(FlowControlLayer, "release",
                            lambda self, *a, **k: None)
        code, text = run_cli("chaos", "--seed", "3", "--quick", "--shrink")
        assert code == 1
        assert "FINDING [credit-leak]" in text
        assert "repro snippet" in text
        assert "run_schedule" in text

    def test_bad_seeds_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("chaos", "--seeds", "0")


class TestAdaptiveCli:
    def test_auto_report_exposes_rtt_estimates(self):
        code, text = run_cli("report", "--reliability", "ack",
                             "--rel-timeout", "auto", "--messages", "20")
        assert code == 0
        assert "[adaptive]" in text and "[rtt]" in text
        assert "srtt us" in text and "rttvar us" in text

    def test_auto_json_report_is_complete(self):
        from repro.netsim.stats import RTT_SNAPSHOT_KEYS

        code, text = run_cli("report", "--reliability", "ack",
                             "--rel-timeout", "auto", "--messages", "20",
                             "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["config"]["rel_timeout"] == "auto"
        assert payload["config"]["hedge"] is False
        sender = payload["engines"][0]
        assert sender["adaptive"]["rtt_samples"] > 0
        assert sender["rtt"], "warm estimator missing from the report"
        for entry in sender["rtt"].values():
            assert set(entry) == set(RTT_SNAPSHOT_KEYS)

    def test_static_override_and_cold_reports_stay_clean(self):
        code, text = run_cli("report", "--reliability", "ack",
                             "--rel-timeout", "500", "--messages", "10",
                             "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["config"]["rel_timeout"] == 500.0
        # No estimator in static mode: the rtt block is empty, the
        # adaptive group all-zero — but both keys are always present.
        for eng in payload["engines"]:
            assert eng["rtt"] == {}
            assert eng["adaptive"]["rtt_samples"] == 0

    def test_hedged_report_runs_on_two_rails(self):
        code, text = run_cli("report", "--reliability", "ack",
                             "--rel-timeout", "auto", "--hedge",
                             "--rails", "2", "--messages", "20", "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["config"]["hedge"] is True
        assert "hedges_sent" in payload["engines"][0]["adaptive"]

    def test_bad_timing_flags_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("report", "--reliability", "ack",
                    "--rel-timeout", "bogus")
        with pytest.raises(SystemExit):
            run_cli("report", "--rel-timeout", "auto")  # needs ack mode
        with pytest.raises(SystemExit):
            run_cli("report", "--reliability", "ack", "--hedge")  # needs auto

    def test_chaos_drift_drill_is_clean(self):
        code, text = run_cli("chaos", "--seed", "42", "--quick",
                             "--adaptive", "--rtt-drift")
        assert code == 0
        assert "1/1 seed(s) clean" in text
        assert "slow x" in text  # the drift ramp was injected
        assert "jitter" in text
