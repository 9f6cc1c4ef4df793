"""Tests for the ``python -m repro`` command-line interface."""

import io
import json
from collections import Counter

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
        assert "replay:\n  ok: true\n  messages: 10\n" in text
        assert "retransmits" in text
        assert "  conservation_ok: true" in text

    def test_ack_mode_with_drops_recovers(self):
        code, text = run_cli("report", "--reliability", "ack",
                             "--drop-nth", "1", "--messages", "10")
        assert code == 0
        assert "replay:\n  ok: true\n  messages: 10\n" in text
        assert "  frames_dropped: 1\n" in text

    def test_off_mode_with_drop_reports_stall(self):
        code, text = run_cli("report", "--drop-nth", "1", "--messages", "5")
        assert code == 1
        assert "SIMULATION STALLED" in text
        assert "no retransmission" in text

    def test_two_rail_failover(self):
        code, text = run_cli("report", "--reliability", "ack", "--rails", "2",
                             "--link-down-at", "100", "--messages", "10")
        assert code == 0
        assert "replay:\n  ok: true\n  messages: 10\n" in text
        assert "  links_down: 1\n" in text

    def test_stats_table_prints_every_group(self):
        code, text = run_cli("report", "--messages", "10")
        assert code == 0
        for group, fields in REPORT_STAT_GROUPS:
            assert f"\n  {group}:\n" in text
            for field in fields:
                assert f"\n    {field}: " in text
        assert "\n  matcher:\n" in text and "\n  window:\n" in text

    def test_credit_mode_report(self):
        code, text = run_cli("report", "--flow-control", "credit",
                             "--messages", "20")
        assert code == 0
        assert '\n  flow_control: "credit"\n' in text
        assert "credit_stalls" in text

    def test_slow_link_reports_degradation(self):
        code, text = run_cli("report", "--slow-link", "8", "--messages", "10")
        assert code == 0
        assert "  links_slowed: 1\n" in text
        assert "  conservation_ok: true" in text

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

    def test_transport_failure_is_reported_not_raised(self):
        # The only link dies at 10 us, so node 1 declares node 0 dead: the
        # PeerDeadError escaping the replay is the report's error.
        argv = ("report", "--sessions", "epoch", "--link-down-at", "10")
        code, text = run_cli(*argv, "--json")
        assert code == 1
        replay = json.loads(text)["replay"]
        assert replay["ok"] is False
        assert "node 0 declared dead" in replay["error"]
        code, text = run_cli(*argv)
        assert code == 1
        assert text.rstrip().splitlines()[-1] \
            == f"SIMULATION STALLED: {replay['error']}"

    def test_text_is_the_json_payload_rendered(self):
        # The two views carry the same facts: one ``key: value`` line per
        # leaf of the JSON payload, value as JSON, and nothing else.
        argv = ("report", "--topology", "fat-tree", "--reliability", "ack",
                "--drop-nth", "2", "--messages", "10")
        code, text = run_cli(*argv)
        json_code, dumped = run_cli(*argv, "--json")
        assert code == json_code == 0

        def leaves(key, value):
            if isinstance(value, list) and value and isinstance(value[0], dict):
                return [line for item in value for line in leaves(key, item)]
            if isinstance(value, dict) and value:
                return [line for k, v in value.items()
                        for line in leaves(k, v)]
            return [f"{key}: {json.dumps(value)}"]

        payload = json.loads(dumped)
        expected = Counter(line for key, value in payload.items()
                           for line in leaves(key, value))
        rendered = Counter(line.strip() for line in text.splitlines()
                           if line.strip() and not line.endswith(":"))
        assert rendered == expected
        assert payload["faults"]["frames_dropped"] == 1
        assert payload["topology"]["n_switches"] > 0
        assert payload["engines"][0]["rtt"]

    def test_bad_slow_link_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("report", "--slow-link", "0.5", "--messages", "5")

    @pytest.mark.parametrize("flags", [
        ("--slow-link", "nan"), ("--slow-link", "inf"),
        ("--link-down-at", "nan"), ("--link-down-at", "inf"),
    ], ids=" ".join)
    def test_non_finite_fault_flags_rejected_before_the_replay(self, flags):
        out = io.StringIO()
        with pytest.raises(SystemExit, match="invalid fault plan") as exc:
            main(["report", *flags, "--messages", "5"], out=out)
        assert exc.value.code != 0
        assert out.getvalue() == ""  # nothing was replayed


class TestReportPartitionGroup:
    def test_stat_groups_are_derived_from_the_counter_declarations(self):
        # One declaration (``counter(group)`` next to each layer) feeds the
        # report, its JSON and the lint: the report's groups and the set
        # the NM203 rule reads off the source must both be exactly
        # the EngineStats fields, each in one group.
        import dataclasses

        from repro.core.engine import EngineStats
        from tools.analysis.counters import STATS_COUNTERS

        declared = {f.name for f in dataclasses.fields(EngineStats)}
        grouped = [f for _, fields in REPORT_STAT_GROUPS for f in fields]
        assert len(grouped) == len(set(grouped)) == 32
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

    @pytest.mark.parametrize("topology", ["fat-tree", "dragonfly"])
    def test_report_with_sessions_replays_on_a_clean_fabric(self, topology):
        code, text = run_cli("report", "--topology", topology,
                             "--sessions", "epoch", "--json")
        assert json.loads(text)["replay"]["ok"] is True

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


class TestPerfCommand:
    @pytest.mark.parametrize("bad", ["missing", "garbage"])
    def test_unreadable_baseline_exits_before_the_suite(
            self, bad, tmp_path, monkeypatch):
        from repro.bench import perf

        def never(**_kw):
            raise AssertionError("the suite ran despite a bad baseline")

        monkeypatch.setattr(perf, "run_suite", never)
        baseline = tmp_path / "baseline.json"
        if bad == "garbage":
            baseline.write_text("{not json")
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            run_cli("perf", "--quick", "--check", str(baseline),
                    "--out", str(out))
        assert str(exc.value).startswith(
            f"cannot read perf baseline {baseline}: ")
        assert not out.exists()


class TestAdaptiveCli:
    def test_auto_report_exposes_rtt_estimates(self):
        code, text = run_cli("report", "--reliability", "ack",
                             "--messages", "20")
        assert code == 0
        assert "\n  adaptive:\n" in text and "\n  rtt:\n" in text
        assert "srtt_us: " in text and "rttvar_us: " in text

    def test_auto_json_report_is_complete(self):
        from repro.netsim.stats import RTT_SNAPSHOT_KEYS

        code, text = run_cli("report", "--reliability", "ack",
                             "--messages", "20", "--json")
        assert code == 0
        payload = json.loads(text)
        assert "rel_timeout" not in payload["config"]  # always measured
        assert payload["config"]["hedge"] is False
        sender = payload["engines"][0]
        assert sender["adaptive"]["rtt_samples"] > 0
        assert sender["rtt"], "warm estimator missing from the report"
        for entry in sender["rtt"].values():
            assert set(entry) == set(RTT_SNAPSHOT_KEYS)

    def test_static_override_and_cold_reports_stay_clean(self):
        # No constant overrides the measured RTO any more.
        with pytest.raises(SystemExit):
            run_cli("report", "--reliability", "ack", "--rel-timeout", "500")
        code, text = run_cli("report", "--messages", "10", "--json")
        assert code == 0
        payload = json.loads(text)
        # No estimator without reliability="ack": the rtt block is empty,
        # the adaptive group all-zero — but both keys are always present.
        for eng in payload["engines"]:
            assert eng["rtt"] == {}
            assert eng["adaptive"]["rtt_samples"] == 0

    def test_hedged_report_runs_on_two_rails(self):
        code, text = run_cli("report", "--reliability", "ack", "--hedge",
                             "--rails", "2", "--messages", "20", "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["config"]["hedge"] is True
        assert "hedges_sent" in payload["engines"][0]["adaptive"]

    def test_bad_timing_flags_rejected(self):
        # The retransmit timeout is always measured: no flag sets it.
        with pytest.raises(SystemExit):
            run_cli("report", "--reliability", "ack", "--rel-timeout", "auto")
        with pytest.raises(SystemExit):
            run_cli("chaos", "--seed", "42", "--quick", "--adaptive")
        with pytest.raises(SystemExit, match="invalid engine configuration"):
            run_cli("report", "--hedge")  # needs ack mode

    def test_chaos_drift_drill_is_clean(self):
        code, text = run_cli("chaos", "--seed", "42", "--quick",
                             "--rtt-drift")
        assert code == 0
        assert "1/1 seed(s) clean" in text
        assert "slow x" in text  # the drift ramp was injected
        assert "jitter" in text
