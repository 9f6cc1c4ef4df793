"""Interprocedural (NM5xx) pass: fixtures, resolution machinery, real tree."""

from __future__ import annotations

from pathlib import Path

from tools.analysis.callgraph import build_project
from tools.analysis.escape import WriteOwnerEscapeRule
from tools.analysis.framekinds import FrameKindRule
from tools.analysis.interproc import INTERPROC_CHECKERS, check_project
from tools.analysis.statsbalance import StatsBalanceRule

FIXTURES = Path(__file__).parent / "fixtures" / "interproc"
REPO_ROOT = Path(__file__).resolve().parents[2]


def run_rule(subdir: str, rule_cls):
    return check_project([str(FIXTURES / subdir)], root=str(REPO_ROOT),
                         checkers=[rule_cls])


def codes_of(report) -> list[str]:
    return sorted(v.code for v in report.violations)


# -- NM501: write-owner escape -------------------------------------------------

def test_bad_escape_catches_every_shape():
    report = run_rule("bad_escape", WriteOwnerEscapeRule)
    assert codes_of(report) == ["NM501"] * 6
    messages = "\n".join(v.message for v in report.violations)
    assert "helper chain" in messages
    assert "subscript store" in messages
    assert ".pop() mutation" in messages


def test_good_escape_is_clean():
    report = run_rule("good_escape", WriteOwnerEscapeRule)
    assert report.ok, codes_of(report)


# -- NM502: frame-kind exhaustiveness ------------------------------------------

def test_bad_framekinds_flags_dead_registry_and_unregistered_dispatch():
    report = run_rule("bad_framekinds", FrameKindRule)
    assert set(codes_of(report)) == {"NM502"}
    messages = [v.message for v in report.violations]
    assert any("'ghost'" in m and "no demux handler" in m for m in messages)
    assert any("'phantom'" in m and "not registered" in m for m in messages)
    assert any("'heartbeat'" in m and "header bytes" in m for m in messages)


def test_good_framekinds_is_clean():
    report = run_rule("good_framekinds", FrameKindRule)
    assert report.ok, [v.render() for v in report.violations]


def test_framekinds_resolves_kind_parameters_through_call_sites():
    # The good fixture's only producer takes the kind as a parameter; if
    # call-site resolution broke, both kinds would lose their producer
    # evidence and the fixture would light up.
    project = build_project([str(FIXTURES / "good_framekinds")],
                            root=str(REPO_ROOT))
    rule = FrameKindRule(project)
    assert rule.run() == []


# -- NM504: stats balance on exception paths -----------------------------------

def test_bad_statsbalance_flags_raise_between_pairs():
    report = run_rule("bad_statsbalance", StatsBalanceRule)
    assert codes_of(report) == ["NM504", "NM504"]
    messages = "\n".join(v.message for v in report.violations)
    assert "aggregated_segments" in messages
    assert "recv_copy_bytes" in messages


def test_good_statsbalance_is_clean():
    report = run_rule("good_statsbalance", StatsBalanceRule)
    assert report.ok, [v.render() for v in report.violations]


# -- machinery -----------------------------------------------------------------

def test_mutation_summaries_reach_fixpoint_through_forwarding():
    project = build_project([str(FIXTURES / "bad_escape")],
                            root=str(REPO_ROOT))
    summaries = project.mutation_summaries()
    mod = project.modules["repro/core/fixture_helpers.py"]
    direct = mod.functions["drain_queue"]
    forwarder = mod.functions["forwarding_helper"]
    assert 0 in summaries[id(direct.node)]
    assert 0 in summaries[id(forwarder.node)], \
        "forwarded mutation must propagate to the forwarding helper"


def test_interproc_suppression_applies_on_the_flagged_line(tmp_path):
    src = (FIXTURES / "bad_statsbalance" / "transfer.py").read_text()
    src = src.replace(
        "self.stats.aggregated_packets += 1  # NM504: partner skippable",
        "self.stats.aggregated_packets += 1  # nm: allow[NM504] -- fixture: justified",
    )
    fixture_dir = tmp_path / "suppressed"
    fixture_dir.mkdir()
    (fixture_dir / "transfer.py").write_text(src)
    report = check_project([str(fixture_dir)], root=str(tmp_path),
                           checkers=[StatsBalanceRule])
    assert codes_of(report) == ["NM504"]  # only copy_in remains
    assert len(report.suppressed) == 1
    assert report.suppressed[0].justification == "fixture: justified"


def test_interproc_runs_clean_on_the_real_tree():
    report = check_project([str(REPO_ROOT / "src" / "repro")],
                           root=str(REPO_ROOT))
    assert report.ok, [v.render() for v in report.violations]
    assert report.suppressed == []


def test_interproc_checker_codes_are_declared_and_unique():
    seen: dict[str, str] = {}
    for cls in INTERPROC_CHECKERS:
        for code in cls.codes:
            assert code not in seen, f"{code} claimed by {seen[code]}"
            seen[code] = cls.name
    assert set(seen) == {"NM501", "NM502", "NM504"}
