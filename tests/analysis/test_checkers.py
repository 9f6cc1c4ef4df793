"""Per-checker tests: each bad fixture trips, each good fixture is clean."""

from __future__ import annotations

from pathlib import Path

import pytest

from tools.analysis.engine import check_file, check_source

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def run_fixture(name: str):
    return check_file(str(FIXTURES / name), root=str(REPO_ROOT))


def codes_of(report) -> list[str]:
    return sorted(v.code for v in report.violations)


# -- determinism (NM1xx) ------------------------------------------------------

def test_bad_determinism_trips_every_rule():
    report = run_fixture("bad_determinism.py")
    assert "NM101" in codes_of(report)
    assert "NM102" in codes_of(report)
    assert "NM103" in codes_of(report)


def test_good_determinism_is_clean():
    report = run_fixture("good_determinism.py")
    assert report.ok, codes_of(report)


def test_bad_determinism_alias_trips_on_every_indirection():
    # The PR-8 blind-spot fix: sets reached through an intermediate name.
    report = run_fixture("bad_determinism_alias.py")
    assert codes_of(report) == ["NM103"] * 4
    messages = "\n".join(v.message for v in report.violations)
    assert "'s'" in messages
    assert "'t'" in messages
    assert "'_MODULE_PEERS'" in messages


def test_good_determinism_alias_is_clean():
    report = run_fixture("good_determinism_alias.py")
    assert report.ok, codes_of(report)


# -- counter pairing (NM2xx) --------------------------------------------------

def test_bad_counters_trips_write_shadow_and_strategy_bump():
    report = run_fixture("bad_counters.py")
    codes = codes_of(report)
    assert "NM201" in codes  # window-private write outside window.py
    assert "NM202" in codes  # accessor-name shadowing
    assert "NM204" in codes  # stats bump inside a strategy


def test_bad_counters_reset_trips_non_increment():
    report = run_fixture("bad_counters_reset.py")
    assert codes_of(report) == ["NM203"]


def test_good_counters_is_clean():
    report = run_fixture("good_counters.py")
    assert report.ok, codes_of(report)


# -- lifecycle discipline (NM3xx) ---------------------------------------------

def test_bad_lifecycle_trips_every_rule():
    report = run_fixture("bad_lifecycle.py")
    codes = codes_of(report)
    assert "NM301" in codes  # Event kernel-private access
    assert "NM302" in codes  # transition field write outside its owner
    assert "NM303" in codes  # window-private read
    # Both rendezvous fields and both request fields are caught.
    nm302 = [v for v in report.violations if v.code == "NM302"]
    assert len(nm302) >= 4


def test_good_lifecycle_is_clean():
    report = run_fixture("good_lifecycle.py")
    assert report.ok, codes_of(report)


def test_bad_simclock_trips_on_every_assignment_form():
    # ``Simulator.now`` is a plain attribute: NM301 is what keeps it
    # read-only outside the kernel.
    report = run_fixture("bad_simclock.py")
    assert codes_of(report) == ["NM301"] * 5
    assert all("clock" in v.message for v in report.violations)


def test_good_simclock_is_clean():
    report = run_fixture("good_simclock.py")
    assert report.ok, codes_of(report)


def test_the_kernel_itself_may_move_the_clock():
    source = "def run(self, sim, t):\n    sim.now = t\n"
    assert check_source(source, "repro/sim/core.py").ok
    assert not check_source(source, "repro/netsim/nic.py").ok


# -- flow-control state machines (PR 4 counters/fields) -----------------------

def test_bad_flowcontrol_trips_every_rule():
    report = run_fixture("bad_flowcontrol.py")
    codes = codes_of(report)
    assert "NM201" in codes  # window gating storage written outside window.py
    assert "NM203" in codes  # flow-control stats counter reset
    assert "NM204" in codes  # stats bump inside a strategy
    assert "NM302" in codes  # credit totals written outside flowcontrol.py
    assert "NM303" in codes  # window gating storage read
    # Both the Frame(kind=...) construction and the .kind comparison with a
    # typo'd literal are caught.
    assert codes.count("NM304") == 2
    # Credit totals, grant state and the matcher's budget gauge all flag.
    nm302 = [v for v in report.violations if v.code == "NM302"]
    assert len(nm302) >= 3


def test_good_flowcontrol_is_clean():
    report = run_fixture("good_flowcontrol.py")
    assert report.ok, codes_of(report)


# -- session state machines (PR 5 counters/fields) ----------------------------

def test_bad_sessions_trips_every_rule():
    report = run_fixture("bad_sessions.py")
    codes = codes_of(report)
    assert "NM203" in codes  # session stats counter reset
    assert "NM204" in codes  # stats bump inside a strategy
    assert "NM302" in codes  # session state written outside sessions.py
    # Both the Frame(kind=...) construction and the .kind comparison with a
    # typo'd literal are caught.
    assert codes.count("NM304") == 2
    # Handshake state, the incarnation fence and the liveness clock all flag.
    nm302 = [v for v in report.violations if v.code == "NM302"]
    assert len(nm302) >= 3


def test_good_sessions_is_clean():
    report = run_fixture("good_sessions.py")
    assert report.ok, codes_of(report)


# -- chaos-package boundary (PR 6: NM305 + chaos fault kinds) -----------------

def test_bad_chaos_trips_private_reads_and_kind_typo():
    report = run_fixture("bad_chaos.py")
    codes = codes_of(report)
    # Two layer-private reads outside audit.py, one typo'd fault kind.
    assert codes.count("NM305") == 2
    assert codes.count("NM304") == 1


def test_bad_chaos_audit_trips_mutations_only():
    report = run_fixture("bad_chaos_audit.py")
    codes = codes_of(report)
    # The private *read* is sanctioned in audit.py; both writes flag.
    assert "NM302" in codes  # flow-control owns its cumulative totals
    assert codes.count("NM305") == 1  # private write, even from the auditor


def test_good_chaos_is_clean():
    report = run_fixture("good_chaos.py")
    assert report.ok, codes_of(report)


# -- event-loop hygiene (NM4xx) -----------------------------------------------

def test_bad_blocking_trips_open_sleep_and_print():
    report = run_fixture("bad_blocking.py")
    assert codes_of(report).count("NM401") == 3


def test_good_blocking_is_clean():
    report = run_fixture("good_blocking.py")
    assert report.ok, codes_of(report)


def test_bad_emitgate_trips_every_unguarded_emit():
    report = run_fixture("bad_emitgate.py")
    assert codes_of(report) == ["NM402"] * 5


def test_good_emitgate_is_clean():
    report = run_fixture("good_emitgate.py")
    assert report.ok, codes_of(report)


def test_emitgate_binds_madmpi_but_not_the_bench_layer():
    source = "def f(tracer):\n    tracer.emit(0.0, 'x', 'y')\n"
    assert codes_of(check_source(source, "repro/madmpi/x.py")) == ["NM402"]
    assert check_source(source, "repro/bench/x.py").ok


# -- scoping ------------------------------------------------------------------

@pytest.mark.parametrize("vpath", [
    "repro/bench/outside.py",
    "tools/analysis/outside.py",
])
def test_blocking_rules_do_not_apply_outside_the_core(vpath, tmp_path):
    src = (FIXTURES / "bad_blocking.py").read_text(encoding="utf-8")
    src = src.replace("# nm-path: repro/core/fixture_bad_blocking.py",
                      f"# nm-path: {vpath}")
    mod = tmp_path / "relocated.py"
    mod.write_text(src, encoding="utf-8")
    report = check_file(str(mod), root=str(tmp_path))
    assert report.ok, codes_of(report)


def test_baselines_may_reuse_transition_field_names(tmp_path):
    # NM302 is scoped to repro/core + repro/madmpi: the baseline models keep
    # local state machines whose fields share names with the engine's.
    mod = tmp_path / "baseline.py"
    mod.write_text(
        "# nm-path: repro/baselines/fixture_local_state.py\n"
        "def advance(state, n):\n"
        "    state.next_offset += n\n"
        "    state.received += n\n",
        encoding="utf-8",
    )
    report = check_file(str(mod), root=str(tmp_path))
    assert report.ok, codes_of(report)


def test_window_module_itself_may_touch_its_storage(tmp_path):
    mod = tmp_path / "window.py"
    mod.write_text(
        "# nm-path: repro/core/window.py\n"
        "class OptimizationWindow:\n"
        "    def reset(self):\n"
        "        self._count = 0\n"
        "        self._total_bytes = 0\n",
        encoding="utf-8",
    )
    report = check_file(str(mod), root=str(tmp_path))
    assert report.ok, codes_of(report)
