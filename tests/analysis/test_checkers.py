"""Per-checker tests: each bad fixture trips, each good fixture is clean."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from tools.analysis.engine import check_file, check_source
from tools.analysis.interproc import check_project

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


# -- window counters and monotonic stats (NM302 window row, NM203) -----------

def test_bad_counters_trips_window_storage_write():
    report = run_fixture("bad_counters.py")
    # The write is the ownership table's window row; the .clear() reads.
    assert codes_of(report) == ["NM302", "NM303"]


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
    assert "NM301" in codes  # Event kernel-private read
    assert "NM302" in codes  # owned field written outside its owner
    assert "NM303" in codes  # window-private read
    # Both Event fields, both rendezvous fields and both request fields.
    nm302 = [v for v in report.violations if v.code == "NM302"]
    assert len(nm302) == 6


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
    assert "NM203" in codes  # flow-control stats counter reset
    assert "NM302" in codes  # credit totals and window gating storage
    assert "NM303" in codes  # window gating storage read
    # Credit totals, grant state, the matcher's budget gauge and the
    # window's gate all flag.
    nm302 = [v for v in report.violations if v.code == "NM302"]
    assert len(nm302) >= 4


def test_good_flowcontrol_is_clean():
    report = run_fixture("good_flowcontrol.py")
    assert report.ok, codes_of(report)


# -- session state machines (PR 5 counters/fields) ----------------------------

def test_bad_sessions_trips_every_rule():
    report = run_fixture("bad_sessions.py")
    codes = codes_of(report)
    assert "NM203" in codes  # session stats counter reset
    assert "NM302" in codes  # session state written outside sessions.py
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


# -- the sabotage record ------------------------------------------------------

#: Why each surviving rule exists: (code, module, old, new).  ``new`` plants
#: the rule's defect in the live module it protects, on a path that tier-1,
#: ``repro sanitize --figures --chaos`` and ``repro chaos --seeds 10 --quick``
#: all miss (docs/STATIC_ANALYSIS.md, "The verdict table").  When a module
#: drifts so that ``old`` no longer occurs once, re-plant the sabotage,
#: re-run those three checks on it, and refresh the row and the table.
SABOTAGES = [
    ("NM101", "repro/netsim/fabric.py",
     'self.tracer.emit(self.sim.now, self.name, "switch_down")',
     'import time; self.tracer.emit(time.monotonic(), self.name, '
     '"switch_down")'),
    ("NM102", "repro/core/reliability.py",
     "backoff = self._probe_backoff.get(rail, base)",
     "import random; backoff = self._probe_backoff.get(rail, base) "
     "* random.uniform(1.0, 1.5)"),
    ("NM103", "repro/core/rendezvous.py",
     "for handle in [h for h, s in self._pending.items()\n"
     "                       if s.wrap.dest == peer]:",
     "for handle in {h for h, s in self._pending.items()\n"
     "                       if s.wrap.dest == peer}:"),
    ("NM203", "repro/core/transfer.py",
     "        stats.wire_bytes += wire", "        stats.wire_bytes = wire"),
    ("NM301", "repro/netsim/fabric.py",
     "self.generation += 1", "self.generation += 1; self.sim.now += 1.0"),
    ("NM301", "repro/core/rendezvous.py",
     "if not state.req.triggered:", "if not state.req._callbacks:"),
    ("NM302", "repro/core/flowcontrol.py",
     "self.engine.window.unblock_dest(peer)",
     "self.engine.window._blocked_dests = set()"),
    ("NM302", "repro/core/rendezvous.py",
     "state.req.fail_observed(exc)",
     "state.req._ok = False; state.req._value = exc"),
    ("NM302", "repro/core/reliability.py",
     "self._transfer.readmit(rail)", "self._transfer.quarantined = set()"),
    ("NM303", "repro/core/engine.py",
     "blocked = self.window.blocked_dests()",
     "blocked = list(self.window._blocked_dests)"),
    ("NM304", "repro/chaos/runner.py",
     'if fault.kind == "rack_partition":', 'if fault.kind == "rack_partiton":'),
    ("NM305", "repro/chaos/runner.py",
     'drained = sim.peek() == float("inf")', "drained = not sim._heap"),
    ("NM305", "repro/chaos/audit.py",
     "for peer, ledger in sorted(fc._peers.items()):",
     "for peer, ledger in sorted(fc._peers.items()):\n"
     "            fc._peers = dict(fc._peers)"),
    ("NM401", "repro/netsim/fabric.py",
     "self.generation += 1",
     'self.generation += 1; print(f"{self.name}: down at {self.sim.now}us")'),
    ("NM402", "repro/netsim/fabric.py",
     "if self.tracer.enabled:\n"
     '            self.tracer.emit(self.sim.now, self.name, "switch_down")',
     'self.tracer.emit(self.sim.now, self.name, "switch_down")'),
    ("NM501", "repro/core/reliability.py",
     "self._transfer.readmit(rail)",
     "self._transfer.quarantined.discard(rail)"),
]


@pytest.mark.parametrize(
    "code, module, old, new", SABOTAGES,
    ids=[f"{code}-{module.rsplit('/', 1)[1][:-3]}"
         for code, module, *_ in SABOTAGES])
def test_recorded_sabotage_trips_its_rule(code, module, old, new, tmp_path):
    source = (REPO_ROOT / "src" / module).read_text(encoding="utf-8")
    assert source.count(old) == 1, f"{module} drifted: refresh the record"
    sabotaged = source.replace(old, new)
    if code == "NM501":
        tree = tmp_path / "src" / "repro"
        shutil.copytree(REPO_ROOT / "src" / "repro", tree,
                        ignore=shutil.ignore_patterns("__pycache__"))
        (tmp_path / "src" / module).write_text(sabotaged, encoding="utf-8")
        report = check_project([str(tree)], root=str(tmp_path))
    else:
        assert code not in codes_of(check_source(source, module))
        report = check_source(sabotaged, module)
    assert code in codes_of(report)
