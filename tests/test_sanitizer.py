"""Determinism sanitizer: spec parsing, kernel hooks, planted fixtures."""

from __future__ import annotations

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.sim._sanitize_fixtures import batch_order_engine
from repro.sim.core import Simulator
from repro.sim.sanitizer import (
    SANITIZE_ENV,
    SanitizeConfig,
    active_sanitizer,
    parse_sanitize_spec,
    storm_fingerprint,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


# -- spec parsing --------------------------------------------------------------

def test_empty_spec_means_not_sanitizing():
    assert parse_sanitize_spec("") is None
    assert parse_sanitize_spec("   ") is None


def test_spec_round_trips_through_config():
    for config in (
        SanitizeConfig(no_coalesce=True),
        SanitizeConfig(shake_seed=7),
        SanitizeConfig(no_coalesce=True, shake_seed=3),
        SanitizeConfig(trace=True),
        SanitizeConfig(no_coalesce=True, trace=True),
    ):
        assert parse_sanitize_spec(config.spec()) == config


def test_unknown_token_raises_instead_of_silently_passing():
    with pytest.raises(ValueError, match="nocoalesce"):
        parse_sanitize_spec("nocoalesec")
    with pytest.raises(ValueError):
        parse_sanitize_spec("shake")  # missing :SEED


def test_active_sanitizer_reads_the_environment(monkeypatch):
    monkeypatch.delenv(SANITIZE_ENV, raising=False)
    assert active_sanitizer() is None
    monkeypatch.setenv(SANITIZE_ENV, "nocoalesce,shake:9")
    assert active_sanitizer() == SanitizeConfig(no_coalesce=True,
                                                shake_seed=9)


# -- default-off guarantee -----------------------------------------------------

def test_plain_simulator_is_not_sanitized(monkeypatch):
    monkeypatch.delenv(SANITIZE_ENV, raising=False)
    sim = Simulator()
    assert sim._no_coalesce is False
    assert sim._shake_rng is None


def test_explicit_config_wins_over_the_environment(monkeypatch):
    monkeypatch.setenv(SANITIZE_ENV, "shake:1")
    sim = Simulator(sanitize=SanitizeConfig(no_coalesce=True))
    assert sim._no_coalesce is True
    assert sim._shake_rng is None


def test_trace_token_switches_default_tracers_on_and_drops_records(
        monkeypatch):
    from repro.sim import Tracer

    monkeypatch.delenv(SANITIZE_ENV, raising=False)
    assert Tracer().enabled is False
    monkeypatch.setenv(SANITIZE_ENV, "trace")
    forced = Tracer()
    forced.emit(1.0, "x", "k")
    assert forced.enabled and len(forced) == 0
    asked = Tracer(enabled=True)     # its owner wants the records
    asked.emit(1.0, "x", "k")
    assert len(asked) == 1
    assert Simulator()._no_coalesce is False   # the kernel is untouched


# -- equivalence on a clean workload -------------------------------------------

def test_storm_fingerprint_is_invariant_across_sanitize_configs():
    configs = [
        None,
        SanitizeConfig(no_coalesce=True),
        SanitizeConfig(shake_seed=1),
        SanitizeConfig(shake_seed=2),
        SanitizeConfig(no_coalesce=True, shake_seed=3),
    ]
    prints = {storm_fingerprint(c, rounds=10) for c in configs}
    assert len(prints) == 1, \
        f"order-insensitive storm diverged under sanitize: {prints}"


# -- planted fixtures: the detector must detect --------------------------------

def test_batch_fixture_diverges_under_shake():
    outputs = {batch_order_engine(None)}
    for seed in (1, 2, 3):
        outputs.add(batch_order_engine(SanitizeConfig(shake_seed=seed)))
    assert len(outputs) > 1, \
        "shake failed to perturb the intra-timestamp order bug"


def test_batch_fixture_is_stable_without_shake():
    assert batch_order_engine(None) == batch_order_engine(None)
    # Plain de-batching does not reorder: the bug is order *sensitivity*,
    # and nocoalesce alone preserves FIFO within the timestamp.
    no_coalesce = SanitizeConfig(no_coalesce=True)
    assert batch_order_engine(no_coalesce) == batch_order_engine(None)


def test_hash_fixture_diverges_across_hash_seeds():
    cmd = [sys.executable, "-c",
           "from repro.sim._sanitize_fixtures import hash_order_engine;"
           "print(hash_order_engine())"]
    outputs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout.strip())
    assert len(outputs) > 1, \
        "set iteration should follow PYTHONHASHSEED; fixture went inert"


# -- CLI roundtrip -------------------------------------------------------------

def test_cli_sanitize_storm_passes():
    out = io.StringIO()
    rc = main(["sanitize", "--storm", "--hash-seeds", "3"], out=out)
    text = out.getvalue()
    assert rc == 0, text
    assert "SANITIZE FAIL" not in text
    assert "DETECTED" in text  # both planted fixtures must be caught


def test_cli_sanitize_trace_compares_both_targets_with_tracing_on():
    out = io.StringIO()
    rc = main(["sanitize", "--trace"], out=out)
    text = out.getvalue()
    assert rc == 0, text
    assert "trace hook switches a default Tracer on" in text
    assert "figures: byte-identical" in text and "chaos: byte-identical" in text
    assert text.count("+ tracing on") == 2
