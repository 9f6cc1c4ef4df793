"""Checks on the macro-benchmark itself (not part of tier-1).

Run as ``PYTHONPATH=src python -m pytest benchmarks/macro -q``.  Everything
runs ``--quick`` (a tenth of the phases), through the same command line the
benchmark contract uses.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import layers   # noqa: E402
import run      # noqa: E402

SPEC = run.Spec()


def _contract(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--quick"],
        check=True, capture_output=True, text=True, timeout=170).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("workload", SPEC.workloads)
def test_same_seed_repeats_exactly_and_names_every_metric(workload):
    first = _contract(workload, 1, trace=1)
    second = _contract(workload, 1, trace=1)
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == set(SPEC.per_layer)
    for name, spec in SPEC.per_layer.items():
        assert first["metrics"][name]["unit"] == spec["unit"]
        if run.clock_of(name) != "host":   # simulated time and counts
            assert first["metrics"][name]["value"] == \
                second["metrics"][name]["value"], name

    timed = _contract(workload, 1, trace=0)
    assert timed["correct"] and timed["attempted"] >= 1
    assert set(timed["metrics"]) == set(SPEC.end_to_end)
    for name, spec in SPEC.end_to_end.items():
        assert timed["metrics"][name]["unit"] == spec["unit"]
        assert timed["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", SPEC.workloads)
def test_another_seed_changes_the_plan(workload):
    fingerprints = [run.one_run(workload, seed, quick=True)["plan_fingerprint"]
                    for seed in (1, 2)]
    assert fingerprints[0] != fingerprints[1]


def test_metric_and_workload_names_are_plain():
    names = SPEC.workloads + list(SPEC.end_to_end) + list(SPEC.per_layer)
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_every_source_file_has_exactly_one_layer():
    """A new module must not silently fall into ``harness``."""
    for package in ("core", "sim", "netsim", "madmpi"):
        root = os.path.join(layers.REPRO_ROOT, package)
        for dirpath, _dirs, files in os.walk(root):
            for fname in files:
                if fname.endswith(".py"):
                    rel = os.path.relpath(os.path.join(dirpath, fname),
                                          layers.REPRO_ROOT)
                    assert len(layers.layers_of(rel)) == 1, rel
