"""Deterministic chaos engine: seeded fault schedules, an invariant
auditor, and a greedy schedule shrinker.

The subsystem has three moving parts, each its own module:

* :mod:`repro.chaos.schedule` — :data:`HARDENED` (the one engine
  configuration every run drives), :class:`ChaosSpec` (workload size,
  fault density and fabric)
  and :func:`generate_schedule`, which expands a seed into a concrete
  list of :class:`ChaosFault` records (drops, bursts, corruption, slow
  links, duplicates, reorders, jitter, partitions, crash/restarts);
* :mod:`repro.chaos.runner` — :func:`run_chaos` /
  :func:`run_schedule`, which build a two-node cluster, install the
  faults, drive a seeded message workload through that configuration
  and hand the quiesced world to the auditor;
* :mod:`repro.chaos.audit` — the post-run invariant auditor (byte
  conservation, exactly-once delivery, credit-ledger balance, no stuck
  requests, no live timers after quiesce, stats-ledger consistency);
* :mod:`repro.chaos.shrink` — :func:`shrink_schedule`, a greedy
  minimizer that strips a failing schedule down to the smallest fault
  list that still fails and emits a standalone repro snippet.

Everything is a pure function of ``(seed, spec)``: the same seed always
produces the same schedule, the same event stream and the same audit
verdict (``python -m repro chaos --seed S`` is bit-deterministic).
"""

from repro.chaos.audit import Finding, audit_run
from repro.chaos.runner import ChaosReport, run_chaos, run_schedule
from repro.chaos.schedule import (
    FAULT_KINDS,
    HARDENED,
    ChaosFault,
    ChaosSpec,
    generate_schedule,
)
from repro.chaos.shrink import ShrinkResult, shrink_schedule

__all__ = [
    "FAULT_KINDS",
    "HARDENED",
    "ChaosFault",
    "ChaosSpec",
    "ChaosReport",
    "Finding",
    "ShrinkResult",
    "audit_run",
    "generate_schedule",
    "run_chaos",
    "run_schedule",
    "shrink_schedule",
]
