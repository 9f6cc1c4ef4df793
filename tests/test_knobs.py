"""Every ``EngineParams`` field is a declared knob, and validation is total.

The module walks ``dataclasses.fields(EngineParams)``, so a knob added
later is covered without editing it: every scalar field must carry a
``knob()`` declaration, and every declaration must hold at construction —
non-finite numbers, values past a declared bound and unknown mode strings
all fail with :class:`ValueError`, never mid-run.  A knob exists only if a
caller outside the tests sets it: what only tests turn is a module
constant they patch.  The chaos harness's :class:`~repro.chaos.ChaosSpec`
is held to the same rule.
"""

import ast
import math
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from repro.chaos import ChaosSpec
from repro.core import EngineParams
from repro.core.rttstat import RttEstimator
from repro.core.strategies import AdaptiveStrategy, AggregationStrategy

NAN, INF = float("nan"), float("inf")

KNOBS = [(f.name, f.metadata["knob"], f.default)
         for f in fields(EngineParams) if "knob" in f.metadata]
NUMERIC = [k for k in KNOBS if k[1].numeric]
BOUNDED = [k for k in NUMERIC if k[1].lo is not None or k[1].gt is not None]
MODES = [k for k in KNOBS if k[1].choices]

#: Deleted knobs: the NACK-and-resend overflow path's two (the credit budget
#: bounds the eager buffer alone), the progress watchdog's period (the
#: kernel's deadlock and livelock reports carry its per-peer dump), four
#: host costs only tests turned (now a copy on every eager receive,
#: ``transfer.DEMUX_*_COST_US`` and ``transfer.PULL_COST_US``), the
#: bounded window's three (the paper's window is unbounded; credit bounds
#: what a receiver buffers), and six only tests turned: the credit budget
#: and grant delay (``flowcontrol.CREDIT_*``), the quarantine threshold
#: (``reliability.QUARANTINE_THRESHOLD``), the probe delay (always
#: ``reliability.PROBE_AFTER_RTOS`` base RTOs) and the RTO ceiling
#: (``rttstat.RTO_CEILING_US``; the cold RTO comes from the rails). Each
#: keeps its case in the per-knob checks below, where it must now be
#: refused as an unknown name.
RETIRED = ["max_unexpected_bytes", "nack_delay_us", "watchdog_interval_us",
           "eager_copy_on_recv", "demux_packet_cost_us",
           "demux_item_cost_us", "pull_cost_us", "max_window_wraps",
           "max_window_bytes", "window_policy", "credit_bytes",
           "credit_wraps", "credit_grant_delay_us",
           "rel_quarantine_threshold", "rel_probe_after_us",
           "rel_rto_ceiling_us"]

#: Where the non-test callers live, relative to the repository root.
CALLER_ROOTS = ("src/repro", "benchmarks", "examples")

#: What a value needs from the other fields to pass the cross-field rules.
CONTEXT = {
    "tail": {"reliability": "ack"},
}


def with_retired(knobs):
    """Cases for ``knobs`` plus one per retired knob (spec ``None``)."""
    return ([pytest.param(*k, id=k[0]) for k in knobs]
            + [pytest.param(name, None, None, id=name) for name in RETIRED])


def retired(name, value):
    """A retired knob has no declaration and is not a constructor argument."""
    assert name not in {f.name for f in fields(EngineParams)}
    with pytest.raises(TypeError):
        EngineParams(**{name: value})


def rejected(name, value, **context):
    """Construct with ``name=value``; the declaration of ``name`` must be
    what refuses it (not some cross-field rule)."""
    with pytest.raises(ValueError) as exc:
        EngineParams(**context, **{name: value})
    message = str(exc.value)
    assert name in message or name.replace("_", " ") in message, message


def test_every_scalar_field_is_a_knob():
    for f in fields(EngineParams):
        if f.default is MISSING:
            # Only a compound value (the header sizes) is built by a factory.
            assert f.default_factory is not MISSING, f.name
        else:
            assert "knob" in f.metadata, f"{f.name} is not declared with knob()"


@pytest.mark.parametrize("name, spec, default", with_retired(KNOBS))
def test_default_passes_its_own_declaration(name, spec, default):
    if spec is None:
        retired(name, 0)
        return
    spec.check(name, default)


@pytest.mark.parametrize("name, spec, default", with_retired(KNOBS))
def test_non_finite_values_are_rejected(name, spec, default):
    if spec is None:
        for value in (NAN, -INF, INF):
            retired(name, value)
        return
    for value in (NAN, -INF, INF):
        rejected(name, value)


@pytest.mark.parametrize("name, spec, default", with_retired(BOUNDED))
def test_first_value_past_the_bound_is_rejected(name, spec, default):
    if spec is None:
        retired(name, -1)
        return
    if spec.lo is not None:
        below = (spec.lo - 1 if isinstance(default, int)
                 else math.nextafter(spec.lo, -INF))
        rejected(name, below)
        assert getattr(EngineParams(**{name: spec.lo}), name) == spec.lo
    if spec.gt is not None:
        rejected(name, spec.gt)


@pytest.mark.parametrize("name, spec, default", with_retired(MODES))
def test_mode_fields_accept_their_choices_and_nothing_else(
        name, spec, default):
    if spec is None:
        retired(name, "bogus")
        return
    rejected(name, "bogus")
    for choice in spec.choices:
        params = EngineParams(**CONTEXT.get(choice, {}), **{name: choice})
        assert getattr(params, name) == choice


@pytest.mark.parametrize("removed", [
    {"rel_backoff": 2.0},
    {"rel_rto_headroom": 2.0},
    {"rel_rto_floor_us": 50.0},
    {"anticipated_pull_cost_us": 0.05},
    {"per_mtu_cost_us": 0.10},
    {"per_mtu_cost_by_tech": ()},
], ids=lambda kw: next(iter(kw)))
def test_removed_params_are_gone(removed):
    with pytest.raises(TypeError):
        EngineParams(**removed)


def test_removed_constructor_params_are_gone():
    with pytest.raises(TypeError):
        AggregationStrategy(max_items=4)
    with pytest.raises(TypeError):
        AggregationStrategy(scan_past_blockage=False)
    with pytest.raises(TypeError):
        AdaptiveStrategy(backlog_watermark=2)
    with pytest.raises(TypeError):
        RttEstimator(ceiling_us=100.0, floor_us=50.0, headroom=2.0)


def names_set_by_callers():
    """Every name a non-test caller could hand to ``EngineParams``: call
    keywords, plus string keys of mappings later splatted with ``**``
    (dict literals and ``mapping["key"] = ...`` stores)."""
    root = Path(__file__).resolve().parent.parent
    names = set()
    for top in CALLER_ROOTS:
        for path in sorted((root / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call):
                    names.update(k.arg for k in node.keywords if k.arg)
                elif isinstance(node, ast.Dict):
                    names.update(k.value for k in node.keys
                                 if isinstance(k, ast.Constant))
                elif (isinstance(node, ast.Subscript)
                      and isinstance(node.ctx, ast.Store)
                      and isinstance(node.slice, ast.Constant)):
                    names.add(node.slice.value)
    return names


def test_every_knob_is_set_outside_the_tests():
    fields_ = {f.name for f in fields(EngineParams)}
    assert fields_ - names_set_by_callers() == set(), (
        "a knob only tests set becomes a module constant they patch")
    assert len(fields_) == 13


# -- ChaosSpec, the chaos harness's config object ---------------------------

#: Fields no caller outside the tests set: harness constants now, or the
#: engine timers that ``repro.chaos.HARDENED`` declares once.
CHAOS_RETIRED = ["n_nodes", "msg_min_bytes", "send_gap_us", "min_faults",
                 "settle_us", "max_resends", "hb_interval_us", "hb_timeout_us",
                 "rel_timeout_us", "rel_retry_budget", "rel_rto_ceiling_us",
                 "adaptive"]


def test_every_chaos_spec_field_is_set_outside_the_tests():
    fields_ = {f.name for f in fields(ChaosSpec)}
    assert fields_ - names_set_by_callers() == set()
    # The engine's own knobs live in EngineParams alone.
    assert fields_ & {f.name for f in fields(EngineParams)} == set()


@pytest.mark.parametrize("name", CHAOS_RETIRED)
def test_retired_chaos_spec_fields_are_refused(name):
    assert name not in {f.name for f in fields(ChaosSpec)}
    with pytest.raises(TypeError):
        ChaosSpec(**{name: 1})
