"""Every ``EngineParams`` field is a declared knob, and validation is total.

The module walks ``dataclasses.fields(EngineParams)``, so a knob added
later is covered without editing it: every scalar field must carry a
``knob()`` declaration, and every declaration must hold at construction —
non-finite numbers, values past a declared bound and unknown mode strings
all fail with :class:`ValueError`, never mid-run.  A knob exists only if a
caller outside the tests sets it, or :data:`TEST_ONLY` says why not.
"""

import ast
import io
import math
import signal
import time
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from repro.cli import main
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
#: ``transfer.DEMUX_*_COST_US`` and ``transfer.PULL_COST_US``) and the
#: bounded window's three (the paper's window is unbounded; credit bounds
#: what a receiver buffers). Each keeps its case in the per-knob checks
#: below, where it must now be refused as an unknown name.
RETIRED = ["max_unexpected_bytes", "nack_delay_us", "watchdog_interval_us",
           "eager_copy_on_recv", "demux_packet_cost_us",
           "demux_item_cost_us", "pull_cost_us", "max_window_wraps",
           "max_window_bytes", "window_policy"]

#: Knobs no caller outside the tests sets, each with the reason it stays.
#: Any other field must be set somewhere under :data:`CALLER_ROOTS`.
TEST_ONLY = {
    "credit_bytes": "tests shrink it to provoke credit stalls at small scale",
    "credit_wraps": "tests shrink it to provoke credit stalls at small scale",
    "credit_grant_delay_us": "tests stretch it to provoke grant coalescing",
    "rel_quarantine_threshold": "tests lower it to quarantine a rail quickly",
    "rel_probe_after_us": "tests shorten it to probe a quarantined rail",
}

#: Where the non-test callers live, relative to the repository root.
CALLER_ROOTS = ("src/repro", "benchmarks", "examples")

#: What a value needs from the other fields to pass the cross-field rules.
CONTEXT = {
    "auto": {"reliability": "ack"},
    "tail": {"reliability": "ack", "rel_timeout_us": "auto"},
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
    rejected(name, NAN)
    rejected(name, -INF)
    if spec.inf_ok:
        assert getattr(EngineParams(**{name: INF}), name) == INF
    else:
        rejected(name, INF)


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


def test_report_rejects_a_nan_timeout_instead_of_livelocking():
    # A NaN retransmit deadline used to re-arm a zero-delay retry timer
    # forever; the alarm turns a regression into a failure, not a hang.
    def hung(signum, frame):
        raise AssertionError("report --rel-timeout nan did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        start = time.perf_counter()
        with pytest.raises(SystemExit, match="invalid engine configuration"):
            main(["report", "--reliability", "ack", "--rel-timeout", "nan"],
                 out=io.StringIO())
        assert time.perf_counter() - start < 1.0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


def test_every_knob_is_set_outside_the_tests_or_says_why_not():
    fields_ = {f.name for f in fields(EngineParams)}
    assert set(TEST_ONLY) <= fields_, set(TEST_ONLY) - fields_
    set_by_callers = names_set_by_callers()
    assert fields_ - set_by_callers == set(TEST_ONLY), (
        "a knob only tests set needs a TEST_ONLY reason (or a constant); "
        "a TEST_ONLY knob a caller now sets leaves the table")
