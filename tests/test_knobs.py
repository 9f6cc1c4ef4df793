"""Every ``EngineParams`` field is a declared knob, and validation is total.

The module walks ``dataclasses.fields(EngineParams)``, so a knob added
later is covered without editing it: every scalar field must carry a
``knob()`` declaration, and every declaration must hold at construction —
non-finite numbers, values past a declared bound and unknown mode strings
all fail with :class:`ValueError`, never mid-run.
"""

import io
import math
import signal
import time
from dataclasses import MISSING, fields

import pytest

from repro.cli import main
from repro.core import EngineParams
from repro.core.rttstat import RttEstimator
from repro.core.strategies import AdaptiveStrategy, AggregationStrategy
from repro.sim import Simulator
from repro.sim.core import Watchdog

NAN, INF = float("nan"), float("inf")

KNOBS = [(f.name, f.metadata["knob"], f.default)
         for f in fields(EngineParams) if "knob" in f.metadata]
NUMERIC = [k for k in KNOBS if k[1].numeric]
BOUNDED = [k for k in NUMERIC if k[1].lo is not None or k[1].gt is not None]
MODES = [k for k in KNOBS if k[1].choices]

#: Knobs deleted with the NACK-and-resend overflow path (the credit budget
#: bounds the eager buffer alone). Each keeps its case in the per-knob checks
#: below, where it must now be refused as an unknown name.
RETIRED = ["max_unexpected_bytes", "nack_delay_us"]

#: What a value needs from the other fields to pass the cross-field rules.
CONTEXT = {
    "auto": {"reliability": "ack"},
    "tail": {"reliability": "ack", "rel_timeout_us": "auto"},
}


def ids(knobs):
    return [name for name, _, _ in knobs]


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


@pytest.mark.parametrize("name, spec, default", MODES, ids=ids(MODES))
def test_mode_fields_accept_their_choices_and_nothing_else(
        name, spec, default):
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
    with pytest.raises(TypeError):
        Watchdog(Simulator(), 10.0, progress=lambda: 0, active=lambda: True,
                 diagnose=lambda: "", patience=2)


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
