"""The host-perf gate (``repro perf --check``) and the benches behind it.

``check_bench`` is driven with synthetic payloads, so every verdict here
is deterministic: nothing asserts on a wall-clock reading.
"""

from __future__ import annotations

import copy

import pytest

from repro.bench.perf import (
    SCHEMA,
    bench_event_loop,
    bench_kernel_storm,
    bench_object_census,
    bench_pingpong,
    bench_random_traffic,
    bench_window_ops,
    calibrate,
    check_bench,
    render_perf,
    run_suite,
)
from repro.bench.scale import bench_scale
from repro.errors import ReproError


def _payload() -> dict:
    """A plausible full-shape suite run (numbers of the order measured)."""
    cal_s = 0.125
    results = {
        "window_ops": {"backlog": 1000, "rounds": 5000, "wall_s": 0.02,
                       "ops_per_s": 250_000.0, "shallow_backlog": 100,
                       "shallow_ops_per_s": 290_000.0},
        "event_loop": {"events": 200_000, "wall_s": 0.2,
                       "events_per_s": 1_000_000.0},
        "kernel_storm": {"rounds": 600, "fanout": 1024, "stragglers": 8,
                         "completions": 619_200, "wall_s": 0.04,
                         "events_per_s": 16_000_000.0},
        "pingpong": {"iters": 200, "size": 1024, "wall_s": 0.03,
                     "exchanges_per_s": 6000.0,
                     "sim_us_oneway": 5.082577777777872,
                     "calls_per_msg": 242.56, "events_per_msg": 9.51},
        "random_traffic": {"messages": 300, "seed": 7, "wall_s": 0.015,
                           "messages_per_s": 20_000.0,
                           "sim_us_makespan": 8685.436,
                           "calls_per_msg": 166.81,
                           "events_per_msg": 10.21},
        "object_census": {"messages": 400, "objects_per_msg": 4.0,
                          "retained_bytes_per_msg": 625.34,
                          "cyclic_garbage_per_msg": 0.0},
        "scale": {"n_nodes": 256, "n_frames": 20_000, "seed": 11,
                  "delivered": 20_000, "forwarded": 60_571,
                  "events": 342_283, "wall_s": 1.5,
                  "events_per_s": 230_000.0,
                  "sim_us_makespan": 258.66414708642554},
    }
    for res in results.values():
        for key in [k for k in res if k.endswith("_per_s")]:
            res[key[:-1] + "cal"] = res[key] * cal_s
    return {"schema": SCHEMA, "python": "3.11.7", "quick": False,
            "calibration_s": cal_s, "results": results}


def _slowed(payload: dict, bench: str, key: str, factor: float) -> dict:
    """``payload`` with one rate (and its per-calibration sibling) scaled."""
    out = copy.deepcopy(payload)
    res = out["results"][bench]
    res[key] *= factor
    res[key[:-1] + "cal"] *= factor
    return out


class TestCheckBench:
    def test_identical_run_passes_with_nothing_skipped(self):
        assert check_bench(_payload(), _payload()) == ([], [])

    def test_rate_drop_within_tolerance_passes(self):
        fresh = _slowed(_payload(), "pingpong", "exchanges_per_s", 0.6)
        assert check_bench(fresh, _payload()) == ([], [])

    def test_rate_drop_beyond_tolerance_fails(self):
        fresh = _slowed(_payload(), "pingpong", "exchanges_per_s", 0.4)
        failures, skipped = check_bench(fresh, _payload())
        assert len(failures) == 1 and not skipped
        assert "pingpong: exchanges_per_cal" in failures[0]
        # The same drop passes a looser tolerance: the bound is the knob.
        assert check_bench(fresh, _payload(), tolerance=0.7) == ([], [])

    def test_a_slower_host_is_not_a_regression(self):
        # Every rate halves and the calibration job takes twice as long:
        # the per-calibration rates are unchanged, so the gate passes.
        fresh = _payload()
        fresh["calibration_s"] *= 2
        for res in fresh["results"].values():
            for key in [k for k in res if k.endswith("_per_s")]:
                res[key] /= 2
                res[key[:-1] + "cal"] = res[key] * fresh["calibration_s"]
        assert check_bench(fresh, _payload()) == ([], [])

    def test_storm_below_ten_times_serial_fails(self):
        # A kernel paying a push and a pop per completion: storm ~ serial.
        fresh = _slowed(_payload(), "kernel_storm", "events_per_s", 0.55)
        failures, _ = check_bench(fresh, _payload())
        assert any("kernel_storm" in f and "10x floor" in f for f in failures)
        # ...and the floor is absolute: recording the slow storm as the
        # baseline does not make it pass.
        failures, _ = check_bench(fresh, fresh)
        assert len(failures) == 1 and "10x floor" in failures[0]

    def test_window_rate_that_falls_with_backlog_fails(self):
        # An O(n) ``take``: ops/s at backlog 1000 is a fraction of the rate
        # at backlog 100 (the seed's deque window measured 0.11).
        fresh = _slowed(_payload(), "window_ops", "ops_per_s", 0.2)
        failures, _ = check_bench(fresh, fresh)
        assert len(failures) == 1
        assert "window_ops" in failures[0] and "0.5x floor" in failures[0]

    def test_moved_simulated_pin_fails(self):
        for bench, key in (("pingpong", "sim_us_oneway"),
                           ("random_traffic", "sim_us_makespan"),
                           ("scale", "sim_us_makespan")):
            fresh = _payload()
            fresh["results"][bench][key] += 1e-9
            failures, skipped = check_bench(fresh, _payload())
            assert len(failures) == 1 and not skipped
            assert f"{bench}: {key} drifted" in failures[0]

    def test_calls_per_message_may_fall_but_not_rise_past_two_percent(self):
        for bench in ("pingpong", "random_traffic"):
            fresh = _payload()
            fresh["results"][bench]["calls_per_msg"] *= 0.8
            assert check_bench(fresh, _payload()) == ([], [])
            fresh["results"][bench]["calls_per_msg"] = \
                _payload()["results"][bench]["calls_per_msg"] * 1.019
            assert check_bench(fresh, _payload()) == ([], [])
            fresh["results"][bench]["calls_per_msg"] = \
                _payload()["results"][bench]["calls_per_msg"] * 1.021
            failures, skipped = check_bench(fresh, _payload())
            assert len(failures) == 1 and not skipped
            assert f"{bench}: calls_per_msg" in failures[0]
            # A host that is merely slower cannot trip it: no tolerance knob.
            assert check_bench(fresh, _payload(), tolerance=0.9)[0] == failures

    def test_calls_per_message_is_compared_within_one_python_version(self):
        fresh = _payload()
        fresh["python"] = "3.12.1"
        fresh["results"]["pingpong"]["calls_per_msg"] *= 2
        failures, skipped = check_bench(fresh, _payload())
        assert failures == []
        assert [s.split(" is exact")[0] for s in skipped] == [
            "object_census: cyclic_garbage_per_msg",
            "object_census: objects_per_msg",
            "object_census: retained_bytes_per_msg",
            "pingpong: calls_per_msg", "random_traffic: calls_per_msg"]
        fresh["python"] = "3.11.9"   # a patch release counts the same calls
        assert len(check_bench(fresh, _payload())[0]) == 1

    def test_events_per_message_may_fall_but_not_rise_at_all(self):
        for bench in ("pingpong", "random_traffic"):
            base = _payload()["results"][bench]["events_per_msg"]
            fresh = _payload()
            fresh["results"][bench]["events_per_msg"] = base - 1.0
            assert check_bench(fresh, _payload()) == ([], [])
            # One more entry in every hundred messages: well inside the 2 %
            # the call counts get, and still a failure.
            fresh["results"][bench]["events_per_msg"] = base + 0.01
            failures, skipped = check_bench(fresh, _payload())
            assert len(failures) == 1 and not skipped
            assert f"{bench}: events_per_msg" in failures[0]
            assert "dispatches more entries per message" in failures[0]
            assert check_bench(fresh, _payload(), tolerance=0.9)[0] == failures

    def test_events_per_message_is_compared_across_python_versions(self):
        fresh = _payload()
        fresh["python"] = "3.12.1"
        fresh["results"]["pingpong"]["events_per_msg"] += 1.0
        failures, skipped = check_bench(fresh, _payload())
        assert len(failures) == 1
        assert "pingpong: events_per_msg" in failures[0]
        assert not any("events_per_msg" in s for s in skipped)

    def test_events_per_message_missing_on_one_side(self):
        # A trajectory recorded before the key existed does not gate it ...
        old = _payload()
        for bench in ("pingpong", "random_traffic"):
            del old["results"][bench]["events_per_msg"]
        fresh = _payload()
        fresh["results"]["pingpong"]["events_per_msg"] = 99.0
        assert check_bench(fresh, old) == ([], [])
        # ... a fresh run that lost it does.
        fresh = _payload()
        del fresh["results"]["pingpong"]["events_per_msg"]
        failures, _ = check_bench(fresh, _payload())
        assert len(failures) == 1
        assert "pingpong: events_per_msg None" in failures[0]

    def test_objects_per_message_may_fall_but_not_rise(self):
        fresh = _payload()
        fresh["results"]["object_census"]["objects_per_msg"] = 3.0
        assert check_bench(fresh, _payload()) == ([], [])
        # One more object kept per message is far past the 2 %.
        fresh["results"]["object_census"]["objects_per_msg"] = 5.0
        failures, skipped = check_bench(fresh, _payload())
        assert len(failures) == 1 and not skipped
        assert "object_census: objects_per_msg 5.0 > 4.08" in failures[0]
        assert check_bench(fresh, _payload(), tolerance=0.9)[0] == failures

    def test_retained_bytes_per_message_may_fall_but_not_rise(self):
        fresh = _payload()
        fresh["results"]["object_census"]["retained_bytes_per_msg"] = 601.26
        assert check_bench(fresh, _payload()) == ([], [])
        # Two more slots on each of the two requests.
        fresh["results"]["object_census"]["retained_bytes_per_msg"] = 657.34
        failures, skipped = check_bench(fresh, _payload())
        assert len(failures) == 1 and not skipped
        assert ("object_census: retained_bytes_per_msg 657.34 > 637.85"
                in failures[0])
        assert "keeps more memory allocated" in failures[0]
        assert check_bench(fresh, _payload(), tolerance=0.9)[0] == failures

    def test_any_cyclic_garbage_fails_against_a_baseline_of_none(self):
        fresh = _payload()
        fresh["results"]["object_census"]["cyclic_garbage_per_msg"] = 0.0025
        failures, skipped = check_bench(fresh, _payload())
        assert len(failures) == 1 and not skipped
        assert "object_census: cyclic_garbage_per_msg" in failures[0]
        assert "reference cycles" in failures[0]

    def test_object_counts_missing_on_one_side(self):
        # A trajectory recorded before the census existed still checks (and
        # does not gate what it never measured) ...
        old = _payload()
        del old["results"]["object_census"]
        assert check_bench(_payload(), old) == ([], [])
        old = _payload()
        del old["results"]["object_census"]["cyclic_garbage_per_msg"]
        fresh = _payload()
        fresh["results"]["object_census"]["cyclic_garbage_per_msg"] = 3.0
        assert check_bench(fresh, old) == ([], [])
        old = _payload()   # the trajectory of the commit before the byte count
        del old["results"]["object_census"]["retained_bytes_per_msg"]
        fresh = _payload()
        fresh["results"]["object_census"]["retained_bytes_per_msg"] = 9999.0
        assert check_bench(fresh, old) == ([], [])
        # ... but a fresh run that lost a count the baseline has does not.
        fresh = _payload()
        del fresh["results"]["object_census"]["objects_per_msg"]
        failures, _ = check_bench(fresh, _payload())
        assert len(failures) == 1
        assert "object_census: objects_per_msg None" in failures[0]
        fresh = _payload()
        del fresh["results"]["object_census"]["retained_bytes_per_msg"]
        failures, _ = check_bench(fresh, _payload())
        assert len(failures) == 1
        assert "object_census: retained_bytes_per_msg None" in failures[0]
        fresh = _payload()
        del fresh["results"]["object_census"]
        assert check_bench(fresh, _payload())[0] == [
            "object_census: missing from the fresh run"]

    def test_shape_mismatch_is_reported_not_compared(self):
        fresh = _slowed(_payload(), "event_loop", "events_per_s", 0.9)
        fresh["results"]["event_loop"]["events"] = 20_000
        fresh["results"]["scale"]["n_frames"] = 2_000
        fresh["results"]["scale"]["sim_us_makespan"] = 48.0
        failures, skipped = check_bench(fresh, _payload())
        assert failures == []
        assert len(skipped) == 2
        assert skipped[0].startswith("event_loop:") and "events" in skipped[0]
        assert skipped[1].startswith("scale:") and "n_frames" in skipped[1]

    def test_schema_mismatch_fails(self):
        old = _payload()
        old["schema"] = "repro-perf/1"
        failures, _ = check_bench(_payload(), old)
        assert len(failures) == 1 and "schema mismatch" in failures[0]
        assert "repro-perf/1" in failures[0]
        failures, _ = check_bench(_payload(), {})
        assert len(failures) == 1 and "schema mismatch" in failures[0]

    def test_baseline_with_nothing_to_compare_fails(self):
        failures, _ = check_bench(_payload(), {"schema": SCHEMA})
        assert len(failures) == 1 and "nothing was compared" in failures[0]
        # Every benchmark of another shape: all skipped, so still a failure.
        other = _payload()
        for res in other["results"].values():
            res["seed"] = res["rounds"] = res["events"] = res["iters"] = \
                res["messages"] = -1
        failures, skipped = check_bench(_payload(), other)
        assert len(skipped) == 7
        assert any("nothing was compared" in f for f in failures)

    def test_benchmark_missing_from_the_fresh_run_fails(self):
        base = _payload()
        base["results"]["future_bench"] = {"things_per_cal": 1.0}
        failures, _ = check_bench(_payload(), base)
        assert failures == ["future_bench: missing from the fresh run"]

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ReproError):
            check_bench(_payload(), _payload(), tolerance=1.0)


class TestBenches:
    """One tiny-shape call of each bench: the keys the gate reads exist."""

    def test_calibrate_times_a_fixed_job(self):
        assert calibrate() > 0.0

    def test_window_ops(self):
        res = bench_window_ops(backlog=8, rounds=16)
        assert set(res) == {"backlog", "rounds", "wall_s", "ops_per_s"}
        assert (res["backlog"], res["rounds"]) == (8, 16)
        with pytest.raises(ReproError):
            bench_window_ops(backlog=0)

    def test_event_loop(self):
        res = bench_event_loop(n_events=50)
        assert set(res) == {"events", "wall_s", "events_per_s"}
        assert res["events"] == 50

    def test_kernel_storm(self):
        res = bench_kernel_storm(rounds=3, fanout=16, stragglers=2)
        assert set(res) == {"rounds", "fanout", "stragglers", "completions",
                            "wall_s", "events_per_s"}
        assert res["completions"] == 3 * (16 + 2)
        with pytest.raises(ReproError):
            bench_kernel_storm(rounds=0)

    def test_pingpong(self):
        res = bench_pingpong(iters=3, size=64)
        assert set(res) == {"iters", "size", "wall_s", "exchanges_per_s",
                            "sim_us_oneway", "calls_per_msg",
                            "events_per_msg"}
        assert res["sim_us_oneway"] > 0.0
        # Exact: a second run counts the very same calls and entries.
        again = bench_pingpong(iters=3, size=64)
        assert res["calls_per_msg"] == again["calls_per_msg"] > 0
        assert res["events_per_msg"] == again["events_per_msg"] > 0

    def test_random_traffic(self):
        res = bench_random_traffic(n_messages=10)
        assert set(res) == {"messages", "seed", "wall_s", "messages_per_s",
                            "sim_us_makespan", "calls_per_msg",
                            "events_per_msg"}
        assert res["sim_us_makespan"] > 0.0
        again = bench_random_traffic(n_messages=10)
        assert res["calls_per_msg"] == again["calls_per_msg"] > 0
        assert res["events_per_msg"] == again["events_per_msg"] > 0

    def test_object_census(self):
        res = bench_object_census(depth=4, rounds=2)
        assert set(res) == {"messages", "objects_per_msg",
                            "retained_bytes_per_msg",
                            "cyclic_garbage_per_msg"}
        assert res["messages"] == 16
        # Exact, and independent of the exchange's size: a per-message
        # budget, not a total.
        full = bench_object_census()
        assert full["messages"] == _payload()["results"][
            "object_census"]["messages"]
        assert (res["objects_per_msg"], res["cyclic_garbage_per_msg"]) == \
            (full["objects_per_msg"], full["cyclic_garbage_per_msg"])
        # The byte count repeats exactly too, for one exchange size (sets
        # and lists that grow in steps make it depend on the size).
        assert full["retained_bytes_per_msg"] == \
            bench_object_census()["retained_bytes_per_msg"] > 0

    def test_object_census_leaves_the_collector_as_it_found_it(self):
        import gc
        import tracemalloc
        assert gc.isenabled() and not tracemalloc.is_tracing()
        bench_object_census(depth=2, rounds=1)
        assert gc.isenabled() and not tracemalloc.is_tracing()

    def test_calls_per_message_ignores_what_a_collection_calls(self):
        # Anything in gc.callbacks runs once per collection; counted, it
        # would make the "exact" count depend on when collections happen
        # (Hypothesis installs such a hook for the whole test session).
        import gc
        hook_calls = []

        def hook(phase, info):
            hook_calls.append(len(str(info)))   # a few calls of its own

        quiet = bench_random_traffic(n_messages=40)["calls_per_msg"]
        gc.callbacks.append(hook)
        try:
            first = bench_random_traffic(n_messages=40)["calls_per_msg"]
            old = gc.get_threshold()
            gc.set_threshold(50)   # many more collections, same count
            try:
                second = bench_random_traffic(n_messages=40)["calls_per_msg"]
            finally:
                gc.set_threshold(*old)
        finally:
            gc.callbacks.remove(hook)
        assert hook_calls, "the hook never ran: the test proves nothing"
        assert quiet == first == second
        assert gc.isenabled()

    def test_scale(self):
        res = bench_scale(n_nodes=4, n_frames=20)
        assert {"n_nodes", "n_frames", "seed", "events_per_s",
                "sim_us_makespan"} <= set(res)
        assert res["delivered"] == 20

    def test_quick_suite_payload(self):
        payload = run_suite(quick=True)
        assert payload["schema"] == SCHEMA and payload["quick"] is True
        cal_s = payload["calibration_s"]
        assert set(payload["results"]) == set(_payload()["results"])
        for name, res in payload["results"].items():
            # Same keys as the synthetic payloads above, so those stand
            # for real runs; every rate has its per-calibration sibling.
            assert set(res) == set(_payload()["results"][name]), name
            for key in [k for k in res if k.endswith("_per_s")]:
                assert res[key[:-1] + "cal"] == res[key] * cal_s
        assert "kernel storm" in render_perf(payload)
        assert "python calls / message" in render_perf(payload)
        assert "kernel entries / message" in render_perf(payload)
        assert "objects / message" in render_perf(payload)
