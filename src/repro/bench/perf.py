"""Host-side performance microbenchmarks (``python -m repro perf``).

Everything else in :mod:`repro.bench` measures *simulated* time — what the
modeled 2006 testbed would do.  This module measures **wall-clock host
cost**: how fast the reproduction's own engine code runs.  The paper's
core claim (§5.1) is that the scheduling engine adds only a tiny constant
cost to each NIC refill, so the reproduction's pull path must not silently
degrade to O(backlog); this suite pins that property to numbers and gives
every future PR a trajectory to compare against (``BENCH_perf.json``).

The benchmarks:

* ``window_ops`` — take/submit/query churn on an :class:`OptimizationWindow`
  held at a deep backlog (1000) and at a shallow one (100); the ratio of
  the two rates is the window's O(1) claim, measured.
* ``event_loop`` — raw :class:`~repro.sim.Simulator` throughput: schedule
  and drain a long serial cascade of callbacks and timeouts.
* ``kernel_storm`` — the large-cluster completion-storm profile: rounds
  of many same-timestamp NIC completions (posted through
  ``schedule_batch``, as the NIC layer does) plus straggler timers.  Its
  rate over the serial cascade's is what batching buys; CI gates that
  ratio at >= 10x.
* ``pingpong`` — end-to-end MAD-MPI ping-pong wall-clock (host seconds per
  simulated exchange), plus the simulated makespan as a fidelity guard.
* ``random_traffic`` — irregular multi-flow replay wall-clock, the
  closest thing to a real application's host-side profile.

  Both also report ``calls_per_msg``: Python-level calls per message,
  counted by ``cProfile`` on a second, untimed run.  The count is exact
  for one interpreter version and independent of host speed, so the gate
  holds it to a 2 % rise where the wall-clock rates get 50 %.  And
  ``events_per_msg``: kernel entries the timed run dispatched, per
  message.  That one is exact on any interpreter, so it is gated across
  Python versions and with no slack at all.
* ``object_census`` — what a finished message leaves behind for the cycle
  collector, counted with the collector disabled around a fixed exchange:
  ``objects_per_msg`` (tracked objects still live per message while the
  application holds both request handles), ``retained_bytes_per_msg``
  (what those handles keep allocated, by ``tracemalloc``) and
  ``cyclic_garbage_per_msg`` (objects only ``gc.collect()`` can free,
  during the exchange and after the handles are dropped).  Exact like
  ``calls_per_msg``, and gated the same way: none may rise.
* ``scale`` — seeded random frame traffic over a sparse 256-node netsim
  topology (see :mod:`repro.bench.scale`).

All workloads are deterministic (seeded); only the wall-clock readings
vary between hosts and runs.  :func:`check_bench` compares a fresh run
against the committed ``BENCH_perf.json`` trajectory.  Everything it
gates is measured on live code on one host: each rate divided by the
host's speed on a fixed stdlib job (:func:`calibrate`, the ``*_per_cal``
fields), two same-run ratios with hard floors, and the exact simulated
readings — so the gate travels between machines without a frozen copy of
old code to race against.
"""

from __future__ import annotations

import cProfile
import gc
import heapq
import json
import platform
import pstats
import sys
import time
from collections.abc import Callable

from repro.core.data import VirtualData
from repro.core.packet import PacketWrap
from repro.core.window import OptimizationWindow
from repro.errors import ReproError
from repro.sim import Simulator
from repro.sim.sanitizer import post_storm

__all__ = [
    "calibrate",
    "bench_window_ops",
    "bench_event_loop",
    "bench_kernel_storm",
    "bench_pingpong",
    "bench_random_traffic",
    "object_census",
    "bench_object_census",
    "run_suite",
    "render_perf",
    "write_bench",
    "check_bench",
    "SCHEMA",
    "STORM_VS_SERIAL_FLOOR",
    "WINDOW_FLATNESS_FLOOR",
    "CALLS_PER_MSG_TOLERANCE",
]

SCHEMA = "repro-perf/2"


def calibrate() -> float:
    """Seconds this host takes, right now, for a fixed pure-Python job.

    Heap pushes/pops, dict stores and small allocations — the kind of work
    the engine does, none of the engine's code.  A rate times this is
    "operations per calibration job": dimensionless, so it can be compared
    with a baseline recorded on another machine.
    """
    gc.disable()   # the job must cost the same whatever else is on the heap
    try:
        t0 = time.perf_counter()
        heap: list[tuple[int, int, list[int]]] = []
        table = {}
        for i in range(200_000):
            item = (i * 7919 % 100_003, i, [i])
            heapq.heappush(heap, item)
            table[i] = item
            if i & 3 == 0:
                heapq.heappop(heap)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _profiled_calls(fn: Callable[[], object]) -> int:
    """Exact number of calls (Python and builtin) one ``fn()`` makes.

    The collector is kept out of the counted run: whatever is registered in
    ``gc.callbacks`` (Hypothesis installs such a hook) would be counted
    once per collection, and how many of those happen is not the code's.
    """
    profile = cProfile.Profile()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        profile.runcall(fn)
    finally:
        if was_enabled:
            gc.enable()
    return pstats.Stats(profile).total_calls


def _make_wrap(i: int, n_dests: int, seq: int) -> PacketWrap:
    return PacketWrap(dest=i % n_dests, flow=0, tag=0, seq=seq,
                      data=VirtualData(64 + (i % 7) * 128))


def bench_window_ops(
    backlog: int = 1000,
    rounds: int = 5000,
    n_rails: int = 2,
    n_dests: int = 4,
) -> dict:
    """Sustained take+submit+query churn at a held backlog depth.

    Models the strategy pull path under load: every round removes one wrap
    mid-window (a strategy commit), submits a replacement (application
    traffic keeps arriving) and reads the counters a strategy consults
    (per-rail pending bytes, per-dest backlog).  Returns ops/s.
    """
    import random

    if backlog < 1 or rounds < 1:
        raise ReproError(f"bad bench shape backlog={backlog} rounds={rounds}")
    win = OptimizationWindow(n_rails)
    wraps = []
    for i in range(backlog):
        w = _make_wrap(i, n_dests, seq=i)
        win.submit(w)
        wraps.append(w)
    rng = random.Random(0)
    t0 = time.perf_counter()
    for i in range(rounds):
        victim = wraps.pop(rng.randrange(len(wraps)))
        win.take(victim)
        w = _make_wrap(i, n_dests, seq=backlog + i)
        win.submit(w)
        wraps.append(w)
        win.pending_bytes(0)
        win.backlog(dest=i % n_dests)
    wall_s = time.perf_counter() - t0
    return {
        "backlog": backlog,
        "rounds": rounds,
        "wall_s": wall_s,
        "ops_per_s": rounds / wall_s,
    }


def bench_event_loop(n_events: int = 200_000) -> dict:
    """Raw kernel throughput: a self-refilling callback cascade + timeouts."""
    if n_events < 1:
        raise ReproError(f"bad event count {n_events}")
    sim = Simulator()
    remaining = [n_events]

    def tick():
        if remaining[0] > 0:
            remaining[0] -= 1
            # Alternate a plain callback with a Timeout event so both run
            # paths of the loop are exercised.
            if remaining[0] % 2:
                sim.schedule(0.1, tick)
            else:
                sim.timeout(0.1).add_callback(lambda _evt: tick())

    tick()
    t0 = time.perf_counter()
    sim.run()
    wall_s = time.perf_counter() - t0
    processed = sim.events_processed
    return {
        "events": processed,
        "wall_s": wall_s,
        "events_per_s": processed / wall_s,
    }


def bench_kernel_storm(
    rounds: int = 120,
    fanout: int = 1024,
    stragglers: int = 8,
) -> dict:
    """Large-cluster completion-storm kernel profile.

    Every round models one scheduling epoch of a big cluster: ``fanout``
    NIC completions land at the same timestamp, posted through
    :meth:`~repro.sim.Simulator.schedule_batch` exactly as the batched NIC
    refill/rx paths do — one queue entry, one dispatch — plus a few
    straggler timers spread across the epoch (the workload is
    :func:`repro.sim.sanitizer.post_storm`, the one the sanitizer
    fingerprints).  The serial cascade of :func:`bench_event_loop` pays a
    push and a dispatch per event; this rate over that one is what
    batching buys.
    """
    if rounds < 1 or fanout < 1 or stragglers < 0:
        raise ReproError(
            f"bad storm shape rounds={rounds} fanout={fanout} "
            f"stragglers={stragglers}"
        )
    sim = Simulator()
    count = post_storm(sim, rounds, fanout, stragglers)
    gc.collect()  # a pending collection mid-run would skew a ms-scale rep
    t0 = time.perf_counter()
    sim.run()
    wall_s = time.perf_counter() - t0
    return {
        "rounds": rounds,
        "fanout": fanout,
        "stragglers": stragglers,
        "completions": count[0],
        "wall_s": wall_s,
        "events_per_s": count[0] / wall_s,
    }


def bench_pingpong(iters: int = 200, size: int = 1024) -> dict:
    """End-to-end MAD-MPI ping-pong: host seconds per simulated exchange.

    The simulated one-way latency is reported alongside as a fidelity
    guard: optimization PRs must move ``wall_s`` and leave ``sim_us_oneway``
    untouched.
    """
    from repro.bench.backends import make_backend_pair
    from repro.bench.pingpong import pingpong_single_on
    from repro.netsim import MX_MYRI10G

    def run() -> tuple[float, int]:
        pair = make_backend_pair("madmpi", rails=(MX_MYRI10G,))
        oneway_us = pingpong_single_on(pair, size, iters=iters, warmup=1)
        return oneway_us, pair.sim.events_processed

    t0 = time.perf_counter()
    oneway_us, events = run()
    wall_s = time.perf_counter() - t0
    # Two messages per exchange, warm-up exchange included.
    messages = 2 * (iters + 1)
    return {
        "iters": iters,
        "size": size,
        "wall_s": wall_s,
        "exchanges_per_s": iters / wall_s,
        "sim_us_oneway": oneway_us,
        "calls_per_msg": _profiled_calls(run) / messages,
        "events_per_msg": events / messages,
    }


def bench_random_traffic(n_messages: int = 300, seed: int = 7) -> dict:
    """Irregular multi-flow replay wall-clock (aggregation strategy)."""
    from repro.bench.backends import make_backend_pair
    from repro.bench.workloads import TrafficSpec, generate_messages, replay
    from repro.netsim import KB, MX_MYRI10G

    spec = TrafficSpec(n_messages=n_messages, n_flows=6, n_tags=4,
                       min_size=16, max_size=8 * KB, large_fraction=0.05,
                       burst_prob=0.8)
    messages = generate_messages(spec, seed=seed)

    def run() -> tuple[float, int]:
        pair = make_backend_pair("madmpi", rails=(MX_MYRI10G,),
                                 strategy="aggregation")
        replay(pair, messages, verify_content=False)
        return pair.sim.now, pair.sim.events_processed

    t0 = time.perf_counter()
    makespan_us, events = run()
    wall_s = time.perf_counter() - t0
    return {
        "messages": n_messages,
        "seed": seed,
        "wall_s": wall_s,
        "messages_per_s": n_messages / wall_s,
        "sim_us_makespan": makespan_us,
        "calls_per_msg": _profiled_calls(run) / n_messages,
        "events_per_msg": events / n_messages,
    }


def object_census(exchange: Callable[[list], int]) -> dict:
    """Exact per-message object budget of ``exchange(held)``.

    ``exchange`` runs a message exchange to completion, appends to ``held``
    one record per message that keeps both of its request handles alive,
    and returns the number of messages.  It is called twice: once to let
    lazily built state settle, then with the cycle collector disabled — so
    the counts say what the exchange allocated and kept, not when a
    collection happened to run.  ``tracemalloc`` watches the same interval:
    ``retained_bytes_per_msg`` is what the held handles keep allocated, the
    untracked parts (payload bytes, floats) included.  The collector is
    left as it was found: nothing outside this module's measurements ever
    switches it.
    """
    import tracemalloc  # here only: nothing on the ``import repro`` path

    exchange([])
    held: list = []
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = len(gc.get_objects())
        bytes_before = tracemalloc.get_traced_memory()[0]
        messages = exchange(held)
        # Cycles the exchange itself made are garbage already, handles or no.
        garbage = gc.collect()
        live = len(gc.get_objects()) - before
        retained = tracemalloc.get_traced_memory()[0] - bytes_before
        held.clear()
        garbage += gc.collect()
    finally:
        if not was_tracing:
            tracemalloc.stop()
        if was_enabled:
            gc.enable()
    return {
        "messages": messages,
        "objects_per_msg": live / messages,
        "retained_bytes_per_msg": retained / messages,
        "cyclic_garbage_per_msg": garbage / messages,
    }


def bench_object_census(depth: int = 50, rounds: int = 4) -> dict:
    """Object budget of small MAD-MPI messages, both handles held.

    Two ranks exchange ``rounds`` bursts of ``depth`` 48-byte messages each
    way (receives posted first, one ``wait_all`` per burst) and keep a
    ``(send, recv)`` record per message, as a ``wait_all`` program does;
    that record is one of the objects counted.
    """
    from repro.bench.backends import make_backend_pair
    from repro.netsim import MX_MYRI10G

    pair = make_backend_pair("madmpi", rails=(MX_MYRI10G,))
    payload = bytes(48)

    def exchange(held: list) -> int:
        def rank(mpi, peer: int):
            for _ in range(rounds):
                recvs = [mpi.irecv(source=peer, tag=t) for t in range(depth)]
                sends = [mpi.isend(payload, dest=peer, tag=t)
                         for t in range(depth)]
                yield from mpi.wait_all(recvs + sends)
                held.extend(zip(sends, recvs))

        procs = [pair.sim.spawn(rank(mpi, 1 - r))
                 for r, mpi in enumerate(pair.ranks)]
        pair.sim.run()
        if not all(p.triggered and p.ok for p in procs):
            raise ReproError("object census exchange did not complete")
        return 2 * rounds * depth

    return object_census(exchange)


def run_suite(quick: bool = False) -> dict:
    """Run every microbenchmark; returns the ``BENCH_perf.json`` payload."""
    from repro.bench.scale import bench_scale

    rounds = 500 if quick else 5000
    benches: dict[str, Callable[[], dict]] = {
        "window_ops": lambda: bench_window_ops(1000, rounds),
        "window_shallow": lambda: bench_window_ops(100, rounds),
        "event_loop": lambda: bench_event_loop(20_000 if quick else 200_000),
        # The storm keeps its full shape even in quick mode: the batching
        # win scales with fanout, the whole thing is milliseconds long
        # anyway, and the 10x floor must hold for quick CI runs too.
        "kernel_storm": lambda: bench_kernel_storm(rounds=600),
        "pingpong": lambda: bench_pingpong(iters=30 if quick else 200),
        "random_traffic": lambda: bench_random_traffic(60 if quick else 300),
        "scale": lambda: bench_scale(n_frames=2_000 if quick else 20_000),
    }

    def rate(res: dict) -> float:
        return next(v for k, v in res.items() if k.endswith("_per_s"))

    # Best of three passes over the whole suite, calibration included: most
    # benches are milliseconds long, so one burst of host contention can
    # halve a reading, and a burst outlasts back-to-back repeats of one
    # bench.  The fastest reading is the host's capacity, for the engine
    # code and the calibration job alike.
    results: dict[str, dict] = {}
    cal_s = calibrate()
    for _ in range(3):
        for name, bench in benches.items():
            res = bench()
            if name not in results or rate(res) > rate(results[name]):
                results[name] = res
        cal_s = min(cal_s, calibrate())
    # Exact, so measured once; it has no rate to calibrate.
    results["object_census"] = bench_object_census()
    shallow = results.pop("window_shallow")
    results["window_ops"]["shallow_backlog"] = shallow["backlog"]
    results["window_ops"]["shallow_ops_per_s"] = shallow["ops_per_s"]
    for res in results.values():
        for key in [k for k in res if k.endswith("_per_s")]:
            res[key[:-1] + "cal"] = res[key] * cal_s
    return {
        "schema": SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "quick": quick,
        "calibration_s": cal_s,
        "results": results,
    }


def _storm_vs_serial(results: dict) -> float:
    return (results["kernel_storm"]["events_per_s"]
            / results["event_loop"]["events_per_s"])


def _window_flatness(results: dict) -> float:
    w = results["window_ops"]
    return w["ops_per_s"] / w["shallow_ops_per_s"]


def render_perf(payload: dict) -> str:
    """Human-readable table of one suite run."""
    r = payload["results"]
    w = r["window_ops"]
    lines = [
        f"== Engine host-side performance (python {payload['python']}, "
        f"quick={payload['quick']}, calibration job "
        f"{payload['calibration_s'] * 1e3:.0f} ms) ==",
        f"  window ops @ backlog {w['backlog']:>5}: "
        f"{w['ops_per_s']:>12,.0f} ops/s      "
        f"({_window_flatness(r):.2f}x the rate at backlog "
        f"{w['shallow_backlog']})",
        f"  event loop:                  "
        f"{r['event_loop']['events_per_s']:>12,.0f} events/s",
        f"  kernel storm (fanout {r['kernel_storm']['fanout']}):   "
        f"{r['kernel_storm']['events_per_s']:>12,.0f} events/s   "
        f"({_storm_vs_serial(r):.1f}x the serial event loop)",
        f"  ping-pong ({r['pingpong']['size']}B):            "
        f"{r['pingpong']['exchanges_per_s']:>12,.1f} exchanges/s "
        f"(sim {r['pingpong']['sim_us_oneway']:.3f} us one-way)",
        f"  random traffic:              "
        f"{r['random_traffic']['messages_per_s']:>12,.1f} msgs/s     "
        f"(sim makespan {r['random_traffic']['sim_us_makespan']:.1f} us)",
        f"  scale ({r['scale']['n_nodes']} nodes):           "
        f"{r['scale']['events_per_s']:>12,.0f} events/s   "
        f"({r['scale']['delivered']} frames delivered, sim makespan "
        f"{r['scale']['sim_us_makespan']:.1f} us)",
        f"  python calls / message:      "
        f"{r['pingpong']['calls_per_msg']:>12,.1f} ping-pong      "
        f"{r['random_traffic']['calls_per_msg']:,.1f} random traffic "
        f"(exact for python {payload['python']})",
        f"  kernel entries / message:    "
        f"{r['pingpong']['events_per_msg']:>12,.2f} ping-pong      "
        f"{r['random_traffic']['events_per_msg']:,.2f} random traffic "
        f"(exact on any interpreter)",
        f"  objects / message:           "
        f"{r['object_census']['objects_per_msg']:>12,.2f} live, handles held "
        f"{r['object_census']['cyclic_garbage_per_msg']:,.2f} cyclic garbage "
        f"(collector disabled, exact)",
        f"  retained bytes / message:    "
        f"{r['object_census']['retained_bytes_per_msg']:>12,.2f} "
        f"allocated, handles held (tracemalloc, exact)",
    ]
    return "\n".join(lines)


#: Hard floor on completion-storm over serial-cascade throughput: what
#: ``schedule_batch`` and the per-bucket sort must keep buying.  A kernel
#: that pays a push and a pop per completion scores ~1.5 here.
STORM_VS_SERIAL_FLOOR = 10.0
#: Hard floor on window ops/s at backlog 1000 over backlog 100.  The O(1)
#: window measures 0.7-1.0; the seed's deque window, whose ``take`` is a
#: linear ``remove``, measured 0.11 on the same host.
WINDOW_FLATNESS_FLOOR = 0.5

#: ``calls_per_msg`` may rise this much before the gate fails.  The count
#: is exact, so the slack is for deliberate small additions, not noise.
CALLS_PER_MSG_TOLERANCE = 0.02

#: Per-message counts that are exact for one interpreter version: each may
#: fall, none may rise past the tolerance.  The value says what a rise means.
_EXACT_COUNTS = {
    "calls_per_msg": "the per-message path grew",
    "events_per_msg": "the kernel dispatches more entries per message",
    "objects_per_msg": "a finished message keeps more objects alive",
    "retained_bytes_per_msg": "a finished message keeps more memory allocated",
    "cyclic_garbage_per_msg":
        "a finished message leaves reference cycles for the collector",
}

#: The exact counts the interpreter has no say in: compared whatever the
#: Python versions, and with no slack — a count of queue entries has no
#: noise, and a new entry per message is a decision, not a small addition.
_INTERPRETER_NEUTRAL = frozenset({"events_per_msg"})

#: The inputs that fix each workload; two results compare only when these
#: agree (a ``--quick`` run is another shape).
_SHAPE_KEYS = {
    "window_ops": ("backlog", "shallow_backlog", "rounds"),
    "event_loop": ("events",),
    "kernel_storm": ("rounds", "fanout", "stragglers"),
    "pingpong": ("iters", "size"),
    "random_traffic": ("messages", "seed"),
    "object_census": ("messages",),
    "scale": ("n_nodes", "n_frames", "seed"),
}


def check_bench(
    payload: dict, baseline: dict, tolerance: float = 0.5
) -> tuple[list[str], list[str]]:
    """Gate a fresh suite run against the committed trajectory.

    Absolute wall-clock numbers are host-specific, so only host-neutral
    quantities are compared, all of them measured on live code:

    * every ``*_per_cal`` rate (operations per :func:`calibrate` job on
      the same host) must be at least ``(1 - tolerance)`` of the committed
      ``baseline`` value,
    * the fresh run must clear :data:`STORM_VS_SERIAL_FLOOR` and
      :data:`WINDOW_FLATNESS_FLOOR`, whatever the baseline recorded, and
    * the deterministic simulated readings (ping-pong one-way latency,
      replay/scale makespans) must match the baseline exactly — a
      performance PR must not move simulated time, and
    * ``calls_per_msg``, ``objects_per_msg``, ``retained_bytes_per_msg`` and
      ``cyclic_garbage_per_msg`` must not rise by more than :data:`CALLS_PER_MSG_TOLERANCE`; the
      counts depend on the interpreter's minor version, so they are
      compared only when that matches the baseline's (and named in
      ``skipped`` otherwise).  ``events_per_msg`` does not, so it is
      compared always and must not rise at all.  A baseline recorded
      before a count existed simply does not gate it.

    Returns ``(failures, skipped)``, both human-readable: an empty
    ``failures`` means pass; ``skipped`` names each benchmark left
    uncompared because its workload shape differs from the baseline's.
    A baseline of another schema, or one that leaves nothing to compare,
    is a failure — never a silent pass.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ReproError(f"bad tolerance {tolerance} (want 0 <= t < 1)")
    if baseline.get("schema") != SCHEMA:
        return [
            f"schema mismatch: baseline is {baseline.get('schema')!r}, this "
            f"gate reads {SCHEMA!r} (regenerate the baseline with "
            f"`repro perf`)"
        ], []
    failures: list[str] = []
    skipped: list[str] = []
    compared = 0
    fresh = payload["results"]
    minor = lambda doc: str(doc.get("python", "")).split(".")[:2]
    same_python = minor(payload) == minor(baseline)
    for name, want_res in sorted(baseline.get("results", {}).items()):
        got_res = fresh.get(name)
        if got_res is None:
            failures.append(f"{name}: missing from the fresh run")
            continue
        differs = [k for k in _SHAPE_KEYS.get(name, ())
                   if want_res.get(k) != got_res.get(k)]
        if differs:
            skipped.append(
                f"{name}: workload shape differs from the baseline's ("
                + ", ".join(f"{k} {got_res.get(k)!r} vs {want_res.get(k)!r}"
                            for k in differs) + ")"
            )
            continue
        for key, want in sorted(want_res.items()):
            got = got_res.get(key)
            if key.endswith("_per_cal"):
                compared += 1
                floor = want * (1.0 - tolerance)
                if got is None or got < floor:
                    failures.append(
                        f"{name}: {key} {got!r} < {floor:.4g} (baseline "
                        f"{want:.4g}, tolerance {tolerance:.0%})"
                    )
            elif key.startswith("sim_us_"):
                compared += 1
                if got != want:
                    failures.append(
                        f"{name}: {key} drifted to {got!r} (baseline "
                        f"{want!r}) — simulated time must not move"
                    )
            elif key in _EXACT_COUNTS:
                neutral = key in _INTERPRETER_NEUTRAL
                if not same_python and not neutral:
                    skipped.append(
                        f"{name}: {key} is exact per interpreter "
                        f"version (python {payload.get('python')} vs the "
                        f"baseline's {baseline.get('python')})"
                    )
                    continue
                compared += 1
                slack = 0.0 if neutral else CALLS_PER_MSG_TOLERANCE
                ceiling = want * (1.0 + slack)
                if got is None or got > ceiling:
                    failures.append(
                        f"{name}: {key} {got!r} > {ceiling:.2f} "
                        f"(baseline {want:.2f} + {slack:.0%}) — "
                        f"{_EXACT_COUNTS[key]}"
                    )
    if not compared:
        failures.append(
            "nothing was compared: the baseline shares no benchmark of the "
            "same shape with the fresh run"
        )
    storm = _storm_vs_serial(fresh)
    if storm < STORM_VS_SERIAL_FLOOR:
        failures.append(
            f"kernel_storm: {storm:.2f}x the serial event loop is below "
            f"the hard {STORM_VS_SERIAL_FLOOR:.0f}x floor"
        )
    flat = _window_flatness(fresh)
    if flat < WINDOW_FLATNESS_FLOOR:
        w = fresh["window_ops"]
        failures.append(
            f"window_ops: {flat:.2f}x the backlog-{w['shallow_backlog']} "
            f"rate at backlog {w['backlog']} is below the hard "
            f"{WINDOW_FLATNESS_FLOOR}x floor (take/submit/query must not "
            f"grow with the backlog)"
        )
    return failures, skipped


def write_bench(payload: dict, path: str = "BENCH_perf.json") -> str:
    """Write the payload as pretty-printed JSON; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
