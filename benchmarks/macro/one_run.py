"""One run of one workload in this (fresh) interpreter; prints one JSON line.

``run.py`` starts this file once per timed repeat, so every repeat pays the
same interpreter start, import and construction cost (that is ``setup_s``)
and none inherits another's heap.  With ``--traced`` the run is profiled
and spanned instead of timed; its numbers never feed an end-to-end metric.
"""

from __future__ import annotations

import time

_STARTED = time.time()   # before the heavy imports: they are part of set-up

import argparse
import cProfile
import gc
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

from workloads import (   # noqa: E402
    WORKLOADS, Run, Stack, make_plan, quantile,
)


def peak_rss_mb() -> float:
    """This interpreter's own peak resident set, in MB.

    ``ru_maxrss`` survives exec: a child started by vfork from a parent
    that was ever bigger reports the parent's peak.  ``VmHWM`` belongs to
    the address space created at exec, so it is read where it exists.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def counters(stack: Stack, run: Run, verdict: dict, wall_s: float) -> dict:
    """Per-layer metrics read off public counters (exact for a seed)."""
    engines = stack.engines
    cluster = stack.cluster

    def total(field: str) -> int:
        return sum(getattr(e.stats, field) for e in engines)

    msgs = run.plan.msgs
    blocks = sum(len(m.datatype.flatten()) for m in msgs if m.datatype)
    engine_sends = len(msgs) - sum(1 for m in msgs if m.datatype) + blocks
    nics = [nic for node in cluster.nodes for nic in node.nics]
    faults = cluster.fault_summary()
    events = stack.sim.events_processed
    packets = total("phys_packets")
    delivered = sum(e.matcher.delivered for e in engines)
    carried = total("eager_bytes") + total("rdv_bytes")
    return {
        "sim.events": events,
        "sim.events_per_msg": events / len(msgs),
        "sim.events_per_s": events / wall_s,
        "netsim.frames_sent": sum(n.frames_sent for n in nics),
        "netsim.wire_bytes_per_payload_byte":
            sum(n.bytes_sent for n in nics) / sum(m.size for m in msgs),
        "netsim.nic_busy_share":
            sum(n.busy_time for n in nics)
            / (len(nics) * verdict["makespan_us"]),
        "netsim.frames_dropped":
            faults["frames_dropped"] + faults["switch_frames_dropped"],
        "netsim.switch_frames_forwarded": faults["switch_frames_forwarded"],
        "netsim.paths_rerouted": faults["paths_rerouted"],
        "madmpi.datatype_blocks": blocks,
        "window.peak_wraps": max(e.window.peak_wraps for e in engines),
        "strategy.segs_per_packet": total("items_sent") / packets,
        "strategy.aggregated_share":
            total("aggregated_segments") / engine_sends,
        "transfer.phys_packets": packets,
        "matching.delivered": delivered,
        "matching.unexpected_share":
            sum(e.matcher.unexpected_total for e in engines) / delivered,
        "matching.peak_unexpected_bytes":
            max(e.matcher.peak_unexpected_bytes for e in engines),
        "rendezvous.bytes_share": total("rdv_bytes") / carried,
        "reliability.acks_sent": total("acks_sent"),
        "reliability.retransmits": total("retransmits"),
        "reliability.retransmit_share": total("retransmits") / packets,
        "reliability.duplicates_suppressed": total("duplicates_suppressed"),
        "reliability.failovers": total("failovers"),
        "flowcontrol.credit_stalls": total("credit_stalls"),
        "flowcontrol.credits_granted": total("credits_granted"),
        "flowcontrol.nacks_sent": total("nacks_sent"),
        "sessions.heartbeats_sent": total("heartbeats_sent"),
        "sessions.frames_parked": total("frames_parked"),
        "sessions.stale_frames_fenced": total("stale_frames_fenced"),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--trace-out", help="where the traced run writes spans")
    ap.add_argument("--started", type=float, default=_STARTED,
                    help="epoch seconds at which the parent spawned us")
    args = ap.parse_args()

    w = WORKLOADS[args.workload].scaled(args.quick)
    stack = Stack(w, args.seed)
    plan = make_plan(w, args.seed)
    run = Run(stack, plan)
    run.start()
    tracer = profile = None
    if args.traced:
        # Imported here so a timed run's set-up never pays for them.
        import layers
        import spans
        tracer = spans.SpanTracer(stack)
        profile = cProfile.Profile()
    # Set-up garbage must not be collected on the run's clock.
    gc.collect()
    gc.freeze()
    setup_s = time.time() - args.started

    t0 = time.perf_counter()
    if profile is not None:
        profile.runcall(run.play)
    else:
        run.play()
    wall_s = time.perf_counter() - t0

    verdict = run.verify()
    latencies = sorted(verdict.pop("latencies_us")) or [0.0]
    delivered = verdict["attempted"] - verdict["failed"]
    result = {
        "workload": w.name, "seed": args.seed, "traced": args.traced,
        "attempted": verdict["attempted"], "failed": verdict["failed"],
        "stack_ok": verdict["stack_ok"],
        "plan_fingerprint": plan.fingerprint(),
        "run_wall_s": wall_s,
        "raw_setup_s": setup_s,
        "raw_msgs_per_s": delivered / wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "sim_latency_us_p50": quantile(latencies, 0.50),
        "sim_latency_us_p99": quantile(latencies, 0.99),
        "sim_latency_samples": len(latencies),
        "sim_makespan_us": verdict["makespan_us"],
        "failed_ops_share": verdict["failed"] / verdict["attempted"],
        "counters": counters(stack, run, verdict, wall_s),
    }
    if tracer is not None:
        result["layers"] = layers.fold_profile(profile)
        result["stages"] = tracer.stage_metrics()
        result["strategy.empty_select_share"] = \
            tracer.empty_selects / max(1, tracer.selects)
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
