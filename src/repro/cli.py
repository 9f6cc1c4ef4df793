"""Command-line interface: regenerate the paper's figures as text tables.

Usage::

    python -m repro figures                 # every figure, full sweeps
    python -m repro figures --quick         # coarse sweeps (seconds)
    python -m repro figures --only fig3     # one figure family
    python -m repro strategies              # list the strategy database
    python -m repro profiles                # list NIC profiles
    python -m repro perf                    # host-side wall-clock benchmarks

The output is the same tables the benchmark harness prints (size rows, one
column per backend, peak/mean gains), suitable for diffing against
EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.bench import (
    render_gains,
    render_table,
    run_figure2,
    run_figure3,
    run_figure4,
)
from repro.core.engine import EngineStats
from repro.netsim import KB, MB, MX_MYRI10G, PROFILES, QUADRICS_QM500

__all__ = ["main", "build_parser"]

QUICK_FIG2 = [4, 64, 1 * KB, 16 * KB, 256 * KB, 2 * MB]
QUICK_FIG3_MX = [4, 64, 1 * KB, 16 * KB]
QUICK_FIG3_Q = [4, 64, 1 * KB, 8 * KB]
QUICK_FIG4 = [256 * KB, 1 * MB, 2 * MB]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NewMadeleine reproduction: regenerate the paper's "
                    "evaluation figures on the simulated 2006 testbed.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate figure tables")
    figures.add_argument("--quick", action="store_true",
                         help="coarse size sweeps (runs in seconds)")
    figures.add_argument("--only", choices=("fig2", "fig3", "fig4"),
                         help="restrict to one figure family")
    figures.add_argument("--iters", type=int, default=3,
                         help="measured ping-pong iterations per point")
    figures.add_argument("--plot", action="store_true",
                         help="also draw each figure as an ASCII log-log plot")

    sub.add_parser("strategies", help="list the strategy database")
    sub.add_parser("profiles", help="list calibrated NIC profiles")
    sub.add_parser("validate",
                   help="measure every paper claim and print PASS/FAIL")

    perf = sub.add_parser(
        "perf",
        help="run host-side wall-clock microbenchmarks of the engine")
    perf.add_argument("--quick", action="store_true",
                      help="short runs (CI smoke; noisier numbers)")
    perf.add_argument("--out", default="BENCH_perf.json", metavar="PATH",
                      help="where to write the JSON payload "
                           "(default: BENCH_perf.json)")
    perf.add_argument("--check", metavar="PATH", default=None,
                      help="gate the fresh run against a committed "
                           "BENCH_perf.json trajectory (rates per "
                           "same-host calibration job, storm/serial and "
                           "window-flatness floors, simulated-time pins); "
                           "exit 1 on regression")

    report = sub.add_parser(
        "report",
        help="replay a demo workload and print engine/NIC/fault statistics")
    report.add_argument("--reliability", choices=("off", "ack"),
                        default="off",
                        help="transport reliability mode (default: off, "
                             "the paper's no-retransmission engine)")
    report.add_argument("--flow-control", choices=("off", "credit"),
                        default="off",
                        help="credit-based overload protection (default: "
                             "off, the paper's unbounded engine)")
    report.add_argument("--sessions", choices=("off", "epoch"),
                        default="off",
                        help="peer failure detection and session epochs "
                             "(default: off, the paper's crash-free engine)")
    report.add_argument("--rel-timeout", default=None, metavar="US|auto",
                        dest="rel_timeout",
                        help="retransmit timeout: microseconds, or 'auto' "
                             "for the adaptive RTT estimator (requires "
                             "--reliability ack; default: the engine's "
                             "static default)")
    report.add_argument("--hedge", action="store_true",
                        help="opt-in tail hedging: after a p99-ish RTT the "
                             "frame is re-sent on the second-best rail "
                             "(requires --rel-timeout auto and --rails 2)")
    report.add_argument("--rails", type=int, choices=(1, 2), default=1,
                        help="1 = MX only; 2 = MX + Quadrics multirail")
    report.add_argument("--topology",
                        choices=("mesh", "fat-tree", "dragonfly"),
                        default="mesh",
                        help="network fabric between the two nodes "
                             "(default: mesh, the paper's direct links)")
    report.add_argument("--messages", type=int, default=40,
                        help="number of random messages to replay")
    report.add_argument("--seed", type=int, default=0,
                        help="traffic generator seed")
    report.add_argument("--drop-nth", type=int, action="append", default=[],
                        metavar="N",
                        help="drop the Nth frame on the node0->node1 rail0 "
                             "link (repeatable)")
    report.add_argument("--slow-link", type=float, default=None,
                        metavar="FACTOR",
                        help="multiply the node0->node1 rail0 link latency "
                             "by FACTOR for the whole run (degraded link)")
    report.add_argument("--link-down-at", type=float, default=None,
                        metavar="US",
                        help="take the node0->node1 link of the last rail "
                             "permanently down at this time (us)")
    report.add_argument("--json", action="store_true",
                        help="emit the full report as a JSON object instead "
                             "of text tables")

    chaos = sub.add_parser(
        "chaos",
        help="run seeded fault schedules through the hardened engine and "
             "audit the survivors' invariants")
    chaos.add_argument("--seed", type=int, default=0,
                       help="first (or only) schedule seed (default: 0)")
    chaos.add_argument("--seeds", type=int, default=1, metavar="N",
                       help="sweep N consecutive seeds starting at --seed")
    chaos.add_argument("--quick", action="store_true",
                       help="smaller workload per seed (the CI profile)")
    chaos.add_argument("--crashes", action="store_true",
                       help="allow crash/restart faults in the schedules")
    chaos.add_argument("--topology", choices=("mesh", "fat-tree"),
                       default="mesh",
                       help="fabric for the chaos cluster (default: mesh; "
                            "fat-tree routes traffic through switches and "
                            "turns partitions into rack partitions)")
    chaos.add_argument("--switch-kills", type=int, default=0, metavar="N",
                       dest="switch_kills",
                       help="kill N healable spine switches per schedule "
                            "(requires --topology fat-tree)")
    chaos.add_argument("--fat-tree-k", type=int, default=4, metavar="K",
                       dest="fat_tree_k",
                       help="fat-tree arity for --topology fat-tree "
                            "(even, >= 4; default: 4)")
    chaos.add_argument("--adaptive", action="store_true",
                       help="run the engines with rel_timeout_us='auto' "
                            "(the measured RTO) instead of the spec's "
                            "static timeout")
    chaos.add_argument("--rtt-drift", action="store_true", dest="rtt_drift",
                       help="append an RTT-drift drill (slow-link ramp + "
                            "jitter) to every schedule, sized so a static "
                            "RTO fires spuriously")
    chaos.add_argument("--shrink", action="store_true",
                       help="minimize each failing schedule and print a "
                            "standalone repro snippet")
    chaos.add_argument("--json", default=None, metavar="PATH",
                       help="also write the full sweep report as JSON")

    sanitize = sub.add_parser(
        "sanitize",
        help="hunt hash- and order-nondeterminism: forced hash "
             "randomization, a de-coalesced kernel, and intra-timestamp "
             "shaking (opt-in; normal runs never take these paths)")
    sanitize.add_argument("--figures", action="store_true",
                          help="byte-compare `repro figures --quick` across "
                               "hash seeds and under the no-coalesce kernel")
    sanitize.add_argument("--chaos", action="store_true",
                          help="byte-compare `repro chaos --seed N --quick` "
                               "the same way")
    sanitize.add_argument("--seed", type=int, default=42,
                          help="chaos schedule seed for --chaos "
                               "(default: 42, the CI pin)")
    sanitize.add_argument("--storm", action="store_true",
                          help="fingerprint the in-process completion-storm "
                               "workload across every sanitize config "
                               "(default when no target is given)")
    sanitize.add_argument("--trace", action="store_true",
                          help="also byte-compare the selected targets "
                               "(both, when neither is given) with every "
                               "tracer switched on: tracing must not move "
                               "simulated time")
    sanitize.add_argument("--hash-seeds", type=int, default=3,
                          dest="hash_seeds", metavar="K",
                          help="how many PYTHONHASHSEED values to sweep "
                               "(default: 3)")
    return parser


def _print(out, text: str) -> None:
    print(text, file=out)
    print(file=out)


def _figures(args, out) -> None:
    from repro.bench.plot import render_plot

    iters = args.iters
    if iters < 1:
        raise SystemExit("--iters must be >= 1")

    def maybe_plot(title, series):
        if args.plot:
            _print(out, render_plot(title, series))

    if args.only in (None, "fig2"):
        for profile, panels in ((MX_MYRI10G, "a/b"), (QUADRICS_QM500, "c/d")):
            series = run_figure2(
                profile, sizes=QUICK_FIG2 if args.quick else (), iters=iters)
            title = (f"== Figure 2({panels}): ping-pong latency over "
                     f"{profile.name} ==")
            _print(out, render_table(title, series))
            _print(out, render_table(
                "-- derived bandwidth --",
                [s.to_bandwidth() for s in series]))
            maybe_plot(title, series)
    if args.only in (None, "fig3"):
        for profile, quick_sizes in ((MX_MYRI10G, QUICK_FIG3_MX),
                                     (QUADRICS_QM500, QUICK_FIG3_Q)):
            for nseg in (8, 16):
                series = run_figure3(
                    profile, n_segments=nseg,
                    sizes=quick_sizes if args.quick else (), iters=iters)
                title = (f"== Figure 3: {nseg}-segment ping-pong over "
                         f"{profile.name} ==")
                _print(out, render_table(title, series))
                _print(out, render_gains(series))
                maybe_plot(title, series)
    if args.only in (None, "fig4"):
        for profile in (MX_MYRI10G, QUADRICS_QM500):
            series = run_figure4(
                profile, sizes=QUICK_FIG4 if args.quick else (), iters=iters)
            title = f"== Figure 4: indexed datatype over {profile.name} =="
            _print(out, render_table(title, series))
            _print(out, render_gains(series))
            maybe_plot(title, series)


def _strategies(out) -> None:
    from repro.core import available_strategies, create

    for name in available_strategies():
        strategy = create(name)
        doc = (type(strategy).__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        _print(out, f"{name:<14} {summary}")


def _profiles(out) -> None:
    for name, p in sorted(PROFILES.items()):
        _print(out, (
            f"{name:<16} tech={p.tech:<6} latency={p.latency_us:>5.2f}us "
            f"bw={p.bandwidth_mbps:>7.1f}MB/s rdv@{p.rdv_threshold:>6}B "
            f"gs={'y' if p.gather_scatter else 'n'} "
            f"rdma={'y' if p.rdma else 'n'}"
        ))


#: The report's engine-stats table, grouped by subsystem: derived from the
#: counter declarations themselves (``counter(group)`` next to each layer),
#: so a new counter cannot fall out of the report.
REPORT_STAT_GROUPS = EngineStats.groups()


def _report_payload(args, pair, messages, stalled) -> dict:
    """Structured report: one dict, rendered as text or dumped as JSON."""
    import dataclasses

    from repro.netsim.stats import (
        adaptive_summary,
        cluster_utilization,
        topology_summary,
    )

    engines = []
    for mpi in pair.ranks:
        engine = mpi.engine
        stats = dataclasses.asdict(engine.stats)
        engines.append({
            "node": engine.node_id,
            "strategy": engine.strategy.describe(),
            **{group: {f: stats[f] for f in fields}
               for group, fields in REPORT_STAT_GROUPS},
            "matcher": {
                "duplicates_dropped": engine.matcher.duplicates_dropped,
                "unexpected_bytes": engine.matcher.unexpected_bytes,
                "peak_unexpected_bytes": engine.matcher.peak_unexpected_bytes,
                "refused_total": engine.matcher.refused_total,
            },
            "window": {"peak_bytes": engine.window.peak_bytes,
                       "deferred": engine.collect.n_deferred},
            # Per-peer RTT estimates: empty outside rel_timeout_us="auto",
            # so the JSON shape is mode-independent.
            "rtt": (adaptive_summary(engine.rtt.snapshot())
                    if engine.rtt is not None else {}),
            "rails_ok": [r for r in range(len(engine.node.nics))
                         if engine.transfer.rail_ok(r)],
        })
    return {
        "config": {
            "rails": args.rails,
            "reliability": args.reliability,
            "flow_control": args.flow_control,
            "sessions": args.sessions,
            "rel_timeout": args.rel_timeout,
            "hedge": args.hedge,
            "messages": args.messages,
            "seed": args.seed,
            "topology": args.topology,
        },
        "replay": {
            "ok": stalled is None,
            "messages": len(messages),
            "payload_bytes": sum(m.size for m in messages),
            "elapsed_us": pair.sim.now,
            "error": None if stalled is None else str(stalled),
        },
        "engines": engines,
        "utilization": [
            {"nic": u.name, "busy_fraction": u.busy_fraction,
             "tx_mbps": u.achieved_tx_mbps, "frames_sent": u.frames_sent,
             "bytes_sent": u.bytes_sent}
            for u in cluster_utilization(pair.cluster)
        ],
        "faults": {**pair.cluster.fault_summary(),
                   "conservation_ok":
                       pair.cluster.conservation_ok(allow_faults=True)},
        "topology": topology_summary(pair.cluster),
    }


def _report(args, out) -> int:
    import json

    from repro.bench.backends import make_backend_pair
    from repro.bench.workloads import TrafficSpec, generate_messages, replay
    from repro.core import EngineParams
    from repro.errors import NetworkError, ReproError, SimulationError
    from repro.netsim import FaultPlan
    from repro.netsim.stats import (
        cluster_utilization,
        render_adaptive,
        render_fault_summary,
        render_topology,
        render_utilization,
    )

    if args.messages < 1:
        raise SystemExit("--messages must be >= 1")
    rails = ((MX_MYRI10G,) if args.rails == 1
             else (MX_MYRI10G, QUADRICS_QM500))
    strategy = "aggregation" if args.rails == 1 else "multirail"
    timing: dict = {}
    if args.rel_timeout is not None:
        if args.rel_timeout == "auto":
            timing["rel_timeout_us"] = "auto"
        else:
            try:
                timing["rel_timeout_us"] = float(args.rel_timeout)
            except ValueError:
                raise SystemExit(
                    f"--rel-timeout must be a number or 'auto', "
                    f"got {args.rel_timeout!r}") from None
        # Echo the parsed value (not the raw flag string) in the report.
        args.rel_timeout = timing["rel_timeout_us"]
    if args.hedge:
        timing["rel_hedge"] = "tail"
    try:
        params = EngineParams(reliability=args.reliability,
                              flow_control=args.flow_control,
                              sessions=args.sessions, **timing)
    except (ReproError, ValueError) as exc:
        raise SystemExit(f"invalid engine configuration: {exc}") from None
    pair = make_backend_pair("madmpi", rails=rails, strategy=strategy,
                             engine_params=params, topology=args.topology)
    if (args.drop_nth or args.slow_link is not None
            or args.link_down_at is not None):
        # drop/slow target the rail-0 link; a link-down alone targets the
        # last rail (so a 2-rail run exercises failover).
        fault_rail = (0 if args.drop_nth or args.slow_link is not None
                      else len(rails) - 1)
        slow = (args.slow_link, 0.0, None) if args.slow_link is not None \
            else None
        try:
            plan = FaultPlan(drop_nth=tuple(args.drop_nth),
                             slow_link=slow,
                             down_at_us=args.link_down_at)
        except NetworkError as exc:
            raise SystemExit(f"invalid fault plan: {exc}") from None
        for link in pair.cluster.links:
            if link.src.node_id == 0 and link.src.rail == fault_rail:
                link.fault_plan = plan
                break
    spec = TrafficSpec(n_messages=args.messages, max_size=32 * KB,
                       large_fraction=0.1, large_max=512 * KB)
    messages = generate_messages(spec, seed=args.seed)
    stalled = None
    try:
        replay(pair, messages, verify_content=True)
    except SimulationError as exc:
        stalled = exc
    payload = _report_payload(args, pair, messages, stalled)

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 0 if stalled is None else 1

    if stalled is None:
        rep = payload["replay"]
        _print(out, (f"replayed {rep['messages']} messages "
                     f"({rep['payload_bytes']} payload bytes) "
                     f"node0 -> node1 in {rep['elapsed_us']:.1f}us "
                     f"[reliability={args.reliability} "
                     f"flow_control={args.flow_control} "
                     f"sessions={args.sessions}]"))
    for eng in payload["engines"]:
        lines = [f"-- engine stats: node{eng['node']} "
                 f"(strategy={eng['strategy']}) --"]
        for group, fields in REPORT_STAT_GROUPS:
            lines.append(f"  [{group}]")
            for field in fields:
                lines.append(f"    {field:<22} {eng[group][field]}")
        lines.append("  [matcher]")
        for key, value in eng["matcher"].items():
            lines.append(f"    {key:<22} {value}")
        lines.append("  [window]")
        for key, value in eng["window"].items():
            lines.append(f"    {key:<22} {value}")
        if eng["rtt"]:
            lines.append("  [rtt]")
            for row in render_adaptive(eng["rtt"]).splitlines():
                lines.append("    " + row)
        lines.append(f"  rails_ok: {eng['rails_ok']}")
        _print(out, "\n".join(lines))
    _print(out, render_utilization(cluster_utilization(pair.cluster)))
    _print(out, render_fault_summary(pair.cluster))
    if payload["topology"]["n_switches"]:
        _print(out, render_topology(payload["topology"]))
    if stalled is not None:
        _print(out, f"SIMULATION STALLED: {stalled}")
        return 1
    return 0


def _chaos(args, out) -> int:
    import json

    # Imported lazily, like the other subcommands: the chaos package pulls
    # in the whole engine stack, which `repro figures` does not need.
    from repro.chaos import ChaosSpec, run_chaos, shrink_schedule
    from repro.errors import ReproError

    if args.seeds < 1:
        raise SystemExit("--seeds must be >= 1")
    topo = dict(topology=args.topology, fat_tree_k=args.fat_tree_k,
                switch_kills=args.switch_kills, adaptive=args.adaptive,
                rtt_drift=args.rtt_drift)
    try:
        spec = (ChaosSpec.quick(crashes=args.crashes, **topo) if args.quick
                else ChaosSpec(crashes=args.crashes, **topo))
    except ReproError as exc:
        raise SystemExit(f"invalid chaos spec: {exc}") from None

    reports = []
    failing = 0
    for seed in range(args.seed, args.seed + args.seeds):
        report = run_chaos(seed, spec)
        reports.append(report)
        _print(out, report.describe())
        if not report.ok:
            failing += 1
            if args.shrink:
                result = shrink_schedule(seed, spec, list(report.faults))
                _print(out, f"  shrunk {len(result.original)} -> "
                            f"{len(result.minimized)} fault(s) in "
                            f"{result.runs} run(s); repro snippet:")
                for line in result.snippet().splitlines():
                    _print(out, "    " + line)

    total = len(reports)
    _print(out, f"chaos sweep: {total - failing}/{total} seed(s) clean")
    if args.json is not None:
        payload = {
            "ok": failing == 0,
            "seeds": [report.to_jsonable() for report in reports],
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _print(out, f"wrote {args.json}")
    return 0 if failing == 0 else 1


def _sanitize(args, out) -> int:
    """Determinism-sanitizer driver (see ``repro.sim.sanitizer``).

    The subprocess harness lives here (not in ``repro.sim``) because the
    scheduling core is forbidden from blocking I/O by NM401; the CLI layer
    is the sanctioned place to fork children and compare bytes.

    Every invocation first runs the **self-test**: the two planted
    nondeterminism fixtures in ``repro.sim._sanitize_fixtures`` must be
    *detected* (their output must vary under the sanitizer), proving the
    detector detects before any "no difference found" result is trusted.
    """
    import os
    import subprocess

    from repro.sim._sanitize_fixtures import batch_order_engine
    from repro.sim.sanitizer import (
        SANITIZE_ENV,
        SanitizeConfig,
        storm_fingerprint,
    )

    if args.hash_seeds < 3:
        raise SystemExit("--hash-seeds must be >= 3")
    hash_seeds = list(range(1, args.hash_seeds + 1))
    failures: list[str] = []

    def run_child(cmd: list[str], hash_seed: int, spec: str = "") -> bytes:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(hash_seed)
        if spec:
            env[SANITIZE_ENV] = spec
        else:
            env.pop(SANITIZE_ENV, None)
        proc = subprocess.run([sys.executable, *cmd],
                              capture_output=True, env=env)
        if proc.returncode != 0:
            raise SystemExit(
                f"sanitize child {cmd} (PYTHONHASHSEED={hash_seed}, "
                f"{SANITIZE_ENV}={spec or '<unset>'}) exited "
                f"{proc.returncode}:\n{proc.stderr.decode(errors='replace')}")
        return proc.stdout

    # -- self-test: both planted fixtures must be DETECTED --------------------
    fixture_cmd = ["-c", "from repro.sim._sanitize_fixtures import "
                         "hash_order_engine; print(hash_order_engine())"]
    hash_outputs = {run_child(fixture_cmd, s) for s in hash_seeds}
    if len(hash_outputs) > 1:
        _print(out, f"selftest: hash-order fixture DETECTED "
                    f"({len(hash_outputs)} distinct outputs over "
                    f"{len(hash_seeds)} hash seeds)")
    else:
        failures.append("hash-order fixture NOT detected: output identical "
                        "across hash seeds (is hash randomization off?)")
    batch_outputs = {batch_order_engine(SanitizeConfig(shake_seed=s))
                     for s in (1, 2, 3)}
    batch_outputs.add(batch_order_engine(None))
    if len(batch_outputs) > 1:
        _print(out, f"selftest: batch-order fixture DETECTED "
                    f"({len(batch_outputs)} distinct dispatch orders "
                    f"under shaking)")
    else:
        failures.append("batch-order fixture NOT detected: intra-timestamp "
                        "shaking changed nothing (is the shake hook dead?)")

    if args.trace:
        probe = run_child(["-c", "from repro.sim import Tracer; "
                                 "print(Tracer().enabled)"],
                          hash_seeds[0], spec="trace")
        if probe.strip() == b"True":
            _print(out, "selftest: trace hook switches a default Tracer on")
        else:
            failures.append("trace hook dead: a default Tracer() stays "
                            f"disabled under {SANITIZE_ENV}=trace")

    # -- byte-equivalence sweeps ----------------------------------------------
    both = args.trace and not (args.figures or args.chaos)
    targets: list[tuple[str, list[str]]] = []
    if args.figures or both:
        targets.append(("figures", ["-m", "repro", "figures", "--quick"]))
    if args.chaos or both:
        targets.append(("chaos", ["-m", "repro", "chaos",
                                  "--seed", str(args.seed), "--quick"]))
    for label, cmd in targets:
        baseline = run_child(cmd, hash_seeds[0])
        for s in hash_seeds[1:]:
            if run_child(cmd, s) != baseline:
                failures.append(f"{label}: output differs between "
                                f"PYTHONHASHSEED={hash_seeds[0]} and {s} "
                                "(hash-order dependence)")
        if run_child(cmd, hash_seeds[0], spec="nocoalesce") != baseline:
            failures.append(f"{label}: output differs under the "
                            "no-coalesce kernel (a coalescing guard is "
                            "not order-equivalent)")
        if args.trace and \
                run_child(cmd, hash_seeds[0], spec="trace") != baseline:
            failures.append(f"{label}: output differs with tracing on "
                            "(an emit site, or the code computing its "
                            "details, changes state)")
        if not any(f.startswith(label + ":") for f in failures):
            _print(out, f"{label}: byte-identical over {len(hash_seeds)} "
                        f"hash seeds + no-coalesce kernel"
                        + (" + tracing on" if args.trace else ""))

    # -- in-process storm fingerprints ----------------------------------------
    if args.storm or not targets:
        configs: list[tuple[str, SanitizeConfig | None]] = [
            ("default", None),
            ("nocoalesce", SanitizeConfig(no_coalesce=True)),
            ("shake:1", SanitizeConfig(shake_seed=1)),
            ("shake:2", SanitizeConfig(shake_seed=2)),
            ("shake:3", SanitizeConfig(shake_seed=3)),
        ]
        fingerprints = {label: storm_fingerprint(cfg)
                        for label, cfg in configs}
        if len(set(fingerprints.values())) == 1:
            _print(out, f"storm: fingerprint {fingerprints['default']} "
                        f"stable across {len(configs)} kernel configs")
        else:
            failures.append(f"storm: fingerprints diverge across kernel "
                            f"configs: {fingerprints}")

    if failures:
        for failure in failures:
            _print(out, "SANITIZE FAIL: " + failure)
        return 1
    _print(out, "sanitize: all checks passed")
    return 0


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "figures":
        _figures(args, out)
    elif args.command == "strategies":
        _strategies(out)
    elif args.command == "profiles":
        _profiles(out)
    elif args.command == "report":
        return _report(args, out)
    elif args.command == "chaos":
        return _chaos(args, out)
    elif args.command == "sanitize":
        return _sanitize(args, out)
    elif args.command == "perf":
        import json as _json

        from repro.bench.perf import (
            check_bench,
            render_perf,
            run_suite,
            write_bench,
        )

        baseline = None
        if args.check is not None:
            # Read before writing --out: the two paths may be the same
            # file, and the gate must compare against the committed copy.
            with open(args.check, encoding="utf-8") as fh:
                baseline = _json.load(fh)
        payload = run_suite(quick=args.quick)
        _print(out, render_perf(payload))
        path = write_bench(payload, args.out)
        _print(out, f"wrote {path}")
        if baseline is not None:
            failures, skipped = check_bench(payload, baseline)
            for line in skipped:
                _print(out, f"  not compared - {line}")
            if failures:
                _print(out, f"PERF GATE FAILED vs {args.check}:")
                for line in failures:
                    _print(out, f"  - {line}")
                return 1
            _print(out, f"perf gate passed vs {args.check}")
    elif args.command == "validate":
        from repro.bench.claims import evaluate_claims, render_verdicts

        verdicts = evaluate_claims()
        _print(out, render_verdicts(verdicts))
        return 0 if all(v.passed for v in verdicts) else 1
    return 0
