"""Full-stack MAD-MPI macro-benchmark: one command, every metric by name.

Three ways in, all driving the same fresh-interpreter runs (``one_run.py``):

* the benchmark contract (``BENCHMARK.json``):
  ``run.py --workload W --seed N --seconds S --trace 0|1`` measures one
  workload for S seconds and prints the metrics, last line one JSON object
  (``--trace 0``: end-to-end; ``--trace 1``: per-layer);
* the suite: ``run.py --seed N [--workload W] [--repeats R] [--traced]
  [--out F] [--quick]`` interleaves R timed repeats of every workload
  round-robin and writes one JSON document;
* ``run.py --compare A.json B.json`` judges two suite documents against
  the bounds in ``BENCHMARK.json`` (exit 1 on any "worse").

Two clocks, always labelled: **host** is what the simulator costs to run on
this machine (noisy; medians of fresh-interpreter repeats, rescaled to the
reference box's usual speed by a calibration loop timed around every run);
**simulated** is what the modelled 2006 testbed would do, and **exact**
marks counts; both repeat exactly for a fixed seed.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
ONE_RUN = os.path.join(HERE, "one_run.py")
OUT_DIR = os.path.join(HERE, "out")
#: The plan a workload's opt-in layers are priced against (same messages,
#: paper mode); others are their own baseline.
BASELINE = {"hardened_a2a_small": "burst_a2a_small",
            "lossy_fat_tree": "burst_a2a_small"}
#: Only here may operations fail without failing the command.
FAULTY = {"lossy_fat_tree"}
MIN_REPEATS = 3
#: What ``calibrate`` takes on the 2-core reference box at its usual speed.
#: Host times are rescaled by measured / reference, so numbers stay close
#: to plain wall-clock ones there.
REFERENCE_CALIBRATION_S = 0.125

_HOST_NAMES = {
    "setup_s", "msgs_per_s", "peak_rss_mb", "sim.events_per_s",
    "harness.trace_overhead_ratio", "engine.hardened_cost_ratio"}


class Spec:
    """``BENCHMARK.json``: the one place metric names, units, directions
    and bounds are written down."""

    def __init__(self) -> None:
        with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
            doc = json.load(fh)
        self.workloads = [w["name"] for w in doc["workloads"]]
        self.end_to_end = {m["name"]: m for m in doc["end_to_end"]}
        self.per_layer = {m["name"]: m for m in doc["per_layer"]}


def clock_of(name: str) -> str:
    """Which clock a metric is read off: host, simulated, or exact count."""
    if name in _HOST_NAMES or name.endswith((".self_s", ".self_share")):
        return "host"
    if name.startswith("sim_") or "_us_p" in name:
        return "simulated"
    return "exact"


def calibrate() -> float:
    """Seconds this box takes, right now, for a fixed pure-Python job.

    The sandbox's speed wanders by 15-20% for minutes at a time (other
    tenants, frequency), which moves every host-clock number together.
    Timing a fixed job of the same kind of work (heap pushes, dict stores,
    small allocations; nothing from the repo) just before and just after
    each run lets host times be rescaled to the reference box's usual
    speed, so a slow minute does not read as a regression.  It runs here,
    not in the measured process, whose peak RSS it would otherwise set.
    """
    gc.disable()   # the job must cost the same whatever else is on the heap
    try:
        t0 = time.perf_counter()
        heap: list = []
        table = {}
        for i in range(200_000):
            item = (i * 7919 % 100_003, i, [i])
            heapq.heappush(heap, item)
            table[i] = item
            if i & 3 == 0:
                heapq.heappop(heap)
        total = 0
        for item in table.values():
            total += item[0]
        return time.perf_counter() - t0
    finally:
        gc.enable()


def one_run(workload: str, seed: int, quick: bool, traced: bool = False) -> dict:
    """One fresh-interpreter run; returns the child's JSON result with the
    host times also given at reference speed."""
    cmd = [sys.executable, ONE_RUN, "--workload", workload,
           "--seed", str(seed)]
    if quick:
        cmd.append("--quick")
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--traced", "--trace-out",
                os.path.join(OUT_DIR, f"trace-{workload}.json")]
    calibration_s = calibrate()
    proc = subprocess.run(
        cmd + ["--started", repr(time.time())], env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE, text=True, timeout=150)
    calibration_s = (calibration_s + calibrate()) / 2
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed (exit {proc.returncode})")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["calibration_s"] = calibration_s
    slowdown = calibration_s / REFERENCE_CALIBRATION_S
    result["msgs_per_s"] = result["raw_msgs_per_s"] * slowdown
    result["setup_s"] = result["raw_setup_s"] / slowdown
    return result


def summarize(spec: Spec, runs: list[dict]) -> dict:
    """Median of each end-to-end metric over repeats, with min, max, n and
    the quartile distance as a share of the median (``spread``)."""
    out = {}
    for name, metric in spec.end_to_end.items():
        values = [r[name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"value": median, "unit": metric["unit"],
                     "min": min(values), "max": max(values),
                     "n": len(values), "spread": (q3 - q1) / median}
    return out


def per_layer(spec: Spec, untraced: dict, traced: dict, msgs_per_s: float,
              baseline_msgs_per_s: float | None) -> dict:
    """Every per-layer metric of one workload, by name."""
    values = dict(untraced["counters"])
    for name in ("sim_latency_us_p50", "sim_latency_us_p99",
                 "sim_makespan_us", "failed_ops_share"):
        values[name] = untraced[name]
    for layer, numbers in traced["layers"].items():
        for metric, value in numbers.items():
            values[f"{layer}.{metric}"] = value
    values.update(traced["stages"])
    values["strategy.empty_select_share"] = \
        traced["strategy.empty_select_share"]
    values["harness.trace_overhead_ratio"] = \
        traced["run_wall_s"] / untraced["run_wall_s"]
    values["engine.hardened_cost_ratio"] = \
        baseline_msgs_per_s / msgs_per_s if baseline_msgs_per_s else 1.0
    return {name: {"value": values[name], "unit": metric["unit"]}
            for name, metric in spec.per_layer.items()}


def show(workload: str, metrics: dict, latency_samples: int = 0) -> None:
    if latency_samples:
        print(f"{workload:20s} sim_latency_us_* over {latency_samples} "
              "messages")
    for name, m in metrics.items():
        spread = (f"  (min {m['min']:.6g} max {m['max']:.6g} n={m['n']} "
                  f"spread {m['spread']:.1%})" if "n" in m else "")
        print(f"{workload:20s} {name:36s} {m['value']:>14.6g} "
              f"{m['unit']:6s} [{clock_of(name)}]{spread}")


def check(runs: list[dict]) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over runs of one workload."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return attempted, failed, failed == 0 and all(r["stack_ok"] for r in runs)


# -- the benchmark contract: one workload, --seconds, last line JSON ---------

def contract(spec: Spec, args) -> int:
    w = args.workload
    if args.trace:
        untraced = one_run(w, args.seed, args.quick)
        traced = one_run(w, args.seed, args.quick, traced=True)
        base = BASELINE.get(w)
        base_rate = (one_run(base, args.seed, args.quick)["msgs_per_s"]
                     if base else None)
        runs = [untraced, traced]
        metrics = per_layer(spec, untraced, traced, untraced["msgs_per_s"],
                            base_rate)
    else:
        runs = []
        deadline = time.monotonic() + args.seconds
        while len(runs) < MIN_REPEATS or time.monotonic() < deadline:
            runs.append(one_run(w, args.seed, args.quick))
        metrics = summarize(spec, runs)
    show(w, metrics, runs[0]["sim_latency_samples"] if args.trace else 0)
    attempted, failed, correct = check(runs)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()}}))
    return 0 if correct or w in FAULTY else 1


# -- the suite ----------------------------------------------------------------

def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def suite(spec: Spec, args) -> int:
    names = [args.workload] if args.workload else spec.workloads
    needed = list(names)
    if args.traced:   # the ratio needs the baseline's rate too
        needed += [b for n in names
                   if (b := BASELINE.get(n)) and b not in needed]
    timed: dict[str, list[dict]] = {n: [] for n in needed}
    # Round-robin, not back to back: slow drift of the box (thermal, a
    # noisy neighbour) then lands on every workload alike.
    for _ in range(max(MIN_REPEATS, args.repeats)):
        for name in needed:
            timed[name].append(one_run(name, args.seed, args.quick))
    doc = {
        "schema": "repro-macro/1", "seed": args.seed, "quick": args.quick,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": _commit(), "workloads": {},
    }
    status = 0
    for name in names:
        runs = timed[name]
        end_to_end = summarize(spec, runs)
        entry = {"end_to_end": end_to_end,
                 "messages_per_run": runs[0]["attempted"],
                 "plan_fingerprint": runs[0]["plan_fingerprint"],
                 # what was measured, before rescaling to reference speed
                 "timed_runs": [{k: r[k] for k in (
                     "run_wall_s", "raw_msgs_per_s", "raw_setup_s",
                     "calibration_s")} for r in runs]}
        show(name, end_to_end)
        if args.traced:
            traced = one_run(name, args.seed, args.quick, traced=True)
            base = BASELINE.get(name)
            entry["per_layer"] = per_layer(
                spec, runs[0], traced, end_to_end["msgs_per_s"]["value"],
                summarize(spec, timed[base])["msgs_per_s"]["value"]
                if base else None)
            show(name, entry["per_layer"], runs[0]["sim_latency_samples"])
            runs = runs + [traced]
        entry["attempted"], entry["failed"], correct = check(runs)
        if not correct and name not in FAULTY:
            print(f"{name}: {entry['failed']} of {entry['attempted']} "
                  "operations failed on a fault-free workload")
            status = 1
        doc["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    return status


# -- --compare ------------------------------------------------------------------

def _load_workloads(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)["workloads"]


def compare(spec: Spec, base_path: str, new_path: str) -> int:
    base = _load_workloads(base_path)
    new = _load_workloads(new_path)
    any_worse = False
    print(f"{'workload':20s} {'metric':14s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'bound':>6s}  verdict")
    for name in base:
        if name not in new:
            continue
        for metric, m in spec.end_to_end.items():
            b, n = base[name]["end_to_end"][metric], \
                new[name]["end_to_end"][metric]
            ratio = n["value"] / b["value"]
            # gain > 0 means the new side is better, in units of the base.
            gain = ratio - 1 if m["better"] == "higher" else 1 - ratio
            if max(b["spread"], n["spread"]) > m["bound"]:
                verdict = "unresolved"   # repeats disagree more than bound
            elif gain < -m["bound"]:
                verdict = "worse"
                any_worse = True
            else:
                verdict = "better" if gain > m["bound"] else "same"
            print(f"{name:20s} {metric:14s} {b['value']:12.6g} "
                  f"{n['value']:12.6g} {ratio:9.4f} {m['bound']:6.2f}  "
                  f"{verdict}")
        # Simulated and counted metrics repeat exactly for a seed: any
        # difference means the change altered what is simulated.
        b_layers = base[name].get("per_layer", {})
        n_layers = new[name].get("per_layer", {})
        for metric in b_layers:
            if metric in n_layers and clock_of(metric) != "host" and \
                    b_layers[metric]["value"] != n_layers[metric]["value"]:
                print(f"{name:20s} {metric} changed: "
                      f"{b_layers[metric]['value']!r} -> "
                      f"{n_layers[metric]['value']!r} [{clock_of(metric)}]")
        if new[name]["failed"] > base[name]["failed"]:
            print(f"{name:20s} failed operations rose: "
                  f"{base[name]['failed']} -> {new[name]['failed']}  worse")
            any_worse = True
    return 1 if any_worse else 0


def main() -> int:
    spec = Spec()
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=spec.workloads)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="contract mode: keep repeating for this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="contract mode: 1 = per-layer metrics")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--traced", action="store_true",
                    help="suite: add the traced run's per-layer metrics")
    ap.add_argument("--quick", action="store_true",
                    help="a tenth of the phases (smoke runs and tests)")
    ap.add_argument("--out", help="suite: write the JSON document here")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args()
    if args.compare:
        return compare(spec, *args.compare)
    calibrate()   # the first call pays for fresh memory; not a measurement
    if args.seconds is not None:
        if not args.workload:
            ap.error("--seconds needs --workload")
        return contract(spec, args)
    return suite(spec, args)


if __name__ == "__main__":
    sys.exit(main())
