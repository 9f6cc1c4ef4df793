"""The macro-benchmark's span hooks still see the engine.

``benchmarks/macro/spans.py`` times each message's stages by wrapping
engine methods (``Nic.post_send``, ``TransferLayer.demux_frame``,
``Matcher.deliver``, ...) positionally.  A change that reroutes work under
one of them can leave a stage with no span and the benchmark still
running; this runs one quick traced run exactly as the benchmark does, in
a fresh interpreter, and reads what it wrote.  Nothing under
``benchmarks/macro`` is imported here.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The five stages a message crosses between ``isend`` and its match.
STAGES = ("window.wait_us", "transfer.pull_us", "netsim.wire_us",
          "transfer.demux_us", "matching.match_us")


def test_traced_bulk_run_spans_every_stage(tmp_path):
    trace = tmp_path / "spans.json"
    out = subprocess.run(
        [sys.executable, "benchmarks/macro/one_run.py",
         "--workload", "bulk_multirail", "--seed", "1", "--quick",
         "--traced", "--trace-out", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    run = json.loads(out.stdout.strip().splitlines()[-1])
    assert run["traced"] and run["failed"] == 0
    names = {span["name"] for span in json.loads(trace.read_text())["spans"]}
    assert set(STAGES) <= names, sorted(names)
    assert run["stages"]["rendezvous.handshake_us_p50"] > 0
