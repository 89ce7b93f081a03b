"""The crossmod benchmark.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts fresh worker processes one after another: four that only set
up (for the median set-up time) and one that sets up and measures. With
--trace 1 a single worker measures per-layer metrics instead. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["eval-small", "eval-wide", "check-ladder", "cli-roundtrip"]
SETUP_RUNS = 5
BUDGET_S = 170              # for all workers of one run together


def baseline_digest(workload, seed):
    try:
        doc = json.loads((HERE / "baseline.json").read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return doc.get("output_sha256", {}).get(workload, {}).get(str(seed))


def start_worker(args, mode, seconds, deadline):
    """Run one worker to its end and return its JSON line."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode,
           "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:    # run() has killed and reaped it
        sys.exit(f"perfbench: {mode} worker ran out of time")
    if proc.returncode != 0:
        sys.exit(f"perfbench: {mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crossmod" / "__init__.py").is_file():
        sys.exit(f"perfbench: no crossmod sources under {ROOT / 'src'}")

    deadline = time.clock_gettime(time.CLOCK_MONOTONIC) + BUDGET_S
    if args.trace:
        res = start_worker(args, "trace", args.seconds, deadline)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["metrics"].items()}
    else:
        setups = [start_worker(args, "setup", 0, deadline)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        res = start_worker(args, "measure", args.seconds, deadline)
        setups.append(res["setup_s"])
        norm, raw = res["normalized"], res["raw"]
        metrics = {
            "ops_per_s": {"value": res["attempted"] / norm["busy_s"], "unit": "op/s"},
            "op_p50_ms": {"value": norm["p50_s"] * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": norm["p90_s"] * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
    expected = baseline_digest(args.workload, args.seed)
    match = "none stored" if expected is None else \
        ("match" if expected == res["output_sha256"] else "DIFFERS")
    correct = not res["unexpected"] and not res["nondeterministic"]
    summary = [f"workload={args.workload} seed={args.seed} trace={args.trace} "
               f"ops/cycle={res['ops']} cycles={res['cycles']}",
               f"  fail_ratio = {res['failed'] / res['attempted']:.6g} [1] "
               f"({res['failed']} of {res['attempted']} ops; known seed defects only: "
               f"{not res['unexpected']})",
               f"  output_sha256 = {res['output_sha256']} (stored baseline: {match})"]
    for name, m in metrics.items():
        summary.append(f"  {name} = {m['value']:.6g} [{m['unit']}]"
                       + (f" (n={res['attempted']})" if name.startswith("op_p") else ""))
    if not args.trace:
        summary.append(f"  wall clock, not normalized: ops_per_s = "
                       f"{res['attempted'] / raw['busy_s']:.6g}, op_p50_ms = "
                       f"{raw['p50_s'] * 1e3:.6g}, op_p90_ms = {raw['p90_s'] * 1e3:.6g}, "
                       f"setup_s = {res['setup_raw_s']:.6g}")
    for problem in res["unexpected"] + [f"{k}: nondeterministic" for k in res["nondeterministic"]]:
        summary.append(f"  FAILED {problem}")
    print("\n".join(summary))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
