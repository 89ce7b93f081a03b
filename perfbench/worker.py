"""One benchmark process: set up one workload, then run its ops in a closed
loop (the next op starts when the previous one returns) and print one JSON
line with the raw measurements. Started by run.py, one at a time.

Usage: python3 perfbench/worker.py --workload W --seed N --seconds S
           --mode {setup,measure,trace} --t0 T
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
clock = time.perf_counter


def import_program():
    """Import crossmod from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import crossmod
        import crossmod.cli  # noqa: F401  (loads every module the tracer patches)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import crossmod from {src}: {exc}")
    if Path(crossmod.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: crossmod imported from {crossmod.__file__}, not {src}")


class Loop:
    """Runs ops, times each call into the program, applies the oracles and
    keeps the canonical results of the first cycle for the digest."""

    def __init__(self, ops, speed, mismatch, tracer=None):
        self.ops = ops
        self.speed = speed
        self.mismatch = mismatch    # the exception type oracles raise
        self.tracer = tracer
        self.latencies = []         # wall clock
        self.normalized = []        # at the reference machine speed
        self.failed = 0
        self.unexpected = []        # failures that are not known seed defects
        self.first = {}             # op key -> canonical result text
        self.nondeterministic = []

    def cycle(self):
        for n, op in enumerate(self.ops):
            self.speed.tick()
            if self.tracer is not None:
                self.tracer.op_id = n
            t0 = clock()
            try:
                result, raised = op.run(), None
            except Exception as exc:    # a crash is an op result, judged below
                result, raised = None, exc
            dt = clock() - t0
            self.latencies.append(dt)
            self.normalized.append(dt * self.speed.scale())
            self.judge(op, result, raised)

    def judge(self, op, result, raised):
        if raised is not None:
            ok, canon = False, {"raised": type(raised).__name__}
        else:
            try:
                ok, canon = True, op.check(result)
            except self.mismatch as exc:
                ok, canon = False, {"mismatch": str(exc)}
            except (KeyError, TypeError, AttributeError, ValueError) as exc:
                # output of an unexpected shape, e.g. JSON without a field
                ok, canon = False, {"malformed_output": type(exc).__name__}
        if not ok:
            self.failed += 1
            if op.defect is None:
                self.unexpected.append(f"{op.key}: {canon}")
        text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
        if op.key not in self.first:
            self.first[op.key] = text
        elif self.first[op.key] != text:
            self.nondeterministic.append(op.key)

    def digest(self):
        h = hashlib.sha256()
        for op in self.ops:
            h.update(f"{op.key}\t{self.first[op.key]}\n".encode())
        return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC reading when the parent started this process")
    args = parser.parse_args(argv)

    import_program()
    import workloads
    from speed import Speed
    from tracer import Tracer
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")

    # inputs, outputs and spans live in a private directory of the checkout;
    # paths are relative to it, so messages that name them are reproducible
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        tracer = Tracer() if args.mode == "trace" else None
        if tracer is not None:
            tracer.install()
        ops = workloads.WORKLOADS[args.workload](args.seed)
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
        if tracer is not None:
            tracer.uninstall()
        speed = Speed()
        out = {"setup_raw_s": setup_s, "setup_s": setup_s * speed.settled_scale(),
               "ops": len(ops)}
        if args.mode == "measure":
            out.update(measure(Loop(ops, speed, workloads.Mismatch), args.seconds))
        elif args.mode == "trace":
            out.update(trace(ops, speed, workloads.Mismatch, tracer, args))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))


def summarize(loop, cycles):
    return {
        "cycles": cycles,
        "attempted": len(loop.latencies),
        "failed": loop.failed,
        "unexpected": loop.unexpected[:20],
        "nondeterministic": loop.nondeterministic[:20],
        "output_sha256": loop.digest(),
    }


def latency_stats(values):
    return {"busy_s": sum(values), "p50_s": statistics.median(values),
            "p90_s": statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]}


def measure(loop, seconds):
    """Whole cycles until `seconds` of wall time have passed."""
    start, cycles = clock(), 0
    while cycles == 0 or clock() - start < seconds:
        loop.cycle()
        cycles += 1
    out = summarize(loop, cycles)
    out["raw"] = latency_stats(loop.latencies)
    out["normalized"] = latency_stats(loop.normalized)
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def trace(ops, speed, mismatch, tracer, args):
    """One cycle untraced, then the same cycle traced; the counts cover the
    traced set-up and the traced cycle, so they repeat exactly."""
    plain = Loop(ops, speed, mismatch)
    plain.cycle()
    tracer.install()
    try:
        traced = Loop(ops, speed, mismatch, tracer)
        traced.cycle()
    finally:
        tracer.uninstall()
    busy = sum(traced.latencies)
    # traced over untraced ops per second, both at the reference speed
    ratio = sum(plain.normalized) / sum(traced.normalized)
    tracer.write(ROOT / ".perfbench_work" / f"spans-{args.workload}-{args.seed}.tsv")
    out = summarize(traced, 1)
    out["unexpected"] = (plain.unexpected + traced.unexpected)[:20]
    out["metrics"] = tracer.metrics(busy, ratio)
    return out


if __name__ == "__main__":
    main()
