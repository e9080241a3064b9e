"""One workload in one single-threaded process; prints one JSON line.

Modes:

* ``setup``   -- import levelflow, generate and prepare the inputs, run one
  warm-up check, report the set-up time and exit;
* ``measure`` -- set up, then run the workload's checks as a closed loop
  with one client (each check starts when the previous verdict is in), in
  whole passes over the check list, until the next pass would overrun
  ``--seconds``; within a pass a check faster than ``REPEAT_S`` runs again
  back to back until it has used ``REPEAT_S``, so cheap checks get enough
  samples for a per-check quartile; report per-check wall times and the
  correctness gate;
* ``trace``   -- set up, then alternate an untraced and a traced pass over
  the check list (the first traced pass gives the per-layer metrics and
  the deterministic counters, every pair gives the tracing overhead), then
  run the kernel probes.

``--t0`` is the parent's CLOCK_MONOTONIC reading just before it started
this process, so the set-up time includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SETUP_START = time.monotonic()
REPEAT_S = 0.04  # measure mode: a check faster than this repeats within a pass


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--t0", type=float, default=None)
    ap.add_argument("--work", required=True)
    ap.add_argument("--cycles", type=int, default=0,
                    help="trace mode: exactly this many traced passes (0: by time)")
    ap.add_argument("--probes", type=int, default=1)
    ap.add_argument("--spans", default=None, help="trace mode: write spans here (.npz)")
    return ap.parse_args(argv)


class Runner:
    """Prepared checks of one workload and the correctness tally."""

    def __init__(self, args):
        import levelflow as lf
        import levelflow.cli  # noqa: F401  (the CLI entry point is a check target)

        import workloads
        self.lf = lf
        self.W = workloads
        self.checks = workloads.generate(args.workload, args.seed)
        self.inputs_sha256 = hashlib.sha256(workloads.inputs_blob(self.checks)).hexdigest()
        work = Path(args.work)
        work.mkdir(parents=True, exist_ok=True)
        self.ctx = workloads.Context(lf, work)
        self.prepared = [workloads.prepare(i, c, self.ctx)
                         for i, c in enumerate(self.checks)]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.oracle_errs: dict[int, list[float]] = {}

    def run_one(self, i, wrap=None):
        """Run check i; returns its wall time (call only, verify untimed)."""
        call, verify = self.prepared[i]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = call() if wrap is None else wrap(i, call)
        except Exception as exc:  # any raise the check does not expect fails it
            dt = time.perf_counter() - t0
            self._fail(i, f"{type(exc).__name__}: {exc}")
            return dt
        dt = time.perf_counter() - t0
        try:
            errs = verify(result)
        except self.W.OracleMismatch as exc:
            self._fail(i, str(exc))
            return dt
        self.oracle_errs[i] = errs
        return dt

    def _fail(self, i, msg):
        self.failed += 1
        if len(self.failures) < 10:
            c = self.checks[i]
            self.failures.append(f"check {i} ({c['kind']} {c['params'].get('sub', '')}"
                                 f"{c['params'].get('oracle', '')}): {msg}")

    def cycle(self, wrap=None):
        return [self.run_one(i, wrap) for i in range(len(self.prepared))]

    def close(self):
        self.ctx.close()


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def measure(args, runner, setup_s):
    """``times``: the first run of each check in each pass, pass-major (the
    closed loop's samples); ``samples[i]``: every timed run of check i."""
    times, cycles = [], 0
    samples = [[] for _ in runner.prepared]
    start = time.perf_counter()
    last = 0.0
    while cycles == 0 or (time.perf_counter() - start) + last <= args.seconds:
        c0 = time.perf_counter()
        for i, runs in enumerate(samples):
            dt = runner.run_one(i)
            times.append(dt)
            runs.append(dt)
            spent = dt
            while spent < REPEAT_S:
                runs.append(runner.run_one(i))
                spent += runs[-1]
        last = time.perf_counter() - c0
        cycles += 1
    return {"setup_s": setup_s, "times": times, "samples": samples, "cycles": cycles,
            "window_s": time.perf_counter() - start,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def trace(args, runner, setup_s):
    from tracer import Tracer

    lf = runner.lf
    cli_out = {i: runner.ctx.work / f"check{i}" for i, c in enumerate(runner.checks)
               if c["kind"] == "cli"}
    runner.cycle()  # untimed pass: first-call costs of every check
    first = None
    plain_s = traced_s = 0.0
    pairs = 0
    start = time.perf_counter()
    last = 0.0
    while True:
        if args.cycles:
            if pairs >= args.cycles:
                break
        elif pairs and (time.perf_counter() - start) + last > args.seconds:
            break
        p0 = time.perf_counter()
        plain_s += sum(runner.cycle())
        tracer = Tracer()

        def wrap(i, call, counts=tracer.counts, check=tracer.check):
            points = runner.checks[i]["points"]
            before = counts["fields.jet.points"]
            try:
                return check(i, call)
            finally:
                if points:
                    counts["bench.requested_points"] += points
                    counts["bench.requested_jet_points"] += (
                        counts["fields.jet.points"] - before)
                if i in cli_out:
                    counts["cli.bytes_written"] += _dir_bytes(cli_out[i])

        tracer.install(lf)
        try:
            traced_s += sum(runner.cycle(wrap))
        finally:
            tracer.uninstall()
        first = first or tracer
        pairs += 1
        last = time.perf_counter() - p0

    tracer = first
    layers = tracer.layer_metrics()
    layers["trace.overhead_frac"] = traced_s / plain_s - 1.0
    if args.probes:
        from probes import run_probes
        layers.update(run_probes(lf))
    if args.spans:
        tracer.save(args.spans)
    return {"setup_s": setup_s, "layers": layers, "counters": tracer.counters(),
            "pairs": pairs, "plain_s": plain_s, "traced_s": traced_s}


def main(argv=None):
    args = parse_args(argv)
    t0 = SETUP_START if args.t0 is None else args.t0
    runner = Runner(args)
    try:
        runner.run_one(0)  # warm-up: first-call costs land in set-up
        setup_s = time.monotonic() - t0
        if args.mode == "setup":
            out = {"setup_s": setup_s}
        elif args.mode == "measure":
            out = measure(args, runner, setup_s)
        else:
            out = trace(args, runner, setup_s)
    finally:
        runner.close()
    out.update({"attempted": runner.attempted, "failed": runner.failed,
                "failures": runner.failures,
                "oracle_errs": [e for i in sorted(runner.oracle_errs)
                                for e in runner.oracle_errs[i]],
                "checks_per_cycle": len(runner.checks),
                "check_mix": [f"{c['kind']}/{c['params'].get('sub', '')}/"
                              f"{c['params'].get('oracle', '')}" for c in runner.checks],
                "inputs_sha256": runner.inputs_sha256,
                "levelflow_file": runner.lf.__file__})
    print(json.dumps(out))


if __name__ == "__main__":
    try:
        main()
    except Exception:
        traceback.print_exc()
        sys.exit(3)
