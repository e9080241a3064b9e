"""Seeded end-to-end and per-layer benchmark of levelflow.

Run from the root of a source checkout (``src/levelflow`` must exist):

    python3 perfbench/run.py --workload radial_profiles --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Each workload runs in its own child process (``perfbench/child.py``) with
BLAS and levelflow threads pinned to one, as a closed loop with one client.
With ``--trace 0`` the benchmark reports the end-to-end metrics: set-up
time (median of three child processes), checks per second, median and tail
wall time of one check, digits of agreement with the closed-form oracles,
and peak resident memory.  The run makes whole passes over the check list,
and cheap checks run several times per pass.  Checks per second and the
median take each check at the upper quartile of its timed runs: on a shared
host a core runs up to 2x slower for seconds at a time while a neighbour is
busy, that busy state occurs in every run and the idle state does not, so the
upper quartile is the per-check time that repeats from run to run.  The tail
is taken over the first run of each check in each pass.  With ``--trace 1``
it reports the per-layer metrics of a traced pass over the same checks, the
tracing overhead and the kernel probe rows.  ``traced_levels`` runs here
but is left out of BENCHMARK.json's workloads as too noisy for its bounds
(see ``dropped_from_benchmark_json`` in ``design.json``).  Every check's
verdict is compared with an independent oracle; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run output and span files go to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("radial_profiles", "pointwise_batteries", "traced_levels", "conical_levels")
SETUP_RUNS = 3          # set-up time is the median over this many processes
RUN_LIMIT_S = 170.0     # every child of one workload ends within this
UNIT_ROUNDOFF = 2.0**-53
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
             "LEVELFLOW_THREADS": "1", "PYTHONHASHSEED": "0"}
E2E_UNITS = {"setup_s": "s", "checks_per_s": "1/s", "check_s_p50": "s",
             "check_s_tail": "s", "oracle_digits": "digits", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not run (missing sources, a child crashed)."""


def tail(times):
    """(value, percentile): the sample with exactly ten samples beyond it,
    i.e. the highest percentile that still has ten samples beyond it."""
    n = len(times)
    if n <= 10:
        raise BenchError(f"{n} checks are too few for a tail percentile")
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def upper_quartile(xs) -> float:
    """75th percentile with linear interpolation (numpy's default)."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=4, method="inclusive")[2]


def oracle_digits(errs) -> tuple[float, float]:
    """(mean, worst) digits of agreement, -log10 of each relative error,
    with errors below the unit roundoff counted as exact."""
    digits = [-math.log10(max(e, UNIT_ROUNDOFF)) for e in errs]
    return statistics.fmean(digits), min(digits)


def run_child(root: Path, args, mode: str, work: Path, deadline: float, **extra) -> dict:
    """Run child.py in ``mode``; it is killed (and waited for) at ``deadline``,
    a time.monotonic() reading."""
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload_name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--work", str(work)]
    for key, val in extra.items():
        cmd += [f"--{key}", str(val)]
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} child exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = (root / "src" / "levelflow" / "__init__.py").resolve()
    if Path(out["levelflow_file"]).resolve() != expected:
        raise BenchError(f"imported {out['levelflow_file']}, not {expected}")
    return out


def measure_workload(root: Path, args, work: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    for k in range(SETUP_RUNS - 1):
        setups.append(run_child(root, args, "setup", work / f"setup{k}", deadline)["setup_s"])
    out = run_child(root, args, "measure", work / "measure", deadline)
    setups.append(out["setup_s"])
    times = out["times"]
    value, pct = tail(times)
    n = len(times)
    per_pass = out["checks_per_cycle"]
    per_check = [upper_quartile(runs) for runs in out["samples"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "checks_per_s": per_pass / sum(per_check),
        "check_s_p50": statistics.median(per_check),
        "check_s_tail": value,
        "oracle_digits": oracle_digits(out["oracle_errs"])[0],
        "peak_rss_mb": out["peak_rss_mb"],
    }
    failed = out["failed"]
    print(f"# {args.workload_name}: seed {args.seed}, {n} timed checks in "
          f"{out['cycles']} passes of {out['checks_per_cycle']}, "
          f"{out['window_s']:.2f} s window")
    for name, val in metrics.items():
        note = ""
        if name == "check_s_tail":
            note = f"  (p{pct:.1f}, N={n})"
        elif name in ("check_s_p50", "checks_per_s"):
            note = (f"  ({per_pass} checks, each at the upper quartile of its "
                    f"{min(map(len, out['samples']))}-{max(map(len, out['samples']))} runs)")
        elif name == "setup_s":
            note = f"  (median of {SETUP_RUNS}: " + ", ".join(f"{s:.4f}" for s in setups) + ")"
        print(f"{args.workload_name} {name}: {val!r} {E2E_UNITS[name]}{note}")
    print(f"{args.workload_name} failed_frac: {failed / out['attempted']!r} "
          f"({failed} of {out['attempted']} checks, warm-up included)")
    for msg in out["failures"]:
        print(f"{args.workload_name} FAILED {msg}", file=sys.stderr)
    return {"attempted": out["attempted"], "failed": failed, "metrics": metrics,
            "units": E2E_UNITS}


def trace_workload(root: Path, args, work: Path) -> dict:
    spans = root / ".perfbench" / f"spans-{args.workload_name}.npz"
    out = run_child(root, args, "trace", work / "trace", time.monotonic() + RUN_LIMIT_S,
                    spans=spans)
    layers = out["layers"]
    layers["bench.oracle_worst_digits"] = oracle_digits(out["oracle_errs"])[1]
    units = {name: unit_of(name) for name in layers}
    print(f"# {args.workload_name}: seed {args.seed}, traced {out['checks_per_cycle']} "
          f"checks, {out['pairs']} untraced/traced pairs; spans in {spans}")
    for name, val in layers.items():
        print(f"{args.workload_name} {name}: {val!r} {units[name]}")
    for msg in out["failures"]:
        print(f"{args.workload_name} FAILED {msg}", file=sys.stderr)
    return {"attempted": out["attempted"], "failed": out["failed"], "metrics": layers,
            "units": units}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its naming convention."""
    if name.endswith("_us") or "_us." in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if "gflops" in name:
        return "Gop/s"
    if "gbs" in name:
        return "GB/s"
    if name.endswith(("frac", "redundancy")):
        return "ratio"
    if name.endswith("digits"):
        return "digits"
    if name.endswith("_per_call"):
        return "1/call"
    if name.endswith("bytes") or name.endswith("bytes_written"):
        return "B"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "levelflow" / "__init__.py").is_file():
        print("error: run from the root of a levelflow checkout (src/levelflow "
              "not found)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    work = root / ".perfbench" / f"run-{os.getpid()}"
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            args.workload_name = name
            fn = trace_workload if args.trace else measure_workload
            res = fn(root, args, work / name)
            result["attempted"] += res["attempted"]
            result["failed"] += res["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            for metric, val in res["metrics"].items():
                result["metrics"][prefix + metric] = {"value": val,
                                                      "unit": res["units"][metric]}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
