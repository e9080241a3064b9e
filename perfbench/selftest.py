"""Self-test of the benchmark: determinism, layer coverage and span bookkeeping.

Run from the root of a levelflow checkout:

    python3 perfbench/selftest.py [--seed 7] [--workload NAME]

For each workload it makes two traced passes with one seed and one with the
next seed (``child.py --mode trace --cycles 1``) and checks that

* the same seed gives byte-identical generated inputs and identical
  deterministic counters (calls, points, nodes, levels, capped);
* the next seed gives different inputs with the same check mix;
* every check passes its oracle;
* each layer has spans on the workloads meant to exercise it, the
  predicted zeros are zero, and each predicted dominant layer dominates by
  the rule in ``design.json``;
* the spans written to disk reproduce the online self times (self time =
  duration minus the durations of direct children) and add up to the
  traced check time.

Exits 1 and lists the failed assertions if any check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from run import HERE, WORKLOADS, BenchError, run_child
from tracer import LAYERS

DESIGN = json.loads((HERE / "design.json").read_text())


class Args:
    def __init__(self, workload, seed):
        self.workload_name, self.seed, self.seconds = workload, seed, 0


def traced(root, workload, seed, work, spans=None):
    extra = {"cycles": 1, "probes": 0}
    if spans is not None:
        extra["spans"] = spans
    return run_child(root, Args(workload, seed), "trace", work, time.monotonic() + 600,
                     **extra)


def dominates(layers, layer, rule) -> bool:
    return (layers[f"{layer}.self_frac"] >= rule["self_frac"]
            or layers[f"{layer}.incl_frac"] >= rule["incl_frac"])


def offline_self_times(path) -> dict:
    """Self time per span key recomputed from the saved spans."""
    d = np.load(path)
    dur = d["end"] - d["start"]
    child = d["parent"] >= 0
    covered = np.bincount(d["parent"][child], weights=dur[child], minlength=dur.size)
    self_t = np.bincount(d["key"], weights=dur - covered, minlength=len(d["keys"]))
    return dict(zip(d["keys"].tolist(), self_t.tolist())), float(dur[~child].sum())


def check_workload(root, name, seed, work, problems):
    spec = DESIGN["workloads"][name]
    spans = work / f"spans-{name}.npz"
    a = traced(root, name, seed, work / "a", spans)
    b = traced(root, name, seed, work / "b")
    c = traced(root, name, seed + 1, work / "c")

    def expect(cond, what):
        if not cond:
            problems.append(f"{name}: {what}")

    expect(a["inputs_sha256"] == b["inputs_sha256"], "same seed, different inputs")
    diff = sorted(k for k in a["counters"] if a["counters"][k] != b["counters"].get(k))
    expect(not diff and a["counters"].keys() == b["counters"].keys(),
           f"same seed, counters differ: {diff[:8]}")
    expect(c["inputs_sha256"] != a["inputs_sha256"], "next seed, identical inputs")
    expect(c["check_mix"] == a["check_mix"], "next seed, different check mix")
    for run in (a, b, c):
        expect(run["failed"] == 0, f"{run['failed']} failed checks: {run['failures']}")

    layers = a["layers"]
    for layer in spec["exercised_layers"]:
        expect(layers[f"{layer}.incl_frac"] > 0.0, f"no spans in layer {layer!r}")
    for metric, value in spec["predicted_zero"].items():
        expect(layers[metric] == value, f"{metric} = {layers[metric]}, predicted {value}")
    rule = DESIGN["dominance_rule"]
    for layer in spec["dominant_layers"]:
        expect(dominates(layers, layer, rule),
               f"layer {layer!r} does not dominate: self "
               f"{layers[f'{layer}.self_frac']:.3f}, inclusive {layers[f'{layer}.incl_frac']:.3f}")

    offline, root_s = offline_self_times(spans)
    total_self = sum(offline.values())
    expect(abs(root_s - layers["bench.check_s"]) <= 1e-9 * max(root_s, 1.0),
           "saved root spans do not add up to the traced check time")
    expect(abs(total_self - root_s) <= 1e-6 * max(root_s, 1.0),
           f"self times add up to {total_self}, check time is {root_s}")
    for layer in ("jets", "fields", "levelsets", "quadrature", "bic", "curvature_flow"):
        got = sum(v for k, v in offline.items() if k.split(".")[0] == layer)
        online = layers[f"{layer}.self_frac"] * root_s
        expect(abs(got - online) <= 1e-6,
               f"{layer} self time from spans {got} != online {online}")
    shares = {layer: round(layers[f"{layer}.self_frac"], 3) for layer in LAYERS}
    print(f"{name}: inputs {a['inputs_sha256'][:12]}, {len(a['counters'])} counters, "
          f"{layers['trace.spans']} spans; self-time shares {shares}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark self-test")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", choices=WORKLOADS, default=None)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "levelflow" / "__init__.py").is_file():
        print("error: run from the root of a levelflow checkout", file=sys.stderr)
        return 2
    work = root / ".perfbench" / "selftest"
    problems: list[str] = []
    try:
        for name in [args.workload] if args.workload else WORKLOADS:
            check_workload(root, name, args.seed, work / name, problems)
    except BenchError as exc:
        problems.append(str(exc))
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
