"""Paired benchmark runs of a change against its parent; writes BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent REV --pr N [--seed 7]

Run from the root of a levelflow checkout: its working tree is the change.
The parent revision is extracted with ``git archive`` and ``tar -x`` into
a temporary directory, which is removed on exit; the repository itself is not
touched.  For every workload of ``BENCHMARK.json`` it runs that file's
benchmark command (``python3 perfbench/run.py --workload W --seed S
--seconds T``, T its ``run_seconds``) ten times on each tree, with the
working directory at that tree's root, and flips which side runs first from
one pair to the next.  The end-to-end metric names, their ``better``
direction and their ``bound`` come from the change's ``BENCHMARK.json``; a
bound is a fraction of the parent's median.

``BENCH_<N>.json`` holds both commit ids, the command line, ``nproc``,
every run, and per workload and metric both medians and interquartile
ranges, the change's wins (ties count for neither side), how far the
change's median is worse than the parent's as a fraction of it, and
whether that is inside the bound.  A metric whose interquartile range
exceeds its bound on either side is marked unresolved, unless every run of
the change beats every run of the parent: a median inside the bound then
does not show that it is unchanged.  The tool exits 1 when a median moves
past its bound in the worse direction, or when the change fails a larger
share of its checks than the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10  # a gain is read as nine wins in ten pairs


def quartiles(xs) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), linear interpolation
    (numpy's default); a single value is all three."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def summarize(rows, metrics) -> dict:
    """Per workload, the checks and per-metric statistics of ``rows``.

    A row is ``{"workload", "pair", "side", "returncode", "attempted",
    "failed", "metrics": {name: value}}``; a run that printed no result has
    no ``metrics``.  ``metrics`` are BENCHMARK.json's end-to-end entries.
    """
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in rows):
        mine = [r for r in rows if r["workload"] == workload]
        entry = {"pairs": len({r["pair"] for r in mine}), "checks": {}, "metrics": {}}
        for side in SIDES:
            runs = [r for r in mine if r["side"] == side]
            entry["checks"][side] = {
                "runs": len(runs),
                "runs_without_result": sum("metrics" not in r for r in runs),
                "attempted": sum(r.get("attempted", 0) for r in runs),
                "failed": sum(r.get("failed", 0) for r in runs)}
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            by_pair = {}
            for r in mine:
                if r.get("metrics", {}).get(name) is not None:
                    by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"][name]
            vals = {side: [p[side] for p in by_pair.values() if side in p] for side in SIDES}
            if not (vals["parent"] and vals["change"]):
                entry["metrics"][name] = {"bound": m["bound"], "worse_by": None,
                                          "within_bound": False, "resolved": False}
                continue
            (p25, p50, p75), (c25, c50, c75) = quartiles(vals["parent"]), quartiles(vals["change"])
            both = [p for p in by_pair.values() if len(p) == 2]
            wins = sum((p["change"] < p["parent"]) if lower else (p["change"] > p["parent"])
                       for p in both)
            worse = (c50 - p50 if lower else p50 - c50) / (abs(p50) or 1.0)
            spread = max((p75 - p25) / (abs(p50) or 1.0), (c75 - c25) / (abs(c50) or 1.0))
            # a spread wider than the bound hides a change, unless every run
            # of the change beats every run of the parent
            apart = (max(vals["change"]) < min(vals["parent"]) if lower
                     else min(vals["change"]) > max(vals["parent"]))
            entry["metrics"][name] = {
                "better": m["better"], "bound": m["bound"],
                "parent_median": p50, "change_median": c50,
                "parent_iqr": p75 - p25, "change_iqr": c75 - c25,
                "change_wins": wins, "pairs_compared": len(both),
                "worse_by": worse, "within_bound": worse <= m["bound"],
                "resolved": spread <= m["bound"] or apart}
        out[workload] = entry
    return out


def regressions(summary) -> list[str]:
    """What the tool exits 1 on: each median past its bound in the worse
    direction, and each workload whose change fails a larger share of its
    checks than the parent (a run without a result fails all of them)."""
    found = []
    for workload, entry in summary.items():
        for name, m in entry["metrics"].items():
            if not m["within_bound"]:
                worse = "no value on a side" if m["worse_by"] is None else f"{m['worse_by']:.3g}"
                found.append(f"{workload} {name}: worse by {worse} (bound {m['bound']})")
        share = {}
        for side, c in entry["checks"].items():
            share[side] = (1.0 if c["runs_without_result"]
                           else c["failed"] / max(c["attempted"], 1))
        if share["change"] > share["parent"]:
            found.append(f"{workload}: change fails {share['change']:.3g} of its checks, "
                         f"parent {share['parent']:.3g}")
    return found


def run_benchmark(tree: Path, cmd: list[str], timeout: float) -> dict:
    """One benchmark run from ``tree``'s root: its exit code, checks and
    end-to-end metrics (absent when it printed no result)."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"returncode": None, "wall_s": time.monotonic() - t0}
    row = {"returncode": proc.returncode, "wall_s": time.monotonic() - t0}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        sys.stderr.write(proc.stderr[-2000:])
        return row
    row.update(attempted=result["attempted"], failed=result["failed"],
               metrics={k: v["value"] for k, v in result["metrics"].items()})
    return row


def _git(root: Path, *args) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--pr", required=True, type=int, help="names BENCH_<pr>.json")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "BENCHMARK.json").is_file():
        print("error: run from the root of a levelflow checkout (BENCHMARK.json "
              "not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parent = _git(root, "rev-parse", "--verify", f"{args.parent}^{{commit}}")

    def command(workload):
        return [*spec["command"], "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(seconds)]

    timeout = 20.0 * seconds + 300.0
    rows = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": root}
        archive = Path(tmp) / "parent.tar"
        _git(root, "archive", f"--output={archive}", parent)
        trees["parent"].mkdir()
        subprocess.run(["tar", "-x", "-f", archive, "-C", trees["parent"]], check=True)
        for workload in (w["name"] for w in spec["workloads"]):
            for pair in range(PAIRS):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    row = {"workload": workload, "pair": pair, "side": side,
                           **run_benchmark(trees[side], command(workload), timeout)}
                    rows.append(row)
                    print(f"{workload} pair {pair} {side}: exit {row['returncode']}, "
                          f"{row['wall_s']:.1f} s", file=sys.stderr)

    summary = summarize(rows, spec["end_to_end"])
    doc = {
        "parent": {"rev": args.parent, "commit": parent},
        "change": {"commit": _git(root, "rev-parse", "HEAD"),
                   "uncommitted_changes": bool(_git(root, "status", "--porcelain",
                                                    "--untracked-files=no"))},
        "command": command("<workload>"), "cwd": "the root of each side's tree",
        "nproc": len(os.sched_getaffinity(0)),
        "pairs": PAIRS, "seed": args.seed, "seconds": seconds,
        "workloads": summary,
        "rows": rows,
    }
    out = root / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    found = regressions(summary)
    for line in found:
        print(f"past bound: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
