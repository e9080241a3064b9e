"""tools/bench_pairs.py: the aggregation of paired runs, on synthetic rows,
and one end-to-end run on a throwaway repository whose benchmark is a stub."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "checks_per_s", "better": "higher", "bound": 0.25},
           {"name": "check_s_p50", "better": "lower", "bound": 0.25}]


def _rows(parent, change, workload="w", failed=(0, 0)):
    """Rows of paired runs: parent[i] and change[i] are pair i's
    (checks_per_s, check_s_p50); the sides alternate which runs first."""
    rows = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, (rate, p50), bad in (("parent", p, failed[0]), ("change", c, failed[1])):
            rows.append({"workload": workload, "pair": pair, "side": side, "returncode": 0,
                         "attempted": 100, "failed": bad,
                         "metrics": {"checks_per_s": rate, "check_s_p50": p50}})
    return rows


def test_medians_quartiles_and_wins():
    parent = [(100.0, 1.0), (110.0, 1.1), (90.0, 0.9), (100.0, 1.0)]
    change = [(120.0, 0.8), (110.0, 1.2), (100.0, 1.0), (130.0, 0.7)]
    (entry,) = bench_pairs.summarize(_rows(parent, change), METRICS).values()
    rate, p50 = entry["metrics"]["checks_per_s"], entry["metrics"]["check_s_p50"]
    assert entry["pairs"] == 4
    assert (rate["parent_median"], rate["change_median"]) == (100.0, 115.0)
    assert rate["parent_iqr"] == pytest.approx(5.0)  # quartiles 97.5 and 102.5
    # pair 1's equal rates are a tie, which counts for neither side
    assert rate["change_wins"] == 3 and rate["pairs_compared"] == 4
    assert rate["worse_by"] == pytest.approx(-0.15) and rate["within_bound"]
    assert p50["change_wins"] == 2 and p50["worse_by"] == pytest.approx(-0.1)
    assert rate["resolved"]
    # the change's p50 quartiles 0.775 and 1.05 are 0.31 of its median apart
    assert p50["change_iqr"] == pytest.approx(0.275) and not p50["resolved"]
    assert bench_pairs.regressions({"w": entry}) == []


def test_a_median_past_its_bound_is_a_regression():
    parent = [(100.0, 1.0)] * 5
    change = [(70.0, 1.2)] * 5  # 30 % fewer checks per second, p50 20 % slower
    summary = bench_pairs.summarize(_rows(parent, change), METRICS)
    rate, p50 = summary["w"]["metrics"]["checks_per_s"], summary["w"]["metrics"]["check_s_p50"]
    assert rate["worse_by"] == pytest.approx(0.3) and not rate["within_bound"]
    assert p50["worse_by"] == pytest.approx(0.2) and p50["within_bound"]
    assert bench_pairs.regressions(summary) == ["w checks_per_s: worse by 0.3 (bound 0.25)"]


def test_a_wide_spread_is_unresolved_unless_the_sides_are_apart():
    parent = [(100.0, 1.0), (200.0, 2.0), (100.0, 1.0), (200.0, 2.0)]
    summary = bench_pairs.summarize(_rows(parent, parent), METRICS)
    assert not summary["w"]["metrics"]["checks_per_s"]["resolved"]
    change = [(300.0, 0.5), (400.0, 0.4), (300.0, 0.5), (400.0, 0.4)]
    summary = bench_pairs.summarize(_rows(parent, change), METRICS)
    assert summary["w"]["metrics"]["checks_per_s"]["resolved"]
    assert summary["w"]["metrics"]["check_s_p50"]["resolved"]


def test_failed_checks_and_runs_without_a_result():
    parent = [(100.0, 1.0)] * 3
    summary = bench_pairs.summarize(_rows(parent, parent, failed=(0, 1)), METRICS)
    assert summary["w"]["checks"]["change"] == {"runs": 3, "runs_without_result": 0,
                                                "attempted": 300, "failed": 3}
    assert bench_pairs.regressions(summary) == ["w: change fails 0.01 of its checks, parent 0"]
    rows = [r for r in _rows(parent, parent) if r["side"] == "parent"]
    rows += [{"workload": "w", "pair": i, "side": "change", "returncode": 1} for i in range(3)]
    summary = bench_pairs.summarize(rows, METRICS)
    assert summary["w"]["metrics"]["check_s_p50"]["within_bound"] is False
    assert bench_pairs.regressions(summary) == [
        "w checks_per_s: worse by no value on a side (bound 0.25)",
        "w check_s_p50: worse by no value on a side (bound 0.25)",
        "w: change fails 1 of its checks, parent 0"]


def test_workloads_are_summarized_separately_in_row_order():
    rows = (_rows([(100.0, 1.0)], [(100.0, 1.0)], "b")
            + _rows([(100.0, 1.0)], [(50.0, 1.0)], "a"))
    summary = bench_pairs.summarize(rows, METRICS)
    assert list(summary) == ["b", "a"]
    assert [line.split()[0] for line in bench_pairs.regressions(summary)] == ["a"]


# One result line; the committed copy reads 100 checks/s, the working
# tree's 70, 30 % fewer: past the 0.25 bound.
STUB = """import json, sys
print(json.dumps({{"attempted": 4, "failed": 0,
                  "metrics": {{"checks_per_s": {{"value": {rate}}}}}}}))
"""


def test_main_extracts_the_parent_and_alternates_the_sides(tmp_path, monkeypatch):
    spec = {"command": [sys.executable, "bench.py"], "run_seconds": 3,
            "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "checks_per_s", "better": "higher", "bound": 0.25}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    (tmp_path / "bench.py").write_text(STUB.format(rate=100.0))
    for args in (["init", "-q"], ["add", "."], ["commit", "-q", "-m", "parent"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=tmp_path, check=True, capture_output=True)
    (tmp_path / "bench.py").write_text(STUB.format(rate=70.0))
    monkeypatch.chdir(tmp_path)
    trees = []
    run = bench_pairs.run_benchmark

    def recorded(tree, cmd, timeout):
        trees.append(tree)
        return run(tree, cmd, timeout)
    monkeypatch.setattr(bench_pairs, "run_benchmark", recorded)

    assert bench_pairs.main(["--parent", "HEAD", "--pr", "5"]) == 1
    doc = json.loads((tmp_path / "BENCH_5.json").read_text())
    assert doc["command"] == [sys.executable, "bench.py", "--workload", "<workload>",
                              "--seed", "7", "--seconds", "3"]
    assert doc["pairs"] == bench_pairs.PAIRS and doc["change"]["uncommitted_changes"]
    assert [r["side"] for r in doc["rows"][:4]] == ["parent", "change", "change", "parent"]
    # the parent ran from its extracted tree, which is gone after the run
    assert trees[1] == tmp_path and trees[0] != tmp_path and not trees[0].exists()
    m = doc["workloads"]["w"]["metrics"]["checks_per_s"]
    assert (m["parent_median"], m["change_median"], m["change_wins"]) == (100.0, 70.0, 0)
    assert not m["within_bound"]
