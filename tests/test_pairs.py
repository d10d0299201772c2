"""The summary tools/pairs.py writes, on recorded runs; no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

LOWER = {"wall_ref": "lower", "setup_s": "lower", "peak_rss_mb": "lower"}

# three address-search pairs of `bench/run.py --seconds 1`, seeds 1-3, the
# base first in pair 0 and 2; the change's last run was cut off
RECORDED = [
    (0, "base", 163.496, 0.128, 23.988),
    (0, "change", 155.445, 0.129, 24.0),
    (1, "change", 148.58, 0.12, 24.105),
    (1, "base", 164.413, 0.122, 24.016),
    (2, "base", 162.721, 0.116, 23.965),
    (2, "change", 150.253, 0.12, 24.164),
    (3, "base", 161.0, 0.11, 24.0),
]
RUNS = [
    {"workload": "address-search", "pair": i, "side": side,
     "metrics": {"wall_ref": w, "setup_s": s, "peak_rss_mb": m}}
    for i, side, w, s, m in RECORDED
]


def test_summary_of_recorded_pairs():
    summary = pairs.summarise(RUNS, LOWER)["address-search"]
    wall = summary["wall_ref"]
    # pair 3 has no change run, so it is left out of both sides: with its
    # 161.0 the base's median would be 162.721 + (163.496 - 162.721) / 2
    assert wall["pairs"] == 3
    assert wall["base"]["median"] == 163.496 and wall["change"]["median"] == 150.253
    assert wall["base"]["q1"] == pytest.approx(163.1085)
    assert wall["base"]["q3"] == pytest.approx(163.9545)
    assert wall["base"]["iqr"] == pytest.approx(0.846)
    assert wall["delta_pct"] == pytest.approx(100 * (150.253 - 163.496) / 163.496)
    assert (wall["wins"], wall["pairs"]) == (3, 3)
    # a win is strictly better in its own pair: only pair 1's 0.12 < 0.122
    assert summary["setup_s"]["wins"] == 1
    assert summary["peak_rss_mb"]["wins"] == 0


def test_wins_follow_the_metrics_direction():
    higher = dict(LOWER, wall_ref="higher")
    assert pairs.summarise(RUNS, higher)["address-search"]["wall_ref"]["wins"] == 0


def test_one_pair_has_no_spread():
    one = pairs.summarise(RUNS[:2], LOWER)["address-search"]["wall_ref"]
    assert one["base"] == {"median": 163.496, "q1": 163.496, "q3": 163.496, "iqr": 0.0}
    assert (one["wins"], one["pairs"]) == (1, 1)


# two large-order pairs of `bench/run.py --seconds 1 --trace 0`, seeds 1-2,
# the base first in both; the change side had a fault planted in
# linalg.determinant (one added to every determinant of order above 40)
FAILING = [
    {"workload": "large-order", "pair": i, "side": side, "attempted": a, "failed": f,
     "metrics": {"wall_ref": w}}
    for i, side, a, f, w in (
        (0, "base", 1639, 0, 268.180),
        (0, "change", 1965, 70, 268.311),
        (1, "base", 1852, 0, 284.459),
        (1, "change", 1855, 67, 287.116),
    )
]


def test_failed_operations_are_summed_per_side():
    ops = pairs.summarise(FAILING, LOWER)["large-order"]["operations"]
    assert ops["base"] == {"attempted": 3491, "failed": 0, "failed_share": 0.0}
    assert ops["change"]["attempted"] == 3820 and ops["change"]["failed"] == 137
    assert ops["change"]["failed_share"] == pytest.approx(137 / 3820)


def test_operations_count_unpaired_runs():
    # a run whose pair was cut off still ran its operations
    ops = pairs.summarise(FAILING[:3], LOWER)["large-order"]["operations"]
    assert ops["base"]["attempted"] == 3491 and ops["change"]["attempted"] == 1965
    assert pairs.summarise(FAILING[:3], LOWER)["large-order"]["wall_ref"]["pairs"] == 1


def test_runs_without_counts_report_no_operations():
    assert "operations" not in pairs.summarise(RUNS, LOWER)["address-search"]


def test_a_failed_operation_fails_the_tool_after_writing(tmp_path, monkeypatch):
    # main on FAILING's results, with no git call, no tree exported and no
    # benchmark run
    results = iter(
        {"attempted": r["attempted"], "failed": r["failed"],
         "metrics": {k: {"value": v} for k, v in r["metrics"].items()}}
        for r in (FAILING[0], FAILING[1], FAILING[3], FAILING[2])  # pair 1 runs the change first
    )
    monkeypatch.setattr(pairs, "PAIRS", 2)
    monkeypatch.setattr(pairs, "_git", lambda *args: "")
    monkeypatch.setattr(pairs, "export_rev", lambda rev, dest: None)
    monkeypatch.setattr(pairs, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(pairs, "src_lines", lambda tree: 0)
    monkeypatch.setattr(pairs, "run_bench", lambda *args: next(results))
    out = tmp_path / "pairs.json"
    assert pairs.main(["--base", "HEAD", "--out", str(out), "--workload", "large-order"]) == 1
    written = json.loads(out.read_text())
    assert written["summary"]["large-order"]["operations"]["change"]["failed"] == 137
    assert [r["failed"] for r in written["runs"]] == [0, 70, 67, 0]
