"""The summary tools/pairs.py writes, on recorded runs; no benchmark runs here."""

import importlib.util
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
