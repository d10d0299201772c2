"""Alternating before/after runs of bench/run.py, summarised into one JSON file.

    python3 tools/pairs.py --base HEAD --seed 100 --out perf/name.json \\
        [--change REV] [--workload check-all ...]

Run from the root of a checkout. The base side is the committed tree of
--base, exported with `git archive` into a fresh directory; the change side is
the committed tree of --change, exported the same way, or without --change a
fresh copy of the working tree's tracked and unignored files. Both sides so
run from clean directories, as the benchmark's own before/after check does.
Each workload runs PAIRS pairs of BENCHMARK.json's `run_seconds` each; pair i
runs seed --seed + i on both sides, the base first in even pairs and the
change first in odd ones, and reads each run's last stdout line, the
benchmark's result object. The output file is rewritten after every pair, so
an interrupted session keeps what it measured.

It holds, per workload and end-to-end metric, each side's median and
quartiles, the change's median against the base's in percent, the pairs the
change won (strictly better, in the direction BENCHMARK.json gives); per
workload and side, the operations attempted and failed and the failed share;
the raw runs once, under `runs`; plus the machine (nproc, Python, platform),
both commits and the `src/` line count of each side. It states no verdict on
the metrics, but exits 1 when any run failed an operation, after writing
the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
PAIRS = 10


def _spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: the spread of each side, the change's median
    against the base's in percent and its wins out of the pairs.

    `runs` holds one record per run: {"workload", "pair", "side", "metrics":
    {name: value}}, and the run's "attempted" and "failed" operation counts
    where it reported them. `better` maps each metric to "lower" or "higher";
    a pair counts as a win when the change is strictly better than the base
    in it. Under "operations", each side sums the counts of its runs, paired
    or not, and gives the failed share.
    """
    values: dict[str, dict[str, dict[str, dict[int, float]]]] = {}
    counts: dict[str, dict[str, dict[str, int]]] = {}
    for run in runs:
        per_metric = values.setdefault(run["workload"], {})
        for name, value in run["metrics"].items():
            sides = per_metric.setdefault(name, {side: {} for side in SIDES})
            sides[run["side"]][run["pair"]] = value
        if "attempted" in run:
            tally = counts.setdefault(run["workload"], {
                side: {"attempted": 0, "failed": 0} for side in SIDES})[run["side"]]
            tally["attempted"] += run["attempted"]
            tally["failed"] += run["failed"]
    out: dict[str, dict] = {}
    for workload, per_metric in values.items():
        out[workload] = {}
        if workload in counts:
            out[workload]["operations"] = {
                side: {**c, "failed_share": c["failed"] / c["attempted"] if c["attempted"] else None}
                for side, c in counts[workload].items()
            }
        for name, sides in per_metric.items():
            base, change = sides["base"], sides["change"]
            pairs = sorted(base.keys() & change.keys())
            if not pairs:
                continue
            sign = -1 if better[name] == "lower" else 1
            b = _spread([base[i] for i in pairs])
            c = _spread([change[i] for i in pairs])
            out[workload][name] = {
                "base": b,
                "change": c,
                "delta_pct": 100 * (c["median"] - b["median"]) / b["median"] if b["median"] else None,
                "better": better[name],
                "wins": sum(sign * (change[i] - base[i]) > 0 for i in pairs),
                "pairs": len(pairs),
            }
    return out


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export_rev(rev: str, dest: Path) -> None:
    """The committed files of `rev`, written under `dest`."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def copy_working_tree(dest: Path) -> None:
    """The working tree's tracked and unignored files, copied under `dest`."""
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (tree / "src").rglob("*.py"))


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run from `tree`; its result object."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 2 or not lines:
        raise SystemExit(f"pairs: {workload} seed {seed} in {tree} did not run:\n{done.stderr}")
    return json.loads(lines[-1])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="the revision the change side is compared with")
    p.add_argument("--change", help="a revision to run as the change side; the working tree if omitted")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--workload", action="append",
                   help="repeatable; every workload of BENCHMARK.json if omitted")
    p.add_argument("--seed", type=int, default=0, help="pair i runs this seed plus i")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}
    seconds = contract["run_seconds"]
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for tree in trees.values():
            tree.mkdir()
        export_rev(args.base, trees["base"])
        if args.change:
            export_rev(args.change, trees["change"])
            change = _git("rev-parse", args.change)
        else:
            copy_working_tree(trees["change"])
            dirty = bool(_git("status", "--porcelain", "--untracked-files=normal"))
            change = _git("rev-parse", "HEAD") + ("+working tree" if dirty else "")
        header = {
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "platform": platform.platform()},
            "commits": {"base": _git("rev-parse", args.base), "change": change},
            "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
            "seconds": seconds,
            "seeds": [args.seed, args.seed + PAIRS - 1],
        }
        runs = []
        for workload in workloads:
            for i in range(PAIRS):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = run_bench(trees[side], workload, args.seed + i, seconds)
                    metrics = {k: v["value"] for k, v in result["metrics"].items()}
                    runs.append({"workload": workload, "pair": i, "side": side,
                                 "seed": args.seed + i, "attempted": result["attempted"],
                                 "failed": result["failed"], "metrics": metrics})
                    print(f"{workload} pair {i} {side}: wall_ref {metrics.get('wall_ref')}, "
                          f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
                args.out.parent.mkdir(parents=True, exist_ok=True)
                summary = summarise(runs, better)
                args.out.write_text(json.dumps(
                    {**header, "summary": summary, "runs": runs}, indent=2) + "\n")
    failing = [run for run in runs if run["failed"]]
    for run in failing:
        print(f"pairs: {run['workload']} pair {run['pair']} {run['side']} failed "
              f"{run['failed']} of {run['attempted']} operations", file=sys.stderr)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
