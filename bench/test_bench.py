"""The benchmark's own tests: a tiny run of every workload and a planted fault.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_emits_every_metric(workload, trace, kind):
    p = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace, "--size", "tiny")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert f"{workload} failed_ratio = 0 " in p.stdout
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[kind]}


def test_wrong_determinant_fails_the_run(capsys):
    import tracer
    from cpgraphs import linalg

    real = linalg.determinant
    with tracer.patched(real, lambda m: real(m) + 1):
        code = run.main(["--workload", "large-order", "--seed", "1", "--seconds", "0", "--size", "tiny"])
    out = capsys.readouterr()
    result = json.loads(out.out.splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    assert "!= closed form" in out.err
    assert linalg.determinant is real


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    p = bench("--workload", "check-all", "--seed", "0", "--seconds", "1", "--trace", "0",
              cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert p.returncode != 0
    assert not p.stdout.strip()
