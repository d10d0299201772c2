"""Benchmark for cpgraphs: one seeded workload per invocation.

    python3 bench/run.py --workload family-sweep --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Load model: a closed loop with one caller on one thread. Each case starts
after the previous one has been checked.

Untraced (`--trace 0`), the run goes through the workload's fixed case list
once, then repeats each case that still fits in `--seconds`, and counts each
case at the median of its runs. The end-to-end metrics are the case list's
total time and the median and 90th-percentile case times, all in durations
of a fixed reference computation measured at the same moments (refclock.py
says why), plus the median set-up time in seconds of five fresh processes
and this process's peak RSS. The same times in seconds are logged too.
Traced (`--trace 1`), it runs the case list once untraced and once with
spans around every call into the program's layers, reports the per-layer
metrics and writes the spans to `.bench_out/` in the checkout.

Every answer is checked. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the exit code is 0 when every
check passed, 1 when one failed (the first failing case is named on stderr)
and 2 when the benchmark could not start, in which case no result is printed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60

END_TO_END = (
    ("wall_ref", "ref"),
    ("setup_s", "s"),
    ("case_ref.p50", "ref"),
    ("case_ref.p90", "ref"),
    ("peak_rss_mb", "MB"),
)


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("family-sweep", "large-order", "address-search", "check-all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def import_program():
    """Import cpgraphs from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cpgraphs
    except ImportError as e:
        fail(f"cannot import cpgraphs from {src}: {e}")
    if Path(cpgraphs.__file__).resolve().parent.parent != src.resolve():
        fail(f"cpgraphs came from {cpgraphs.__file__}, not {src}")


def set_up(args):
    import workloads

    plan = workloads.make_plan(args.workload, args.seed, args.size)
    try:
        plan.warm_up.run(workloads.Checker())
    except Exception:  # the timed passes run, check and report the same calls
        pass
    return plan


def time_setup(args) -> float:
    """Median time from starting a fresh process to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline().strip()
                samples.append(time.perf_counter() - t0)
                child.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if line != "ready" or child.returncode != 0:
            fail(f"set-up process exited {child.returncode}")
    return statistics.median(samples)


def run_pass(plan, chk, clock=None, tracer=None, skip=lambda i: False):
    """Run each case not skipped once; return {case index: (seconds, refs, answer)}.

    With a reference clock, refs is the case's time in reference durations
    and seconds leave out the clock's own sampling; without one, refs is None.
    """
    gc.collect()
    done = {}
    before = chk.attempted
    for i, case in enumerate(plan.cases):
        if skip(i):
            continue
        if tracer is not None:
            tracer.case = i
        if clock is not None:
            t_ref = time.perf_counter()
            clock.sample()
            spent = clock.spent
        t0 = time.perf_counter()
        try:
            answer = case.run(chk)
        except Exception as e:  # a raised exception is a failed check, not a crash
            answer = None
            chk.check(False, f"{case.id}: raised {type(e).__name__}: {e}")
        t1 = time.perf_counter()
        if clock is None:
            done[i] = (t1 - t0, None, answer)
        else:
            seconds = t1 - t0 - (clock.spent - spent)
            done[i] = (seconds, clock.ratio(t_ref, t1, seconds), answer)
    made = chk.attempted - before
    want = sum(plan.cases[i].checks for i in done)
    chk.check(made == want, f"work count: the pass made {made} checks, its cases generate {want}")
    return done


def percentile90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def context(args, plan, passes) -> dict:
    digest = hashlib.sha256(json.dumps(plan.inputs, sort_keys=True).encode()).hexdigest()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "cases": len(plan.cases),
        "checks_per_pass": plan.expected_checks,
        "passes": passes,
        "input_digest": digest[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(args, plan, chk):
    """Untraced passes for up to --seconds; returns (metrics, seconds, passes).

    The first pass runs every case; later passes repeat each case whose time
    so far still fits before the deadline. Each case counts at the median of
    its runs, in reference durations for the metrics (see refclock.py) and in
    seconds for the log.
    """
    from refclock import RefClock

    refs = [[] for _ in plan.cases]
    seconds = [[] for _ in plan.cases]
    answers = {}
    passes = 0
    clock = RefClock()
    deadline = time.perf_counter() + args.seconds
    with clock.running():
        while True:
            done = run_pass(plan, chk, clock,
                            skip=lambda i: passes and time.perf_counter() + min(seconds[i]) > deadline)
            if not done:
                break
            passes += 1
            for i, (sec, ref, answer) in done.items():
                seconds[i].append(sec)
                refs[i].append(ref)
                first = answers.setdefault(i, answer)
                if passes > 1:
                    chk.check(answer == first, f"{plan.cases[i].id}: answered differently on pass {passes}")
    case_refs = [statistics.median(r) for r in refs]
    case_s = [statistics.median(s) for s in seconds]
    metrics = {
        "wall_ref": sum(case_refs),
        "setup_s": time_setup(args),
        "case_ref.p50": statistics.median(case_refs),
        "case_ref.p90": percentile90(case_refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    in_seconds = {
        "wall_s": (sum(case_s), "s"),
        "case_ms.p50": (statistics.median(case_s) * 1e3, "ms"),
        "case_ms.p90": (percentile90(case_s) * 1e3, "ms"),
    }
    return metrics, in_seconds, passes


def measure_traced(args, plan, chk):
    """One untraced and one traced pass; returns (metrics, tracer).

    Both passes sample the reference clock, so that the overhead ratio is
    steady; its samples (about 1 % of the time) fall inside open spans.
    """
    from refclock import RefClock
    from tracer import Tracer

    clock = RefClock()
    tracer = Tracer()
    with clock.running():
        plain = run_pass(plan, chk, clock)
        with tracer.installed():
            traced = run_pass(plan, chk, clock, tracer)
    chk.check([a for *_, a in traced.values()] == [a for *_, a in plain.values()],
              "the traced pass answered differently from the untraced pass")
    suite_walls = {}
    if args.workload == "check-all":
        suite_walls = {c.id.split()[-1]: plain[i][0] for i, c in enumerate(plan.cases)}
    overhead = sum(r for _, r, _ in traced.values()) / sum(r for _, r, _ in plain.values()) - 1
    return tracer.metrics(suite_walls, overhead), tracer


def write_trace(args, ctx, metrics, tracer):
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    with path.open("w") as f:
        json.dump({
            "context": ctx,
            "metrics": metrics,
            "span_fields": ["name", "start_s", "end_s", "parent", "case", "order"],
            "names": names,
            "spans": [[index[s[0]], *s[1:]] for s in tracer.spans],
        }, f)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("CPGRAPHS_THREADS", None)  # one caller on one thread
    import_program()
    if args.setup_only:
        set_up(args)
        print("ready", flush=True)
        return 0

    import workloads

    plan = set_up(args)
    chk = workloads.Checker()
    if args.trace:
        from tracer import PER_LAYER

        metrics, tracer = measure_traced(args, plan, chk)
        units = dict(PER_LAYER)
        in_seconds = {}
        ctx = context(args, plan, 2)
        print(f"spans written to {write_trace(args, ctx, metrics, tracer)}", file=sys.stderr)
    else:
        metrics, in_seconds, passes = measure(args, plan, chk)
        units = dict(END_TO_END)
        ctx = context(args, plan, passes)

    print("context " + json.dumps(ctx))
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for name, (value, unit) in in_seconds.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_ratio = {chk.failed / chk.attempted:.6g} 1 ({chk.failed}/{chk.attempted})")
    if chk.failed:
        print(f"bench: first failure: {chk.first_failure}", file=sys.stderr)
    print(json.dumps({
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if chk.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
