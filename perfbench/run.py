"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Every round of a workload runs in a fresh interpreter (bench_round.py), so
the memoized tables and caches start cold, as in one `verify` run; round k
runs the k-th draw of inputs from the seed.  One caller runs the tasks one
after another, single-threaded.

--trace 0 runs whole rounds until the next one would end after --seconds,
but at least as many as give MIN_TASK_SAMPLES task latencies, and reports
the end-to-end metrics.  Their times are given at reference speed.  A
round times a fixed reference computation (bench_round.reference) before
each task and after the last, and each task's time is multiplied by REF_S
over the median of the reference times around it (scaled_latencies).  The
set-up time is scaled by the median of all the run's reference times.  On
a shared host whose speed drifts from
second to second, this takes the drift out, while a change to prismlab
still moves the times in full.  The times as measured are printed beside
them.

--trace 1 runs one untraced and one traced round and reports the
per-layer metrics from the traced one.  Both modes print one line per
metric, then the result as one JSON object on the last line.
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
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_TASK_SAMPLES = 100      # so that >= 10 latencies lie beyond p90
SETUP_SAMPLES = 9           # four before the rounds, the rest after
TIME_LIMIT_S = 160          # a run must end within 180 s
REF_S = 1e-3                # reference speed: the reference takes 1 ms
REF_WINDOW = 3              # reference times on each side of a task

END_TO_END = {"setup_s": "s", "wall_s": "s", "task_p50_ms": "ms",
              "task_p90_ms": "ms", "peak_rss_mb": "MB", "pass_frac": "ratio"}


class BenchError(Exception):
    pass


def tail_percentile(samples, q: float = 0.9, min_beyond: int = 10) -> float:
    """Nearest-rank q-quantile, refused unless at least min_beyond samples
    lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < min_beyond:
        raise BenchError("%d samples leave fewer than %d beyond p%d"
                         % (len(ordered), min_beyond, round(q * 100)))
    return ordered[rank - 1]


def run_round(workload: str, seed: int, round_: int, trace: int, work: str,
              tag: str, deadline: float, setup_only: bool = False) -> tuple:
    """(set-up seconds, round result or None) of one fresh interpreter."""
    out = os.path.join(work, tag + ".json")
    cmd = [sys.executable, os.path.join(HERE, "bench_round.py"),
           "--workload", workload, "--seed", str(seed),
           "--round", str(round_), "--trace", str(trace), "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    # a fixed hash seed gives every round the same set iteration order
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env=env)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("round %s ran past the time limit" % tag)
    code = proc.returncode
    if ready.strip() != "ready" or code != 0:
        raise BenchError("round %s exited with code %d" % (tag, code))
    if setup_only:
        return setup, None
    with open(out) as fh:
        return setup, json.load(fh)


def scaled_latencies(round_: dict) -> list:
    """The round's task times at reference speed.  refs[i] was taken just
    before task i and refs[i + 1] just after it.  A task is scaled by the
    median of the reference times around it: at least REF_WINDOW on each
    side, and on each side as many as cover as long as the task took, so
    that a long task is scaled by the speed over a like stretch of time."""
    refs, lats = round_["refs"], round_["latencies_s"]
    out = []
    for i, x in enumerate(lats):
        lo, span = i, 0.0
        while lo > 0 and (i + 1 - lo < REF_WINDOW or span < x):
            lo -= 1
            span += lats[lo] + refs[lo]
        hi, span = i + 1, 0.0
        while hi < len(lats) and (hi - i < REF_WINDOW or span < x):
            span += lats[hi] + refs[hi]
            hi += 1
        out.append(x * REF_S / statistics.median(refs[lo:hi + 1]))
    return out


def end_to_end(rounds: list, setups: list, scaled: bool = True) -> dict:
    """The end-to-end metrics of a run from its rounds and set-up times.
    With scaled=False, times as measured."""
    per_round = [scaled_latencies(r) if scaled else r["latencies_s"]
                 for r in rounds]
    setup_scale = 1.0
    if scaled:
        setup_scale = REF_S / statistics.median(
            x for r in rounds for x in r["refs"])
    latencies = [x for xs in per_round for x in xs]
    attempted = sum(len(r["ok"]) for r in rounds)
    failed = sum(r["ok"].count(False) for r in rounds)
    return {
        "setup_s": statistics.median(setups) * setup_scale,
        "wall_s": statistics.median(sum(xs) for xs in per_round),
        "task_p50_ms": statistics.median(latencies) * 1e3,
        "task_p90_ms": tail_percentile(latencies) * 1e3,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        "pass_frac": 1 - failed / attempted,
    }


def measure(workload: str, seed: int, seconds: int, work: str,
            deadline: float) -> tuple:
    rounds = []
    setups = [run_round(workload, seed, i, 0, work, "setup%d" % i, deadline,
                        setup_only=True)[0]
              for i in range(SETUP_SAMPLES // 2)]
    begin = time.monotonic()
    while True:
        _, result = run_round(workload, seed, len(rounds), 0, work,
                              "round%d" % len(rounds), deadline)
        rounds.append(result)
        samples = sum(len(r["latencies_s"]) for r in rounds)
        projected = (time.monotonic() - begin + statistics.median(
            r["wall_s"] + sum(r["refs"]) for r in rounds))
        if samples >= MIN_TASK_SAMPLES and projected > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_round(workload, seed, len(setups), 0, work,
                                "setup%d" % len(setups), deadline,
                                setup_only=True)[0])
    return (rounds, end_to_end(rounds, setups),
            end_to_end(rounds, setups, scaled=False))


def measure_traced(workload: str, seed: int, work: str,
                   deadline: float) -> tuple:
    _, plain = run_round(workload, seed, 0, 0, work, "untraced", deadline)
    _, traced = run_round(workload, seed, 0, 1, work, "traced", deadline)
    metrics = dict(traced["layers"])
    metrics["harness.checks"] = traced["checks"]
    metrics["harness.checks_failed"] = traced["checks_failed"]
    metrics["trace_overhead"] = (sum(scaled_latencies(traced))
                                 / sum(scaled_latencies(plain)))
    os.replace(os.path.join(work, "traced.json.spans"),
               os.path.join(OUT, workload + ".spans"))
    notes = []
    if traced["digest"] != plain["digest"]:
        notes.append("traced outputs differ from untraced outputs")
    return [plain, traced], metrics, notes


def report(workload, seed, rounds, metrics, units, notes,
           measured=None) -> dict:
    attempted = sum(len(r["ok"]) for r in rounds)
    failed = sum(r["ok"].count(False) for r in rounds)
    print("%s seed=%d rounds=%d tasks=%d" % (workload, seed, len(rounds),
                                             attempted))
    for name, unit in units.items():
        extra = ""
        if name in ("task_p50_ms", "task_p90_ms"):
            extra = "  (n=%d tasks)" % attempted
        if measured and unit in ("s", "ms"):
            extra += "  (%.6g %s as measured)" % (measured[name], unit)
        print("  %-40s %14.6g %s%s" % (name, metrics[name], unit, extra))
    if "pass_frac" in units:
        print("  %-40s %14.6g ratio  (%d of %d failed)"
              % ("fail_frac", failed / attempted, failed, attempted))
    for r in rounds:
        for line in r["failures"]:
            print("FAILED " + line, file=sys.stderr)
    for line in notes:
        print("FAILED " + line, file=sys.stderr)
    return {"correct": failed == 0 and not notes, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "prismlab", "__init__.py")):
        print("error: no prismlab sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=args.workload + "-", dir=OUT)
    measured = None
    try:
        if args.trace:
            rounds, metrics, notes = measure_traced(args.workload, args.seed,
                                                    work, deadline)
            units = spans.metric_units()
        else:
            rounds, metrics, measured = measure(args.workload, args.seed,
                                                args.seconds, work, deadline)
            notes, units = [], END_TO_END
    except BenchError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = report(args.workload, args.seed, rounds, metrics, units, notes,
                    measured)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
