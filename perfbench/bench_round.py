"""One round of a workload, in a fresh interpreter.

    python3 perfbench/bench_round.py --workload W --seed S --round K \
        --trace 0|1 --out ROUND.json [--setup-only]

Imports prismlab from the checkout's src/, makes the inputs of round K from
the seed and prints "ready" (the end of set-up).  Then it runs the task list
once, timing each task, and only afterwards checks the outputs against
references.json and writes the round's result to --out.

Before each task, and once after the last, it also times `reference`, a
fixed computation that does not touch prismlab.  On a shared host the
speed the process gets drifts by a fifth or more from one second to the
next; the reference slows with it, so run.py scales each task's time by
the reference times around it.  With --setup-only the process exits after
"ready".

With --trace 1 every prismlab call in the task list records a span; the
spans are written next to --out and the per-layer metrics computed from
them go into the result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def reference() -> int:
    """About 1 ms of the kind of work prismlab does (interpreted loops, dict
    updates, Fraction and big-integer arithmetic) on fixed data; it frees
    each object it makes at once, so it leaves the collector no work."""
    acc = Fraction(0)
    buckets: dict = {}
    for i in range(1, 200):
        acc += Fraction(-1 if i % 3 else 2, i)
        buckets[i % 17] = buckets.get(i % 17, 0) + acc.numerator % 1000003
    n = 7 ** 300
    for i in range(120):
        n = n * n % (13 ** 200 + i)
    return n + sum(buckets.values())


def time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def load_library():
    """Import every prismlab module from the checkout, never from
    site-packages."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import importlib
    import prismlab
    if not os.path.abspath(prismlab.__file__).startswith(src + os.sep):
        raise ImportError("prismlab imported from %s, not %s"
                          % (prismlab.__file__, src))
    from spans import MODULES
    for name in MODULES:
        importlib.import_module("prismlab." + name)


def certify(workload: str, tasks: list, oks: list, outs: list,
            errors: list) -> tuple:
    """Check a round's outputs against the references, after the timed
    phase.  Returns (ok per task, failure lines, output summaries); a task
    fails if it raised, returned an uncertified result, or belongs to a
    group whose outputs disagree with references.json."""
    import workloads
    oks, errors = list(oks), list(errors)
    summaries = []
    for i, task in enumerate(tasks):
        if errors[i] is None:
            try:
                summaries.append(workloads.summarize(workload, task, outs[i]))
                continue
            except (OSError, ValueError, KeyError) as err:
                errors[i] = "%s: %s" % (type(err).__name__, err)
        oks[i] = False
        summaries.append(errors[i])
    bad = workloads.check_references(workload, tasks, summaries,
                                     workloads.load_references())
    failures = []
    for i, task in enumerate(tasks):
        if task.group in bad:
            oks[i] = False
        if not oks[i]:
            failures.append("%s: %s" % (task.label, bad.get(
                task.group, errors[i] or "not certified")))
    return oks, failures, summaries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    load_library()
    import workloads
    inputs = workloads.make_inputs(args.workload, args.seed, args.round)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    out_dir = os.path.dirname(os.path.abspath(args.out))
    tasks = workloads.build_tasks(args.workload, inputs, out_dir)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    oks, outs, errors, latencies, refs = [], [], [], [], []
    clock = time.perf_counter
    for i, task in enumerate(tasks):
        refs.append(time_reference())
        if tracer is not None:
            tracer.task = i
        t0 = clock()
        error = None
        try:
            ok, out = task.run()
        except Exception as err:  # noqa: BLE001 - a raising task is a failure
            ok, out, error = False, None, "%s: %s" % (type(err).__name__, err)
        latencies.append(clock() - t0)
        oks.append(bool(ok))
        outs.append(out)
        errors.append(error)
    refs.append(time_reference())
    wall = sum(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.out + ".spans")
        from spans import layer_metrics
        layers = layer_metrics(tracer.names, tracer.cols)

    oks, failures, summaries = certify(args.workload, tasks, oks, outs,
                                       errors)
    round_digest = hashlib.sha256(json.dumps(
        [(t.label, s) for t, s in zip(tasks, summaries)],
        default=repr).encode()).hexdigest()
    checks = [s for s in summaries if isinstance(s, dict) and "checks" in s]
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "wall_s": wall, "latencies_s": latencies, "refs": refs, "ok": oks,
        "rss_mb": rss_mb, "digest": round_digest,
        "failures": failures[:20],
        "checks": sum(s["checks"] for s in checks),
        "checks_failed": sum(s["failed"] for s in checks),
        "layers": layers,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
