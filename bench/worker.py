"""One benchmark process: set up a workload, then run its task list.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --workdir DIR [--spans FILE.npz] [--setup-only]

run.py starts this in a fresh interpreter with cutterkit's src/ on
PYTHONPATH.  Set-up (imports, input generation, config files) ends with
a READY line on stdout, which run.py times.  The process then runs whole
rounds of the fixed task list, one task at a time, until S seconds of
rounds have passed, checks every output and prints a RESULT line.
Between rounds it prints `ROUND <seconds of rounds so far>` and waits
for a line on stdin.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from time import perf_counter


def _args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", default=None, help="where a traced run saves its spans")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def setup(args):
    """Imports and inputs; everything a task needs before it can start."""
    import cutterkit
    import tracing
    import workloads

    rec = None
    if args.trace:
        rec = tracing.Recorder()
        tracing.install(rec)
    os.makedirs(args.workdir, exist_ok=True)
    work = workloads.WORKLOADS[args.workload](cutterkit, args.seed, args.workdir)
    return work, rec


def run_round(work, order, rec, stats):
    """One pass over the task list in the given order; returns (wall
    seconds, latency of each task by its index in the list)."""
    lat = [0.0] * len(work.tasks)
    checking = 0.0
    t_round = perf_counter()
    for i in order:
        task = work.tasks[i]
        if rec is not None:
            rec.task_id = i
        t0 = perf_counter()
        try:
            out = work.run(task)
        except Exception:  # a task that raises is a failed task; keep going
            lat[i] = perf_counter() - t0
            stats["failed"] += 1
            stats["failures"].append(traceback.format_exc(limit=3))
            continue
        t1 = perf_counter()
        lat[i] = t1 - t0
        try:
            failed, errs = work.check(task, out)
        except Exception:  # a check that cannot read an output: a wrong output
            failed, errs = False, [traceback.format_exc(limit=3)]
        # `correct` speaks of the tasks that did not fail
        if failed:
            stats["failed"] += 1
            stats["failures"].append(f"{task.get('name', i)}: {errs}")
        elif errs:
            stats["errors"].append(f"{task.get('name', i)}: {errs}")
        checking += perf_counter() - t1
    stats["attempted"] += len(work.tasks)
    return perf_counter() - t_round - checking, lat


def main(argv=None):
    args = _args(argv)
    work, rec = setup(args)
    print("READY", flush=True)
    if args.setup_only:
        shutil.rmtree(args.workdir, ignore_errors=True)
        return 0
    import numpy as np

    import tracing

    stats = {"attempted": 0, "failed": 0, "errors": [], "failures": []}
    walls, lats, layers = [], [], []
    # a new seeded order each round, so that a task's passes fall at
    # independent times rather than exactly one round apart
    shuffle = np.random.default_rng([args.seed, 99])
    try:
        while True:
            order = shuffle.permutation(len(work.tasks))
            wall, lat = run_round(work, order, rec, stats)
            walls.append(wall)
            lats.append(lat)
            if rec is not None:
                layers.append(tracing.layer_metrics(rec))
                if args.spans and len(walls) == 1:
                    os.makedirs(os.path.dirname(args.spans), exist_ok=True)
                    rec.save(args.spans)
                rec.clear()
            if sum(walls) >= args.seconds:
                break
            # between rounds run.py may time a fresh set-up process; this
            # one waits, so that the two do not share the machine
            print(f"ROUND {sum(walls):.6f}", flush=True)
            sys.stdin.readline()
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    for err in (stats["failures"] + stats["errors"])[:5]:
        print(err, file=sys.stderr)
    result = {
        "correct": not stats["errors"],
        "attempted": stats["attempted"],
        "failed": stats["failed"],
    }
    # Each task's best time over the rounds.  The machine this was tuned
    # on alternates between quiet and busy phases some seconds long, in
    # which the same work takes 1.7 to 2.2 times as long; a task's best
    # time drops those phases as long as one of its passes was quiet.
    best = np.min(np.array(lats), axis=0)
    tasks_per_s = float(best.size / best.sum())
    if rec is None:
        import resource
        result["metrics"] = {
            "tasks_per_s": (tasks_per_s, "1/s"),
            "task_ms_p50": (float(np.percentile(best, 50)) * 1e3, "ms"),
            "task_ms_p90": (float(np.percentile(best, 90)) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = {k: (float(np.median([r[k][0] for r in layers])), u)
                   for k, (_, u) in layers[0].items()}
        metrics["tracing.tasks_per_s"] = (tasks_per_s, "1/s")
        # the first pass over each input against the best pass: a cache
        # keyed by the input speeds up only the later passes
        metrics["rounds.first_over_best"] = (float(sum(lats[0]) / best.sum()), "ratio")
        result["metrics"] = metrics
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
