"""cutterkit benchmark: one command, end-to-end or traced.

    python3 bench/run.py --workload sweep|verify|run-io --seed N \
        --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it uses src/ directly and
installs nothing.  Each workload runs in one fresh Python process
(bench/worker.py) as a closed loop with one client: the next task starts
when the previous one has returned.  BLAS threads are pinned to one.
The process runs whole rounds of a fixed, seeded list of at least 100
tasks until S seconds of rounds have passed and checks every output
against numpy code kept apart from cutterkit (bench/checks.py).

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics: setup_s, the shortest time from process start to the
first task being ready over the measured process and SETUP_RUNS fresh
set-up-only processes timed between its rounds, and from the measured
process tasks_per_s, task_ms_p50 and task_ms_p90 (over each task's best
time in the run's rounds) and peak_rss_mb.  With --trace 1 the process
records spans around every cutterkit layer and prints the per-layer
metrics instead; the first round's spans are saved to
bench/out/spans-<workload>.npz.  bench/README.md explains the choices.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweep", "verify", "run-io")
# fresh set-up-only processes timed besides the measured one, spread over
# the run between its rounds: the host's busy phases last seconds, and a
# shortest time over samples that far apart almost always has a quiet one
SETUP_RUNS = 10
TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    return env


def read_line(proc, deadline):
    """The worker's next stdout line, or "" once it has closed stdout."""
    ready, _, _ = select.select([proc.stdout], [], [],
                                max(deadline - time.monotonic(), 0.0))
    if not ready:
        raise BenchError("worker timed out")
    # stdout is unbuffered, so select sees every line that is not yet read
    return proc.stdout.readline().decode()


def start_worker(args, tag, deadline, extra=()):
    """Start a worker; return (process, seconds from start to READY)."""
    workdir = os.path.join(HERE, "tmp", f"{args.workload}-{os.getpid()}-{tag}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            bufsize=0, env=child_env(), cwd=ROOT)
    try:
        line = read_line(proc, deadline)
        elapsed = time.perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError(f"worker did not become ready (got {line!r})")
    except BaseException:
        stop(proc)
        raise
    return proc, elapsed


def stop(proc):
    """End a worker if it still runs and wait for it."""
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def time_setup(args, tag, deadline):
    """Seconds from start to READY of a fresh set-up-only process."""
    proc, ready = start_worker(args, f"setup{tag}", deadline, ("--setup-only",))
    stop_after(proc, deadline)
    return ready


def stop_after(proc, deadline):
    """Wait for a worker to exit by itself; it must exit with code 0."""
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    finally:
        stop(proc)
    if code != 0:
        raise BenchError(f"worker exited with code {code}")


def run(args):
    deadline = time.monotonic() + TIMEOUT_S
    extra = ()
    if args.trace:
        extra = ("--spans", os.path.join(HERE, "out", f"spans-{args.workload}.npz"))
    # seconds of rounds after which a set-up-only process is timed
    slots = [] if args.trace else \
        [(i + 0.5) * args.seconds / SETUP_RUNS for i in range(SETUP_RUNS)]
    proc, ready = start_worker(args, "main", deadline, extra)
    setups, result = [ready], None
    try:
        while line := read_line(proc, deadline):
            if line.startswith("ROUND "):
                while slots and slots[0] <= float(line.split()[1]):
                    setups.append(time_setup(args, len(setups), deadline))
                    slots.pop(0)
                proc.stdin.write(b"GO\n")
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        stop_after(proc, deadline)
    finally:
        stop(proc)
    if result is None:
        raise BenchError("worker printed no result")
    # a run too short for every slot times the rest after it
    setups += [time_setup(args, len(setups) + i, deadline) for i in range(len(slots))]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    if not args.trace:
        metrics = {"setup_s": {"value": min(setups), "unit": "s"}, **metrics}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cutterkit", "__init__.py")):
        print(f"bench: no cutterkit sources under {SRC}", file=sys.stderr)
        return 2
    try:
        out = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
