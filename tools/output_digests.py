"""Digests of cutterkit's outputs on the benchmark's task lists.

    python3 tools/output_digests.py SRC SEED WORKDIR

Imports cutterkit from SRC and the task lists of bench/workloads.py for
SEED, runs every sweep, verify and run-io task once in this process, and
prints one line per task: its name and a digest of what it gave.  A
sweep task's digest covers the trace's iterates, residuals, step sizes
and solution errors; a CLI task's covers the exit code, stdout, stderr,
the class and text of each warning and every file it wrote.  A verify
task's digest also covers the bytes of every margin array handed to
`diagnostics._report`, in call order, so that it sees the last bits that
the 6-digit `PROBE` lines round away.  Two more lines digest
`example-paper` at --iters 30 and 1500.

Two source trees give the same lines exactly when their outputs are the
same byte for byte.  Run both with the same WORKDIR, one after the
other: reports and messages name the config paths, which lie under it.
WORKDIR must not exist; it is removed at the end.  Nothing under bench/
is written.
"""

from __future__ import annotations

import hashlib
import io
import os
import shutil
import sys
import warnings
from contextlib import contextmanager, redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# one BLAS thread, as in the benchmark: a sum's order must not depend on
# the machine's thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _cli(cli, argv, out_dir=None, margins=()) -> str:
    """Digest of one cli.main call and, given out_dir, the files in it
    (names and bytes, as the benchmark's run-io check digests them); the
    list margins, filled during the call, joins the digest."""
    import workloads

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # every task records its own warnings
        code = cli.main(argv)
    # a warning by its class and text: where it is shown names the source file
    shown = [f"{w.category.__name__}: {w.message}" for w in caught]
    files = workloads._digest(out_dir) if out_dir and os.path.isdir(out_dir) else ""
    if out_dir:
        shutil.rmtree(out_dir, ignore_errors=True)
    return _hash(code, out.getvalue(), err.getvalue(), *shown, files, *margins)


@contextmanager
def _margin_bytes(diagnostics):
    """A list that gathers the bytes of each margin array diagnostics._report
    is given, while the block runs."""
    import numpy as np

    kept, report = [], diagnostics._report

    def keeping(name, margins, *args, **kwargs):
        kept.append(np.asarray(margins, dtype=float).tobytes())
        return report(name, margins, *args, **kwargs)

    diagnostics._report = keeping
    try:
        yield kept
    finally:
        diagnostics._report = report


def _trace(trace) -> str:
    return _hash(trace.iterates.tobytes(), repr(trace.residuals),
                 repr(trace.step_sizes), repr(trace.solution_errors))


def digests(seed: int, workdir: str):
    """(name, digest) of every task, in task-list order."""
    import cutterkit
    import workloads
    from cutterkit import cli

    sweep = workloads.Sweep(cutterkit, seed, workdir)
    for i, task in enumerate(sweep.tasks):
        yield f"sweep{i}.{task['fn']}", _trace(sweep.run(task))
    verify = workloads.Verify(cutterkit, seed, workdir)
    for task in verify.tasks:
        with _margin_bytes(cutterkit.diagnostics) as margins:
            digest = _cli(cli, ["verify", task["path"]], margins=margins)
        yield f"verify.{task['name']}", digest
    run_io = workloads.RunIo(cutterkit, seed, workdir)
    for task in run_io.tasks:
        yield f"run-io.{task['name']}", _cli(cli, ["run", task["path"]],
                                             task["doc"]["outputs"]["csv"])
    for iters in (30, 1500):
        out = os.path.join(workdir, "paper")
        yield f"example-paper.iters{iters}", _cli(
            cli, ["example-paper", "--out", out, "--iters", str(iters)], out)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src, seed, workdir = os.path.abspath(argv[0]), int(argv[1]), argv[2]
    if os.path.exists(workdir):
        print(f"{workdir} exists; give a path that does not", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # import bench/ without writing into it
    sys.path[:0] = [src, os.path.join(ROOT, "bench")]
    os.makedirs(workdir)
    try:
        for name, digest in digests(seed, workdir):
            print(name, digest)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
