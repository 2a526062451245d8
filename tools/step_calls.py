"""Python and C calls per step of cutterkit's iteration loop.

    python3 tools/step_calls.py SRC

Imports cutterkit from SRC and counts, under sys.setprofile, the Python
function calls (generator resumptions included) and the C function calls
that one engine step makes: the counts of a 2000-step run less those of
a 1000-step run, over 1000.  Everything outside the steps (building the
operators, the config checks, the trace) cancels in the difference.
Three runs are counted, single points (d,) throughout:

- paper: the paper's (3, 1) method, (P_B)(P_A)_3 on two lines in R^2 at
  pi/6, alpha = 1, through iterate from the paper's x0.  The residuals of
  its last 289 steps square to subnormal floats, so those steps take the
  row-norm kernel's out-of-range path;
- paper-normal: the same from 1e100 times the paper's x0, where every
  residual of the 2000 steps squares to a normal float;
- affine-d50: (P_B)_1.5 (P_A)_2.2 on two affine sets in R^50 whose
  Friedrichs angle is 0.02, alpha = 1, through iterate.

The counts have no run-to-run spread: a change of them is a change of
the code path.  Numpy's C internals that do not pass through a Python
call are not seen.
"""

from __future__ import annotations

import math
import os
import sys


def _methods(ck):
    import numpy as np

    geo = ck.geometry
    s, c = math.sin(math.pi / 6), math.cos(math.pi / 6)
    lines = (geo.Hyperplane([0.0, 1.0], 0.0), geo.Hyperplane([-s, c], 0.0),
             (3.0, 1.0))
    # A = span(e_0, ..., e_24); B turns e_24 towards e_25 by 0.02 and
    # keeps e_0, ..., e_23, so A n B = span(e_0, ..., e_23)
    d, k = 50, 25
    eye = np.eye(d)
    turned = math.cos(0.02) * eye[k - 1] + math.sin(0.02) * eye[k]
    a = geo.AffineSubspace(np.zeros(d), eye[:k])
    b = geo.AffineSubspace(np.zeros(d), np.vstack([eye[:k - 1], turned]))
    x0 = np.linspace(-1.0, 1.0, d)
    yield "paper", lines + ([1.0, 0.0],)
    yield "paper-normal", lines + ([1e100, 0.0],)
    yield "affine-d50", (a, b, (2.2, 1.5), x0)


def _calls(ck, sets, steps):
    """(Python calls, C calls) of one iterate run of the given length."""
    a, b, (lam, mu), x0 = sets
    ops = ck.operators
    t = ops.relax(ops.projection_operator(a), lam)
    u = ops.relax(ops.projection_operator(b), mu)
    cfg = ck.engine.IterationConfig(pair=ck.theory.RelaxationPair(lam, mu),
                                    x0=x0, epsilon=0.1, alpha=1.0,
                                    max_iter=steps, residual_tol=1e-300)
    counts = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(count)
    try:
        trace = ck.engine.iterate(t, u, cfg)
    finally:
        sys.setprofile(None)
    if trace.n_steps != steps:
        raise SystemExit(f"the run stopped after {trace.n_steps} of {steps} steps")
    return counts["call"], counts["c_call"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.abspath(argv[0]))
    import cutterkit

    for name, sets in _methods(cutterkit):
        _calls(cutterkit, sets, 10)  # warm up: first-call imports and caches
        short, long = _calls(cutterkit, sets, 1000), _calls(cutterkit, sets, 2000)
        print(f"{name}: {(long[0] - short[0]) / 1000:.2f} Python calls, "
              f"{(long[1] - short[1]) / 1000:.2f} C calls per step")
    return 0


if __name__ == "__main__":
    sys.exit(main())
