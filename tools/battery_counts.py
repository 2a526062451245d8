"""Projections and peak memory of `cutterkit verify` probe batteries.

    python3 tools/battery_counts.py SRC

Imports cutterkit from SRC and runs `verify` on two (2000, 50) configs,
one product method and 2000 probe samples each:

- affine_d50, the config of tests/test_cli.py's affine_d50: two
  25-dimensional affine sets in R^50 meeting in a 5-dimensional flat,
  whose intersection holds no sample;
- boxes_d50, the boxes of tests/test_diagnostics.py's battery memory
  test: [-1, 1]^50 and [-0.5, 2]^50 with their intersection given,
  which holds 266 of the samples, so lb2 and kappa_hat drop those rows.

For each it prints three numbers of one verify:

- the calls of the sets' _project on batches of more than 5 rows while
  the battery (diagnostics._product_probes) runs: the images of the
  sample, or of some of its rows;
- the calls of the sets' _project on batches of at most 5 rows, the
  membership points of the fixed-point checks;
- the tracemalloc peak of a second verify, in (2000, 50) float64 arrays
  of 0.8 MB each and in bytes (the first verify runs the lazy imports
  and caches).

Every operator of a config is built after the count is installed, so
the raw projections the operators bind are counted too.  The projection
counts have no run-to-run spread: a change of them is a change of the
battery.  The peak can move by about one small allocation from run to
run (0.001 arrays, about 800 B); a larger move is a change of the
battery.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import tracemalloc

SAMPLES, D = 2000, 50


def _affine_d50(out):
    """tests/test_cli.py's affine_d50 over its write_config base."""
    def unit(i):
        return [1.0 if j == i else 0.0 for j in range(D)]

    turned = []
    for i in range(20):
        c, s = ((0.6, 0.8), (0.8, 0.6), (0.28, 0.96), (0.96, 0.28))[i % 4]
        turned.append([c if j == 5 + i else s if j == 25 + i else 0.0
                       for j in range(D)])
    p = [((3 * j) % 7 - 3) / 4 for j in range(D)]
    return {
        "seed": 4,
        "problem": {"sets": [
            {"type": "affine", "anchor": p, "basis": [unit(i) for i in range(25)]},
            {"type": "affine", "anchor": p,
             "basis": [unit(i) for i in range(5)] + turned}]},
        "x0": [pj + ((j % 5) - 2) / 8 for j, pj in enumerate(p)],
        "iterations": 200,
        "methods": [{"name": "p", "driver": "product", "lambda": 1.2,
                     "mu": 2.8, "alpha": 1.0, "epsilon": 0.5}],
        "outputs": {"csv": os.path.join(out, "out")},
        "probe": {"radius": 2.0, "samples": SAMPLES},
    }


def _boxes_d50(out):
    """The boxes of tests/test_diagnostics.py's battery memory test, with
    x0 = 0 so that the probe ball is B(0, 2) at seed 3."""
    def box(lo, hi):
        return {"type": "box", "lo": [lo] * D, "hi": [hi] * D}

    return {
        "seed": 3,
        "problem": {"sets": [box(-1.0, 1.0), box(-0.5, 2.0)],
                    "intersection": box(-0.5, 1.0)},
        "x0": [0.0] * D,
        "iterations": 200,
        "methods": [{"name": "p", "driver": "product", "lambda": 1.5,
                     "mu": 2.5, "alpha": 1.0, "epsilon": 0.5}],
        "outputs": {"csv": os.path.join(out, "out")},
        "probe": {"radius": 2.0, "samples": SAMPLES},
    }


def _verify(ck, path):
    with contextlib.redirect_stdout(io.StringIO()):
        code = ck.cli.main(["verify", path])
    if code != 0:
        raise SystemExit(f"verify exited {code}")


def _in_battery() -> bool:
    """Whether diagnostics._product_probes is on the call stack."""
    frame = sys._getframe()
    while frame is not None and frame.f_code.co_name != "_product_probes":
        frame = frame.f_back
    return frame is not None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.abspath(argv[0]))
    import cutterkit.cli
    from cutterkit.geometry import AffineSubspace, Box

    for name, config, cls in (("affine_d50", _affine_d50, AffineSubspace),
                              ("boxes_d50", _boxes_d50, Box)):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(config(tmp), fh, indent=1)
            sample, member = [], []
            project = cls._project

            def counted(self, x):
                if x.ndim == 2 and len(x) > 5 and _in_battery():
                    sample.append(self)
                elif x.ndim == 2 and len(x) <= 5:
                    member.append(self)
                return project(self, x)

            cls._project = counted
            try:
                _verify(cutterkit, path)
            finally:
                cls._project = project
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                _verify(cutterkit, path)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        print(f"{name}:")
        print(f"sample-batch projections: {len(sample)}")
        print(f"membership-point projections: {len(member)}")
        print(f"peak: {peak / (SAMPLES * D * 8):.3f} sample-sized arrays ({peak} B)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
