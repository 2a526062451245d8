"""Seeded inputs and task runners of the three benchmark workloads.

The plan of a workload (kinds of problem, dimensions, relaxation
parameters, step schedules, iteration counts and probe budgets) is fixed
and the same for every seed; the seed draws only the geometry: the
orientations, the common point and the start points.  Every seed thus
gives a task list of the same make-up and nearly the same cost, so runs
with different seeds can be compared.

Problems are plain dictionaries in the config format, so the checks in
checks.py can recompute everything without cutterkit.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import checks

# Fixed plan choices.  Six of the eight (lam, mu) pairs put a relaxation
# parameter above two; all have lam * mu <= 3.36 < 4.
PAIRS = ((3.0, 1.0), (2.5, 1.2), (1.2, 2.8), (3.5, 0.8), (1.0, 3.2),
         (2.2, 1.5), (1.5, 1.5), (0.8, 2.4))
# Friedrichs angles, bounded away from 0.
ANGLES = (0.35, 0.5, 0.7, 0.95, 1.25)
DIMS = (2, 3, 5, 8, 12, 20, 30, 50)
ALPHAS = (1.0, 1.6, 0.5, (0.4, 1.8, 1.2, 0.9))
SWEEP_EPS = 0.2
PLAN_SEED = 20250210


def _unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _frame(rng, d):
    """A random orthonormal basis of R^d, as columns."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def affine_pair(rng, d, theta, common):
    """Two affine sets through a random point p whose nonzero principal
    angles are theta, 1.3 theta, ... (capped below pi/2), so the
    Friedrichs angle is theta.  common is the dimension of A n B (0: the
    sets meet in p alone).  For d <= 3, or common < 0, the sets are
    hyperplanes at angle theta."""
    p = rng.standard_normal(d)
    q = _frame(rng, d)
    if d <= 3 or common < 0:
        na = q[:, 0]
        nb = math.cos(theta) * q[:, 0] + math.sin(theta) * q[:, 1]
        return p, [{"type": "hyperplane", "normal": na.tolist(), "offset": float(na @ p)},
                   {"type": "hyperplane", "normal": nb.tolist(), "offset": float(nb @ p)}]
    ka = d // 2
    common = min(common, ka - 1)
    r = min(ka - common, d - ka)
    basis_a = q[:, :ka].T
    turned = [math.cos(min(theta * (1 + 0.3 * i), 1.5)) * q[:, common + i]
              + math.sin(min(theta * (1 + 0.3 * i), 1.5)) * q[:, ka + i]
              for i in range(r)]
    basis_b = np.vstack([q[:, :common].T, np.array(turned).reshape(r, d)])
    sets = []
    for basis in (basis_a, basis_b):
        anchor = p + basis.T @ rng.standard_normal(basis.shape[0])
        sets.append({"type": "affine", "anchor": anchor.tolist(),
                     "basis": basis.tolist()})
    return p, sets


def convex_pair(rng, d, kind):
    """A halfspace, ball or box pair that contains a common point p in
    its intersection."""
    p = rng.standard_normal(d)
    made = []
    for part in kind.split("-"):
        if part == "halfspace":
            n = _unit(rng, d)
            made.append({"type": "halfspace", "normal": n.tolist(),
                         "offset": float(n @ p + 0.1 * rng.random())})
        elif part == "ball":
            radius = 0.5 + rng.random()
            center = p + 0.6 * radius * _unit(rng, d)
            made.append({"type": "ball", "center": center.tolist(), "radius": radius})
        else:
            half = 0.2 + rng.random(d)
            shift = (rng.random(d) - 0.5) * half
            made.append({"type": "box", "lo": (p + shift - half).tolist(),
                         "hi": (p + shift + half).tolist()})
    return p, made


def sweep_plan(n=100):
    plan_rng = np.random.default_rng(PLAN_SEED)
    kinds = ("affine",) * 6 + ("halfspace-ball", "ball-box", "halfspace-box")
    plan = []
    for i in range(n):
        kind = kinds[i % len(kinds)]
        plan.append({
            "kind": kind,
            "d": int(DIMS[plan_rng.integers(len(DIMS))]),
            "pair": PAIRS[i % len(PAIRS)],
            "alpha": ALPHAS[plan_rng.integers(len(ALPHAS))],
            "theta": float(ANGLES[plan_rng.integers(len(ANGLES))]),
            "common": int(plan_rng.integers(0, 3)),
            "radius": float((1.0, 3.0, 10.0)[i % 3]),
        })
    return plan


def sweep_problems(seed):
    """One problem per plan entry; each is run by iterate and by
    iterate_reformulated, two tasks."""
    rng = np.random.default_rng([seed, 1])
    problems = []
    for entry in sweep_plan():
        d = entry["d"]
        if entry["kind"] == "affine":
            p, sets = affine_pair(rng, d, entry["theta"], entry["common"])
        else:
            p, sets = convex_pair(rng, d, entry["kind"])
        x0 = p + entry["radius"] * _unit(rng, d)
        problems.append(dict(entry, sets=sets, x0=x0.tolist(), common_point=p.tolist()))
    return problems


class Sweep:
    """Library calls to iterate and iterate_reformulated to residual 1e-10."""

    def __init__(self, ck, seed, workdir):
        from cutterkit import configio

        self.ck = ck
        self.tasks = []
        ops, theory = ck.operators, ck.theory
        for prob in sweep_problems(seed):
            a, b = (configio.set_from_dict(s) for s in prob["sets"])
            lam, mu = prob["pair"]
            t = ops.relax(ops.projection_operator(a), lam)
            u = ops.relax(ops.projection_operator(b), mu)
            alpha = prob["alpha"]
            n = checks.nu(lam, mu)
            if isinstance(alpha, tuple):
                direct = lambda k, s=alpha: s[k % len(s)]
                steps = lambda k, s=alpha, n=n: s[k % len(s)] / n
                lo, hi = min(alpha), max(alpha)
            else:
                direct, steps = alpha, alpha / n
                lo = hi = alpha
            # the reformulated window is [eps, 2/nu - eps]; keep the steps
            # strictly inside it
            eps_r = 0.5 * min(lo / n, 2.0 / n - hi / n)
            common = dict(pair=theory.RelaxationPair(lam, mu), x0=prob["x0"],
                          max_iter=20000, residual_tol=checks.SWEEP_RESIDUAL_TOL)
            cfg = ck.engine.IterationConfig(epsilon=SWEEP_EPS, alpha=direct, **common)
            cfg_r = ck.engine.IterationConfig(epsilon=eps_r, alpha=steps, **common)
            self.tasks.append({"fn": "iterate", "t": t, "u": u, "cfg": cfg,
                               "problem": prob})
            self.tasks.append({"fn": "iterate_reformulated", "t": t, "u": u,
                               "cfg": cfg_r, "problem": prob})
        self._partner = {}

    def run(self, task):
        # looked up at call time, so a traced run sees the wrapped driver
        fn = getattr(self.ck.engine, task["fn"])
        return fn(task["t"], task["u"], task["cfg"])

    def check(self, task, trace):
        errs = checks.check_sweep(task["problem"], trace.iterates, trace.final_residual)
        # the two runs of a problem meet in any order within a round
        other = self._partner.pop(id(task["problem"]), None)
        if other is None:
            self._partner[id(task["problem"])] = trace.iterates
        else:
            errs += checks.check_same_trajectory(other, trace.iterates)
        return False, errs


class _CliWorkload:
    """Tasks that call cutterkit.cli.main on config files written at set-up."""

    def __init__(self, ck, workdir):
        from cutterkit import cli

        # main is looked up at call time, so a traced run sees the wrapper
        self.cli = cli
        self.workdir = workdir
        os.makedirs(os.path.join(workdir, "configs"), exist_ok=True)
        self.tasks = []

    def add(self, name, doc, **extra):
        path = os.path.join(self.workdir, "configs", name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.tasks.append(dict(extra, name=name, path=path, doc=doc))

    def call(self, argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = self.cli.main(argv)
        return code, out.getvalue()


PAPER_SETS = [
    {"type": "hyperplane", "normal": [0.0, 1.0], "offset": 0.0},
    {"type": "hyperplane", "normal": [-0.5, 0.8660254037844387], "offset": 0.0},
]
PAPER_METHODS = [
    {"name": "map", "driver": "map"},
    {"name": "dr", "driver": "dr"},
    {"name": "new", "driver": "product", "lambda": 3.0, "mu": 1.0,
     "alpha": 1.0, "epsilon": 1.0},
]
PRODUCT_PROBES = ("cutter.PA", "cutter.PB", "relaxed-cutter.T",
                  "relaxed-cutter.U", "demicontraction.T", "demicontraction.U",
                  "product.cutter", "lb1", "lb2", "fejer", "fejer-dc", "rate")
# The verify list, as (kind, d, probe samples, configs).  It falls into
# three cost classes: 48 cheap configs, 40 middle ones and 12 dear ones,
# the quickest of a class at least 1.3 times as slow as the slowest of
# the class below.  The median then reads the second and third quickest
# middle configs and the 90th percentile the second and third quickest
# dear ones (bench/README.md, "Why cost classes").
SLOW_PAIR = (3.5, 0.8)
VERIFY_PLAN = (
    ("product", 2, 1000, 14), ("product", 3, 1000, 13), ("product", 5, 1000, 13),
    ("negative", 2, 1000, 2), ("negative", 3, 1000, 2), ("negative", 5, 1000, 2),
    ("negative", 8, 1000, 2),
    ("product", 30, 1000, 38), ("negative", 30, 1000, 2),
    ("product", 50, 2000, 10), ("paper", 2, None, 2),
)


def mislabel(lam, mu, prefer_t):
    """(which, actual): relax T or U by more than its declared parameter.

    The relaxed-cutter inequality at the declared parameter then fails on
    every sample off the set.  The choice keeps the true lam * mu < 4 and
    the true step alpha nu_true / nu_declared (alpha = 1) below 1.8, so the
    verify run still converges and every probe line is printed.
    """
    order = ("T", "U") if prefer_t else ("U", "T")
    for delta in (0.3, 0.2, 0.1):
        for which in order:
            l2, m2 = (lam + delta, mu) if which == "T" else (lam, mu + delta)
            if l2 * m2 < 3.9 and checks.nu(l2, m2) / checks.nu(lam, mu) < 1.8:
                return which, (l2 if which == "T" else m2)
    raise ValueError(f"no admissible mislabelling of ({lam}, {mu})")


def expected_probes(methods):
    names = []
    for m in methods:
        if m["driver"] == "product":
            names += [f"{m['name']}.{p}" for p in PRODUCT_PROBES]
        else:
            names += [f"{m['name']}.fejer", f"{m['name']}.fejer-dc"]
    return names


def product_method(name, lam, mu, alpha):
    return {"name": name, "driver": "product", "lambda": lam, "mu": mu,
            "alpha": alpha, "epsilon": min(alpha, 2.0 - alpha)}


class Verify(_CliWorkload):
    """`cutterkit verify` on product-only configs, the paper config with
    its map/dr baselines, and negative controls with a mislabelled T or U."""

    def __init__(self, ck, seed, workdir):
        super().__init__(ck, workdir)
        rng = np.random.default_rng([seed, 2])
        i = 0
        for kind, d, samples, count in VERIFY_PLAN:
            for _ in range(count):
                if kind == "paper":
                    doc = {"seed": int(rng.integers(2**31)),
                           "problem": {"sets": PAPER_SETS}, "x0": [1.0, 0.0],
                           "iterations": 30, "methods": PAPER_METHODS}
                    self.add(f"paper{i}", doc,
                             expect={"probes": expected_probes(PAPER_METHODS)})
                else:
                    self._add_product(kind, i, d, samples, rng)
                i += 1

    def _add_product(self, kind, i, d, samples, rng):
        # coprime cycles, so the plan covers the combinations
        lam, mu = PAIRS[(i + i // len(DIMS)) % len(PAIRS)]
        if d <= 8 and (lam, mu) == SLOW_PAIR:
            # its converged run takes the most steps, which would lift a
            # cheap config into the middle class
            lam, mu = PAIRS[(i + i // len(DIMS) + 1) % len(PAIRS)]
        p, sets = affine_pair(rng, d, ANGLES[i % len(ANGLES)], i % 3)
        x0 = (p + 2.0 * _unit(rng, d)).tolist()
        methods = [product_method("p0", lam, mu, 1.0)]
        doc = {"seed": int(rng.integers(2**31)), "problem": {"sets": sets},
               "x0": x0, "iterations": 200, "methods": methods,
               "probe": {"radius": 2.0, "samples": samples}}
        if kind == "product":
            self.add(f"product{i}", doc, expect={"probes": expected_probes(methods)})
            return
        which, actual = mislabel(lam, mu, prefer_t=bool(i % 2))
        methods[0][which] = {"op": "relax", "lambda": actual,
                             "of": {"op": "projection", "set": 0 if which == "T" else 1}}
        self.add(f"negative{i}", doc, expect={
            "probes": expected_probes(methods),
            "must_fail": f"p0.relaxed-cutter.{which}"})

    def run(self, task):
        return self.call(["verify", task["path"]])

    def check(self, task, out):
        code, text = out
        return checks.check_verify(task["expect"], code, text)


# Small angles, so that convergence is slow: a fixed-length run ends
# early once an iterate is an exact fixed point (residual 0), at a step
# that depends on the seed, and the work per round would vary with it.
RUN_IO_ANGLES = (0.01, 0.02, 0.04)
RUN_IO_PLAN = (
    # (kind, d, methods, iterations, tasks), in three cost classes as in
    # VERIFY_PLAN: 48 cheap tasks of small d, 40 middle ones of d = 50,
    # 12 dear ones.  Most of the time goes to d = 50, where the 17-digit
    # CSV rows cost the most.
    ("lines", 2, 2, 100, 8),
    ("point", 5, 2, 100, 12),
    ("point", 12, 2, 100, 16),
    ("flat", 12, 2, 100, 12),
    ("point", 50, 2, 100, 30),
    ("flat", 50, 2, 100, 10),
    ("point", 50, 2, 200, 10),
    ("lines", 2, 3, 1000, 2),
)


def run_io_methods(count, iterations, plan_rng):
    """dr and one product method, after map when count is 3."""
    methods = [{"name": "map", "driver": "map"}, {"name": "dr", "driver": "dr"}][3 - count:]
    lam, mu = PAIRS[int(plan_rng.integers(len(PAIRS)))]
    alpha = ALPHAS[int(plan_rng.integers(len(ALPHAS)))]
    if isinstance(alpha, tuple):
        alpha = [alpha[k % len(alpha)] for k in range(iterations)]
    methods.append({"name": "p0", "driver": "product", "lambda": lam, "mu": mu,
                    "alpha": alpha})
    return methods


class RunIo(_CliWorkload):
    """`cutterkit run`: fixed-length runs of several methods, each task
    writing its CSVs, report and SVGs into a fresh directory."""

    def __init__(self, ck, seed, workdir):
        super().__init__(ck, workdir)
        rng = np.random.default_rng([seed, 3])
        plan_rng = np.random.default_rng(PLAN_SEED + 3)
        i = 0
        for kind, d, count, iterations, repeat in RUN_IO_PLAN:
            for _ in range(repeat):
                theta = float(RUN_IO_ANGLES[plan_rng.integers(len(RUN_IO_ANGLES))])
                # "point": complementary affine sets meeting in one point;
                # "flat": hyperplanes whose intersection is not a point
                common = 0 if kind == "point" else -1
                p, sets = affine_pair(rng, d, theta, common)
                out = os.path.join(workdir, "out", f"task{i}")
                doc = {"seed": int(rng.integers(2**31)), "problem": {"sets": sets},
                       "x0": (p + 3.0 * _unit(rng, d)).tolist(),
                       "iterations": iterations,
                       "methods": run_io_methods(count, iterations, plan_rng),
                       "outputs": {"csv": out, "svg": out,
                                   "report": os.path.join(out, "report.txt")}}
                self.add(f"run{i}", doc)
                i += 1

    def run(self, task):
        return self.call(["run", task["path"]])[0]

    def check(self, task, code):
        """The first outputs of a task get the full check; outputs of later
        rounds must be byte-identical to them, as cutterkit promises for
        the same config and seed, or they are checked in full again."""
        out = task["doc"]["outputs"]["csv"]
        try:
            digest = _digest(out) if code == 0 else None
            if digest is not None and digest == task.get("digest"):
                return False, []
            errs = checks.check_run_outputs(task["doc"], code)
            if "digest" in task:
                errs.append("outputs differ from an earlier round's")
            elif not errs:
                task["digest"] = digest
            return code != 0, errs
        finally:
            shutil.rmtree(out, ignore_errors=True)


def _digest(directory):
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


WORKLOADS = {"sweep": Sweep, "verify": Verify, "run-io": RunIo}
