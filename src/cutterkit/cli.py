"""Config-driven experiment runner.

Subcommands:
  example-paper  two lines through the origin at angle pi/6: alternating
                 projections, Douglas-Rachford, and the over-relaxed
                 (3,1)-product method, 30 iterations from (1, 0);
                 emits per-method CSVs, a combined log-error CSV and two
                 SVG plots.
  run CONFIG     execute the methods of a JSON experiment config.
  verify CONFIG  run the diagnostics battery on a configured problem.

Exit codes: 0 success, 2 config parse error, 3 validation (hypothesis)
error, 4 probe or run failure, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import configio, diagnostics
from .engine import IterationConfig, Trace, iterate, run_dr, run_map
from .errors import (ConfigError, CutterKitError, DivergenceError,
                     InfeasibleError, ProbeFailure, UsageError)
from .geometry import AffineSubspace, Hyperplane, intersect_affine
from .operators import compose, projection_operator, relax
from .svg import emit_svg
from .theory import (RelaxationPair, delta_projections, demicontraction_rho,
                     nu)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_PROBE = 4
EXIT_IO = 5


def paper_problem():
    """A = x-axis, B = line at angle pi/6 through the origin (in R^2)."""
    a = Hyperplane([0.0, 1.0], 0.0)
    b = Hyperplane([-math.sin(math.pi / 6), math.cos(math.pi / 6)], 0.0)
    return a, b


def paper_traces(iters: int = 30):
    """MAP, DR and the (3,1) product method from (1, 0); returns
    [(name, trace), ...] with solution errors against the origin."""
    a, b = paper_problem()
    x0 = np.array([1.0, 0.0])
    origin = np.zeros(2)
    t_map = run_map(a, b, x0, iters, solution=origin)
    t_dr = run_dr(a, b, x0, iters, solution=origin)
    t = relax(projection_operator(a), 3.0)
    u = projection_operator(b)
    cfg = IterationConfig(
        pair=RelaxationPair(3.0, 1.0), x0=x0, epsilon=1.0, alpha=1.0,
        max_iter=iters, residual_tol=1e-300,
    )
    t_new = iterate(t, u, cfg, solution=origin)
    return [("map", t_map), ("dr", t_dr), ("new", t_new)]


def cmd_example_paper(out_dir: str, iters: int = 30) -> int:
    os.makedirs(out_dir, exist_ok=True)
    named = paper_traces(iters)
    for name, tr in named:
        configio.write_trace_csv(os.path.join(out_dir, f"{name}.csv"), tr)
    n = max(tr.iterates.shape[0] for _, tr in named)
    lines = [",".join(["k"] + [f"log10_err_{name}" for name, _ in named])]
    for k in range(n):
        cells = [configio._log10_cell(tr.solution_errors[k])
                 if k < len(tr.solution_errors) else "" for _, tr in named]
        lines.append(",".join([str(k)] + cells))
    configio._write_lines(os.path.join(out_dir, "errors.csv"), lines)
    traces = [tr for _, tr in named]
    labels = [name for name, _ in named]
    emit_svg(traces, os.path.join(out_dir, "trajectories.svg"),
             kind="trajectory", labels=labels, title="iterate trajectories")
    emit_svg(traces, os.path.join(out_dir, "errors.svg"),
             kind="error", labels=labels, title="log10 error per step")

    # sanity of the canonical first steps; a failure here is a code bug
    expected = {
        "map": np.array([0.75, math.sqrt(3) / 4]),
        "dr": np.array([0.75, math.sqrt(3) / 4]),
        "new": np.array([15.0 / 16.0, math.sqrt(3) / 16]),
    }
    for name, tr in named:
        if tr.n_steps == 0:
            continue
        if np.max(np.abs(tr.iterates[1] - expected[name])) > 1e-12:
            raise ProbeFailure(f"{name}: first iterate deviates from closed form")
        errs = np.asarray(tr.solution_errors)
        if np.any(np.diff(errs) >= 0):
            raise ProbeFailure(f"{name}: error sequence is not strictly decreasing")
    for name, tr in named:
        final = tr.solution_errors[-1]
        print(f"{name}: final error {final:.6e} after {tr.n_steps} steps")
        if final >= 1e-2:
            # Reachable only by the DR baseline at the canonical 30 steps:
            # it contracts by cos(pi/6) per step, and (3/4)^15 ~ 1.34e-2.
            print(f"WARNING: {name} final error {final:.6e} >= 1e-2 "
                  f"(DR needs 33 steps to cross 1e-2)", file=sys.stderr)
    print(f"wrote {out_dir}/{{map,dr,new,errors}}.csv and "
          f"{{trajectories,errors}}.svg")
    return EXIT_OK


def _intersection_oracle(cfg):
    """Explicit intersection set if configured, else the affine
    intersection when both sets admit one."""
    if cfg.intersection is not None:
        return cfg.intersection
    a, b = cfg.sets[0], cfg.sets[1]
    if isinstance(a, (Hyperplane, AffineSubspace)) and isinstance(
            b, (Hyperplane, AffineSubspace)):
        return intersect_affine(a, b)  # InfeasibleError propagates (exit 3)
    return None


def _run_method(cfg, method, solution=None, max_iter=None,
                residual_tol=1e-300) -> Trace:
    iters = max_iter if max_iter is not None else cfg.iterations
    a, b = cfg.sets[0], cfg.sets[1]
    if method.driver == "map":
        return run_map(a, b, cfg.x0, iters, residual_tol, solution)
    if method.driver == "dr":
        return run_dr(a, b, cfg.x0, iters, residual_tol, solution)
    run_cfg = IterationConfig(
        pair=method.pair,
        x0=cfg.x0,
        epsilon=method.epsilon,
        alpha=method.alpha,
        max_iter=iters,
        residual_tol=residual_tol,
    )
    return iterate(method.t, method.u, run_cfg, solution=solution)


def _write_report(path: str, lines) -> None:
    """Write a report's lines, creating its directory first."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    configio._write_lines(path, lines)


def cmd_run(config_path: str, seed=None, iters=None, tol=None) -> int:
    cfg = configio.load_config(config_path)
    if seed is not None:
        cfg.seed = seed
    if iters is not None:
        cfg.iterations = iters
    residual_tol = tol if tol is not None else 1e-300
    oracle = _intersection_oracle(cfg)
    solution = None
    if oracle is not None and isinstance(oracle, AffineSubspace) \
            and oracle.basis.shape[0] == 0:
        solution = oracle.anchor  # unique intersection point

    csv_dir = cfg.outputs.get("csv", "out")
    os.makedirs(csv_dir, exist_ok=True)
    report_path = cfg.outputs.get("report", os.path.join(csv_dir, "report.txt"))
    report_lines = [f"config: {config_path}", f"seed: {cfg.seed}"]
    named = []
    for method in cfg.methods:
        trace = _run_method(cfg, method, solution=solution,
                            residual_tol=residual_tol)
        named.append((method.name, trace))
        configio.write_trace_csv(os.path.join(csv_dir, f"{method.name}.csv"), trace)
        last = trace.solution_errors[-1] if trace.solution_errors else float("nan")
        report_lines.append(
            f"method {method.name}: steps={trace.n_steps} "
            f"final_residual={trace.final_residual:.17g} final_error={last:.17g}"
        )
    svg_dir = cfg.outputs.get("svg")
    if svg_dir:
        os.makedirs(svg_dir, exist_ok=True)
        labels = [n for n, _ in named]
        traces = [t for _, t in named]
        emit_svg(traces, os.path.join(svg_dir, "trajectories.svg"),
                 kind="trajectory", labels=labels)
        if solution is not None:
            emit_svg(traces, os.path.join(svg_dir, "errors.svg"),
                     kind="error", labels=labels)
    _write_report(report_path, report_lines)
    for line in report_lines:
        print(line)
    return EXIT_OK


def _verify_method(cfg, method, oracle, w, probe):
    """The probe reports of one method, in print order.

    A product method first gets its operator probes and, given an
    intersection oracle and w = its projection of x0, the product probes.
    Every method with an oracle then gets the Fejer and per-step gap
    probes on a run to residual 1e-10, and a product method the rate
    certificate on that run.
    """
    reports = []

    def add(name, rep):
        rep.name = f"{method.name}.{name}"
        reports.append(rep)

    a, b = cfg.sets[0], cfg.sets[1]
    if method.driver == "map":
        # alternating projections = the product method with lam = mu = 1
        # and alpha = nu, which [eps, 2 - eps] holds up to eps = 2 - nu
        n = nu(RelaxationPair(1.0, 1.0))
        epsilon = 2.0 - n
    elif method.driver == "dr":  # (P_B)_2 (P_A)_2 is a 2-relaxed cutter
        n, epsilon = 2.0, 1.0
    else:
        pair, t, u = method.pair, method.t, method.u
        n, epsilon = nu(pair), method.epsilon
        # membership samples for the single-operator checks
        pts = probe.samples[:5]
        fixed_a, fixed_b = a.project(pts), b.project(pts)
        add("cutter.PA", diagnostics.cutter_check(
            projection_operator(a), fixed_a, probe))
        add("cutter.PB", diagnostics.cutter_check(
            projection_operator(b), fixed_b, probe))
        add("relaxed-cutter.T",
            diagnostics.relaxed_cutter_check(t, pair.lam, fixed_a, probe))
        add("relaxed-cutter.U",
            diagnostics.relaxed_cutter_check(u, pair.mu, fixed_b, probe))
        add("demicontraction.T",
            diagnostics.demicontraction_check(
                t, demicontraction_rho(pair.lam), fixed_a, probe))
        add("demicontraction.U",
            diagnostics.demicontraction_check(
                u, demicontraction_rho(pair.mu), fixed_b, probe))
        if w is not None:
            add("product.cutter", diagnostics.cutter_check(
                relax(compose(u, t), 1.0 / n), [w], probe))
            add("lb1", diagnostics.lb1_check(t, u, pair, [w], probe))
            add("lb2", diagnostics.lb2_check(t, u, pair, oracle, probe))

    if w is None:
        add("product" if method.driver == "product" else "fejer",
            diagnostics.RegularityReport(
                name="", passed=True, margin=math.inf, samples=0,
                skipped=True, note="no intersection oracle"))
        return reports
    trace = _run_method(cfg, method, max_iter=max(cfg.iterations, 2000),
                        residual_tol=1e-10)
    add("fejer", diagnostics.fejer_check(trace, w, intersection_distance=oracle))
    add("fejer-dc", diagnostics.dc_gap_check(trace, w, n, epsilon))
    if method.driver == "product":
        kappa = diagnostics.pair_regularity_estimate(a, b, oracle, probe)
        rate_rep = diagnostics.rate_certificate(
            trace, trace.final, epsilon, delta_projections(method.pair, kappa), n)
        rate_rep.kappa_hat = kappa
        add("rate", rate_rep)
    return reports


def cmd_verify(config_path: str, seed=None, iters=None, tol=None) -> int:
    cfg = configio.load_config(config_path)
    if seed is not None:
        cfg.seed = seed
    if iters is not None:
        cfg.iterations = iters
    oracle = _intersection_oracle(cfg)
    w = oracle.project(cfg.x0) if oracle is not None else None
    probe = diagnostics.ProbeConfig(
        center=cfg.x0 if w is None else w,
        radius=cfg.probe_radius,
        sample_count=cfg.probe_samples,
        seed=cfg.seed,
        tolerance=tol if tol is not None else 1e-9,
    )
    reports = []
    for method in cfg.methods:
        reports += _verify_method(cfg, method, oracle, w, probe)

    lines = [rep.line() for rep in reports]
    report_path = cfg.outputs.get("report")
    if report_path:
        _write_report(report_path, lines)
    for line in lines:
        print(line)
    failed = [r for r in reports if not r.skipped and not r.passed]
    if failed:
        print(f"{len(failed)} probe(s) failed", file=sys.stderr)
        return EXIT_PROBE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cutterkit",
        description="Products of relaxed cutters: experiments and diagnostics",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ep = sub.add_parser("example-paper",
                        help="reproduce the two-lines-at-pi/6 experiment")
    ep.add_argument("--out", default="paper-example", help="output directory")
    ep.add_argument("--iters", type=int, default=30)

    rp = sub.add_parser("run", help="run the methods of a JSON config")
    rp.add_argument("config")
    rp.add_argument("--seed", type=int, default=None)
    rp.add_argument("--iters", type=int, default=None)
    rp.add_argument("--tol", type=float, default=None,
                    help="stop every method once its residual drops to this")

    vp = sub.add_parser("verify", help="run the diagnostics battery")
    vp.add_argument("config")
    vp.add_argument("--seed", type=int, default=None)
    vp.add_argument("--iters", type=int, default=None)
    vp.add_argument("--tol", type=float, default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "example-paper":
            return cmd_example_paper(args.out, args.iters)
        if args.command == "run":
            return cmd_run(args.config, seed=args.seed, iters=args.iters,
                           tol=args.tol)
        return cmd_verify(args.config, seed=args.seed, iters=args.iters,
                          tol=args.tol)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UsageError, InfeasibleError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ProbeFailure, DivergenceError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_PROBE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CutterKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROBE


if __name__ == "__main__":
    sys.exit(main())
