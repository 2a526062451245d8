"""Config-driven experiment runner.

Subcommands:
  example-paper  two lines through the origin at angle pi/6: alternating
                 projections, Douglas-Rachford, and the over-relaxed
                 (3,1)-product method, 30 iterations from (1, 0), run as
                 `run` runs a config; emits per-method CSVs, a combined
                 log-error CSV and two SVG plots.
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
from .configio import ExperimentConfig
from .engine import IterationConfig, Trace, iterate, run_dr, run_map
from .errors import (ConfigError, CutterKitError, DivergenceError,
                     InfeasibleError, ProbeFailure, UsageError)
from .geometry import intersection, intersection_point
from .svg import emit_svg
from .theory import delta_projections

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_PROBE = 4
EXIT_IO = 5


# The paper's example: A = x-axis, B = line at angle pi/6 through the
# origin (in R^2), x0 = (1, 0); MAP, DR and the (3,1) product method.
_PAPER = {
    "problem": {"sets": [
        {"type": "hyperplane", "normal": [0.0, 1.0], "offset": 0.0},
        {"type": "hyperplane", "offset": 0.0,
         "normal": [-math.sin(math.pi / 6), math.cos(math.pi / 6)]},
    ]},
    "x0": [1.0, 0.0],
    "iterations": 30,
    "methods": [
        {"name": "map", "driver": "map"},
        {"name": "dr", "driver": "dr"},
        {"name": "new", "driver": "product", "lambda": 3.0, "mu": 1.0,
         "alpha": 1.0, "epsilon": 1.0},
    ],
}


def cmd_example_paper(out_dir: str, iters: int = 30) -> int:
    cfg = configio.parse_config({**_PAPER, "iterations": _iters(iters),
                                 "outputs": {"csv": out_dir, "svg": out_dir}})
    named = _run_methods(cfg, 1e-300, ("iterate trajectories", "log10 error per step"))
    n = max(tr.iterates.shape[0] for _, tr in named)
    configio._write(os.path.join(out_dir, "errors.csv"), configio._csv_chunks(
        ["k"] + [f"log10_err_{name}" for name, _ in named],
        [range(n)] + [configio._log10(tr.solution_errors) for _, tr in named]))

    # sanity of the canonical first steps; a failure here is a code bug
    expected = {
        "map": np.array([0.75, math.sqrt(3) / 4]),
        "dr": np.array([0.75, math.sqrt(3) / 4]),
        "new": np.array([15.0 / 16.0, math.sqrt(3) / 16]),
    }
    for name, tr in named:
        if np.max(np.abs(tr.iterates[1] - expected[name])) > 1e-12:
            raise ProbeFailure(f"{name}: first iterate deviates from closed form")
        errs = np.asarray(tr.solution_errors)
        if np.any(np.diff(errs) >= 0):
            raise ProbeFailure(f"{name}: error sequence is not strictly decreasing")
    for name, tr in named:
        final = tr.solution_errors[-1]
        print(f"{name}: final error {final:.6e} after {tr.n_steps} steps")
        if final >= 1e-2:
            # Of the three, only DR stays above 1e-2 at the canonical 30
            # steps: it contracts by cos(pi/6) per step, (3/4)^15 ~ 1.34e-2.
            why = " (DR needs 33 steps to cross 1e-2)" if name == "dr" else ""
            print(f"WARNING: {name} final error {final:.6e} >= 1e-2{why}",
                  file=sys.stderr)
    print(f"wrote {out_dir}/{{map,dr,new,errors}}.csv and "
          f"{{trajectories,errors}}.svg")
    return EXIT_OK


def _run_method(cfg, method, residual_tol, solution=None, max_iter=None) -> Trace:
    iters = max_iter if max_iter is not None else cfg.iterations
    a, b = cfg.sets[0], cfg.sets[1]
    if method.driver == "map":
        return run_map(a, b, cfg.x0, iters, residual_tol, solution)
    if method.driver == "dr":
        return run_dr(a, b, cfg.x0, iters, residual_tol, solution)
    try:
        run_cfg = IterationConfig(
            pair=method.pair,
            x0=cfg.x0,
            epsilon=method.epsilon,
            alpha=method.alpha,
            max_iter=iters,
            residual_tol=residual_tol,
        )
        return iterate(method.t, method.u, run_cfg, solution=solution)
    except UsageError as exc:  # named by its method, as parse_config's are
        i = [m is method for m in cfg.methods].index(True)
        raise UsageError(f"methods[{i}]: {exc}") from None


def _run_methods(cfg, residual_tol, titles=(None, None)):
    """Run every method of cfg against the intersection's single point, when
    it has one (the config's intersection, else the sets'); then, once
    every run has ended, write each trace's CSV and, given outputs.svg, the
    trajectory plot at d = 2 and, given that point, the error plot, titled
    by titles, to their paths in cfg.outputs.  Returns [(name, trace), ...]."""
    solution = (cfg.intersection.point if cfg.intersection is not None
                else intersection_point(*cfg.sets[:2]))  # InfeasibleError: exit 3
    named = [(method.name, _run_method(cfg, method, residual_tol, solution))
             for method in cfg.methods]
    for path, (_, trace) in zip(cfg.outputs["csv"], named):
        configio.write_trace_csv(path, trace)
    traces, labels = [t for _, t in named], [n for n, _ in named]
    drawable = (cfg.x0.size == 2, solution is not None)
    for path, kind, title, drawn in zip(cfg.outputs["svg"], ("trajectory", "error"),
                                        titles, drawable):
        if drawn:  # emit_svg would only warn and write nothing
            emit_svg(traces, path, kind=kind, labels=labels, title=title)
    return named


def _iters(iters: int) -> int:
    """--iters, held to the rule of a config's iterations: >= 1."""
    if iters < 1:
        raise UsageError(f"--iters must be >= 1, got {iters}")
    return iters


def _load(config_path: str, seed, iters) -> ExperimentConfig:
    """The config, with --seed and --iters applied."""
    cfg = configio.load_config(config_path)
    if seed is not None:
        cfg.seed = seed
    if iters is not None:
        cfg.iterations = _iters(iters)
    return cfg


def _output(lines, path):
    """Write lines to path, when there is one, and print them."""
    if path:
        configio._write_lines(path, lines)
    print("\n".join(lines))


def cmd_run(config_path: str, seed=None, iters=None, tol=None) -> int:
    cfg = _load(config_path, seed, iters)
    if tol is not None and not tol > 0:  # checked before anything is written
        raise UsageError(f"--tol must be positive, got {tol}")
    named = _run_methods(cfg, tol if tol is not None else 1e-300)
    report_lines = [f"config: {config_path}", f"seed: {cfg.seed}"]
    for name, trace in named:
        last = trace.solution_errors[-1] if trace.solution_errors else float("nan")
        report_lines.append(
            f"method {name}: steps={trace.n_steps} "
            f"final_residual={trace.final_residual:.17g} final_error={last:.17g}"
        )
    _output(report_lines, cfg.outputs["report"])
    return EXIT_OK


def _verify_method(cfg, method, oracle, w, probe):
    """The probe reports of one method, in print order.

    A product method first gets its operator probes and, given an
    intersection oracle and w = its projection of x0, the product probes
    and kappa_hat, all on images of the probe sample computed once for
    the method.  Every method with an oracle then gets the Fejer and
    per-step gap probes on a run to residual 1e-10 (at most max(iterations,
    2000) steps, never past a step list's end), and a product method the
    rate certificate on that run, all at the method's nu and epsilon.
    """
    named, kappa = [], None
    if method.driver == "product":
        named, kappa = diagnostics._product_probes(
            cfg.sets[0], cfg.sets[1], method.t, method.u, method.pair, w, oracle,
            probe)
    if w is None:
        named.append(("product" if method.driver == "product" else "fejer",
                      diagnostics.RegularityReport.skip("", "no intersection oracle")))
    else:
        steps = max(cfg.iterations, 2000)
        if isinstance(method.alpha, list):
            steps = min(steps, len(method.alpha))
        trace = _run_method(cfg, method, 1e-10, max_iter=steps)
        tol, n, epsilon = probe.tolerance, method.nu, method.epsilon
        named += [
            ("fejer", diagnostics.fejer_check(trace, w, intersection_distance=oracle,
                                              tol=tol)),
            ("fejer-dc", diagnostics.dc_gap_check(trace, w, n, epsilon, tol=tol)),
        ]
        if kappa is not None:
            named.append(("rate", diagnostics.rate_certificate(
                trace, trace.final, epsilon, delta_projections(method.pair, kappa),
                n, tol=tol)))
    for name, rep in named:
        rep.name = f"{method.name}.{name}"
    return [rep for _, rep in named]


def cmd_verify(config_path: str, seed=None, iters=None, tol=None) -> int:
    cfg = _load(config_path, seed, iters)
    oracle = (cfg.intersection if cfg.intersection is not None
              else intersection(*cfg.sets[:2]))  # InfeasibleError: exit 3
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

    _output([rep.line() for rep in reports], cfg.outputs["probes"])
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

    for name, about, tol_help in (
            ("run", "run the methods of a JSON config",
             "stop every method once its residual drops to this"),
            ("verify", "run the diagnostics battery", None)):
        sp = sub.add_parser(name, help=about)
        sp.add_argument("config")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--iters", type=int)
        sp.add_argument("--tol", type=float, help=tol_help)
    return p


# built once, at import, for every main call of the process
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # a non-finite value ends in its exit code (a DivergenceError, a
        # NaN margin), not in numpy's warning or, under -W error, its raise
        with np.errstate(over="ignore", invalid="ignore"):
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
