"""The composed iteration and its traces.

Every driver is one loop, ``_run``: x^{k+1} = x^k + c_k (W(x^k) - x^k),
stopped after max_iter transitions or at the first residual
||W(x^k) - x^k|| <= residual_tol.  The drivers differ only in W and in
the step schedule c_k:

- iterate: W = U T, c_k = alpha_k / nu with alpha_k in [eps, 2 - eps];
- iterate_reformulated: W = U T, c_k = abar_k in [eps, 1 + rho - eps],
  the same trajectory as iterate under abar_k = alpha_k / nu;
- run_map: W = P_B P_A, c_k = 1 (lam = mu = 1);
- run_dr: W = (P_B)_2 (P_A)_2, c_k = 1/2 (lam = mu = 2).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from itertools import count, repeat

import numpy as np

from .errors import DivergenceError, UsageError
from .geometry import (ConvexSet, _frozen, _norm, _roots, _row_dots,
                       as_point)
from .operators import Operator, compose, projection_operator, relax
from .theory import RelaxationPair, nu, rho_overrelax


@dataclass(frozen=True, eq=False)
class IterationConfig:
    """Parameters of one composed-iteration run.

    alpha may be a constant, a sequence indexed by the step counter, or a
    callable k -> alpha_k.  Its admissible window depends on the driver.
    """

    pair: RelaxationPair
    x0: np.ndarray
    epsilon: float = 0.1
    alpha: object = 1.0
    max_iter: int = 1000
    residual_tol: float = 1e-12

    def __post_init__(self):
        object.__setattr__(self, "x0", _frozen(as_point(self.x0)))
        if not isinstance(self.pair, RelaxationPair):
            raise UsageError("config.pair must be a RelaxationPair")
        if not self.epsilon > 0:
            raise UsageError(f"epsilon must be positive, got {self.epsilon}")
        if not self.residual_tol > 0:
            raise UsageError(f"residual_tol must be positive, got {self.residual_tol}")
        object.__setattr__(self, "max_iter", _count(self.max_iter))
        if not callable(self.alpha):
            try:
                a = np.asarray(self.alpha)
            except ValueError:  # a ragged nested sequence
                a = np.asarray(None)
            if a.dtype.kind not in "biuf" or a.ndim > 1:
                raise UsageError("alpha must be a real number, a sequence of "
                                 f"them or a callable, got {self.alpha!r}")
            if a.ndim == 0:  # a 0-d array or numpy scalar is a constant
                object.__setattr__(self, "alpha", float(a))

    def alpha_at(self, k: int) -> float:
        if callable(self.alpha):
            return float(self.alpha(k))
        if np.isscalar(self.alpha):
            return float(self.alpha)
        try:
            return float(self.alpha[k])
        except IndexError:
            raise UsageError(f"step sequence exhausted at k={k}") from None


@dataclass
class Trace:
    """Recorded run: iterates plus per-transition residuals and steps.

    step_sizes holds the effective multiplier applied to (U T(x) - x) at
    each transition; solution_errors are ||x^k - x*|| per iterate, when
    the driver was given a solution x*.
    """

    iterates: np.ndarray
    residuals: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    solution_errors: list | None = None

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def n_steps(self) -> int:
        return len(self.residuals)

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else float("inf")


def _count(n, name: str = "max_iter", least: int = 0) -> int:
    """A count n >= least as an int, by the config files' rule for
    integers: 3 and 3.0 pass; a fraction, NaN, inf, a bool or a string do
    not.  name names the count in the error."""
    if isinstance(n, float) and n.is_integer() or \
            isinstance(n, numbers.Integral) and not isinstance(n, bool):
        if n >= least:
            return int(n)
    raise UsageError(f"{name} must be an integer >= {least}, got {n!r}")


def _row_norms(r) -> list:
    """[_norm(v) for v in r] of an (n, d) array, bit for bit."""
    return _roots(_row_dots(r, r), r).tolist()


def _run(w: Operator, x0, coeffs, max_iter, residual_tol, solution):
    """The loop x <- x + c_k (W(x) - x), c_k = next(coeffs), recording the trace.

    Stops after max_iter transitions or once ||W(x^k) - x^k|| <=
    residual_tol (checked after the transition is recorded).
    """
    max_iter = _count(max_iter)
    x = x0
    if solution is not None:
        solution = as_point(solution, x.size)
    iterates = [x]
    residuals: list[float] = []
    steps: list[float] = []

    def trace():
        xs = np.array(iterates)
        errs = None if solution is None else _row_norms(xs - solution)
        return Trace(xs, residuals, steps, errs)

    # bound >= ||x||: while it stays below 1e300 no entry of x can have
    # overflowed; past it (or NaN) the exact test decides and resets it
    bound = _norm(x)
    last = None
    fn, tiny = w._fn, sys.float_info.min  # x is float64 of W's dim: no check
    for k in range(max_iter):
        dx = fn(x) - x
        sq = np.vdot(dx, dx)  # _norm(dx), its normal-range case inlined
        res = math.sqrt(sq) if tiny <= sq < math.inf else _norm(dx)
        if not math.isfinite(res):
            raise DivergenceError(f"non-finite operator value at step {k}", trace())
        coeff = next(coeffs)
        # a 0-d array multiplies faster than a float, with the same bits;
        # it is built once per distinct value, so once for a constant step
        if coeff != last:
            last, factor = coeff, np.array(coeff)
        x = x + factor * dx
        bound += abs(coeff) * res
        if not bound < 1e300:
            if not np.isfinite(x).all():
                raise DivergenceError(f"non-finite iterate at step {k}", trace())
            bound = _norm(x)
        residuals.append(res)
        steps.append(coeff)
        iterates.append(x)
        if res <= residual_tol:
            break
    return trace()


def _steps(config: IterationConfig, lo: float, hi: float, divisor: float):
    """Yield c_k = alpha_k / divisor with alpha_k checked against [lo, hi];
    a constant alpha is checked once, at step 0."""
    constant = not callable(config.alpha) and np.isscalar(config.alpha)
    for k in count():
        a = config.alpha_at(k)
        if not lo <= a <= hi:  # NaN too
            raise UsageError(f"step {k}: {a} outside [{lo}, {hi}]")
        if constant:
            yield from repeat(a / divisor)
        yield a / divisor


def _run_product(t: Operator, u: Operator, config: IterationConfig, hi: float,
                 divisor: float, solution) -> Trace:
    """Run W = U T with steps c_k = a_k / divisor, a_k in [eps, hi]."""
    w = compose(u, t)  # checks T against U
    if w.dim is not None and w.dim != config.x0.size:
        raise UsageError(f"operator dimension {w.dim} does not match x0 "
                         f"dimension {config.x0.size}")
    lo = config.epsilon
    if hi < lo:
        raise UsageError(f"empty step window [{lo}, {hi}]")
    return _run(w, config.x0, _steps(config, lo, hi, divisor),
                config.max_iter, config.residual_tol, solution)


def iterate(t: Operator, u: Operator, config: IterationConfig,
            solution=None) -> Trace:
    """Run x^{k+1} = x^k + (alpha_k / nu)(U T(x^k) - x^k),
    alpha_k in [eps, 2 - eps]."""
    return _run_product(t, u, config, 2.0 - config.epsilon, nu(config.pair),
                        solution)


def iterate_reformulated(t: Operator, u: Operator, config: IterationConfig,
                         solution=None) -> Trace:
    """Run x^{k+1} = x^k + abar_k (U T(x^k) - x^k) with
    abar_k in [eps, 1 + rho - eps], rho = (2 - nu)/nu."""
    hi = 1.0 + rho_overrelax(config.pair) - config.epsilon
    return _run_product(t, u, config, hi, 1.0, solution)


def run_map(a: ConvexSet, b: ConvexSet, x0, n: int, residual_tol: float = 0.0,
            solution=None) -> Trace:
    """Method of alternating projections x^{k+1} = P_B P_A x^k for up to
    n steps."""
    w = compose(projection_operator(b), projection_operator(a))
    return _run(w, as_point(x0, a.dim), repeat(1.0), n, residual_tol, solution)


def run_dr(a: ConvexSet, b: ConvexSet, x0, n: int, residual_tol: float = 0.0,
           solution=None) -> Trace:
    """Douglas-Rachford comparison driver
    x^{k+1} = x^k + (1/2)((P_B)_2 (P_A)_2 x^k - x^k) for up to n steps.

    lam = mu = 2 sits outside the lam*mu < 4 hypothesis, so this is a
    standalone baseline rather than a RelaxationPair-driven run.
    """
    w = compose(relax(projection_operator(b), 2.0),
                relax(projection_operator(a), 2.0))
    return _run(w, as_point(x0, a.dim), repeat(0.5), n, residual_tol, solution)
