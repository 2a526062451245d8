"""Numerical certification of the cutter/demicontraction inequalities and
empirical estimation of regularity moduli.

Every probe samples points uniformly from a ball B(z, r), evaluates the
inequality it certifies, and reports the minimum margin (slack of the
inequality, written so that a pass means margin >= -tolerance).  Probes
are pure given a seed.  Reports serialize to one line:

    PROBE <name> PASS|FAIL|SKIP margin=<min margin> samples=<n> seed=<s>

SKIP marks a vacuous or inconclusive probe (lam == mu for the lower-bound
product inequality, or a rate certificate on a non-converged trace).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .engine import Trace, _count
from .errors import CutterKitError, EstimationError, UsageError
from .geometry import ConvexSet, _frozen, _norms, _row_blocks, as_point
from .operators import Operator, compose, projection_operator, relax
from .theory import (RelaxationPair, alpha_beta, demicontraction_rho, nu,
                     qlinear_rate, split_roots)

MAX_RECORDED_VIOLATIONS = 20


@dataclass(frozen=True, eq=False)
class ProbeConfig:
    """Sampling region, budget and tolerance of one probe.

    ``sample_count`` (>= 1) and ``seed`` (>= 0) are held to the config
    files' rule for integers and stored as ints.  ``samples`` is the ball
    sample, drawn on first use and shared, read only, by every probe given
    this config.
    """

    center: np.ndarray
    radius: float
    sample_count: int = 1000
    seed: int = 0
    tolerance: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "center", _frozen(as_point(self.center)))
        if not 0 < self.radius < math.inf:
            raise UsageError(f"probe radius must be positive and finite, "
                             f"got {self.radius}")
        object.__setattr__(self, "sample_count",
                           _count(self.sample_count, "sample_count", 1))
        object.__setattr__(self, "seed", _count(self.seed, "probe seed"))
        if not 0 < self.tolerance < math.inf:
            raise UsageError(f"tolerance must be positive and finite, "
                             f"got {self.tolerance}")

    @cached_property
    def samples(self) -> np.ndarray:
        x = sample_ball(self)
        x.setflags(write=False)
        return x


def sample_ball(probe: ProbeConfig) -> np.ndarray:
    """(n, d) points uniform on B(center, radius): normalized Gaussian
    directions scaled by radius * U^(1/d).  A sample too large for numpy
    to allocate is a UsageError."""
    rng = np.random.default_rng(probe.seed)
    n, d = probe.sample_count, probe.center.size
    try:
        g = rng.standard_normal((n, d))
        g /= _norms(g)[:, None]
        g *= (probe.radius * rng.random(n) ** (1.0 / d))[:, None]
    except (MemoryError, ValueError) as exc:  # ValueError: "array is too big"
        raise UsageError(f"probe.samples = {n} points in d = {d} are more than "
                         f"numpy can allocate") from exc
    g += probe.center
    return g


@dataclass
class RegularityReport:
    """Outcome of one probe: pass/fail, minimum margin, and any measured
    modulus (kappa_hat) or rate data (q_factor)."""

    name: str
    passed: bool
    margin: float
    samples: int
    seed: int | None = None
    violations: list = field(default_factory=list)
    kappa_hat: float | None = None
    q_factor: float | None = None
    skipped: bool = False
    note: str = ""

    @classmethod
    def skip(cls, name, note, seed=None, passed=True) -> RegularityReport:
        """A SKIP of no samples, its margin inf, or -inf when not passed."""
        return cls(name=name, passed=passed, margin=math.inf if passed else -math.inf,
                   samples=0, seed=seed, skipped=True, note=note)

    def line(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        seed = self.seed if self.seed is not None else "-"
        return (f"PROBE {self.name} {status} margin={self.margin:.6g} "
                f"samples={self.samples} seed={seed}")


def _eval_batch(op: Operator, x: np.ndarray) -> np.ndarray:
    """op(x) on an (n, d) batch x.  Every Operator maps an (n, d) batch to
    an (n, d) batch row by row; one that fails on a batch or returns
    another shape breaks that contract."""
    try:
        out = np.asarray(op(x), dtype=float)
    except CutterKitError:
        raise
    except (TypeError, ValueError) as exc:
        raise UsageError(f"operator {op.label} cannot evaluate an (n, d) "
                         f"batch: {exc}") from exc
    if out.shape != x.shape:
        raise UsageError(f"operator {op.label} maps a batch of shape "
                         f"{x.shape} to shape {out.shape}")
    return out


def _report(name, margins, points, tolerance, seed=None, **extra) -> RegularityReport:
    margins = np.asarray(margins, dtype=float)
    bad = np.where(~(margins >= -tolerance))[0]  # NaN too
    return RegularityReport(
        name=name, passed=bad.size == 0, samples=int(margins.size), seed=seed,
        margin=float(margins.min()) if margins.size else math.inf,
        violations=[(name, points[i].copy(), float(margins[i]))
                    for i in bad[:MAX_RECORDED_VIOLATIONS]], **extra)


def _members(ops, fixed_sample, probe: ProbeConfig) -> np.ndarray:
    """fixed_sample as a (k, d) array, once every op in ops fixes each point."""
    zs = np.atleast_2d(np.asarray(fixed_sample, dtype=float))
    if zs.size == 0:
        raise UsageError("fixed_sample must contain at least one point")
    for op in ops:
        moved = _norms(_eval_batch(op, zs) - zs)
        if not np.all(moved <= probe.tolerance):  # a NaN image moves z
            raise UsageError(f"fixed_sample contains non-fixed points of {op.label}: "
                             f"max ||T(z) - z|| = {float(moved.max()):.3e}")
    return zs


def _sampled(name, probe, margins, zs, images, *params) -> RegularityReport:
    """The report of the minimum over z of the rows, one per z, that
    margins(zs, *images, *params) gives at each x of images = (X, T1(X),
    ...), run on row blocks (a margin reads only its own row)."""
    worst = np.empty(len(images[0]))
    for rows in _row_blocks(images[0]):
        worst[rows] = np.min(margins(zs, *(im[rows] for im in images), *params), axis=0)
    return _report(name, worst, images[0], probe.tolerance, probe.seed)


def _fixed_point_probe(name, ops, fixed_sample, probe, margins, *params):
    """_sampled on the probe sample X and T1(X), ..., Tk(...T1(X)), once
    ops = (T1, ..., Tk) fix every point of fixed_sample."""
    zs = _members(ops, fixed_sample, probe)
    images = [probe.samples]
    for op in ops:
        images.append(_eval_batch(op, images[-1]))
    return _sampled(name, probe, margins, zs, images, *params)


def _dot(a, b):
    return np.einsum("nd,nd->n", a, b)


def _dist2(a, b):
    """||a - b||^2 per row; the (n, d) difference is dropped on return."""
    r = a - b
    return _dot(r, r)


def _distance(dist, x) -> np.ndarray:
    """d(x) per row, for a ConvexSet or a distance callable dist."""
    return np.asarray(getattr(dist, "distance", dist)(x), dtype=float)


def _cutter(zs, x, tx):
    xtx = x - tx
    return [-_dot(z - tx, xtx) for z in zs]


def _product_cutter(zs, x, utx, c):
    """_cutter of (UT)_c, made of U(T(x)) by relax's own arithmetic."""
    return _cutter(zs, x, utx if c == 1.0 else x + c * (utx - x))


def _relaxed_cutter(zs, x, tx, lam):
    a = tx - x
    aa = _dot(a, a)
    return [lam * _dot(z - x, a) - aa for z in zs]


def _demicontraction(zs, x, tx, rho):
    a = tx - x
    aa = _dot(a, a)
    return [_dist2(x, z) + rho * aa - _dist2(tx, z) for z in zs]


def _lb1(zs, x, tx, utx, pair):
    s1, s2 = split_roots(pair)
    # comb is built in place and reduced before c exists
    comb = tx - x
    comb *= s1
    b = utx - tx
    b *= (1.0 if max(pair.lam, pair.mu) >= 2.0 else -1.0) * s2
    comb += b
    rhs = _dot(comb, comb)
    del comb, b
    c = utx - x
    return [_dot(z - x, c) - rhs for z in zs]


def cutter_check(t: Operator, fixed_sample, probe: ProbeConfig) -> RegularityReport:
    """Certify <z - T(x), x - T(x)> <= 0 over sampled x and supplied z."""
    return _fixed_point_probe("cutter", (t,), fixed_sample, probe, _cutter)


def relaxed_cutter_check(t: Operator, lam: float, fixed_sample,
                         probe: ProbeConfig) -> RegularityReport:
    """Certify lam <z - x, T(x) - x> >= ||T(x) - x||^2 over samples."""
    if not lam > 0:
        raise UsageError(f"lambda must be positive, got {lam}")
    return _fixed_point_probe("relaxed-cutter", (t,), fixed_sample, probe,
                              _relaxed_cutter, lam)


def demicontraction_check(t: Operator, rho: float, fixed_sample,
                          probe: ProbeConfig) -> RegularityReport:
    """Certify ||T(x) - z||^2 <= ||x - z||^2 + rho ||T(x) - x||^2."""
    if not rho < 1:
        raise UsageError(f"demicontraction constant must be < 1, got {rho}")
    return _fixed_point_probe("demicontraction", (t,), fixed_sample, probe,
                              _demicontraction, rho)


def lb1_check(t: Operator, u: Operator, pair: RelaxationPair, fixed_sample,
              probe: ProbeConfig) -> RegularityReport:
    """Certify the product lower bound
    <z - x, UT(x) - x> >= ||s1 (T(x)-x) +/- s2 (UT(x)-T(x))||^2
    with s1 = sqrt(1/lam - 1/nu), s2 = sqrt(1/mu - 1/nu), sign "+" when
    max{lam, mu} >= 2 and "-" otherwise."""
    return _fixed_point_probe("lb1", (t, u), fixed_sample, probe, _lb1, pair)


def _kept(probe, d, *images):
    """d, the probe sample X and images of X over the rows whose d is not
    at most the tolerance, NaN included: the arrays themselves if every
    row is kept, else d and X cut and each image None, to be evaluated on
    the kept batch (BLAS sums a row in an order that depends on its place
    in a batch)."""
    keep = ~(d <= probe.tolerance)
    if keep.all():
        return (d, probe.samples, *images)
    return (d[keep], probe.samples[keep]) + (None,) * len(images)


def _lb2(t, u, pair, probe, dist, d=None, tx=None, utx=None) -> RegularityReport:
    """lb2 on the probe sample X: d = dist(X), T(X) and U(T(X)) as given
    or evaluated, and where _kept drops rows evaluated on the kept batch."""
    if pair.lam == pair.mu:
        return RegularityReport.skip("lb2", "vacuous: lam == mu", probe.seed)
    a_, b_ = alpha_beta(pair)
    coef = (abs(a_) / (1.0 + b_ * math.sqrt(nu(pair)))) ** 2
    d = _distance(dist, probe.samples) if d is None else d
    d, x, tx, utx = _kept(probe, d, tx, utx)
    if not d.size:
        return RegularityReport.skip("lb2", "all samples degenerate", probe.seed)
    if tx is None:
        tx = _eval_batch(t, x)
        utx = _eval_batch(u, tx)
    biggest = np.maximum(_dist2(tx, x), _dist2(utx, tx))
    return _report("lb2", _norms(utx - x) - coef * biggest / d, x, probe.tolerance,
                   probe.seed)


def lb2_check(t: Operator, u: Operator, pair: RelaxationPair,
              intersection_distance, probe: ProbeConfig) -> RegularityReport:
    """Certify the residual lower bound
    ||UT(x) - x|| >= (|alpha|/(1+beta sqrt(nu)))^2
                     * max{||T(x)-x||^2, ||UT(x)-T(x)||^2} / d(x, Fix T n Fix U).

    Vacuous (SKIP) when lam == mu, since alpha = 0.  Samples inside the
    intersection are skipped as _kept does; a NaN distance fails.
    """
    return _lb2(t, u, pair, probe, intersection_distance)


def regularity_modulus_estimate(t: Operator, fixed_set, probe: ProbeConfig) -> float:
    """delta_hat = min over samples of ||T(x) - x|| / d(x, Fix T).

    An upper bound on the true linear-regularity modulus over the samples
    _kept keeps; fixed_set, Fix T, is a ConvexSet or a distance callable.
    """
    d, x = _kept(probe, _distance(fixed_set, probe.samples))
    if not d.size:
        raise EstimationError("all samples are degenerate (on the fixed set)")
    return float(np.min(_norms(_eval_batch(t, x) - x) / d))


def _kappa_hat(probe, dm, intersection, di=None) -> float:
    """max d(x, A n B) / dm over the rows x of the probe sample _kept keeps,
    dm = max{d(x, A), d(x, B)}, on di = d(X, A n B) as given or evaluated,
    and where _kept drops rows evaluated on the kept batch."""
    dm, x, di = _kept(probe, dm, di)
    if not dm.size:
        raise EstimationError("all samples are degenerate (max distance ~ 0)")
    return float(np.max((_distance(intersection, x) if di is None else di) / dm))


def pair_regularity_estimate(a, b, intersection, probe: ProbeConfig) -> float:
    """kappa_hat = max over samples of d(x, A n B) / max{d(x, A), d(x, B)}.

    A lower bound on the true linear-regularity constant of the pair;
    grows monotonically with the sample count.  a, b and intersection may
    each be a ConvexSet or a distance callable (for the true A n B).  It
    reads the samples _kept keeps, so a NaN distance gives a NaN estimate.
    """
    x = probe.samples
    return _kappa_hat(probe, np.maximum(_distance(a, x), _distance(b, x)), intersection)


def _product_probes(a, b, t, u, pair: RelaxationPair, w, intersection,
                    probe: ProbeConfig):
    """The sampling probes of the product method U T on the sets A, B, as
    (name, report) pairs in print order, and its kappa_hat: the operator
    probes, and, given w, a point of the intersection, the product probes
    and kappa_hat (else None).

    The images of the probe sample X are evaluated here once each, P_A(X),
    P_B(X), T(X), U(X), U(T(X)) and d(X, A n B), and handed to the margin
    functions the public probes call on the images they evaluate: the
    reports are the same bit for bit.  Each operator checks its membership
    points once.  P_A(X), P_B(X) and U(X) go after their last use
    (kappa_hat keeps ||X - P(X)|| where a set measures distance that way),
    and T(X) and U(T(X)) before kappa_hat.
    """
    x = probe.samples  # x[:5] gives the single-operator membership points
    fixed_a, fixed_b = a.project(x[:5]), b.project(x[:5])
    named, dists = [], []
    for name, cset, fixed in (("cutter.PA", a, fixed_a), ("cutter.PB", b, fixed_b)):
        p = projection_operator(cset)
        zs = _members((p,), fixed, probe)
        px = _eval_batch(p, x)
        named.append((name, _sampled("cutter", probe, _cutter, zs, (x, px))))
        # a set with its own distance formula needs no projection for it
        dists.append(cset.distance(x) if type(cset).distance is not ConvexSet.distance
                     else _norms(x - px))
    del px
    tx, ux = _eval_batch(t, x), _eval_batch(u, x)
    zs_a, zs_b = _members((t,), fixed_a, probe), _members((u,), fixed_b, probe)
    for kind, margins, of_t, of_u in (
            ("relaxed-cutter", _relaxed_cutter, pair.lam, pair.mu),
            ("demicontraction", _demicontraction, demicontraction_rho(pair.lam),
             demicontraction_rho(pair.mu))):
        named += [(f"{kind}.T", _sampled(kind, probe, margins, zs_a, (x, tx), of_t)),
                  (f"{kind}.U", _sampled(kind, probe, margins, zs_b, (x, ux), of_u))]
    del ux
    if w is None:
        return named, None
    dw = _distance(intersection, x)
    utx = _eval_batch(u, tx)
    c = np.array(1.0 / nu(pair))  # relax's factor of (UT)_{1/nu}
    zs = _members((relax(compose(u, t), c),), [w], probe)
    named += [
        ("product.cutter", _sampled("cutter", probe, _product_cutter, zs, (x, utx), c)),
        ("lb1", _sampled("lb1", probe, _lb1, _members((t, u), [w], probe),
                         (x, tx, utx), pair)),
        ("lb2", _lb2(t, u, pair, probe, intersection, dw, tx, utx)),
    ]
    del tx, utx  # T(X) and U(T(X)) go before kappa_hat
    return named, _kappa_hat(probe, np.maximum(*dists), intersection, dw)


def rate_certificate(trace: Trace, x_star, epsilon: float, delta: float,
                     nu_value: float, tol: float = 1e-9,
                     converged_tol: float = 1e-8) -> RegularityReport:
    """Certify the per-step Q-linear bound
    ||x^{k+1} - x*|| <= sqrt(1 - (eps*delta/(2 nu))^2) ||x^k - x*|| + tol
    on a converged trace, and report the empirical Q-factor
    max_k ||x^{k+1} - x*|| / ||x^k - x*||.

    A trace whose final residual exceeds converged_tol is inconclusive
    and reported as SKIP.
    """
    if not trace.residuals or trace.residuals[-1] > converged_tol:
        return RegularityReport.skip(
            "rate", f"inconclusive: final residual {trace.final_residual:.3e} "
                    f"> {converged_tol:.3e}", passed=False)
    x_star = as_point(x_star, trace.iterates.shape[1])
    q = qlinear_rate(epsilon, delta, nu_value)
    errs = _norms(trace.iterates - x_star)
    margins = q * errs[:-1] - errs[1:]
    denom_ok = errs[:-1] > 1e-15
    q_factor = (float(np.max(errs[1:][denom_ok] / errs[:-1][denom_ok]))
                if np.any(denom_ok) else None)
    return _report("rate", margins, trace.iterates[:-1], tol, q_factor=q_factor)


def fejer_check(trace: Trace, w, intersection_distance=None,
                tol: float = 1e-9) -> RegularityReport:
    """Certify monotonicity ||x^{k+1} - w|| <= ||x^k - w|| along the trace,
    plus the localization bound ||x^k - x*|| <= 2 d(x^k, C) when an
    intersection distance is available, with x* the final iterate.
    """
    w = as_point(w, trace.iterates.shape[1])
    dists = _norms(trace.iterates - w)
    margins = dists[:-1] - dists[1:]
    points = trace.iterates[:-1]
    if intersection_distance is not None:
        loc = (2.0 * _distance(intersection_distance, trace.iterates)
               - _norms(trace.iterates - trace.final))
        margins = np.concatenate([margins, loc])
        points = np.vstack([points, trace.iterates])
    return _report("fejer", margins, points, tol)


def dc_gap_check(trace: Trace, w, nu_value: float, epsilon: float,
                 tol: float = 1e-9) -> RegularityReport:
    """Certify the per-step demicontraction gap
    ||x^k - w||^2 - ||x^{k+1} - w||^2 >= ((2-alpha_k)/alpha_k)||x^{k+1}-x^k||^2
                                      >= (eps/nu)^2 ||UT(x^k) - x^k||^2,
    where alpha_k = step_sizes[k] * nu recovers the nominal step."""
    w = as_point(w, trace.iterates.shape[1])
    if not epsilon > 0:
        raise UsageError(f"epsilon must be positive, got {epsilon}")
    d2 = _norms(trace.iterates - w) ** 2
    gaps = d2[:-1] - d2[1:]
    deltas = _norms(np.diff(trace.iterates, axis=0))
    alphas = np.asarray(trace.step_sizes) * nu_value
    if np.any(alphas <= 0):
        raise UsageError("recovered alpha_k must be positive")
    m1 = gaps - ((2.0 - alphas) / alphas) * deltas**2
    m2 = gaps - (epsilon / nu_value) ** 2 * np.asarray(trace.residuals)**2
    margins = np.minimum(m1, m2)
    return _report("fejer-dc", margins, trace.iterates[:-1], tol)
