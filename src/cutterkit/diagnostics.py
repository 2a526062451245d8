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
    directions scaled by radius * U^(1/d)."""
    rng = np.random.default_rng(probe.seed)
    d = probe.center.size
    g = rng.standard_normal((probe.sample_count, d))
    g /= _norms(g)[:, None]
    radii = probe.radius * rng.random(probe.sample_count) ** (1.0 / d)
    g *= radii[:, None]
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
        return (
            f"PROBE {self.name} {status} margin={self.margin:.6g} "
            f"samples={self.samples} seed={seed}"
        )


def _eval_batch(op: Operator, x: np.ndarray) -> np.ndarray:
    """Evaluate an operator on an (n, d) batch.

    Every Operator maps an (n, d) batch to an (n, d) batch row by row; one
    that fails on a batch or returns another shape breaks that contract.
    """
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
    violations = [
        (name, points[i].copy(), float(margins[i]))
        for i in bad[:MAX_RECORDED_VIOLATIONS]
    ]
    return RegularityReport(
        name=name,
        passed=bad.size == 0,
        margin=float(margins.min()) if margins.size else math.inf,
        samples=int(margins.size),
        seed=seed,
        violations=violations,
        **extra,
    )


def _fixed_point_probe(name, ops, fixed_sample, probe: ProbeConfig,
                       margins) -> RegularityReport:
    """Check that every z in fixed_sample is fixed by every operator in
    ops = (T1, ..., Tk), sample x from the ball, and report the minimum
    over z of the rows margins(zs, x, T1(x), ..., Tk(...T1(x))) returns,
    one row per z.  margins runs on row blocks of x and the images (a
    margin reads only its own row), so its differences stay block-sized.
    """
    zs = np.atleast_2d(np.asarray(fixed_sample, dtype=float))
    if zs.size == 0:
        raise UsageError("fixed_sample must contain at least one point")
    for op in ops:
        moved = _norms(_eval_batch(op, zs) - zs)
        if not np.all(moved <= probe.tolerance):  # a NaN image moves z
            raise UsageError(
                f"fixed_sample contains non-fixed points of {op.label}: "
                f"max ||T(z) - z|| = {float(moved.max()):.3e}"
            )
    images = [probe.samples]
    for op in ops:
        images.append(_eval_batch(op, images[-1]))
    worst = np.empty(len(images[0]))
    for rows in _row_blocks(images[0]):
        worst[rows] = np.min(margins(zs, *(im[rows] for im in images)), axis=0)
    return _report(name, worst, images[0], probe.tolerance, probe.seed)


def _dot(a, b):
    return np.einsum("nd,nd->n", a, b)


def _dist2(a, b):
    """||a - b||^2 per row; the (n, d) difference is dropped on return."""
    r = a - b
    return _dot(r, r)


def cutter_check(t: Operator, fixed_sample, probe: ProbeConfig) -> RegularityReport:
    """Certify <z - T(x), x - T(x)> <= 0 over sampled x and supplied z."""
    def margins(zs, x, tx):
        xtx = x - tx
        return [-_dot(z - tx, xtx) for z in zs]

    return _fixed_point_probe("cutter", (t,), fixed_sample, probe, margins)


def relaxed_cutter_check(t: Operator, lam: float, fixed_sample,
                         probe: ProbeConfig) -> RegularityReport:
    """Certify lam <z - x, T(x) - x> >= ||T(x) - x||^2 over samples."""
    if not lam > 0:
        raise UsageError(f"lambda must be positive, got {lam}")

    def margins(zs, x, tx):
        a = tx - x
        aa = _dot(a, a)
        return [lam * _dot(z - x, a) - aa for z in zs]

    return _fixed_point_probe("relaxed-cutter", (t,), fixed_sample, probe, margins)


def demicontraction_check(t: Operator, rho: float, fixed_sample,
                          probe: ProbeConfig) -> RegularityReport:
    """Certify ||T(x) - z||^2 <= ||x - z||^2 + rho ||T(x) - x||^2."""
    if not rho < 1:
        raise UsageError(f"demicontraction constant must be < 1, got {rho}")

    def margins(zs, x, tx):
        a = tx - x
        aa = _dot(a, a)
        return [_dist2(x, z) + rho * aa - _dist2(tx, z) for z in zs]

    return _fixed_point_probe("demicontraction", (t,), fixed_sample, probe, margins)


def lb1_check(t: Operator, u: Operator, pair: RelaxationPair, fixed_sample,
              probe: ProbeConfig) -> RegularityReport:
    """Certify the product lower bound
    <z - x, UT(x) - x> >= ||s1 (T(x)-x) +/- s2 (UT(x)-T(x))||^2
    with s1 = sqrt(1/lam - 1/nu), s2 = sqrt(1/mu - 1/nu), sign "+" when
    max{lam, mu} >= 2 and "-" otherwise."""
    s1, s2 = split_roots(pair)
    sign = 1.0 if max(pair.lam, pair.mu) >= 2.0 else -1.0

    def margins(zs, x, tx, utx):
        # comb is built in place and reduced before c exists
        comb = tx - x
        comb *= s1
        b = utx - tx
        b *= sign * s2
        comb += b
        rhs = _dot(comb, comb)
        del comb, b
        c = utx - x
        return [_dot(z - x, c) - rhs for z in zs]

    return _fixed_point_probe("lb1", (t, u), fixed_sample, probe, margins)


def _kept(probe: ProbeConfig, dist):
    """(x, d(x)) over the probe sample's rows x with d(x) not at most the
    tolerance, NaN included, for a ConvexSet or distance callable dist.
    x is the sample itself when every row is kept, else a batch of its
    own: BLAS sums a row in an order that depends on its place in a batch.
    """
    x = probe.samples
    d = np.asarray(getattr(dist, "distance", dist)(x), dtype=float)
    keep = ~(d <= probe.tolerance)
    if keep.all():
        return x, d
    return x[keep], d[keep]


def lb2_check(t: Operator, u: Operator, pair: RelaxationPair,
              intersection_distance, probe: ProbeConfig) -> RegularityReport:
    """Certify the residual lower bound
    ||UT(x) - x|| >= (|alpha|/(1+beta sqrt(nu)))^2
                     * max{||T(x)-x||^2, ||UT(x)-T(x)||^2} / d(x, Fix T n Fix U).

    Vacuous (SKIP) when lam == mu, since alpha = 0.  Samples inside the
    intersection are skipped as _kept does; a NaN distance fails.
    """
    if pair.lam == pair.mu:
        return RegularityReport.skip("lb2", "vacuous: lam == mu", probe.seed)
    a_, b_ = alpha_beta(pair)
    coef = (abs(a_) / (1.0 + b_ * math.sqrt(nu(pair)))) ** 2
    x, d = _kept(probe, intersection_distance)
    if not d.size:
        return RegularityReport.skip("lb2", "all samples degenerate", probe.seed)
    tx = _eval_batch(t, x)
    utx = _eval_batch(u, tx)
    biggest = np.maximum(_dist2(tx, x), _dist2(utx, tx))
    margins = _norms(utx - x) - coef * biggest / d
    return _report("lb2", margins, x, probe.tolerance, probe.seed)


def regularity_modulus_estimate(t: Operator, fixed_set, probe: ProbeConfig) -> float:
    """delta_hat = min over samples of ||T(x) - x|| / d(x, Fix T).

    An upper bound on the true linear-regularity modulus over the samples
    _kept keeps; fixed_set, Fix T, is a ConvexSet or a distance callable.
    """
    x, d = _kept(probe, fixed_set)
    if not d.size:
        raise EstimationError("all samples are degenerate (on the fixed set)")
    return float(np.min(_norms(_eval_batch(t, x) - x) / d))


def pair_regularity_estimate(a, b, intersection, probe: ProbeConfig) -> float:
    """kappa_hat = max over samples of d(x, A n B) / max{d(x, A), d(x, B)}.

    A lower bound on the true linear-regularity constant of the pair;
    grows monotonically with the sample count.  a, b and intersection may
    each be a ConvexSet or a distance callable (for the true A n B).  It
    reads the samples _kept keeps, so a NaN distance gives a NaN estimate.
    """
    x, dm = _kept(probe, lambda v: np.maximum(
        np.asarray(getattr(a, "distance", a)(v)),
        np.asarray(getattr(b, "distance", b)(v))))
    if not dm.size:
        raise EstimationError("all samples are degenerate (max distance ~ 0)")
    di = np.asarray(getattr(intersection, "distance", intersection)(x), dtype=float)
    return float(np.max(di / dm))


def _answering(x, value, f):
    """f, answering its call on the array x itself with value.

    x is held here, so its identity cannot pass to another array while
    the answer lives.
    """
    return lambda v: value if v is x else f(v)


def _product_probes(a, b, t, u, pair: RelaxationPair, w, intersection,
                    probe: ProbeConfig):
    """The sampling probes of the product method U T on the sets A, B, as
    (name, report) pairs in print order, and its kappa_hat: the operator
    probes, and, given w, a point of the intersection, the product probes
    and kappa_hat (else None).

    Each probe is a call of its public function, so whatever wraps those
    (the benchmark's tracing) still sees every probe.  It runs on
    operators that answer on the probe sample X with images evaluated
    here once: P_A(X), P_B(X), T(X), U(X), U(T(X)) and, for lb2 and
    kappa_hat, d(X, A n B).  P_A(X), P_B(X) and U(X) are dropped after
    their last use (kappa_hat keeps ||X - P(X)|| where the set measures
    distance that way), and T(X) and U(T(X)) before kappa_hat.  The
    images are the ones each probe would evaluate, so the reports are
    the same bit for bit; lb2 reads them when it keeps every sample.
    """
    def shared(op, at, image):  # op, answering on the array at with image
        return Operator(_answering(at, image, op._fn), op.label, op.dim)

    x = probe.samples
    pts = x[:5]  # membership points for the single-operator checks
    fixed_a, fixed_b = a.project(pts), b.project(pts)
    named, dists = [], []
    for name, cset, fixed in (("cutter.PA", a, fixed_a), ("cutter.PB", b, fixed_b)):
        p = projection_operator(cset)
        px = _eval_batch(p, x)
        named.append((name, cutter_check(shared(p, x, px), fixed, probe)))
        # a set with its own distance formula needs no projection for it
        dists.append(cset if type(cset).distance is not ConvexSet.distance
                     else _answering(x, _norms(x - px), cset.distance))
    del px
    # from here on T answers on X, and U on X and later on T(X), from images
    tx = _eval_batch(t, x)
    t = shared(t, x, tx)
    u_x = shared(u, x, _eval_batch(u, x))
    named += [
        ("relaxed-cutter.T", relaxed_cutter_check(t, pair.lam, fixed_a, probe)),
        ("relaxed-cutter.U", relaxed_cutter_check(u_x, pair.mu, fixed_b, probe)),
        ("demicontraction.T", demicontraction_check(
            t, demicontraction_rho(pair.lam), fixed_a, probe)),
        ("demicontraction.U", demicontraction_check(
            u_x, demicontraction_rho(pair.mu), fixed_b, probe)),
    ]
    del u_x
    if w is None:
        return named, None
    dist = getattr(intersection, "distance", intersection)
    oracle = _answering(x, dist(x), dist)
    u = shared(u, tx, _eval_batch(u, tx))
    named += [
        # relax and compose evaluate T and U through their functions, so
        # (UT)_{1/nu} is relax's own arithmetic on the shared U(T(X))
        ("product.cutter", cutter_check(relax(compose(u, t), 1.0 / nu(pair)),
                                        [w], probe)),
        ("lb1", lb1_check(t, u, pair, [w], probe)),
        ("lb2", lb2_check(t, u, pair, oracle, probe)),
    ]
    del t, u, tx  # T(X) and U(T(X)) go before kappa_hat
    return named, pair_regularity_estimate(*dists, oracle, probe)


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
    q_factor = (
        float(np.max(errs[1:][denom_ok] / errs[:-1][denom_ok]))
        if np.any(denom_ok) else None
    )
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
        dist = getattr(intersection_distance, "distance", intersection_distance)
        loc = 2.0 * np.asarray(dist(trace.iterates), dtype=float) \
            - _norms(trace.iterates - trace.final)
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
    res = np.asarray(trace.residuals)
    m1 = gaps - ((2.0 - alphas) / alphas) * deltas**2
    m2 = gaps - (epsilon / nu_value) ** 2 * res**2
    margins = np.minimum(m1, m2)
    return _report("fejer-dc", margins, trace.iterates[:-1], tol)
