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
    """Outcome of one probe: pass/fail, minimum margin, and any rate data
    (q_factor)."""

    name: str
    passed: bool
    margin: float
    samples: int
    seed: int | None = None
    violations: list = field(default_factory=list)
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


def _least(margins):
    """The per-row minimum over z of margins, one row of them per z; None
    when there are none."""
    return np.min(margins, axis=0) if margins else None


def _rows(margins, zs, images, **params):
    """margins(zs, *blocks, **params) on row blocks of images = (X, T1(X),
    ..., and per-row (n,) arrays; an image may be a function that makes
    the block of given rows), each of its parts gathered into one (n,)
    array; None stays None, a part not asked for.  A margin reads only
    its own row of each image, plus the fixed points zs, so the blocks
    change no bit."""
    whole = None
    for rows in _row_blocks(images[0]):
        parts = margins(zs, *(im(rows) if callable(im) else im[rows] for im in images),
                        **params)
        if whole is None:
            whole = [None if p is None else np.empty(len(images[0])) for p in parts]
        for out, p in zip(whole, parts):
            if p is not None:
                out[rows] = p
    return whole


def _fixed_point_probe(name, ops, fixed_sample, probe, margins, part=0, **params):
    """The report of part of _rows(margins, ...) on the probe sample X and
    T1(X), ..., Tk(...T1(X)), once ops = (T1, ..., Tk) fix every point of
    fixed_sample."""
    zs = _members(ops, fixed_sample, probe)
    images = [probe.samples]
    for op in ops:
        images.append(_eval_batch(op, images[-1]))
    return _report(name, _rows(margins, zs, images, **params)[part], images[0],
                   probe.tolerance, probe.seed)


def _dot(a, b):
    return np.einsum("nd,nd->n", a, b)


def _dist2(a, b):
    """||a - b||^2 per row; the (n, d) difference is dropped on return."""
    r = a - b
    return _dot(r, r)


def _distance(dist, x) -> np.ndarray:
    """d(x) per row, for a ConvexSet or a distance callable dist."""
    return np.asarray(getattr(dist, "distance", dist)(x), dtype=float)


def _cutter(zs, x, tx, norms=False):
    """At rows x, tx = T(x): the cutter margins -<z - T(x), x - T(x)>,
    least over z, and given norms, ||x - T(x)|| (else None)."""
    xtx = x - tx
    return _least([-_dot(z - tx, xtx) for z in zs]), _norms(xtx) if norms else None


def _operator_rows(zs, x, tx, lam=None, rho=None):
    """At rows x, tx = T(x): the relaxed-cutter margins at lam,
    lam <z - x, T(x) - x> - ||T(x) - x||^2, and the demicontraction
    margins at rho, ||x - z||^2 + rho ||T(x) - x||^2 - ||T(x) - z||^2,
    each least over z (None for a parameter not given), and
    ||T(x) - x||^2.  T(x) - x and each z - x are made once for both:
    ||x - z||^2 is the square of z - x, bit for bit."""
    a = tx - x
    aa = _dot(a, a)
    rc, dc = [], []
    for z in zs:  # one block-sized difference at a time besides a
        tz = _dist2(tx, z) if rho is not None else None
        zx = z - x
        if lam is not None:
            rc.append(lam * _dot(zx, a) - aa)
        if rho is not None:
            dc.append(_dot(zx, zx) + rho * aa - tz)
        del zx
    return _least(rc), _least(dc), aa


def _product_cutter(zs, x, utx, product):
    """At rows x and utx = U(T(x)): the cutter margins of product =
    relax(U T, c), least over z, its image made by relax's closure on
    U(T(x)) - x (at c = 1 relax returns U T itself, image U(T(x)))."""
    return _cutter(zs, x, utx if product._base is None else product._fn(x, utx - x))


def _lb1(zs, x, tx, utx, pair):
    """At rows x, tx = T(x) and utx = U(T(x)): lb1's margins
    <z - x, UT(x) - x> - ||s1 (T(x)-x) +/- s2 (UT(x)-T(x))||^2, least over z."""
    s1, s2 = split_roots(pair)
    comb = tx - x  # built in place
    comb *= s1
    b = utx - tx
    b *= (1.0 if max(pair.lam, pair.mu) >= 2.0 else -1.0) * s2
    comb += b
    del b
    rhs = _dot(comb, comb)
    del comb
    r = utx - x
    return (_least([_dot(z - x, r) - rhs for z in zs]),)


def _lb2_rows(zs, x, tx, utx, d, aa=None, *, coef):
    """At rows x, tx = T(x) and utx = U(T(x)): lb2's margins
    ||UT(x) - x|| - coef max{||T(x) - x||^2, ||UT(x) - T(x)||^2} / d,
    d = d(x, Fix T n Fix U) and aa the first square when known."""
    aa = _dist2(tx, x) if aa is None else aa
    return (_norms(utx - x) - coef * np.maximum(aa, _dist2(utx, tx)) / d,)


def cutter_check(t: Operator, fixed_sample, probe: ProbeConfig) -> RegularityReport:
    """Certify <z - T(x), x - T(x)> <= 0 over sampled x and supplied z."""
    return _fixed_point_probe("cutter", (t,), fixed_sample, probe, _cutter)


def relaxed_cutter_check(t: Operator, lam: float, fixed_sample,
                         probe: ProbeConfig) -> RegularityReport:
    """Certify lam <z - x, T(x) - x> >= ||T(x) - x||^2 over samples."""
    if not lam > 0:
        raise UsageError(f"lambda must be positive, got {lam}")
    return _fixed_point_probe("relaxed-cutter", (t,), fixed_sample, probe,
                              _operator_rows, lam=lam)


def demicontraction_check(t: Operator, rho: float, fixed_sample,
                          probe: ProbeConfig) -> RegularityReport:
    """Certify ||T(x) - z||^2 <= ||x - z||^2 + rho ||T(x) - x||^2."""
    if not rho < 1:
        raise UsageError(f"demicontraction constant must be < 1, got {rho}")
    return _fixed_point_probe("demicontraction", (t,), fixed_sample, probe,
                              _operator_rows, part=1, rho=rho)


def lb1_check(t: Operator, u: Operator, pair: RelaxationPair, fixed_sample,
              probe: ProbeConfig) -> RegularityReport:
    """Certify the product lower bound
    <z - x, UT(x) - x> >= ||s1 (T(x)-x) +/- s2 (UT(x)-T(x))||^2
    with s1 = sqrt(1/lam - 1/nu), s2 = sqrt(1/mu - 1/nu), sign "+" when
    max{lam, mu} >= 2 and "-" otherwise."""
    return _fixed_point_probe("lb1", (t, u), fixed_sample, probe, _lb1, pair=pair)


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


def _lb2_coef(pair) -> float:
    """lb2's (|alpha| / (1 + beta sqrt(nu)))^2."""
    a_, b_ = alpha_beta(pair)
    return (abs(a_) / (1.0 + b_ * math.sqrt(nu(pair)))) ** 2


def _lb2(t, u, pair, probe, dist, d=None, tx=None, utx=None,
         aa=None) -> RegularityReport:
    """lb2 on the rows of the probe sample X that _kept keeps, d = dist(X)
    as given or evaluated; T(X), U(T(X)) and aa = ||T(X) - X||^2 as given
    when every row is kept, else evaluated on the kept rows."""
    if pair.lam == pair.mu:
        return RegularityReport.skip("lb2", "vacuous: lam == mu", probe.seed)
    d = _distance(dist, probe.samples) if d is None else d
    d, x, tx, utx, aa = _kept(probe, d, tx, utx, aa)
    if not d.size:
        return RegularityReport.skip("lb2", "all samples degenerate", probe.seed)
    tx = _eval_batch(t, x) if tx is None else tx
    utx = _eval_batch(u, tx) if utx is None else utx
    images = (x, tx, utx, d) if aa is None else (x, tx, utx, d, aa)
    margins = _rows(_lb2_rows, (), images, coef=_lb2_coef(pair))[0]
    return _report("lb2", margins, x, probe.tolerance, probe.seed)


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


def _image(op, x, cset, px, whole=True):
    """op(x) on the probe sample x, given px = P_cset(x), the set told by
    identity: px itself when op is P_cset; when op relaxes P_cset, relax's
    closure on px - x, made whole or, if not whole, as a function of the
    rows of a block that makes that block; else op evaluated."""
    if op._set is cset:
        return px
    if op._base is None or op._base._set is not cset:
        return _eval_batch(op, x)
    if whole:
        return op._fn(x, px - x)
    return lambda rows: op._fn(x[rows], px[rows] - x[rows])


def _product_probes(a, b, t, u, pair: RelaxationPair, w, intersection,
                    probe: ProbeConfig):
    """The sampling probes of the product method U T on the sets A, B, as
    (name, report) pairs in print order, and its kappa_hat: the operator
    probes, and, given w, a point of the intersection, the product probes
    and kappa_hat (else None).

    Each image of the probe sample X is made once: P_A(X), P_B(X), then
    T(X) and U(X) from them where T and U relax those projections (else
    evaluated), U(T(X)) and d(X, A n B).  The margin functions that the
    public probes call take them on row blocks: one pass per projection
    for its cutter margins (and ||x - P(x)|| for kappa_hat), one per
    operator for its relaxed-cutter and demicontraction margins, and one
    per product inequality, lb2's through _lb2 as lb2_check.  The reports
    are the same bit for bit, made in print order.  Each operator checks
    its membership points once.  A projection goes once T(X) or U(X) is
    made of it, U(X) after its pass, T(X) and U(T(X)) before kappa_hat.
    """
    x = probe.samples  # x[:5] gives the single-operator membership points
    fixed_a, fixed_b = a.project(x[:5]), b.project(x[:5])
    joint = w is not None  # the product probes and kappa_hat run

    def report(name, margins):
        return _report(name, margins, x, probe.tolerance, probe.seed)

    # made while X is the only sample-sized array held
    dw = _distance(intersection, x) if joint else None

    cutters, dists, images = [], [], []
    for cset, fixed, op in ((a, fixed_a, t), (b, fixed_b, u)):
        p = projection_operator(cset)
        zs = _members((p,), fixed, probe)
        px = _eval_batch(p, x)
        # a set with its own distance formula needs no projection for it
        own = type(cset).distance is not ConvexSet.distance
        margins, dist = _rows(_cutter, zs, (x, px), norms=joint and not own)
        cutters.append(report("cutter", margins))
        dists.append(cset.distance(x) if joint and own else dist)
        # U(X) is needed only in its pass, so a derived one is made per block
        images.append(_image(op, x, cset, px, whole=op is t))
        del px
    tx, ux = images
    del images
    zs_a, zs_b = _members((t,), fixed_a, probe), _members((u,), fixed_b, probe)
    rc_t, dc_t, aa = _rows(_operator_rows, zs_a, (x, tx), lam=pair.lam,
                           rho=demicontraction_rho(pair.lam))
    rc_u, dc_u, _ = _rows(_operator_rows, zs_b, (x, ux), lam=pair.mu,
                          rho=demicontraction_rho(pair.mu))
    del ux
    named = [("cutter.PA", cutters[0]), ("cutter.PB", cutters[1]),
             ("relaxed-cutter.T", report("relaxed-cutter", rc_t)),
             ("relaxed-cutter.U", report("relaxed-cutter", rc_u)),
             ("demicontraction.T", report("demicontraction", dc_t)),
             ("demicontraction.U", report("demicontraction", dc_u))]
    del margins, rc_t, dc_t, rc_u, dc_u
    if not joint:
        return named, None
    utx = _eval_batch(u, tx)
    product = relax(compose(u, t), 1.0 / nu(pair))  # (UT)_{1/nu}
    zs = _members((product,), [w], probe)
    _members((t, u), [w], probe)  # lb1's, the same point
    cut = report("cutter", _rows(_product_cutter, zs, (x, utx), product=product)[0])
    lb1 = report("lb1", _rows(_lb1, zs, (x, tx, utx), pair=pair)[0])
    tx, utx, aa = _kept(probe, dw, tx, utx, aa)[2:]  # gone where _lb2 cuts rows
    named += [("product.cutter", cut), ("lb1", lb1),
              ("lb2", _lb2(t, u, pair, probe, intersection, dw, tx, utx, aa))]
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
