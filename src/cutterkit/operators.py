"""Operator algebra: projections, subgradient projections, proximal maps,
relaxations, products, and the generalized Douglas-Rachford operator.

Operators are immutable closures over immutable data.  Evaluation accepts
a single point ``(d,)`` or a batch ``(n, d)``, mapped row by row to an
``(n, d)`` result; every constructor here meets that contract, and the
diagnostics probes evaluate operators only on batches.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateSubgradientError, UsageError
from .geometry import ConvexSet, as_point


class Operator:
    """An evaluatable self-map of R^d.

    fn maps a point (d,) to (d,) and a batch (n, d) to (n, d) row by row;
    wrap a function f of one point as subgradient_projection does, or as
    lambda x: np.apply_along_axis(f, -1, x).

    fix_distance, when present, maps a point to its distance to the fixed
    set of the operator.  dim is optional and used for compatibility
    checks when composing.
    """

    __slots__ = ("_fn", "fix_distance", "label", "dim")

    def __init__(self, fn, fix_distance=None, label: str = "operator", dim=None):
        self._fn = fn
        self.fix_distance = fix_distance
        self.label = label
        self.dim = dim

    def __call__(self, x):
        return self._fn(np.asarray(x, dtype=float))

    def __repr__(self):
        return f"Operator({self.label})"


def _zero_distance(x):
    x = np.asarray(x, dtype=float)
    return np.zeros(x.shape[:-1])


def identity(dim=None) -> Operator:
    """The identity map; its fixed set is the whole space."""
    return Operator(lambda x: x, fix_distance=_zero_distance, label="I", dim=dim)


def projection_operator(cset: ConvexSet) -> Operator:
    """Metric projection onto a closed convex set; Fix P_C = C."""
    return Operator(
        cset.project,
        fix_distance=cset.distance,
        label=f"P[{type(cset).__name__}]",
        dim=cset.dim,
    )


def relax(t: Operator, lam: float) -> Operator:
    """lam-relaxation x + lam (T(x) - x); fixed set preserved for lam > 0."""
    lam = float(lam)
    if lam < 0:
        raise UsageError(f"relaxation parameter must be >= 0, got {lam}")
    if lam == 1.0:
        return Operator(t._fn, t.fix_distance, t.label, t.dim)
    if lam == 0.0:
        return identity(t.dim)

    def fn(x):
        return x + lam * (t(x) - x)

    return Operator(fn, t.fix_distance, f"({t.label})_{lam:g}", t.dim)


def compose(u: Operator, t: Operator, intersection_distance=None) -> Operator:
    """The product U T, applying T first.

    When an intersection oracle is supplied it becomes the product's
    fix_distance (Fix UT = Fix T intersect Fix U for relaxed cutters with
    lam*mu < 4).
    """
    if u.dim is not None and t.dim is not None and u.dim != t.dim:
        raise UsageError(f"operator dimensions differ: {u.dim} vs {t.dim}")

    def fn(x):
        return u(t(x))

    return Operator(
        fn,
        fix_distance=intersection_distance,
        label=f"{u.label}*{t.label}",
        dim=u.dim if u.dim is not None else t.dim,
    )


def subgradient_projection(f, g, label: str = "P_f") -> Operator:
    """Subgradient projection for a convex f with subgradient selector g.

    Moves x to x - (f(x)/||g(x)||^2) g(x) when f(x) > 0 and fixes x
    otherwise; the fixed set is the 0-sublevel set of f.  f and g must
    accept a single point; batches are handled row-wise with the same
    masks.  A zero subgradient at a strictly infeasible point is an error.
    """

    def one(x):
        fx = float(f(x))
        if fx <= 0.0:
            return x
        gx = np.asarray(g(x), dtype=float)
        n2 = float(gx @ gx)
        if n2 == 0.0 or not np.isfinite(n2):
            raise DegenerateSubgradientError(
                f"zero subgradient at a point with f(x) = {fx} > 0"
            )
        return x - (fx / n2) * gx

    def fn(x):
        if x.ndim == 1:
            return one(x)
        return np.stack([one(row) for row in x])

    return Operator(fn, None, label)


def proximal(f, t: float = 1.0) -> Operator:
    """Proximal operator prox_{t f} for f from a closed-form catalog.

    Accepted forms of f:
      - a ConvexSet: indicator function, prox = metric projection;
      - the string "l1": componentwise soft thresholding at level t;
      - ("quadratic", c): f = 0.5 ||x - c||^2, prox = (x + t c)/(1 + t).
    """
    t = float(t)
    if not t > 0:
        raise UsageError(f"proximal step t must be positive, got {t}")

    if isinstance(f, ConvexSet):
        return Operator(
            f.project, f.distance, label=f"prox[ind {type(f).__name__}]", dim=f.dim
        )
    if f == "l1":
        def soft(x):
            return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)

        return Operator(
            soft, fix_distance=lambda x: np.linalg.norm(x, axis=-1), label="prox[l1]"
        )
    if isinstance(f, tuple) and len(f) == 2 and f[0] == "quadratic":
        c = as_point(f[1])

        def quad(x):
            return (x + t * c) / (1.0 + t)

        return Operator(
            quad,
            fix_distance=lambda x: np.linalg.norm(x - c, axis=-1),
            label="prox[quadratic]",
            dim=c.size,
        )
    raise UsageError(f"unsupported function tag for proximal: {f!r}")


def generalized_dr(a: ConvexSet, b: ConvexSet, lam: float, mu: float, abar: float) -> Operator:
    """Generalized Douglas-Rachford operator x + abar (W(x) - x), where
    W = (P_B)_mu (P_A)_lam (lam applied to P_A, which acts first).

    With lam = mu = 2 and abar = 1/2 this is the classical DR map
    (I + R_B R_A)/2.
    """
    if not (lam > 0 and mu > 0):
        raise UsageError("relaxation parameters must be positive")
    if not abar > 0:
        raise UsageError(f"step abar must be positive, got {abar}")
    if a.dim != b.dim:
        raise UsageError(f"set dimensions differ: {a.dim} vs {b.dim}")
    w = compose(relax(projection_operator(b), mu), relax(projection_operator(a), lam))

    def fn(x):
        return x + abar * (w(x) - x)

    return Operator(fn, None, label=f"gdr(lam={lam:g},mu={mu:g},abar={abar:g})", dim=a.dim)
