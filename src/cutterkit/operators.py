"""Operator algebra: projections, subgradient projections, relaxations
and products.

Operators are immutable closures over immutable data.  Evaluation accepts
a single point ``(d,)`` or a batch ``(n, d)``, mapped row by row to an
``(n, d)`` result; every constructor here meets that contract, and the
diagnostics probes evaluate operators only on batches.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateSubgradientError, UsageError
from .geometry import ConvexSet, _square


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


def identity(dim=None) -> Operator:
    """The identity map; its fixed set is the whole space."""
    return Operator(lambda x: x, fix_distance=lambda x: np.zeros(np.shape(x)[:-1]),
                    label="I", dim=dim)


def projection_operator(cset: ConvexSet) -> Operator:
    """Metric projection onto a closed convex set; Fix P_C = C."""
    return Operator(
        cset.project,
        fix_distance=cset.distance,
        label=f"P[{type(cset).__name__}]",
        dim=cset.dim,
    )


def relax(t: Operator, lam: float) -> Operator:
    """lam-relaxation x + lam (T(x) - x), 0 <= lam < inf; Fix T kept for lam > 0."""
    lam = float(lam)
    if not 0 <= lam < np.inf:
        raise UsageError(f"relaxation parameter must be >= 0 and finite, got {lam}")
    if lam == 1.0:
        return Operator(t._fn, t.fix_distance, t.label, t.dim)
    if lam == 0.0:
        return identity(t.dim)
    label = f"({t.label})_{lam:g}"
    lam = np.array(lam)  # a 0-d array multiplies faster than a float, same bits

    def fn(x):
        return x + lam * (t._fn(x) - x)

    return Operator(fn, t.fix_distance, label, t.dim)


def compose(u: Operator, t: Operator, intersection_distance=None) -> Operator:
    """The product U T, applying T first.

    When an intersection oracle is supplied it becomes the product's
    fix_distance (Fix UT = Fix T intersect Fix U for relaxed cutters with
    lam*mu < 4).
    """
    if u.dim is not None and t.dim is not None and u.dim != t.dim:
        raise UsageError(f"operator dimensions differ: {u.dim} vs {t.dim}")

    def fn(x):
        # T may be a user function returning a list; U gets float64
        return u._fn(np.asarray(t._fn(x), dtype=float))

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
    masks.  At a strictly infeasible point, a subgradient whose square
    ||g(x)||^2 is not a normal float (zero, subnormal or overflowing) is
    an error.
    """

    def one(x):
        fx = float(f(x))
        if fx <= 0.0:
            return x
        gx = np.asarray(g(x), dtype=float)
        n2 = _square(gx, "subgradient g(x) . g(x)", " at a point where f(x) > 0",
                     DegenerateSubgradientError)
        return x - (fx / n2) * gx

    def fn(x):
        if x.ndim == 1:
            return one(x)
        return np.stack([one(row) for row in x])

    return Operator(fn, None, label)
