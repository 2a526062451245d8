"""Operator algebra: projections, subgradient projections, relaxations
and products.

Operators are immutable closures over immutable data.  Evaluation accepts
a single point ``(d,)`` or a batch ``(n, d)``, mapped row by row to an
``(n, d)`` result; every constructor here meets that contract, and the
diagnostics probes evaluate operators only on batches.  A call checks
its input once; the maps inside, down to the raw projections, do not.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateSubgradientError, UsageError
from .geometry import ConvexSet, _checked, _square


class Operator:
    """An evaluatable self-map of R^d.

    fn maps a point (d,) to (d,) and a batch (n, d) to (n, d) row by row;
    wrap a function f of one point as subgradient_projection does, or as
    lambda x: np.apply_along_axis(f, -1, x).

    dim is optional; a call checks its input against it, and compose
    against the other's.  The probes take the fixed set as an argument.

    What an operator is made of is recorded, so that the probe battery can
    make its image of a batch from a projection of that batch it already
    holds: _set, the set C of projection_operator(C), and _base, the
    operator T of relax(T, lam), whose closure takes T(x) - x when given.
    """

    __slots__ = ("_fn", "label", "dim", "_set", "_base")

    def __init__(self, fn, label: str = "operator", dim=None):
        self._fn = fn
        self.label = label
        self.dim = dim
        self._set = self._base = None

    def __call__(self, x):
        return self._fn(_checked(x, self.dim, self))

    def __repr__(self):
        return f"Operator({self.label})"


class _Own(Operator):
    """Made here of the library's maps: float64 out, in the input's shape."""
    __slots__ = ()


def identity(dim=None) -> Operator:
    """The identity map; its fixed set is the whole space."""
    return _Own(lambda x: x, label="I", dim=dim)


def projection_operator(cset: ConvexSet) -> Operator:
    """Metric projection onto a closed convex set; Fix P_C = C."""
    p = _Own(cset._project, f"P[{type(cset).__name__}]", cset.dim)
    p._set = cset
    return p


def relax(t: Operator, lam: float) -> Operator:
    """lam-relaxation x + lam (T(x) - x), 0 <= lam < inf; Fix T kept for lam > 0.

    relax(t, 1) is t.  For lam other than 0 and 1 the map is one closure,
    fn(x, step=None), which takes step = T(x) - x when its caller holds
    T(x): the probe battery makes relaxed images by this arithmetic and no
    other.
    """
    lam = float(lam)
    if not 0 <= lam < np.inf:
        raise UsageError(f"relaxation parameter must be >= 0 and finite, got {lam}")
    if lam == 1.0:
        return t
    if lam == 0.0:
        return identity(t.dim)
    label = f"({t.label})_{lam:g}"
    lam = np.array(lam)  # a 0-d array multiplies faster than a float, same bits
    f = t._fn

    def fn(x, step=None):
        return x + lam * (f(x) - x if step is None else step)

    relaxed = (_Own if isinstance(t, _Own) else Operator)(fn, label, t.dim)
    relaxed._base = t
    return relaxed


def compose(u: Operator, t: Operator) -> Operator:
    """The product U T, applying T first; Fix UT = Fix T intersect Fix U
    for relaxed cutters with lam*mu < 4."""
    if u.dim is not None and t.dim is not None and u.dim != t.dim:
        raise UsageError(f"operator dimensions differ: {u.dim} vs {t.dim}")
    f, g = t._fn, u._fn
    if isinstance(t, _Own):
        def fn(x):
            return g(f(x))
    else:
        def fn(x):  # T's output may be a list or of another length
            return g(_checked(f(x), u.dim, u))

    kind = _Own if isinstance(u, _Own) and isinstance(t, _Own) else Operator
    return kind(fn, f"{u.label}*{t.label}", u.dim if u.dim is not None else t.dim)


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

    return Operator(fn, label)
