"""Exact Euclidean geometry: points, closed convex sets, metric projections.

Points are plain float64 numpy vectors.  Every set type supports
``project`` and ``distance`` for a single point of shape ``(d,)`` or a
batch of shape ``(n, d)``; batches are projected row by row.  A single
point takes the cheapest numpy calls that give the batch expression's
bits: a scalar times a vector, a plain reduction and Python comparisons.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import InfeasibleError, UsageError

# Orthonormality enforced at construction; downstream inequality probes
# need projections exact to near machine precision.
ORTHO_TOL = 1e-12


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Validate ``x`` as a finite vector and return it as float64."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise UsageError(f"expected a 1-d point with d >= 1, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise UsageError("point has non-finite entries")
    if dim is not None and p.size != dim:
        raise UsageError(f"dimension mismatch: expected {dim}, got {p.size}")
    return p


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


class ConvexSet:
    """A closed convex set with an exact metric projection."""

    dim: int

    def project(self, x):
        raise NotImplementedError

    def distance(self, x):
        x = self._coerce(x)
        return np.linalg.norm(x - self.project(x), axis=-1)

    def contains(self, x, tol: float = 1e-10) -> bool:
        return bool(np.all(self.distance(x) <= tol))

    def _coerce(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise UsageError(
                f"dimension mismatch: set is {self.dim}-dimensional, "
                f"point has {x.shape[-1]} coordinates"
            )
        return x


class _Plane(ConvexSet):
    """What Hyperplane and HalfSpace share: a nonzero normal and an offset."""

    def __init__(self, normal, offset: float):
        self.normal = _frozen(as_point(normal))
        self.offset = float(offset)
        if not self.normal.any():
            raise UsageError(f"{self._what} normal must be nonzero")
        with np.errstate(over="ignore"):
            self._nn = float(self.normal.dot(self.normal))
        # project divides by normal . normal and distance takes its root:
        # an inf or a subnormal would give wrong projections silently
        if not sys.float_info.min <= self._nn < math.inf:
            raise UsageError(
                f"{self._what} normal . normal = {self._nn!r} is outside the "
                "normal float range (2.2e-308 to 1.8e308); rescale the normal "
                "and the offset")
        self.dim = self.normal.size

    def __repr__(self):
        return (f"{type(self).__name__}(normal={self.normal.tolist()}, "
                f"offset={self.offset})")


class Hyperplane(_Plane):
    """{x : <normal, x> = offset} with a nonzero normal."""

    _what = "hyperplane"

    def project(self, x):
        x = self._coerce(x)
        s = (x.dot(self.normal) - self.offset) / self._nn
        if x.ndim == 1:
            return x - s * self.normal
        return x - s[..., None] * self.normal

    def distance(self, x):
        x = self._coerce(x)
        return np.abs(x.dot(self.normal) - self.offset) / np.sqrt(self._nn)


class HalfSpace(_Plane):
    """{x : <normal, x> <= offset} with a nonzero normal."""

    _what = "half-space"

    def project(self, x):
        x = self._coerce(x)
        s = (x.dot(self.normal) - self.offset) / self._nn
        if x.ndim == 1:
            # np.maximum(s, 0.0): -0.0 gives +0.0 and NaN propagates
            return x - (s if s > 0.0 or s != s else 0.0) * self.normal
        return x - np.maximum(s, 0.0)[..., None] * self.normal

    def distance(self, x):
        x = self._coerce(x)
        viol = np.maximum(x.dot(self.normal) - self.offset, 0.0)
        return viol / np.sqrt(self._nn)


class AffineSubspace(ConvexSet):
    """anchor + span(basis); the basis is orthonormalized at construction.

    An empty basis gives a single point.  Input basis vectors are run
    through modified Gram-Schmidt with one re-orthogonalization pass;
    a vector whose remainder is at most ``ORTHO_TOL`` times its own norm
    is dependent and dropped.  A vector whose ``v . v`` is not a normal
    float (zero, subnormal or overflowing) raises UsageError, checked
    for every vector before the first pass, which is batched.
    """

    def __init__(self, anchor, basis=()):
        self.anchor = _frozen(as_point(anchor))
        self.dim = self.anchor.size
        rows, vvs = [], []
        for i, v in enumerate(basis):
            v = as_point(v, self.dim)
            vv = float(np.vdot(v, v))  # np.vdot does not warn on overflow
            # the norms below would overflow to inf or lose the vector
            # to underflow, and either would give wrong projections silently
            if not sys.float_info.min <= vv < math.inf:
                raise UsageError(
                    f"affine basis vector {i}: v . v = {vv!r} is outside the "
                    "normal float range (2.2e-308 to 1.8e308); rescale it")
            rows.append(v)
            vvs.append(vv)
        rows = np.array(rows).reshape(len(rows), self.dim)
        vecs = []
        for i, v in enumerate(rows):  # the first pass is done; the second:
            for q in vecs:
                v = v - v.dot(q) * q
            n = np.linalg.norm(v)
            if n > ORTHO_TOL * math.sqrt(vvs[i]):
                q = v / n
                vecs.append(q)
                # the later rows' first pass: stacked (1, d) @ (d, 1) matmul
                # calls ddot per row, v.dot(q)'s bits; gemv (X @ q) does not
                rest = rows[i + 1:]
                rest -= np.matmul(rest[:, None, :], q[:, None])[:, 0] * q
        self.basis = _frozen(np.array(vecs) if vecs else np.zeros((0, self.dim)))
        self._q = self.basis.T  # (d, k), orthonormal columns

    def project(self, x):
        x = self._coerce(x)
        z = x - self.anchor
        return self.anchor + z.dot(self._q).dot(self.basis)

    def __repr__(self):
        return (
            f"AffineSubspace(anchor={self.anchor.tolist()}, "
            f"rank={self.basis.shape[0]})"
        )


class Ball(ConvexSet):
    """Closed Euclidean ball {x : ||x - center|| <= radius}."""

    def __init__(self, center, radius: float):
        self.center = _frozen(as_point(center))
        self.radius = float(radius)
        if not self.radius > 0:
            raise UsageError("ball radius must be positive")
        self.dim = self.center.size

    def project(self, x):
        x = self._coerce(x)
        d = x - self.center
        n = _norms(d)
        if x.ndim == 1:
            return self.center + (self.radius / n if n > self.radius else 1.0) * d
        n = n[..., None]
        scale = np.where(n > self.radius, self.radius / np.where(n > 0, n, 1.0), 1.0)
        return self.center + scale * d

    def distance(self, x):
        x = self._coerce(x)
        return np.maximum(_norms(x - self.center) - self.radius, 0.0)

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


class Box(ConvexSet):
    """Axis-aligned box {x : lo <= x <= hi} (componentwise)."""

    def __init__(self, lo, hi):
        self.lo = _frozen(as_point(lo))
        self.hi = _frozen(as_point(hi, self.lo.size))
        if np.any(self.lo > self.hi):
            raise UsageError("box requires lo <= hi componentwise")
        self.dim = self.lo.size

    def project(self, x):
        x = self._coerce(x)
        return x.clip(self.lo, self.hi)

    def __repr__(self):
        return f"Box(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


def _norms(d):
    """np.linalg.norm(d, axis=-1) bit for bit, a float for a (d,) row;
    where the square of a finite row overflows, math.hypot of the row."""
    if d.ndim == 1:
        # np.vdot does not warn on overflow; below 1e300 no square or sum can
        if np.vdot(d, d) < 1e300:
            return math.sqrt(np.add.reduce(d * d))
        return float(_norms(d[None])[0])
    with np.errstate(over="ignore"):
        n = np.sqrt(np.add.reduce(d * d, axis=-1))
    for i in zip(*np.nonzero(np.isinf(n))):
        if np.isfinite(d[i]).all():
            n[i] = math.hypot(*d[i])
    return n


def _constraint_rows(cset):
    """Represent an affine set as stacked equality constraints M x = c."""
    if isinstance(cset, Hyperplane):
        return cset.normal[None, :], np.array([cset.offset])
    if isinstance(cset, AffineSubspace):
        k = cset.basis.shape[0]
        if k == 0:
            m = np.eye(cset.dim)
        else:
            # Orthogonal complement of span(basis): trailing left-singular
            # vectors of the (d, k) orthonormal basis matrix.
            u, _, _ = np.linalg.svd(cset._q, full_matrices=True)
            m = u[:, k:].T
        return m, m @ cset.anchor
    raise UsageError(
        f"intersect_affine supports Hyperplane and AffineSubspace, got "
        f"{type(cset).__name__}"
    )


def _solve_affine(a, b, tol: float = 1e-9):
    """(anchor, null_rows) of the intersection of two affine sets.

    The anchor is the least-squares solution of the stacked constraints,
    validated as a finite point; the null rows are the trailing right
    singular vectors of the stacked matrix, orthonormal up to rounding,
    and none when the sets meet in one point.  Raises InfeasibleError
    when the sets do not meet.
    """
    ma, ca = _constraint_rows(a)
    mb, cb = _constraint_rows(b)
    if ma.shape[1] != mb.shape[1]:
        raise UsageError("dimension mismatch between the two affine sets")
    m = np.vstack([ma, mb])
    c = np.concatenate([ca, cb])
    # lstsq's rank counts the singular values above s_max * max(m.shape)
    # * eps; a second factorization is needed only for the null rows
    anchor, _, rank, _ = np.linalg.lstsq(m, c, rcond=None)
    anchor = as_point(anchor)
    if np.linalg.norm(m @ anchor - c) > tol * (1.0 + np.linalg.norm(c)):
        raise InfeasibleError("affine sets have empty intersection")
    if rank == m.shape[1]:
        return anchor, np.empty((0, m.shape[1]))
    _, _, vt = np.linalg.svd(m)
    return anchor, vt[rank:]


def intersect_affine(a, b, tol: float = 1e-9) -> AffineSubspace:
    """Intersection of two affine sets as an AffineSubspace: the
    least-squares anchor and an orthonormal null-space basis.  Raises
    InfeasibleError when the sets do not meet."""
    return AffineSubspace(*_solve_affine(a, b, tol))
