"""Exact Euclidean geometry: points, closed convex sets, metric projections.

Points are plain float64 numpy vectors.  Every set type supports
``project`` and ``distance`` for a single point of shape ``(d,)`` or a
batch of shape ``(n, d)``; batches are projected row by row.
"""

from __future__ import annotations

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
        self._nn = float(self.normal @ self.normal)
        if self._nn == 0.0:
            raise UsageError(f"{self._what} normal must be nonzero")
        self.dim = self.normal.size

    def __repr__(self):
        return (f"{type(self).__name__}(normal={self.normal.tolist()}, "
                f"offset={self.offset})")


class Hyperplane(_Plane):
    """{x : <normal, x> = offset} with a nonzero normal."""

    _what = "hyperplane"

    def project(self, x):
        x = self._coerce(x)
        s = (x @ self.normal - self.offset) / self._nn
        return x - s[..., None] * self.normal

    def distance(self, x):
        x = self._coerce(x)
        return np.abs(x @ self.normal - self.offset) / np.sqrt(self._nn)


class HalfSpace(_Plane):
    """{x : <normal, x> <= offset} with a nonzero normal."""

    _what = "half-space"

    def project(self, x):
        x = self._coerce(x)
        s = np.maximum((x @ self.normal - self.offset) / self._nn, 0.0)
        return x - s[..., None] * self.normal

    def distance(self, x):
        x = self._coerce(x)
        viol = np.maximum(x @ self.normal - self.offset, 0.0)
        return viol / np.sqrt(self._nn)


class AffineSubspace(ConvexSet):
    """anchor + span(basis); the basis is orthonormalized at construction.

    An empty basis gives a single point.  Input basis vectors are run
    through modified Gram-Schmidt with one re-orthogonalization pass;
    vectors that are dependent to within ``ORTHO_TOL`` are dropped.
    """

    def __init__(self, anchor, basis=()):
        self.anchor = _frozen(as_point(anchor))
        self.dim = self.anchor.size
        vecs = []
        for v in basis:
            v = as_point(v, self.dim).copy()
            for _ in range(2):
                for q in vecs:
                    v = v - (v @ q) * q
            n = np.linalg.norm(v)
            if n > ORTHO_TOL:
                vecs.append(v / n)
        self.basis = _frozen(np.array(vecs) if vecs else np.zeros((0, self.dim)))
        self._q = self.basis.T  # (d, k), orthonormal columns

    def project(self, x):
        x = self._coerce(x)
        z = x - self.anchor
        return self.anchor + (z @ self._q) @ self.basis

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
        n = np.linalg.norm(d, axis=-1, keepdims=True)
        scale = np.where(n > self.radius, self.radius / np.where(n > 0, n, 1.0), 1.0)
        return self.center + scale * d

    def distance(self, x):
        x = self._coerce(x)
        return np.maximum(np.linalg.norm(x - self.center, axis=-1) - self.radius, 0.0)

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
        return np.clip(x, self.lo, self.hi)

    def __repr__(self):
        return f"Box(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


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


def intersect_affine(a, b, tol: float = 1e-9) -> AffineSubspace:
    """Intersection of two affine sets as an AffineSubspace.

    The anchor is the least-squares solution of the stacked constraints
    and the basis is an orthonormal null-space basis.  Raises
    InfeasibleError when the sets do not meet.
    """
    ma, ca = _constraint_rows(a)
    mb, cb = _constraint_rows(b)
    if ma.shape[1] != mb.shape[1]:
        raise UsageError("dimension mismatch between the two affine sets")
    m = np.vstack([ma, mb])
    c = np.concatenate([ca, cb])
    anchor, *_ = np.linalg.lstsq(m, c, rcond=None)
    if np.linalg.norm(m @ anchor - c) > tol * (1.0 + np.linalg.norm(c)):
        raise InfeasibleError("affine sets have empty intersection")
    _, s, vt = np.linalg.svd(m)
    cutoff = (s[0] if s.size else 0.0) * max(m.shape) * np.finfo(float).eps
    rank = int(np.sum(s > cutoff))
    return AffineSubspace(anchor, vt[rank:])
