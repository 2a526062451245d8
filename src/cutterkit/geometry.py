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

# Bytes per block of the row-blocked loops (_row_blocks): a (1000, 30)
# batch stays whole and a (2000, 50) one splits into 4 blocks.  _norms
# took 0.83-0.98x its time at 64 KiB blocks on the batches those split
# (2-vCPU Xeon, numpy 2.4.6)
_ROW_BLOCK = 256 * 1024


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Validate ``x`` as a finite vector and return it as float64."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise UsageError(f"expected a 1-d point with d >= 1, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise UsageError("point has non-finite entries")
    return _checked(p, dim, "the space")


def _checked(x, dim, what) -> np.ndarray:
    """x as float64 points of dimension dim (any, for None); what: its owner."""
    x = np.asarray(x, dtype=float)
    if dim is not None and x.shape[-1:] != (dim,):
        raise UsageError(f"dimension mismatch: {what} is {dim}-dimensional, "
                         f"point has shape {x.shape}")
    return x


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


# The row-norm kernel: a norm is the square root of the row's square, the
# sum of its squared entries, summed as BLAS ddot (_norm, _row_dots) or as
# numpy's pairwise sum (_norms, the bits of np.linalg.norm(r, axis=-1)).
# The one range rule, in _roots: a finite row whose square is not a normal
# float (a norm below about 1.5e-154 or above about 1.3e154) takes
# math.hypot of the row instead.


def _norm(v) -> float:
    """||v|| of a (d,) row, summed as ddot by np.vdot, which does not warn."""
    sq = np.vdot(v, v)
    if sys.float_info.min <= sq < math.inf:
        return math.sqrt(sq)
    return float(_roots(np.array([sq]), v[None])[0])


def _row_dots(a, b):
    """The dot of each row of an (n, d) array a with b, a (d,) row or (n, d)
    rows: stacked (1, d) @ (d, 1) matmuls, one ddot per row, the bits of
    ndarray.dot (a gemv sums otherwise).  An overflow reads inf, unwarned."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def _norms(r):
    """||r|| per row, the pairwise sum's bits; a float for a (d,) row.  A
    batch is squared and summed on row blocks, where a square that
    overflows reads inf, unwarned, and takes the range rule."""
    if r.ndim == 1:
        # np.vdot does not warn; in (1e-300, 1e300) both squares are normal
        if 1e-300 < np.vdot(r, r) < 1e300:
            return math.sqrt(np.add.reduce(r * r))
        return float(_norms(r[None])[0])
    sq = np.empty(r.shape[:-1])
    with np.errstate(over="ignore"):
        for rows in _row_blocks(r):
            np.add.reduce(r[rows] ** 2, axis=-1, out=sq[rows])
    return _roots(sq, r)


def _row_blocks(r, cell_bytes=8):
    """Slices of r's rows, in order, each at most _ROW_BLOCK bytes at
    cell_bytes per entry of r (float64's 8 unless given; one row at least),
    so a temporary made per block stays that small.  Row-local arithmetic
    keeps its bits: numpy's per-row sums do not depend on the block."""
    step = max(1, _ROW_BLOCK // (cell_bytes * r.shape[-1]))
    return (slice(i, i + step) for i in range(0, len(r), step))


def _roots(sq, r):
    """The norms of the rows r from their squares sq by the range rule."""
    n = np.sqrt(sq)
    if not sq.size or sys.float_info.min <= sq.min() and sq.max() < math.inf:
        return n  # (a NaN square makes sq.min() NaN)
    off = ~((sq >= sys.float_info.min) & (sq < math.inf))
    # a zero row's root is its norm; a non-finite row keeps it
    off &= r.any(axis=-1) & np.isfinite(r).all(axis=-1)
    for i in zip(*np.nonzero(off)):
        n[i] = math.hypot(*r[i])
    return n


def _square(v, what: str, tail: str, error=UsageError) -> float:
    """v . v, summed as ddot by np.vdot, which does not warn on overflow.
    Raises error, naming the square as what, unless it is a normal float:
    a zero, subnormal or infinite square would mislead the quotients and
    roots taken of it, silently."""
    vv = float(np.vdot(v, v))
    if not sys.float_info.min <= vv < math.inf:
        raise error(f"{what} = {vv!r} is outside the normal float range "
                    f"(2.2e-308 to 1.8e308){tail}")
    return vv


class ConvexSet:
    """A closed convex set; project checks x once, then calls the raw _project."""

    dim: int

    @property
    def point(self):
        """The set's single point, when it is known to be one; else None."""
        return None

    def project(self, x):
        return self._project(self._coerce(x))

    def distance(self, x):
        """||x - P(x)||; ||x - point|| for a set of a known single point, its
        projection exactly (an affine set's anchor plus exact zeros), the
        difference in C order as x - P(x) is, so the rows sum alike."""
        x = self._coerce(x)
        p = self.point
        n = _norms(x - self._project(x) if p is None else np.subtract(x, p, order="C"))
        return np.float64(n) if x.ndim == 1 else n

    def _coerce(self, x) -> np.ndarray:
        return _checked(x, self.dim, type(self).__name__)


class _Plane(ConvexSet):
    """What Hyperplane and HalfSpace share: a nonzero normal and an offset."""

    def __init__(self, normal, offset: float):
        self.normal = _frozen(as_point(normal))
        self.offset = float(offset)
        if not self.normal.any():
            raise UsageError(f"{self._what} normal must be nonzero")
        # project divides by normal . normal and distance takes its root
        self._nn = _square(self.normal, f"{self._what} normal . normal",
                           "; rescale the normal and the offset")
        self.dim = self.normal.size

    def __repr__(self):
        return (f"{type(self).__name__}(normal={self.normal.tolist()}, "
                f"offset={self.offset})")


class Hyperplane(_Plane):
    """{x : <normal, x> = offset} with a nonzero normal."""

    _what = "hyperplane"

    def _project(self, x):
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

    def _project(self, x):
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
        # the dependence test below scales by sqrt(v . v)
        rows, vvs = _basis_rows(basis, self.dim)
        vecs = []
        for i, v in enumerate(rows):  # the first pass is done; the second:
            for q in vecs:
                v -= v.dot(q) * q
            n = _norm(v)
            if n > ORTHO_TOL * math.sqrt(vvs[i]):
                q = v / n
                vecs.append(q)
                # the later rows' first pass, with v.dot(q)'s bits
                rest = rows[i + 1:]
                rest -= _row_dots(rest, q)[:, None] * q
        self.basis = _frozen(np.array(vecs) if vecs else np.zeros((0, self.dim)))
        self._q = self.basis.T  # (d, k), orthonormal columns

    @property
    def point(self):
        return None if len(self.basis) else self.anchor

    def _project(self, x):
        # x - anchor is freed before the second product makes its output
        return self.anchor + (x - self.anchor).dot(self._q).dot(self.basis)

    def __repr__(self):
        return (f"AffineSubspace(anchor={self.anchor.tolist()}, "
                f"rank={self.basis.shape[0]})")


def _basis_rows(basis, dim):
    """The basis vectors as (k, dim) float64 rows in C order, a copy, and
    each one's v . v (_row_dots: the ddot bits of np.vdot), checked as one
    array: each row finite and each square a normal float.  When a check
    fails, the vectors are checked one by one, each as a point and then
    its square, so the first bad vector raises its own error, naming it."""
    vectors = basis if isinstance(basis, np.ndarray) else list(basis)
    try:
        rows = np.array(vectors, dtype=float, order="C")
    except (TypeError, ValueError):  # ragged, or not numbers
        rows = None
    if rows is not None and not len(rows):
        return np.zeros((0, dim)), np.zeros(0)
    if rows is not None and rows.shape[1:] == (dim,) and np.isfinite(rows).all():
        vvs = _row_dots(rows, rows)
        if sys.float_info.min <= vvs.min() and vvs.max() < math.inf:
            return rows, vvs
    rows, vvs = [], []
    for i, v in enumerate(vectors):
        rows.append(as_point(v, dim))
        vvs.append(_square(rows[-1], f"affine basis vector {i}: v . v", "; rescale it"))
    return np.array(rows), np.array(vvs)


class Ball(ConvexSet):
    """Closed Euclidean ball {x : ||x - center|| <= radius}."""

    def __init__(self, center, radius: float):
        self.center = _frozen(as_point(center))
        self.radius = float(radius)
        if not self.radius > 0:
            raise UsageError("ball radius must be positive")
        self.dim = self.center.size

    def _project(self, x):
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

    def _project(self, x):
        return x.clip(self.lo, self.hi)

    def __repr__(self):
        return f"Box(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


def _constraint_rows(cset):
    """Represent an affine set as stacked equality constraints M x = c."""
    if isinstance(cset, Hyperplane):
        return cset.normal[None, :], np.array([cset.offset])
    if isinstance(cset, AffineSubspace):
        # Orthogonal complement of span(basis): trailing left-singular vectors
        # of the (d, k) orthonormal basis matrix; np.eye(d) bit for bit at k = 0
        u, _, _ = np.linalg.svd(cset._q, full_matrices=True)
        m = u[:, cset.basis.shape[0]:].T
        return m, m @ cset.anchor
    raise UsageError(f"intersect_affine supports Hyperplane and AffineSubspace, "
                     f"got {type(cset).__name__}")


def _solve_affine(a, b):
    """(anchor, m, rank) of the intersection of two affine sets.

    The anchor is the least-squares solution of the stacked constraints
    m x = c, validated as a finite point; rank is lstsq's rank of m, which
    counts the singular values above s_max * max(m.shape) * eps, so the
    sets meet in one point when it is m's column count.  Raises
    InfeasibleError when the sets do not meet.
    """
    ma, ca = _constraint_rows(a)
    mb, cb = _constraint_rows(b)
    if ma.shape[1] != mb.shape[1]:
        raise UsageError("dimension mismatch between the two affine sets")
    m = np.vstack([ma, mb])
    c = np.concatenate([ca, cb])
    anchor, _, rank, _ = np.linalg.lstsq(m, c, rcond=None)
    anchor = as_point(anchor)
    if _norm(m @ anchor - c) > 1e-9 * (1.0 + _norm(c)):
        raise InfeasibleError("affine sets have empty intersection")
    return anchor, m, rank


def intersect_affine(a, b) -> AffineSubspace:
    """Intersection of two affine sets as an AffineSubspace: the
    least-squares anchor and an orthonormal null-space basis, the trailing
    right singular vectors of the stacked matrix.  Raises InfeasibleError
    when the sets do not meet: when the anchor misses the stacked
    constraints m x = c by more than 1e-9 (1 + ||c||)."""
    anchor, m, rank = _solve_affine(a, b)
    # a second factorization only for a flat's null rows
    null_rows = np.linalg.svd(m)[2][rank:] if rank < m.shape[1] else ()
    return AffineSubspace(anchor, null_rows)


def _affine(*sets) -> bool:
    return all(isinstance(s, (Hyperplane, AffineSubspace)) for s in sets)


def intersection(a, b) -> ConvexSet | None:
    """A n B where its exact form is known, else None: for now two affine
    sets, as intersect_affine(a, b) (InfeasibleError if they do not meet)."""
    return intersect_affine(a, b) if _affine(a, b) else None


def intersection_point(a, b):
    """The single point of intersection(a, b); None for a flat or a pair of
    no known exact form.  Solved for: a flat is told by lstsq's rank, with
    no null-space rows made."""
    if not _affine(a, b):
        return None
    anchor, m, rank = _solve_affine(a, b)
    return anchor if rank == m.shape[1] else None
