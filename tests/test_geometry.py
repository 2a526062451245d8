import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutterkit import (AffineSubspace, Ball, Box, HalfSpace, Hyperplane,
                       InfeasibleError, UsageError, as_point, intersect_affine)
from cutterkit.configio import set_from_dict
from cutterkit.engine import _row_norms
from cutterkit.geometry import (ORTHO_TOL, _constraint_rows, _norm, _norms,
                                intersection, intersection_point)
from test_cli import FLAT_RUNS, _point_pair_d50

U_PI6 = np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)])
LINE_A = Hyperplane([0.0, 1.0], 0.0)                 # x-axis
LINE_B = AffineSubspace([0.0, 0.0], [U_PI6])         # line at pi/6


def sample_sets():
    return [
        LINE_A,
        LINE_B,
        HalfSpace([1.0, -2.0], 0.5),
        Hyperplane([3.0, 4.0], 1.0),
        Ball([0.5, -0.5], 1.5),
        Box([-1.0, 0.0], [1.0, 2.0]),
        AffineSubspace([1.0, 2.0], []),
    ]


# ---------------------------------------------------------------------------
# construction and validation

def test_as_point_validation():
    with pytest.raises(UsageError):
        as_point([1.0, np.nan])
    with pytest.raises(UsageError):
        as_point([1.0, np.inf])
    with pytest.raises(UsageError):
        as_point(3.0)
    with pytest.raises(UsageError):
        as_point([])
    with pytest.raises(UsageError):
        as_point([1.0, 2.0], dim=3)


def test_invalid_sets():
    with pytest.raises(UsageError):
        Hyperplane([0.0, 0.0], 1.0)
    with pytest.raises(UsageError):
        HalfSpace([0.0, 0.0], 1.0)
    with pytest.raises(UsageError):
        Ball([0.0, 0.0], 0.0)
    with pytest.raises(UsageError):
        Box([1.0, 0.0], [0.0, 1.0])


def test_dimension_mismatch_is_usage_error():
    with pytest.raises(UsageError):
        LINE_A.project(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(UsageError):
        Ball([0.0, 0.0], 1.0).distance(np.array([1.0]))


@pytest.mark.parametrize("cset", sample_sets())
def test_project_and_distance_coerce_and_check_a_list_once(cset):
    x = [[0.3, -2.0], [4.0, 1.5]]
    for pts in (x, x[0]):
        assert cset.project(pts).tobytes() == cset.project(np.array(pts)).tobytes()
        assert np.asarray(cset.distance(pts)).tobytes() == \
            np.asarray(cset.distance(np.array(pts))).tobytes()
    name = type(cset).__name__
    for bad in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0, 3.0]], 2.0):
        for method in (cset.project, cset.distance):
            with pytest.raises(UsageError, match=f"^dimension mismatch: {name} is "
                                                 f"2-dimensional, point has shape"):
                method(bad)


def test_affine_basis_orthonormalized():
    # skewed, partly dependent spanning vectors
    v1 = np.array([1.0, 1.0, 0.0])
    v2 = np.array([1.0, 1.0 + 1e-3, 0.0])
    v3 = 2 * v1 - 0.5 * v2  # dependent on the first two
    sub = AffineSubspace([0.0, 0.0, 0.0], [v1, v2, v3])
    q = sub.basis
    assert q.shape[0] == 2
    gram = q @ q.T
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12


# ---------------------------------------------------------------------------
# projection examples

def test_project_hyperplane_point_already_in_set():
    x = np.array([1.0, 0.0])
    assert np.array_equal(LINE_A.project(x), x)


def test_project_line_pi6_closed_form_and_grid_oracle():
    x = np.array([1.0, 0.0])
    got = LINE_B.project(x)
    expected = np.array([0.75, math.sqrt(3) / 4])
    assert np.max(np.abs(got - expected)) < 1e-12

    # brute-force oracle: minimize ||t u - x|| over a dense grid
    ts = np.linspace(-2.0, 2.0, 400001)
    pts = ts[:, None] * U_PI6
    dists = np.linalg.norm(pts - x, axis=1)
    i = int(np.argmin(dists))
    assert abs(ts[i] - float(x @ U_PI6)) < 2e-5
    assert np.linalg.norm(got - x) <= dists[i] + 1e-9


def test_project_ball_radial():
    ball = Ball([0.0, 0.0], 1.0)
    assert np.allclose(ball.project([2.0, 0.0]), [1.0, 0.0], atol=1e-15)
    inside = np.array([0.25, -0.1])
    assert np.array_equal(ball.project(inside), inside)


def test_project_halfspace_and_box():
    hs = HalfSpace([1.0, 0.0], 0.0)
    assert np.array_equal(hs.project([-1.0, 5.0]), [-1.0, 5.0])
    assert np.allclose(hs.project([2.0, 1.0]), [0.0, 1.0], atol=1e-15)
    box = Box([0.0, 0.0], [1.0, 1.0])
    assert np.allclose(box.project([2.0, -0.5]), [1.0, 0.0], atol=1e-15)


# ---------------------------------------------------------------------------
# distance examples

def test_distance_examples():
    assert HalfSpace([1.0, 0.0], 0.0).distance([-1.0, 5.0]) == 0.0
    x = np.array([1.0, 0.0])
    d = LINE_B.distance(x)
    assert abs(d - 0.5) < 1e-12                       # ||x|| sin(pi/6)
    assert abs(d - np.linalg.norm(x - LINE_B.project(x))) < 1e-12
    assert abs(Hyperplane([3.0, 4.0], 0.0).distance([3.0, 4.0]) - 5.0) < 1e-12


# ---------------------------------------------------------------------------
# intersections of affine sets

def test_intersect_affine_paper_lines_is_origin():
    b = Hyperplane([-math.sin(math.pi / 6), math.cos(math.pi / 6)], 0.0)
    inter = intersect_affine(LINE_A, b)
    assert inter.basis.shape[0] == 0
    assert np.max(np.abs(inter.anchor)) < 1e-12


def test_intersect_affine_identical_sets():
    sub = AffineSubspace([1.0, 0.0, 2.0], [[1.0, 1.0, 0.0]])
    inter = intersect_affine(sub, sub)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 3))
    assert np.max(np.abs(inter.project(x) - sub.project(x))) < 1e-9


def test_intersect_affine_parallel_is_infeasible():
    h1 = Hyperplane([1.0, 0.0], 0.0)
    h2 = Hyperplane([1.0, 0.0], 1.0)
    with pytest.raises(InfeasibleError):
        intersect_affine(h1, h2)


def test_intersect_affine_rejects_non_affine_sets():
    with pytest.raises(UsageError):
        intersect_affine(Ball([0.0, 0.0], 1.0), LINE_A)


def test_intersect_affine_of_a_point_set():
    # an affine set without basis is the point {anchor}: every coordinate
    # is a constraint, so the intersection is that point, or empty
    point = AffineSubspace([2.0, 0.0], np.empty((0, 2)))
    inter = intersect_affine(point, LINE_A)
    assert inter.basis.shape[0] == 0
    assert np.max(np.abs(inter.anchor - [2.0, 0.0])) < 1e-12
    with pytest.raises(InfeasibleError):
        intersect_affine(AffineSubspace([2.0, 1.0], np.empty((0, 2))), LINE_A)


def test_intersect_affine_rejects_sets_of_two_dimensions():
    plane = Hyperplane([0.0, 0.0, 1.0], 0.0)
    with pytest.raises(UsageError,
                       match="^dimension mismatch between the two affine sets$"):
        intersect_affine(LINE_A, plane)


def test_intersect_affine_line_and_plane_in_3d():
    plane = Hyperplane([0.0, 0.0, 1.0], 0.0)
    line = AffineSubspace([0.0, 1.0, 0.0], [[1.0, 0.0, 0.0]])
    inter = intersect_affine(plane, line)
    assert inter.basis.shape[0] == 1
    x = np.array([3.0, -2.0, 5.0])
    p = inter.project(x)
    assert abs(p[1] - 1.0) < 1e-9 and abs(p[2]) < 1e-9 and abs(p[0] - 3.0) < 1e-9


# ---------------------------------------------------------------------------
# sampled properties

@pytest.mark.parametrize("cset", sample_sets(), ids=lambda s: type(s).__name__)
def test_projection_properties_sampled(cset):
    rng = np.random.default_rng(42)
    x = rng.standard_normal((300, 2)) * 2.0
    y = rng.standard_normal((300, 2)) * 2.0
    px, py = cset.project(x), cset.project(y)
    # idempotence and membership
    assert np.max(np.linalg.norm(cset.project(px) - px, axis=1)) < 1e-12
    assert np.max(cset.distance(px)) < 1e-10
    # firm nonexpansiveness <P(x)-P(y), x-y> >= ||P(x)-P(y)||^2
    lhs = np.einsum("nd,nd->n", px - py, x - y)
    rhs = np.einsum("nd,nd->n", px - py, px - py)
    assert np.min(lhs - rhs) > -1e-9
    # batch evaluation agrees with row-by-row evaluation (up to BLAS
    # summation-order noise)
    rows = np.stack([cset.project(row) for row in x])
    assert np.max(np.abs(px - rows)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5))
def test_hyperplane_projection_is_idempotent(x0, x1):
    h = Hyperplane([3.0, 4.0], 1.0)
    p = h.project(np.array([x0, x1]))
    assert np.max(np.abs(h.project(p) - p)) < 1e-12
    assert h.distance(p) < 1e-10


# ---------------------------------------------------------------------------
# bit-for-bit reference: the products written with the @ operator

def _ref_project(cset, x):
    if isinstance(cset, AffineSubspace):
        return cset.anchor + ((x - cset.anchor) @ cset.basis.T) @ cset.basis
    s = (x @ cset.normal - cset.offset) / float(cset.normal @ cset.normal)
    if isinstance(cset, HalfSpace):
        s = np.maximum(s, 0.0)
    return x - s[..., None] * cset.normal


def _ref_distance(cset, x):
    if isinstance(cset, AffineSubspace):
        return np.linalg.norm(x - _ref_project(cset, x), axis=-1)
    v = x @ cset.normal - cset.offset
    if isinstance(cset, HalfSpace):
        v = np.maximum(v, 0.0)
    return np.abs(v) / np.sqrt(float(cset.normal @ cset.normal))


def _left_looking_gram_schmidt(basis, dim):
    """AffineSubspace's basis as it was computed one vector at a time:
    each vector is checked, then both passes run over the kept q's."""
    vecs = []
    for i, v in enumerate(basis):
        v = as_point(v, dim)
        vv = float(np.vdot(v, v))
        if not sys.float_info.min <= vv < math.inf:
            raise UsageError(
                f"affine basis vector {i}: v . v = {vv!r} is outside the "
                "normal float range (2.2e-308 to 1.8e308); rescale it")
        for _ in range(2):
            for q in vecs:
                v = v - v.dot(q) * q
        n = np.linalg.norm(v)
        if n > ORTHO_TOL * math.sqrt(vv):
            vecs.append(v / n)
    return np.array(vecs) if vecs else np.zeros((0, dim))


def _flat_sets(rng, d):
    return [Hyperplane(rng.standard_normal(d), rng.standard_normal()),
            HalfSpace(rng.standard_normal(d), rng.standard_normal())] + [
        AffineSubspace(rng.standard_normal(d), rng.standard_normal((k, d)))
        for k in sorted({0, 1, d // 2, d})]


@pytest.mark.parametrize("d", (2, 5, 20, 50))
def test_projections_match_the_matmul_expressions_bit_for_bit(d):
    rng = np.random.default_rng(d)
    for cset in _flat_sets(rng, d):
        for n in (2, 7, 300, 2000):  # 2000: 2 row blocks at d = 20, 4 at 50
            x = rng.standard_normal((n, d)) * 3.0
            for pts in (x[0].copy(), x, np.asfortranarray(x)):
                assert cset.project(pts).tobytes() == \
                    _ref_project(cset, pts).tobytes(), (cset, pts.shape)
                assert cset.distance(pts).tobytes() == \
                    _ref_distance(cset, pts).tobytes(), (cset, pts.shape)


def test_a_batch_projection_makes_two_batch_sized_arrays():
    # (x - anchor) is freed before the second product makes its output:
    # that output and the anchor's sum are the two (2000, 50) arrays
    rng = np.random.default_rng(8)
    a = AffineSubspace(rng.standard_normal(50), rng.standard_normal((25, 50)))
    x = rng.standard_normal((2000, 50))
    a.project(x)  # lazy imports and caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        a.project(x)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * x.nbytes


@pytest.mark.parametrize("d, k", [(1, 1), (2, 3), (3, 3), (5, 4), (7, 3), (12, 12),
                                  (20, 7), (30, 15), (31, 40), (50, 25), (60, 33),
                                  (60, 60)])
def test_gram_schmidt_matches_the_matmul_loop_bit_for_bit(d, k):
    rng = np.random.default_rng(d + k)
    vs = rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-3, 3, (k, 1))
    vs = np.vstack([vs, vs[0] - 0.5 * vs[-1]])  # one dependent vector
    sub = AffineSubspace(np.zeros(d), vs)
    assert sub.basis.shape == (min(k, d), d)
    assert sub.basis.tobytes() == _left_looking_gram_schmidt(vs, d).tobytes()


# Gram-Schmidt's first pass and run's solution errors rely on numpy's
# matmul of stacked (1, d) rows taking its vector . vector path, one BLAS
# ddot per row, the call ndarray.dot makes on two 1-d rows.  The gemv form
# X @ q can round otherwise (Gram-Schmidt written with it loses the bits
# at d = 3 already); another numpy or BLAS that changes the path fails
# here rather than changing CSV bytes.
@pytest.mark.parametrize("n", (1, 7, 101))
def test_stacked_matmul_row_dots_are_the_bits_of_ndarray_dot(n):
    rng = np.random.default_rng(n)
    for d in list(range(1, 65)) + [100, 257]:
        scale = 10.0 ** rng.uniform(-5, 5, (n, 1))
        x = rng.standard_normal((n, d)) * scale
        y = rng.standard_normal((n, d)) * scale[::-1]
        q = rng.standard_normal(d)
        pairs = np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]
        assert pairs.tobytes() == np.array(
            [a.dot(b) for a, b in zip(x, y)]).tobytes(), (n, d)
        shared = np.matmul(x[:, None, :], q[:, None])[:, 0, 0]
        assert shared.tobytes() == np.array([a.dot(q) for a in x]).tobytes(), (n, d)


def test_gram_schmidt_drops_duplicates_and_nearly_dependent_vectors():
    rng = np.random.default_rng(5)
    d = 40
    vs = rng.standard_normal((12, d))
    near = vs[0] - 0.5 * vs[3] + 1e-14 * rng.standard_normal(d)  # dropped
    keep = vs[1] + 1e-6 * rng.standard_normal(d)  # kept
    basis = np.vstack([vs[:6], vs[2], near, vs[6:], keep, vs[11] * 3.0])
    before = basis.copy()
    sub = AffineSubspace(np.zeros(d), basis)
    assert sub.basis.tobytes() == _left_looking_gram_schmidt(basis, d).tobytes()
    assert sub.basis.shape == (13, d)
    assert basis.tobytes() == before.tobytes()  # the input is not written


@pytest.mark.parametrize("bad, match", [
    ([1e200] * 4, "affine basis vector 3: v . v = inf"),
    ([1e-160, 0.0, 0.0, 0.0], "affine basis vector 3: v . v = 1e-320"),
    ([0.0] * 4, "affine basis vector 3: v . v = 0.0"),
    ([1.0, math.nan, 0.0, 0.0], "non-finite entries"),
    ([1.0, 2.0, 3.0], "dimension mismatch"),
])
def test_a_bad_basis_vector_after_good_ones_raises_the_same_error(bad, match):
    good = [[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]]
    # a later bad vector does not change which one is named
    basis = good + [bad, [1e200, 0.0, 0.0, 0.0]]
    with pytest.raises(UsageError, match=re.escape(match)) as new:
        AffineSubspace(np.zeros(4), basis)
    with pytest.raises(UsageError) as ref:
        _left_looking_gram_schmidt(basis, 4)
    assert str(new.value) == str(ref.value)


@pytest.mark.parametrize("d", (5, 20, 50))
def test_column_strided_batches_project_like_their_contiguous_copies(d):
    # a batch with a column stride goes to BLAS as a contiguous copy, so
    # its bits do not depend on its layout
    rng = np.random.default_rng(d)
    for cset in _flat_sets(rng, d):
        for n in (2, 300):
            view = (rng.standard_normal((n, 2 * d)) * 3.0)[:, ::2]
            assert cset.project(view).tobytes() == \
                cset.project(view.copy()).tobytes(), (cset, n)
            assert cset.distance(view).tobytes() == \
                cset.distance(view.copy()).tobytes(), (cset, n)


# ---------------------------------------------------------------------------
# single points: the (d,) paths give the bits of the batch expressions

def _batch_expression(cset, x):
    """project as the batch path writes it, applied to one (d,) point."""
    if isinstance(cset, (Hyperplane, HalfSpace)):
        s = (x.dot(cset.normal) - cset.offset) / cset._nn
        if isinstance(cset, HalfSpace):
            s = np.maximum(s, 0.0)
        return x - s[..., None] * cset.normal
    if isinstance(cset, Ball):
        d = x - cset.center
        n = np.linalg.norm(d, axis=-1, keepdims=True)
        scale = np.where(n > cset.radius, cset.radius / np.where(n > 0, n, 1.0), 1.0)
        return cset.center + scale * d
    return np.clip(x, cset.lo, cset.hi)


def _point_cases(rng, d):
    """(set, points): for each set, points inside, outside and on its
    boundary, with +-0.0 entries and a NaN coordinate."""
    e0 = np.zeros(d)
    e0[0] = 1.0
    plane_n = rng.standard_normal(d)
    lo = rng.standard_normal(d)
    hi = lo + rng.random(d)
    sets = {
        "hyperplane": Hyperplane(plane_n, rng.standard_normal()),
        "halfspace": HalfSpace(plane_n, rng.standard_normal()),
        # on its boundary x[0] = 0.5 exactly, so s is 0
        "halfspace-e0": HalfSpace(e0, 0.5),
        # s = -5e-324 / 4 rounds to -0.0, which the clamp makes +0.0
        "halfspace-tiny": HalfSpace(2.0 * e0, 5e-324),
        "ball": Ball(rng.standard_normal(d), 1.0 + rng.random()),
        # ||e0|| = 1 and ||(3, 4, 0, ...)|| = 5 exactly: on the sphere
        "ball-origin": Ball(np.zeros(d), 1.0),
        "ball-5": Ball(np.zeros(d), 5.0),
        "box": Box(lo, hi),
        "box-zero": Box(np.full(d, -0.0), np.full(d, 0.0)),
    }
    out = []
    for name, cset in sets.items():
        pts = [rng.standard_normal(d) * scale for scale in (0.1, 1.0, 10.0, 1e3)]
        pts += [np.zeros(d), np.full(d, -0.0), np.where(rng.random(d) < 0.5, -0.0, 0.0)]
        if isinstance(cset, Ball):
            pts += [cset.center.copy(), e0.copy(),
                    np.r_[3.0, 4.0, np.zeros(d - 2)] if d > 2 else np.array([3.0, 4.0])]
        elif isinstance(cset, Box):
            pts += [cset.lo.copy(), cset.hi.copy(), np.where(rng.random(d) < 0.5, lo, hi)]
        else:
            on = rng.standard_normal(d)
            on[0] = 0.5
            pts += [cset.project(rng.standard_normal(d)), on]
        nan = rng.standard_normal(d)
        nan[d // 2] = np.nan
        pts.append(nan)
        out.append((name, cset, pts))
    return out


@pytest.mark.parametrize("d", (2, 5, 20, 50))
def test_point_projections_match_the_batch_expressions_bit_for_bit(d):
    rng = np.random.default_rng(100 + d)
    for name, cset, pts in _point_cases(rng, d):
        for x in pts:
            got = cset.project(x)
            assert got.shape == (d,), name
            assert got.tobytes() == _batch_expression(cset, x).tobytes(), (name, x)
            # and the one-row batch agrees with the point
            assert cset.project(x[None])[0].tobytes() == got.tobytes(), (name, x)


@pytest.mark.parametrize("normal", ([1e200, 0.0], [1e-170, 0.0], [1e154, 1e154],
                                    [1e-155, 1e-155]))
@pytest.mark.parametrize("kind", (Hyperplane, HalfSpace))
def test_plane_normals_whose_square_leaves_the_normal_range_are_rejected(kind, normal):
    with pytest.raises(UsageError, match="outside the normal float range"):
        kind(normal, 0.0)


def test_plane_normals_at_the_edges_of_the_range_are_kept():
    for normal in ([1e153, 0.0], [1.5e-154, 0.0]):
        h = Hyperplane(normal, 0.0)
        assert h.distance([1.0, 0.0]) == 1.0
        assert h.project([1.0, 1.0]).tolist() == [0.0, 1.0]
    with pytest.raises(UsageError, match="must be nonzero"):
        Hyperplane([0.0, -0.0], 0.0)


def test_ball_projects_far_points_onto_the_sphere():
    ball = Ball([0.0, 0.0], 1.0)
    # the square of 1e200 overflows; the point path falls back to hypot
    assert ball.project([1e200, 0.0]).tolist() == [1.0, 0.0]
    assert ball.project([0.0, -1e300]).tolist() == [0.0, -1.0]
    assert ball.distance([1e200, 0.0]) == 1e200
    # the batch path does so row by row, leaving the other rows' bits
    x = np.array([[1e200, 0.0], [3.0, 4.0], [0.0, -1e300], [0.3, 0.4]])
    got = ball.project(x)
    assert got[[0, 2]].tolist() == [[1.0, 0.0], [0.0, -1.0]]
    assert got[[1, 3]].tobytes() == _batch_expression(ball, x[[1, 3]]).tobytes()
    assert ball.distance(x).tolist() == [1e200, 4.0, 1e300, 0.0]


# one range rule for every row norm: the square root of the square where
# that is a normal float, math.hypot of any other finite row
RANGE_ROWS = [([1e200, 0.0], 1e200), ([1e-160, 0.0], 1e-160), ([3.0, 4.0], 5.0),
              ([0.0, 0.0], 0.0), ([math.inf, 0.0], math.inf),
              ([math.nan, 0.0], math.nan), ([math.inf, math.nan], math.nan)]


@pytest.mark.parametrize("row, norm", RANGE_ROWS)
def test_every_row_norm_follows_the_one_range_rule(row, norm):
    v = np.array(row)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [_norm(v), _norms(v), *_norms(np.array([v, v])), *_row_norms(v[None])]
    assert all(type(n) in (float, np.float64) for n in got)
    want = np.full(len(got), norm)
    assert np.array(got).tobytes() == want.tobytes(), got


@pytest.mark.parametrize("n, d", [(5, 30), (1, 2), (0, 4), (1092, 30), (1093, 30),
                                  (2000, 50)])
def test_batch_norms_take_the_range_rule_and_bits_row_by_row(n, d):
    # (1092, 30) fills one 256 KiB block and (1093, 30) spills into a second:
    # on either side each row's norm is that of the row alone, unwarned
    rng = np.random.default_rng(n + d)
    r = rng.standard_normal((n, d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = [_norms(v) for v in r]
        assert _norms(r).tolist() == want
        # every kind of row of the range rule, in a batch of plain rows
        for row, norm in RANGE_ROWS if n else ():
            s = r.copy()
            s[n // 2] = 0.0
            s[n // 2, :2] = row
            got = _norms(s)
            assert np.array(got[n // 2]).tobytes() == np.array(norm).tobytes()
            assert np.delete(got, n // 2).tolist() == np.delete(want, n // 2).tolist()


def test_ball_points_near_the_overflow_keep_their_bits():
    # ||d||^2 between 1e300 and the largest float: the square does not
    # overflow, so the result is the plain expression's
    ball = Ball([1.0, -2.0, 0.5], 3.0)
    for x in ([1e150, 1e150, 0.0], [-3e153, 2e153, 1e153], [1.2e154, 0.0, 0.0]):
        x = np.array(x)
        assert ball.project(x).tobytes() == _batch_expression(ball, x).tobytes()
        assert ball.project(x[None]).tobytes() == \
            _batch_expression(ball, x[None]).tobytes()


# ---------------------------------------------------------------------------
# affine bases: scale-safe construction; intersect_affine keeps its bits

def _ref_intersect_affine(a, b):
    """intersect_affine as one function: stacked constraints, lstsq,
    the SVD rank and the Gram-Schmidt loop with its absolute threshold."""
    rows = []
    for cset in (a, b):
        if isinstance(cset, Hyperplane):
            rows.append((cset.normal[None, :], np.array([cset.offset])))
        elif cset.basis.shape[0] == 0:
            rows.append((np.eye(cset.dim), np.eye(cset.dim) @ cset.anchor))
        else:
            u = np.linalg.svd(cset.basis.T, full_matrices=True)[0]
            m = u[:, cset.basis.shape[0]:].T
            rows.append((m, m @ cset.anchor))
    m = np.vstack([r[0] for r in rows])
    c = np.concatenate([r[1] for r in rows])
    anchor = np.linalg.lstsq(m, c, rcond=None)[0]
    _, s, vt = np.linalg.svd(m)
    rank = int(np.sum(s > s[0] * max(m.shape) * np.finfo(float).eps))
    return anchor, _left_looking_gram_schmidt(vt[rank:], m.shape[1])


def _intersection_cases():
    rng = np.random.default_rng(7)
    cases = [
        (LINE_A, Hyperplane([-math.sin(math.pi / 6), math.cos(math.pi / 6)], 0.0)),
        (AffineSubspace([1.0, 0.0, 2.0], [[1.0, 1.0, 0.0]]),) * 2,
        (Hyperplane([0.0, 0.0, 1.0], 0.0),
         AffineSubspace([0.0, 1.0, 0.0], [[1.0, 0.0, 0.0]])),
        (LINE_A, LINE_B),
    ]
    for d in (12, 50):
        cases.append((Hyperplane(rng.standard_normal(d), rng.standard_normal()),
                      Hyperplane(rng.standard_normal(d), rng.standard_normal())))
        p = rng.standard_normal(d)
        cases.append((AffineSubspace(p, rng.standard_normal((d // 2, d))),
                      AffineSubspace(p, rng.standard_normal((d // 2 + 2, d)))))
    return cases


@pytest.mark.parametrize("a, b", _intersection_cases())
def test_intersect_affine_keeps_its_anchor_and_basis_bits(a, b):
    anchor, basis = _ref_intersect_affine(a, b)
    inter = intersect_affine(a, b)
    assert inter.anchor.tobytes() == anchor.tobytes()
    assert inter.basis.shape == basis.shape
    assert inter.basis.tobytes() == basis.tobytes()


@pytest.mark.parametrize("basis", ([[1e200, 0.0]], [[1e-200, 0.0]], [[0.0, 0.0]],
                                   [[1.0, 0.0], [1e155, 1e155]],
                                   [[1e-155, 1e-155]]))
def test_affine_basis_vectors_whose_square_leaves_the_normal_range_are_rejected(basis):
    with pytest.raises(UsageError, match="outside the normal float range"):
        AffineSubspace([0.0, 0.0], basis)


@pytest.mark.parametrize("scale", (1e154, 1.5e-154, 1e-100, 1e100))
def test_affine_basis_vectors_of_any_normal_scale_span_their_line(scale):
    sub = AffineSubspace([0.0, 0.0], [[scale, 0.0]])
    assert sub.basis.tolist() == [[1.0, 0.0]]
    assert sub.project([3.0, 4.0]).tolist() == [3.0, 0.0]


def test_affine_basis_dependence_is_relative_to_each_vector():
    # remainders of 1e-10 and 1e-13 of the vector's own norm
    big = AffineSubspace(np.zeros(2), [[1e100, 0.0], [1e100, 1e90]])
    assert big.basis.shape[0] == 2
    small = AffineSubspace(np.zeros(2), [[1e-100, 0.0], [1e-100, 1e-113]])
    assert small.basis.tolist() == [[1.0, 0.0]]
    # a unit-scale remainder at the threshold keeps the absolute rule
    assert AffineSubspace(np.zeros(2), [[1.0, 0.0], [1.0, 1e-13]]).basis.shape[0] == 1
    assert AffineSubspace(np.zeros(2), [[1.0, 0.0], [1.0, 1e-11]]).basis.shape[0] == 2


# ---------------------------------------------------------------------------
# a pair's exact intersection: intersection, intersection_point and point

def _config_sets(doc):
    return tuple(set_from_dict(s) for s in doc["problem"]["sets"])


def _random_affine_pairs():
    """Seeded hyperplanes and affine sets in d <= 8 through one point p,
    the affine ones of random rank below d: they meet in p or in a flat."""
    rng = np.random.default_rng(24)
    pairs = []
    for d in range(1, 9):
        p = rng.standard_normal(d)
        for _ in range(3):
            sets = []
            for kind in rng.integers(0, 2, size=2):
                if kind and d > 1:
                    normal = rng.standard_normal(d)
                    sets.append(Hyperplane(normal, normal.dot(p)))
                else:
                    k = int(rng.integers(0, d))
                    sets.append(AffineSubspace(p, rng.standard_normal((k, d))))
            pairs.append(tuple(sets))
    return pairs


def _exact_pairs():
    pairs = {name: _config_sets(doc) for name, doc in FLAT_RUNS.items()}
    pairs["point-pair-d50"] = _config_sets(_point_pair_d50())
    pairs["paper-lines"] = (
        LINE_A, Hyperplane([-math.sin(math.pi / 6), math.cos(math.pi / 6)], 0.0))
    pairs["paper-line-and-affine-line"] = (LINE_A, LINE_B)
    pairs["rank-0-and-a-hyperplane-through-it"] = (
        AffineSubspace([2.0, 0.0], np.empty((0, 2))), LINE_A)
    pairs.update((f"random-{i}", pair) for i, pair in enumerate(_random_affine_pairs()))
    return pairs


EXACT_PAIRS = _exact_pairs()


@pytest.mark.parametrize("name", EXACT_PAIRS)
def test_intersection_of_affine_sets_is_intersect_affine(name):
    a, b = EXACT_PAIRS[name]
    inter, ref = intersection(a, b), intersect_affine(a, b)
    assert type(inter) is AffineSubspace
    assert inter.anchor.tobytes() == ref.anchor.tobytes()
    assert inter.basis.shape == ref.basis.shape
    assert inter.basis.tobytes() == ref.basis.tobytes()
    if inter.basis.shape[0] == 0:
        assert inter.point is inter.anchor
    else:
        assert inter.point is None


@pytest.mark.parametrize("name", EXACT_PAIRS)
def test_intersection_point_solves_the_pair_without_building_a_set(
        name, monkeypatch):
    a, b = EXACT_PAIRS[name]
    expected = intersection(a, b).point
    built = []
    init = AffineSubspace.__init__

    def counted(self, anchor, basis=()):
        built.append(len(basis))
        init(self, anchor, basis)

    monkeypatch.setattr(AffineSubspace, "__init__", counted)
    point = intersection_point(a, b)
    assert built == []
    if expected is None:
        assert point is None
    else:
        assert point.tobytes() == expected.tobytes()


def test_the_pairs_meet_in_points_and_in_flats():
    # so that the two tests above see both results
    ranks = {n: intersect_affine(a, b).basis.shape[0]
             for n, (a, b) in EXACT_PAIRS.items()}
    assert all(ranks[n] for n in FLAT_RUNS)
    assert ranks["point-pair-d50"] == ranks["paper-lines"] == 0
    random = [r for n, r in ranks.items() if n.startswith("random-")]
    assert 0 < random.count(0) < len(random)


@pytest.mark.parametrize("a, b", [
    (HalfSpace([1.0, -2.0], 0.5), Ball([0.5, -0.5], 1.5)),
    (Ball([0.5, -0.5], 1.5), Box([-1.0, 0.0], [1.0, 2.0])),
    (HalfSpace([1.0, -2.0], 0.5), Box([-1.0, 0.0], [1.0, 2.0])),
    (LINE_B, Ball([0.5, -0.5], 1.5)),
    (Ball([0.5, -0.5], 1.5), AffineSubspace([0.0, 0.0], np.empty((0, 2)))),
], ids=["halfspace-ball", "ball-box", "halfspace-box", "affine-ball",
        "ball-rank-0-affine"])
def test_pairs_of_no_known_exact_form_give_none(a, b):
    assert intersection(a, b) is None
    assert intersection_point(a, b) is None


@pytest.mark.parametrize("a, b, error, message", [
    (Hyperplane([1, 0], 0), Hyperplane([2, 0], 1), InfeasibleError,
     "empty intersection"),
    (AffineSubspace([0, 0, 0], [[1, 0, 0], [0, 1, 0]]),
     AffineSubspace([0, 0, 1], [[1, 1, 0]]), InfeasibleError, "empty intersection"),
    # the least-squares point overflows
    (Hyperplane([1, 0], 1e308), Hyperplane([1, 1e-10], 0), UsageError, "non-finite"),
], ids=["parallel-planes", "disjoint-affine", "overflowing-anchor"])
def test_affine_pairs_without_a_finite_common_point_raise_from_both(a, b, error,
                                                                   message):
    for find in (intersection, intersection_point):
        with pytest.raises(error, match=message):
            find(a, b)


@pytest.mark.parametrize("cset", [
    Ball([0.5, -0.5], 1.5), Box([-1.0, 0.0], [1.0, 2.0]), HalfSpace([1.0, -2.0], 0.5),
    LINE_A, LINE_B, AffineSubspace([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
], ids=["ball", "box", "halfspace", "hyperplane", "affine-line", "affine-plane"])
def test_only_a_one_point_set_has_a_point(cset):
    assert cset.point is None
    with pytest.raises(AttributeError):
        cset.point = np.zeros(2)


def test_a_rank_0_affine_set_is_its_point():
    point = AffineSubspace([2.0, -1.0], [])
    assert point.point is point.anchor
    assert point.point.tolist() == [2.0, -1.0]
    with pytest.raises(AttributeError):
        point.point = np.zeros(2)


@pytest.mark.parametrize("d", range(1, 9))
def test_constraint_rows_of_a_rank_0_affine_set_are_the_identity(d):
    # the svd of the (d, 0) basis matrix gives np.eye(d) bit for bit, so
    # a point set needs no branch of its own
    anchor = np.random.default_rng(d).standard_normal(d)
    m, c = _constraint_rows(AffineSubspace(anchor, []))
    assert m.shape == (d, d)
    assert m.tobytes() == np.eye(d).tobytes()
    assert c.tobytes() == (np.eye(d) @ anchor).tobytes()
