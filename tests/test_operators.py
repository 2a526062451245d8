import math
import warnings

import numpy as np
import pytest

from cutterkit import (AffineSubspace, Ball, Box, DegenerateSubgradientError,
                       HalfSpace, Hyperplane, Operator, RelaxationPair, UsageError,
                       compose, identity, nu, projection_operator, relax,
                       subgradient_projection)

U_PI6 = np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)])
LINE_A = Hyperplane([0.0, 1.0], 0.0)
LINE_B = AffineSubspace([0.0, 0.0], [U_PI6])


def rand_points(n=200, d=2, seed=0, scale=2.0):
    return np.random.default_rng(seed).standard_normal((n, d)) * scale


# ---------------------------------------------------------------------------
# projection operators

def test_projection_operator_examples():
    pa = projection_operator(LINE_A)
    assert np.array_equal(pa(np.array([1.0, 0.0])), [1.0, 0.0])
    pb = projection_operator(LINE_B)
    assert np.max(np.abs(pb(np.array([1.0, 0.0]))
                         - [0.75, math.sqrt(3) / 4])) < 1e-12
    ball = projection_operator(Ball([0.0, 0.0], 1.0))
    assert np.allclose(ball(np.array([0.0, 2.0])), [0.0, 1.0], atol=1e-15)


# ---------------------------------------------------------------------------
# relaxation

def test_relax_one_returns_same_map():
    pa = projection_operator(LINE_A)
    r = relax(pa, 1.0)
    x = np.array([1.3, -0.7])
    assert np.array_equal(r(x), pa(x))


def test_relax_two_is_reflection():
    r = relax(projection_operator(LINE_A), 2.0)
    assert np.array_equal(r(np.array([1.0, 1.0])), [1.0, -1.0])


def test_relax_three_on_x_axis():
    r = relax(projection_operator(LINE_A), 3.0)
    pts = rand_points(50)
    out = r(pts)
    assert np.max(np.abs(out[:, 0] - pts[:, 0])) < 1e-12
    assert np.max(np.abs(out[:, 1] + 2.0 * pts[:, 1])) < 1e-12


@pytest.mark.parametrize("lam", (0.3, 1.5, 2.0, 2.2, 3.7))
def test_relax_gives_the_bits_of_the_float_expression(lam):
    # relax multiplies by lam held as a 0-d array; the bits must be those
    # of the Python float lam
    rng = np.random.default_rng(7)
    for cset in (Hyperplane(rng.standard_normal(5), 0.4), Ball(np.zeros(5), 1.0),
                 AffineSubspace(np.ones(5), rng.standard_normal((2, 5)))):
        r = relax(projection_operator(cset), lam)
        assert r.label == f"(P[{type(cset).__name__}])_{lam:g}"
        x = rng.standard_normal((30, 5)) * 3.0
        x[0, 1] = -0.0
        x[1, 2] = np.nan
        for pts in (x, *x[:3]):
            want = pts + lam * (cset.project(pts) - pts)
            assert r(pts).tobytes() == want.tobytes(), (cset, pts)


def test_relax_zero_is_identity_with_full_fixed_set():
    r = relax(projection_operator(LINE_A), 0.0)
    x = np.array([1.0, 2.0])
    assert np.array_equal(r(x), x)


def test_relax_rejects_negative():
    with pytest.raises(UsageError):
        relax(projection_operator(LINE_A), -0.5)


@pytest.mark.parametrize("lam", (math.inf, math.nan))
def test_relax_rejects_a_non_finite_lambda(lam):
    with pytest.raises(UsageError, match=f"^relaxation parameter must be >= 0 "
                                         f"and finite, got {lam}$"):
        relax(projection_operator(LINE_A), lam)


def test_relax_composition_law():
    rng = np.random.default_rng(1)
    t = projection_operator(LINE_B)
    for lam, mu in [(0.5, 3.0), (2.0, 1.5), (0.0, 2.0), (3.0, 0.25)]:
        lhs = relax(relax(t, lam), mu)
        rhs = relax(t, lam * mu)
        x = rng.standard_normal((100, 2))
        assert np.max(np.abs(lhs(x) - rhs(x))) < 1e-12


# ---------------------------------------------------------------------------
# composition

def test_compose_identity():
    c = compose(identity(), identity())
    x = np.array([1.0, -2.0])
    assert np.array_equal(c(x), x)


def test_compose_applies_second_argument_first():
    pa = projection_operator(LINE_A)
    pb = projection_operator(LINE_B)
    x = np.array([1.0, 0.0])
    expected = np.array([0.75, math.sqrt(3) / 4])
    assert np.max(np.abs(compose(pb, pa)(x) - expected)) < 1e-12
    # (P_A)_3 fixes (1, 0), so the product lands at the same point
    assert np.max(np.abs(compose(pb, relax(pa, 3.0))(x) - expected)) < 1e-12


def test_compose_dimension_mismatch():
    p2 = projection_operator(LINE_A)
    p3 = projection_operator(Hyperplane([0.0, 0.0, 1.0], 0.0))
    with pytest.raises(UsageError):
        compose(p2, p3)


# ---------------------------------------------------------------------------
# the dimension boundary: a call checks its input once; inside, compose
# checks what an operator not built here hands on

BOUNDARY_SETS = [Ball([0.5, -0.5], 1.5), Box([-1.0, 0.0], [1.0, 2.0]),
                 AffineSubspace([1.0, 2.0], [[1.0, 1.0]])]


@pytest.mark.parametrize("x", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0, 3.0]], 4.0])
@pytest.mark.parametrize("cset", BOUNDARY_SETS + [LINE_A])
def test_library_operators_reject_a_point_of_another_dimension(cset, x):
    p = projection_operator(cset)
    for op in (p, relax(p, 2.5), compose(relax(p, 0.5), p),
               compose(p, identity()), compose(identity(), p)):
        with pytest.raises(UsageError, match="dimension mismatch"):
            op(x)


@pytest.mark.parametrize("cset", BOUNDARY_SETS)
def test_a_user_map_of_the_wrong_length_before_a_projection_is_refused(cset):
    # broadcast, one coordinate would silently project as (v, v)
    first = Operator(lambda x: x[..., :1], label="first")
    wide = Operator(lambda x: np.append(x, 0.0), label="wide")
    for lam in (1.0, 2.5):
        for t in (first, wide):
            op = compose(relax(projection_operator(cset), lam), t)
            with pytest.raises(UsageError, match="dimension mismatch"):
                op(np.array([0.3, 0.4]))


@pytest.mark.parametrize("cset", BOUNDARY_SETS)
def test_a_user_map_returning_a_list_feeds_a_projection_float64(cset):
    x = np.array([3.0, -2.5])
    p = relax(projection_operator(cset), 2.5)
    for dim in (None, 2):
        as_list = Operator(lambda v: [float(e) for e in v], "list", dim)
        assert compose(p, as_list)(x).tobytes() == p(x).tobytes()


def test_a_declared_dimension_is_checked_at_the_call():
    double = Operator(lambda x: 2.0 * x, label="double", dim=2)
    assert double([1.0, 2.0]).tolist() == [2.0, 4.0]
    with pytest.raises(UsageError, match=r"dimension mismatch: Operator\(double\)"):
        double([1.0, 2.0, 3.0])
    # with no declared dimension, any length passes
    assert Operator(lambda x: 2.0 * x)([1.0, 2.0, 3.0]).tolist() == [2.0, 4.0, 6.0]


# ---------------------------------------------------------------------------
# subgradient projection

def test_subgradient_projection_quadratic_example():
    f = lambda x: float(x @ x) - 1.0
    g = lambda x: 2.0 * x
    p = subgradient_projection(f, g)
    got = p(np.array([2.0, 0.0]))
    assert np.max(np.abs(got - [1.25, 0.0])) < 1e-15


def test_subgradient_projection_fixes_sublevel_set():
    f = lambda x: float(x @ x) - 1.0
    p = subgradient_projection(f, lambda x: 2.0 * x)
    x = np.array([0.5, 0.25])
    assert np.array_equal(p(x), x)


def test_subgradient_projection_matches_halfspace_for_affine_f():
    a = np.array([2.0, -1.0])
    b = 0.5
    hs = projection_operator(HalfSpace(a, b))
    p = subgradient_projection(lambda x: float(a @ x) - b, lambda x: a)
    pts = rand_points(200, seed=5)
    assert np.max(np.abs(p(pts) - hs(pts))) < 1e-12


def test_subgradient_projection_degenerate_subgradient():
    p = subgradient_projection(lambda x: 1.0, lambda x: np.zeros_like(x))
    with pytest.raises(DegenerateSubgradientError):
        p(np.array([1.0, 2.0]))


@pytest.mark.parametrize("g, square", [
    ([1e200, 0.0], "inf"),      # overflowed: @ warned before raising
    ([1e-170, 0.0], "0.0"),     # underflowed: was called a zero subgradient
    ([1e-160, 0.0], "1e-320"),  # subnormal: was divided by
    ([0.0, 0.0], "0.0"),
])
def test_subgradient_square_outside_the_normal_range_is_degenerate(g, square):
    p = subgradient_projection(lambda x: 1.0, lambda x: np.array(g))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSubgradientError) as info:
            p(np.array([1.0, 2.0]))
    assert str(info.value) == (
        f"subgradient g(x) . g(x) = {square} is outside the normal float "
        "range (2.2e-308 to 1.8e308) at a point where f(x) > 0")


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 17, 64, 100])
def test_subgradient_step_keeps_the_bits_of_the_plain_expression(d):
    rng = np.random.default_rng(d)
    for scale in (1e-100, 1e-5, 1.0, 1e5, 1e100):
        x = rng.standard_normal(d)
        gx = rng.standard_normal(d) * scale
        p = subgradient_projection(lambda v: 2.0, lambda v: gx)
        assert p(x).tobytes() == (x - (2.0 / float(gx @ gx)) * gx).tobytes()


# ---------------------------------------------------------------------------
# generalized Douglas-Rachford x + abar (W(x) - x), W = (P_B)_mu (P_A)_lam

def gdr(a, b, lam, mu, abar):
    return relax(compose(relax(projection_operator(b), mu),
                         relax(projection_operator(a), lam)), abar)


def test_gdr_classical_reduction():
    b = Hyperplane([-math.sin(math.pi / 6), math.cos(math.pi / 6)], 0.0)
    v = gdr(LINE_A, b, 2.0, 2.0, 0.5)
    got = v(np.array([1.0, 0.0]))
    assert np.max(np.abs(got - [0.75, math.sqrt(3) / 4])) < 1e-12


def test_gdr_step_one_is_plain_product():
    b = Hyperplane([-math.sin(math.pi / 6), math.cos(math.pi / 6)], 0.0)
    v = gdr(LINE_A, b, 1.5, 2.0, 1.0)
    pts = rand_points(100, seed=3)
    y = pts + 1.5 * (LINE_A.project(pts) - pts)
    w = y + 2.0 * (b.project(y) - y)
    assert np.max(np.abs(v(pts) - w)) < 1e-12


def test_gdr_quarter_step_over_relaxed_first_factor():
    # the (3,1) product with step 1/4: first factor (P_A)_3, then P_B
    b = Hyperplane([-math.sin(math.pi / 6), math.cos(math.pi / 6)], 0.0)
    v = gdr(LINE_A, b, 3.0, 1.0, 0.25)
    got = v(np.array([1.0, 0.0]))
    assert np.max(np.abs(got - [15.0 / 16.0, math.sqrt(3) / 16])) < 1e-12


def test_fix_distance_consistent_with_fixed_points():
    # the set's distance, Fix T's distance for T = (P_B)_lam, vanishes
    # exactly where the operator is fixed, sampled on points of the fixed
    # set and points away from it
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((100, 2)) * 2.0
    on_line = LINE_B.project(pts)
    for op in (projection_operator(LINE_B),
               relax(projection_operator(LINE_B), 2.5)):
        assert np.max(np.asarray(LINE_B.distance(on_line))) < 1e-10
        assert np.max(np.linalg.norm(op(on_line) - on_line, axis=1)) < 1e-10
        moving = pts[np.asarray(LINE_B.distance(pts)) > 1e-8]
        assert np.min(np.linalg.norm(op(moving) - moving, axis=1)) > 0.0


# ---------------------------------------------------------------------------
# sampled operator inequalities

SETS = [
    LINE_A,
    LINE_B,
    HalfSpace([1.0, 1.0], 0.2),
    Ball([0.3, -0.2], 1.2),
    Box([-1.0, -1.0], [0.5, 0.5]),
]


@pytest.mark.parametrize("cset", SETS, ids=lambda s: type(s).__name__)
def test_projections_are_cutters_sampled(cset):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((400, 2)) * 2.0
    z = cset.project(rng.standard_normal((10, 2)) * 2.0)
    px = cset.project(x)
    for zi in z:
        vals = np.einsum("nd,nd->n", zi - px, x - px)
        assert np.max(vals) < 1e-9


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 3.0])
def test_relaxed_cutter_characterization_sampled(lam):
    rng = np.random.default_rng(11)
    t = relax(projection_operator(LINE_B), lam)
    x = rng.standard_normal((400, 2)) * 2.0
    z = LINE_B.project(rng.standard_normal((5, 2)))
    tx = t(x)
    a = tx - x
    aa = np.einsum("nd,nd->n", a, a)
    for zi in z:
        margin = lam * np.einsum("nd,nd->n", zi - x, a) - aa
        assert np.min(margin) > -1e-9
        # demicontraction with rho = (lam-2)/lam
        rho = (lam - 2.0) / lam
        dc = (np.einsum("nd,nd->n", x - zi, x - zi) + rho * aa
              - np.einsum("nd,nd->n", tx - zi, tx - zi))
        assert np.min(dc) > -1e-9


@pytest.mark.parametrize("lam,mu", [(3.0, 1.0), (1.0, 3.0), (0.5, 3.5), (1.5, 2.5)])
def test_product_relaxed_by_inverse_nu_is_cutter_sampled(lam, mu):
    b = Hyperplane([-math.sin(math.pi / 6), math.cos(math.pi / 6)], 0.0)
    t = relax(projection_operator(LINE_A), lam)
    u = relax(projection_operator(b), mu)
    n = nu(RelaxationPair(lam, mu))
    v = relax(compose(u, t), 1.0 / n)
    rng = np.random.default_rng(13)
    x = rng.standard_normal((500, 2)) * 2.0
    vx = v(x)
    z = np.zeros(2)  # Fix T n Fix U = {0}
    vals = np.einsum("nd,nd->n", z - vx, x - vx)
    assert np.max(vals) < 1e-9
