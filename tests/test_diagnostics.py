import math
import tracemalloc

import numpy as np
import pytest

from _helpers import (random_halfspace_pair, random_hyperplane_pair,
                      random_valid_pair, wedge_projection)
from cutterkit import (AffineSubspace, Box, DegenerateSubgradientError,
                       EstimationError, Hyperplane,
                       IterationConfig, Operator, ProbeConfig, RelaxationPair, Trace,
                       UsageError, alpha_beta, compose,
                       cutter_check, dc_gap_check, demicontraction_check,
                       fejer_check, identity, intersect_affine, iterate,
                       lb1_check, lb2_check, pair_regularity_estimate,
                       projection_operator, rate_certificate,
                       regularity_modulus_estimate, relax,
                       relaxed_cutter_check, run_dr, run_map, sample_ball,
                       subgradient_projection)
from cutterkit import configio, diagnostics
from cutterkit.theory import demicontraction_rho, nu, split_roots

U_PI6 = np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)])
LINE_A = Hyperplane([0.0, 1.0], 0.0)
LINE_B = Hyperplane([-math.sin(math.pi / 6), math.cos(math.pi / 6)], 0.0)
ORIGIN = np.zeros(2)
PROBE = ProbeConfig(center=ORIGIN, radius=2.0, sample_count=2000, seed=0)

# two lines at angle pi/6: sup of d(x, {0}) / max{d(x,A), d(x,B)} over the
# unit circle, frozen from a dense grid maximization (the maximizer sits
# on the bisector, at angle pi/12 to each line)
KAPPA_PI6 = 3.8637033051562737


def new_method_ops():
    return relax(projection_operator(LINE_A), 3.0), projection_operator(LINE_B)


def grid_kappa(a, b, inter, n=200001):
    """Independent oracle: maximize the regularity ratio on a dense circle."""
    phis = np.linspace(0.0, 2.0 * math.pi, n)
    pts = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    dm = np.maximum(a.distance(pts), b.distance(pts))
    keep = dm > 1e-12
    return float(np.max(inter.distance(pts[keep]) / dm[keep]))


# ---------------------------------------------------------------------------
# probe plumbing

def test_probe_config_validation():
    with pytest.raises(UsageError):
        ProbeConfig(center=ORIGIN, radius=0.0)


@pytest.mark.parametrize("tol", (0.0, -1.0, math.inf, math.nan))
def test_probe_tolerance_is_positive_and_finite(tol):
    # at tolerance inf every margin would pass
    with pytest.raises(UsageError, match=f"^tolerance must be positive and "
                                         f"finite, got {tol}$"):
        ProbeConfig(center=ORIGIN, radius=1.0, tolerance=tol)


@pytest.mark.parametrize("field, value, message", [
    ("sample_count", 2.5, "sample_count must be an integer >= 1, got 2.5"),
    ("sample_count", "7", "sample_count must be an integer >= 1, got '7'"),
    ("sample_count", True, "sample_count must be an integer >= 1, got True"),
    ("sample_count", 0, "sample_count must be an integer >= 1, got 0"),
    ("sample_count", math.nan, "sample_count must be an integer >= 1, got nan"),
    ("seed", 1.9, "probe seed must be an integer >= 0, got 1.9"),
    ("seed", "3", "probe seed must be an integer >= 0, got '3'"),
    ("seed", False, "probe seed must be an integer >= 0, got False"),
    ("seed", -1, "probe seed must be an integer >= 0, got -1"),
])
def test_probe_counts_follow_the_integer_rule_at_construction(field, value,
                                                              message):
    # a fraction was truncated (2.5 drew 2 samples and reported samples=2),
    # a string or a bool passed, and seed=1.9 failed only at the first draw
    with pytest.raises(UsageError) as info:
        ProbeConfig(center=ORIGIN, radius=1.0, **{field: value})
    assert str(info.value) == message


def test_integral_probe_counts_are_stored_as_ints():
    probe = ProbeConfig(center=ORIGIN, radius=1.0, sample_count=3.0,
                        seed=np.int64(4))
    assert type(probe.sample_count) is int and probe.sample_count == 3
    assert type(probe.seed) is int and probe.seed == 4
    assert probe.samples.shape == (3, 2)
    same = ProbeConfig(center=ORIGIN, radius=1.0, sample_count=3, seed=4)
    assert probe.samples.tobytes() == same.samples.tobytes()


def test_probe_center_is_a_copy_of_the_callers_point():
    c = np.zeros(2)
    probe = ProbeConfig(center=c, radius=1.0, sample_count=50, seed=3)
    before = sample_ball(probe)
    c[0] = 100.0
    assert np.array_equal(probe.center, [0.0, 0.0])
    assert sample_ball(probe).tobytes() == before.tobytes()
    with pytest.raises(ValueError):
        probe.center[0] = 1.0


def test_probe_configs_compare_and_hash_by_identity():
    # an array field makes field-wise == ambiguous; IterationConfig does
    # the same
    p = ProbeConfig(center=[0, 0], radius=1.0)
    q = ProbeConfig(center=[0, 0], radius=1.0)
    assert p == p
    assert p != q
    assert len({p, q, p}) == 2


def test_probe_samples_are_drawn_once_read_only_and_exact():
    probe = ProbeConfig(center=[1.0, -2.0], radius=0.5, sample_count=300, seed=8)
    x = probe.samples
    assert probe.samples is x
    assert not x.flags.writeable
    with pytest.raises(ValueError):
        x[0, 0] = 0.0
    assert x.tobytes() == sample_ball(probe).tobytes()


def test_sample_ball_is_seeded_and_inside():
    p1 = sample_ball(PROBE)
    p2 = sample_ball(PROBE)
    assert np.array_equal(p1, p2)
    assert p1.shape == (2000, 2)
    assert np.max(np.linalg.norm(p1 - ORIGIN, axis=1)) <= 2.0 + 1e-12
    shifted = ProbeConfig(center=[5.0, 5.0], radius=0.5, sample_count=500, seed=3)
    pts = sample_ball(shifted)
    assert np.max(np.linalg.norm(pts - [5.0, 5.0], axis=1)) <= 0.5 + 1e-12


def test_a_sample_numpy_cannot_allocate_is_a_usage_error(monkeypatch):
    # 10**18 points of d = 2 are refused by numpy before it allocates
    # ("array is too big"); a MemoryError comes from a generator stub, so
    # no test allocates a large array
    probe = ProbeConfig(center=[0.0, 0.0], radius=1.0, sample_count=10**18)
    with pytest.raises(UsageError, match=r"probe\.samples = 1000000000000000000 "
                                         r"points in d = 2 are more than numpy"):
        sample_ball(probe)

    class Refusing:
        def __init__(self, seed):
            pass

        def standard_normal(self, shape):
            raise MemoryError(f"cannot allocate {shape}")

    monkeypatch.setattr(np.random, "default_rng", Refusing)
    probe = ProbeConfig(center=[0.0, 0.0, 0.0], radius=1.0, sample_count=5000)
    with pytest.raises(UsageError, match=r"probe\.samples = 5000 points in d = 3 "
                                         r"are more than numpy can allocate"):
        sample_ball(probe)


def test_report_line_format():
    rep = cutter_check(projection_operator(LINE_A), [ORIGIN], PROBE)
    line = rep.line()
    assert line.startswith("PROBE cutter PASS margin=")
    assert "samples=2000" in line and "seed=0" in line


# ---------------------------------------------------------------------------
# cutter / relaxed cutter / demicontraction

def test_cutter_check_projection_passes():
    rep = cutter_check(projection_operator(LINE_A), [ORIGIN, [3.0, 0.0]], PROBE)
    assert rep.passed and rep.margin > -1e-9


def test_cutter_check_rejects_bad_fixed_sample():
    with pytest.raises(UsageError):
        cutter_check(projection_operator(LINE_A), [[0.0, 1.0]], PROBE)


def test_cutter_check_rejects_an_empty_fixed_sample():
    with pytest.raises(UsageError,
                       match="^fixed_sample must contain at least one point$"):
        cutter_check(projection_operator(LINE_A), [], PROBE)


def test_a_probe_passes_the_operators_own_error_through():
    # DegenerateSubgradientError is a UsageError, a ValueError, yet the
    # batch evaluation does not rewrap it as a broken batch contract
    op = subgradient_projection(lambda x: x @ x - 1, lambda x: np.zeros_like(x))
    probe = ProbeConfig(center=ORIGIN, radius=3.0, sample_count=50, seed=1)
    with pytest.raises(DegenerateSubgradientError,
                       match=r"^subgradient g\(x\) \. g\(x\) = 0\.0 is outside "
                             r"the normal float range"):
        cutter_check(op, [np.zeros(2)], probe)


def test_single_point_operator_is_rejected_by_name():
    # float() takes one point only, so the operator breaks the batch
    # contract the probes evaluate it under
    n = LINE_A.normal
    op = Operator(lambda x: x - float(x @ n) * n, label="one-point")
    t, u = new_method_ops()
    with pytest.raises(UsageError, match="one-point"):
        cutter_check(op, [ORIGIN], PROBE)
    with pytest.raises(UsageError, match="one-point"):
        lb1_check(t, op, RelaxationPair(3.0, 1.0), [ORIGIN], PROBE)


def test_wrong_batch_shape_is_rejected_by_name():
    op = Operator(lambda x: x[..., :1], label="truncating")
    with pytest.raises(UsageError, match="truncating"):
        relaxed_cutter_check(op, 1.0, [ORIGIN], PROBE)


def _nan_off(z):
    """Fixes z and maps every other point to NaN."""
    return Operator(lambda x: np.where((x == z).all(axis=-1, keepdims=True),
                                       x, np.nan), label="nan-off-z")


@pytest.mark.parametrize("check", [
    lambda t: cutter_check(t, [ORIGIN], PROBE),
    lambda t: relaxed_cutter_check(t, 1.5, [ORIGIN], PROBE),
    lambda t: demicontraction_check(t, 0.5, [ORIGIN], PROBE),
], ids=["cutter", "relaxed-cutter", "demicontraction"])
def test_nan_margins_fail(check):
    rep = check(_nan_off(ORIGIN))
    assert not rep.passed and math.isnan(rep.margin)
    assert len(rep.violations) == diagnostics.MAX_RECORDED_VIOLATIONS
    assert " FAIL margin=nan samples=2000 " in rep.line()


def test_a_fixed_sample_point_mapped_to_nan_is_not_fixed():
    op = Operator(lambda x: np.full_like(x, np.nan), label="nan")
    with pytest.raises(UsageError, match=r"^fixed_sample contains non-fixed points "
                                         r"of nan: max \|\|T\(z\) - z\|\| = nan$"):
        relaxed_cutter_check(op, 1.5, [ORIGIN], PROBE)


def test_cutter_check_catches_over_relaxation():
    rep = cutter_check(relax(projection_operator(LINE_A), 3.0), [ORIGIN], PROBE)
    assert not rep.passed
    assert len(rep.violations) > 0
    # hand witness: x = (0,1), z = (0,0): T(x) = (0,-2),
    # <z - Tx, x - Tx> = <(0,2),(0,3)> = 6 > 0, i.e. margin -6
    t = relax(projection_operator(LINE_A), 3.0)
    x = np.array([0.0, 1.0])
    tx = t(x)
    assert abs(float((ORIGIN - tx) @ (x - tx)) - 6.0) < 1e-12


def test_composed_product_passes_cutter_check():
    t, u = new_method_ops()
    v = relax(compose(u, t), 0.25)  # 1/nu for the (3,1) pair
    rep = cutter_check(v, [ORIGIN], PROBE)
    assert rep.passed


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 3.0])
def test_relaxed_cutter_check_relaxed_projections(lam):
    t = relax(projection_operator(LINE_A), lam)
    fixed = [[0.0, 0.0], [1.0, 0.0], [-2.5, 0.0]]
    rep = relaxed_cutter_check(t, lam, fixed, PROBE)
    assert rep.passed and rep.margin > -1e-9


def test_relaxed_cutter_check_identity_any_lambda():
    for lam in (0.5, 1.0, 3.5):
        rep = relaxed_cutter_check(identity(), lam, [ORIGIN], PROBE)
        assert rep.passed


def test_relaxed_cutter_check_mislabeled_lambda_fails():
    t = relax(projection_operator(LINE_A), 3.0)
    rep = relaxed_cutter_check(t, 1.0, [ORIGIN], PROBE)
    assert not rep.passed


@pytest.mark.parametrize("lam", [0.0, -1.0])
def test_relaxed_cutter_check_rejects_a_lambda_not_positive(lam):
    with pytest.raises(UsageError, match=f"^lambda must be positive, got {lam}$"):
        relaxed_cutter_check(projection_operator(LINE_A), lam, [ORIGIN], PROBE)


def test_demicontraction_check_values():
    pa = projection_operator(LINE_A)
    assert demicontraction_check(pa, -1.0, [ORIGIN], PROBE).passed
    t3 = relax(pa, 3.0)
    assert demicontraction_check(t3, 1.0 / 3.0, [ORIGIN], PROBE).passed
    rep = demicontraction_check(t3, 0.0, [ORIGIN], PROBE)
    assert not rep.passed  # not quasi-nonexpansive
    with pytest.raises(UsageError):
        demicontraction_check(pa, 1.0, [ORIGIN], PROBE)


def test_relaxed_cutter_demicontraction_equivalence_sampled():
    for lam in (0.5, 1.0, 2.0, 3.0):
        t = relax(projection_operator(LINE_B), lam)
        z = LINE_B.project(np.array([[0.4, 1.0], [-1.0, 0.3]]))
        r1 = relaxed_cutter_check(t, lam, z, PROBE)
        r2 = demicontraction_check(t, (lam - 2.0) / lam, z, PROBE)
        assert r1.passed and r2.passed


# ---------------------------------------------------------------------------
# LB1 / LB2

def test_lb1_paper_pair_plus_sign():
    t, u = new_method_ops()
    pair = RelaxationPair(3.0, 1.0)
    probe = ProbeConfig(center=ORIGIN, radius=2.0, sample_count=10000, seed=1)
    rep = lb1_check(t, u, pair, [ORIGIN], probe)
    assert rep.passed and rep.margin > -1e-9


def test_lb1_at_fixed_point_both_sides_vanish():
    t, u = new_method_ops()
    z = ORIGIN
    tx = t(z)
    utx = u(tx)
    assert np.linalg.norm(utx - z) < 1e-15


def test_lb1_minus_sign_for_small_relaxations():
    pair = RelaxationPair(1.0, 1.0)
    rep = lb1_check(projection_operator(LINE_A), projection_operator(LINE_B),
                    pair, [ORIGIN], PROBE)
    assert rep.passed
    # passing lb1 implies the inner product itself is non-negative
    t, u = projection_operator(LINE_A), projection_operator(LINE_B)
    x = sample_ball(PROBE)
    utx = u(t(x))
    assert np.min(np.einsum("nd,nd->n", -x, utx - x)) > -1e-9


def test_lb2_paper_pair_hand_value_and_samples():
    t, u = new_method_ops()
    pair = RelaxationPair(3.0, 1.0)
    inter = intersect_affine(LINE_A, LINE_B)
    # hand evaluation at x = (1, 0): a = 0, b = c = P_B(1,0) - (1,0),
    # ||c|| = 1/2, d(x, {0}) = 1
    a_, b_ = alpha_beta(pair)
    coef = (abs(a_) / (1.0 + b_ * 2.0)) ** 2
    lhs = 0.5
    rhs = coef * 0.25 / 1.0
    assert lhs >= rhs
    assert abs(coef - 1.0 / (3.0 * (1.0 + math.sqrt(3)) ** 2)) < 1e-12
    probe = ProbeConfig(center=ORIGIN, radius=2.0, sample_count=10000, seed=2)
    rep = lb2_check(t, u, pair, inter, probe)
    assert rep.passed and rep.margin > -1e-9


def test_lb2_vacuous_when_lambda_equals_mu():
    rep = lb2_check(projection_operator(LINE_A), projection_operator(LINE_B),
                    RelaxationPair(1.0, 1.0), intersect_affine(LINE_A, LINE_B),
                    PROBE)
    assert rep.skipped and rep.passed
    assert "SKIP" in rep.line()


def test_lb2_skips_when_every_sample_lies_in_the_intersection():
    # the unit ball about (0.1, 0.2) lies inside [-4, 5]^2 = A n B
    a, b = Box([-5.0, -5.0], [5.0, 5.0]), Box([-4.0, -4.0], [6.0, 6.0])
    probe = ProbeConfig(center=[0.1, 0.2], radius=1.0, sample_count=100, seed=0)
    t, u = relax(projection_operator(a), 1.5), relax(projection_operator(b), 2.5)
    rep = lb2_check(t, u, RelaxationPair(1.5, 2.5), Box([-4.0, -4.0], [5.0, 5.0]),
                    probe)
    assert rep.skipped and rep.passed and rep.samples == 0
    assert rep.note == "all samples degenerate"


@pytest.mark.parametrize("nan_rows, bad", [
    (slice(None), diagnostics.MAX_RECORDED_VIOLATIONS), (slice(0, 3), 3)],
    ids=["all", "three"])
def test_lb2_keeps_nan_distances_and_fails(nan_rows, bad):
    # a NaN oracle neither skips lb2 nor drops its samples as degenerate
    t, u = new_method_ops()
    dist = intersect_affine(LINE_A, LINE_B).distance

    def oracle(x):
        d = dist(x)
        d[nan_rows] = np.nan
        return d

    rep = lb2_check(t, u, RelaxationPair(3.0, 1.0), oracle, PROBE)
    assert not rep.skipped and not rep.passed
    assert rep.samples == 2000 and len(rep.violations) == bad


def test_lb2_random_halfspace_pair_with_wedge_oracle():
    rng = np.random.default_rng(8)
    z0 = np.array([0.2, -0.4])
    h1, h2 = random_halfspace_pair(rng, z0)
    _, wdist = wedge_projection(h1, h2)
    pair = RelaxationPair(0.5, 3.0)
    t = relax(projection_operator(h1), 0.5)
    u = relax(projection_operator(h2), 3.0)
    probe = ProbeConfig(center=z0, radius=3.0, sample_count=5000, seed=9)
    rep = lb2_check(t, u, pair, wdist, probe)
    assert rep.passed and rep.margin > -1e-9


# ---------------------------------------------------------------------------
# the battery's arithmetic against the plain expressions

def _plain_dot(a, b):
    return np.einsum("nd,nd->n", a, b)


def plain_sample(probe):
    """sample_ball written as one expression per step."""
    rng = np.random.default_rng(probe.seed)
    n, d = probe.sample_count, probe.center.size
    g = rng.standard_normal((n, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return probe.center + (probe.radius * rng.random(n) ** (1.0 / d))[:, None] * g


def plain_battery_margins(a, b, t, u, pair, w, inter, probe):
    """The margins of the battery's nine probes and its kappa_hat, each
    inequality written as one expression of (n, d) arrays."""
    x = probe.samples
    tx, ux = t(x), u(x)
    utx = u(tx)
    zs_a, zs_b = a.project(x[:5]), b.project(x[:5])

    def cutter(zs, tx):
        return np.min([-_plain_dot(z - tx, x - tx) for z in zs], axis=0)

    def relaxed(zs, tx, lam):
        return np.min([lam * _plain_dot(z - x, tx - x) - _plain_dot(tx - x, tx - x)
                       for z in zs], axis=0)

    def demi(zs, tx, rho):
        return np.min([_plain_dot(x - z, x - z) + rho * _plain_dot(tx - x, tx - x)
                       - _plain_dot(tx - z, tx - z) for z in zs], axis=0)

    s1, s2 = split_roots(pair)
    sign = 1.0 if max(pair.lam, pair.mu) >= 2.0 else -1.0
    comb = s1 * (tx - x) + sign * s2 * (utx - tx)
    lb1 = _plain_dot(w - x, utx - x) - _plain_dot(comb, comb)
    a_, b_ = alpha_beta(pair)
    coef = (abs(a_) / (1.0 + b_ * math.sqrt(nu(pair)))) ** 2
    d = inter.distance(x)
    keep = d > probe.tolerance
    xk, dk, txk, utxk = x, d, tx, utx
    if not keep.all():
        xk, dk = x[keep], d[keep]
        txk = t(xk)
        utxk = u(txk)
    lb2 = np.linalg.norm(utxk - xk, axis=1) - coef * np.maximum(
        _plain_dot(txk - xk, txk - xk), _plain_dot(utxk - txk, utxk - txk)) / dk
    dm = np.maximum(np.linalg.norm(x - a.project(x), axis=-1),
                    np.linalg.norm(x - b.project(x), axis=-1))
    keep = dm > probe.tolerance
    kappa = float(np.max(inter.distance(x[keep]) / dm[keep]))
    product = relax(compose(u, t), 1.0 / nu(pair))(x)
    return [cutter(zs_a, a.project(x)), cutter(zs_b, b.project(x)),
            relaxed(zs_a, tx, pair.lam), relaxed(zs_b, ux, pair.mu),
            demi(zs_a, tx, demicontraction_rho(pair.lam)),
            demi(zs_b, ux, demicontraction_rho(pair.mu)),
            cutter([w], product), lb1, lb2], kappa


def _affine_pair(d, seed):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal(d)
    return (AffineSubspace(p, rng.standard_normal((d // 2 + 1, d))),
            AffineSubspace(p, rng.standard_normal((d // 2, d))))


BOX_PAIR = (Box([-1, -1, -1], [1, 1, 1]), Box([0, -2, -0.5], [2, 2, 0.5]))


def _nested_affine_pair(d, seed):
    """A plane inside a 4-dimensional flat: P_B fixes every point of A."""
    rng = np.random.default_rng(seed)
    p, basis = rng.standard_normal(d), rng.standard_normal((4, d))
    return AffineSubspace(p, basis[:2]), AffineSubspace(p, basis)


def _one_point_affine_pair(d, seed):
    """Two (d/2)-dimensional flats in R^d through one point p, and {p}."""
    rng = np.random.default_rng(seed)
    p = rng.standard_normal(d)
    return ((AffineSubspace(p, rng.standard_normal((d // 2, d))),
             AffineSubspace(p, rng.standard_normal((d // 2, d)))), AffineSubspace(p))


# T from a config spec: relax(P_B) fixes A's points only when A lies in B
T_OF_PB = {"op": "relax", "lambda": 1.4, "of": {"op": "projection", "set": 1}}
T_OVER_PA = {"op": "relax", "lambda": 3.3, "of": {"op": "projection", "set": 0}}


@pytest.mark.parametrize("sets, inter, lam_t, mu_u, pair, n, t_spec", [
    # a mislabelled T or U gives margins of both signs; "+" in lb1 when
    # max{lam, mu} >= 2, else "-"
    (_affine_pair(40, 1), None, 1.7, 2.7, RelaxationPair(1.3, 2.7), 700, None),
    (_affine_pair(9, 2), None, 0.6, 1.9, RelaxationPair(0.6, 1.5), 500, None),
    # 1700 rows of d = 40 run as 3 row blocks of at most 256 KiB (819,
    # 819 and 62 rows)
    (_affine_pair(40, 4), None, 1.4, 2.5, RelaxationPair(1.4, 2.5), 1700, None),
    # some samples lie in the intersection: lb2 and kappa_hat keep rows
    (BOX_PAIR, Box([0, -1, -0.5], [1, 1, 0.5]), 2.5, 1.2,
     RelaxationPair(2.5, 1.2), 300, None),
    # nu is exactly 1.0: relax(., 1.0) returns U T itself, and
    # x + 1.0 * (U(T(x)) - x) differs from U(T(x)) in 249 of the 500 rows
    (_affine_pair(9, 2), None, 0.5, 0.8, RelaxationPair(0.5, 0.8), 500, None),
    # lam = 1: T is P_A itself, and T(X) is P_A(X)
    (_affine_pair(12, 6), None, 1.0, 2.6, RelaxationPair(1.0, 2.6), 600, None),
    # T relaxes P_B, of the same label as P_A: evaluated, not made of P_A(X)
    (_nested_affine_pair(10, 7), None, 1.4, 2.5, RelaxationPair(1.4, 2.5), 400,
     T_OF_PB),
    # an explicit T relaxed by 3.3, declared 3, on the paper's lines
    ((LINE_A, LINE_B), None, 3.3, 1.0, RelaxationPair(3.0, 1.0), 500, T_OVER_PA),
    # A n B = {p} given: d(X, {p}) is ||x - p||
    (*_one_point_affine_pair(16, 8), 1.6, 2.2, RelaxationPair(1.6, 2.2), 800, None),
], ids=["affine-d40-plus", "affine-d9-minus", "affine-d40-blocks",
        "boxes-kept-rows", "affine-d9-nu-one", "affine-d12-t-lambda-one",
        "nested-affine-t-relaxes-pb", "lines-t-spec-mislabelled",
        "affine-d16-one-point"])
def test_battery_margins_keep_the_bits_of_the_plain_expressions(
        monkeypatch, sets, inter, lam_t, mu_u, pair, n, t_spec):
    a, b = sets
    inter = inter if inter is not None else intersect_affine(a, b)
    t = (relax(projection_operator(a), lam_t) if t_spec is None
         else configio.operator_from_dict(t_spec, sets))
    u = relax(projection_operator(b), mu_u)
    w = inter.project(np.zeros(a.dim))
    probe = ProbeConfig(center=w, radius=2.0, sample_count=n, seed=5)
    margins = []
    report = diagnostics._report

    def kept(name, m, *args, **kwargs):
        margins.append(np.array(m))
        return report(name, m, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "_report", kept)
    _, kappa_hat = diagnostics._product_probes(a, b, t, u, pair, w, inter, probe)
    assert probe.samples.tobytes() == plain_sample(probe).tobytes()
    expected, kappa = plain_battery_margins(a, b, t, u, pair, w, inter, probe)
    assert len(margins) == len(expected) == 9
    for got, want in zip(margins, expected):
        assert got.tobytes() == want.tobytes()
    assert kappa_hat == kappa
    mislabelled = (lam_t, mu_u) != (pair.lam, pair.mu)
    assert any(m.min() < -1e-9 for m in margins) == mislabelled


def _caching(op):
    """op as a user Operator that hands out one writeable array per input,
    the same object on every call with equal input."""
    cache = {}

    def fn(v):
        key = (v.shape, v.tobytes())
        if key not in cache:
            cache[key] = np.array(op(v))
        return cache[key]

    return Operator(fn, "cached", op.dim), cache


def _boxes_d50():
    """Boxes in R^50 whose intersection holds 266 of the 2000 samples of
    B(0, 2) at seed 3; the operators are built at each call."""
    d = 50
    a, b = Box(-np.ones(d), np.ones(d)), Box(-0.5 * np.ones(d), 2.0 * np.ones(d))
    t, u = relax(projection_operator(a), 1.5), relax(projection_operator(b), 2.5)
    return (a, b, t, u, RelaxationPair(1.5, 2.5), np.zeros(d),
            Box(-0.5 * np.ones(d), np.ones(d)))


def test_battery_masks_the_rows_in_the_intersection_within_four_arrays():
    # lb2 and kappa_hat drop the 266 rows by a mask over the battery's
    # whole images, so no image of the kept rows is held beside them
    battery = _boxes_d50()
    n, d = 2000, 50

    def peak():
        probe = ProbeConfig(center=np.zeros(d), radius=2.0, sample_count=n, seed=3)
        probe.samples  # drawn before the count
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            named, _ = diagnostics._product_probes(*battery, probe)
            return tracemalloc.get_traced_memory()[1] - start, named
        finally:
            tracemalloc.stop()

    peak()  # lazy imports and caches
    used, named = peak()
    assert named[-1][1].samples == 1734
    assert used <= 4.0 * n * d * 8


BOXES_D50_LINES = [
    "PROBE cutter PASS margin=-0 samples=2000 seed=3",
    "PROBE cutter PASS margin=-0 samples=2000 seed=3",
    "PROBE relaxed-cutter PASS margin=0 samples=2000 seed=3",
    "PROBE relaxed-cutter PASS margin=-1.11022e-16 samples=2000 seed=3",
    "PROBE demicontraction PASS margin=0 samples=2000 seed=3",
    "PROBE demicontraction PASS margin=-1.77636e-15 samples=2000 seed=3",
    "PROBE cutter PASS margin=-0 samples=2000 seed=3",
    "PROBE lb1 PASS margin=0 samples=2000 seed=3",
    "PROBE lb2 PASS margin=0.000147793 samples=1734 seed=3",
]


def test_battery_makes_one_image_per_operator_when_rows_are_dropped(monkeypatch):
    # P_A(X), P_B(X), U(T(X)) = P_B(T(X)) and d(X, A n B), each on the
    # whole sample; T(X) and U(X) are made of P_A(X) and P_B(X).  No image
    # is made again on the 1734 rows that lb2 and kappa_hat keep
    batches = []
    project = Box._project

    def counted(self, x):
        if x.ndim == 2 and len(x) > 5:
            batches.append(len(x))
        return project(self, x)

    monkeypatch.setattr(Box, "_project", counted)  # before the operators bind it
    probe = ProbeConfig(center=np.zeros(50), radius=2.0, sample_count=2000, seed=3)
    named, kappa_hat = diagnostics._product_probes(*_boxes_d50(), probe)
    assert batches == [2000] * 4
    assert [rep.line() for _, rep in named] == BOXES_D50_LINES
    assert kappa_hat == 1.178640703572916


def test_battery_writes_into_no_operator_image_or_sample():
    a, b = _affine_pair(12, 3)
    inter = intersect_affine(a, b)
    w = inter.project(np.zeros(12))
    pair = RelaxationPair(1.4, 2.5)
    plain_t = relax(projection_operator(a), 1.4)
    plain_u = relax(projection_operator(b), 2.5)
    t, t_cache = _caching(plain_t)
    u, u_cache = _caching(plain_u)
    probe = ProbeConfig(center=w, radius=2.0, sample_count=400, seed=6)
    sample = probe.samples.copy()

    def lines(t, u):
        named, kappa_hat = diagnostics._product_probes(a, b, t, u, pair, w,
                                                       inter, probe)
        return [rep.line() for _, rep in named] + [kappa_hat]

    first = lines(t, u)
    kept = [{k: v.copy() for k, v in c.items()} for c in (t_cache, u_cache)]
    assert lines(t, u) == first
    assert lines(plain_t, plain_u) == first
    x = probe.samples
    assert x.tobytes() == sample.tobytes()
    tx = t_cache[(x.shape, x.tobytes())]
    assert tx.tobytes() == plain_t(x).tobytes()
    assert u_cache[(x.shape, x.tobytes())].tobytes() == plain_u(x).tobytes()
    assert u_cache[(tx.shape, tx.tobytes())].tobytes() == plain_u(tx).tobytes()
    for cache, copies in zip((t_cache, u_cache), kept):
        assert cache.keys() == copies.keys()
        for key, image in cache.items():
            assert image.tobytes() == copies[key].tobytes()


# ---------------------------------------------------------------------------
# moduli estimators

def test_regularity_modulus_of_projection_is_one():
    d = regularity_modulus_estimate(projection_operator(LINE_A), LINE_A, PROBE)
    assert abs(d - 1.0) < 1e-9


def test_regularity_modulus_scales_with_relaxation():
    base = regularity_modulus_estimate(projection_operator(LINE_A), LINE_A, PROBE)
    for lam in (0.5, 2.5):
        scaled = regularity_modulus_estimate(
            relax(projection_operator(LINE_A), lam), LINE_A.distance, PROBE)
        assert abs(scaled - lam) < 1e-9
        assert abs(scaled - lam * base) < 1e-9


def test_regularity_modulus_identity_is_degenerate():
    # Fix I is the whole space: every sample lies on it
    with pytest.raises(EstimationError):
        regularity_modulus_estimate(identity(), lambda x: np.zeros(len(x)), PROBE)


def test_regularity_modulus_of_the_product_against_the_intersection():
    # Fix P_B P_A = A n B = {0}.  The estimate is pinned bit for bit, and
    # it bounds the exact modulus sigma_min(I - P_B P_A) from above
    pa, pb = projection_operator(LINE_A), projection_operator(LINE_B)
    est = regularity_modulus_estimate(compose(pb, pa),
                                      intersect_affine(LINE_A, LINE_B), PROBE)
    assert est == 0.2284252332844248
    m = np.eye(2) - np.outer(U_PI6, U_PI6) @ np.diag([1.0, 0.0])
    assert np.linalg.svd(m, compute_uv=False)[-1] <= est


def test_pair_regularity_two_lines_matches_grid_oracle():
    inter = intersect_affine(LINE_A, LINE_B)
    oracle = grid_kappa(LINE_A, LINE_B, inter)
    # the grid max approaches the supremum 1/sin(pi/12) from below
    assert oracle <= KAPPA_PI6 + 1e-9
    assert abs(oracle - KAPPA_PI6) < 5e-4
    probe = ProbeConfig(center=ORIGIN, radius=2.0, sample_count=200000, seed=4)
    est = pair_regularity_estimate(LINE_A, LINE_B, inter, probe)
    assert est <= KAPPA_PI6 + 1e-9       # lower bound on the supremum
    assert est > KAPPA_PI6 - 0.05        # dense sampling approaches it


def test_pair_regularity_identical_sets_is_one():
    probe = ProbeConfig(center=ORIGIN, radius=2.0, sample_count=2000, seed=5)
    est = pair_regularity_estimate(LINE_A, LINE_A, LINE_A, probe)
    assert abs(est - 1.0) < 1e-12


def test_pair_regularity_perpendicular_lines():
    vert = Hyperplane([1.0, 0.0], 0.0)
    inter = intersect_affine(LINE_A, vert)
    oracle = grid_kappa(LINE_A, vert, inter)
    assert abs(oracle - math.sqrt(2.0)) < 5e-4  # bisector maximizer
    probe = ProbeConfig(center=ORIGIN, radius=2.0, sample_count=100000, seed=6)
    est = pair_regularity_estimate(LINE_A, vert, inter, probe)
    assert est <= math.sqrt(2.0) + 1e-9
    assert est > math.sqrt(2.0) - 0.02


def test_one_probe_config_serves_fresh_operators_like_fresh_configs():
    # a probe config shares its sample and nothing else: operators built
    # one after another, each freed before the next (so an id may be
    # reused), get the reports that fresh probe configs give them
    inter = intersect_affine(LINE_A, LINE_B)

    def battery(probe_for):
        out = []
        for lam in (0.5, 3.0, 1.5, 3.0, 0.5, 2.5):
            t = relax(projection_operator(LINE_A), lam)
            u = relax(projection_operator(LINE_B), 1.2)
            pair = RelaxationPair(lam, 1.2)
            probe = probe_for()
            reps = [cutter_check(t, [ORIGIN], probe),
                    relaxed_cutter_check(t, lam, [ORIGIN], probe),
                    demicontraction_check(t, (lam - 2.0) / lam, [ORIGIN], probe),
                    lb1_check(t, u, pair, [ORIGIN], probe),
                    lb2_check(t, u, pair, inter, probe)]
            out += [(r.line(), r.margin, len(r.violations)) for r in reps]
            out.append(pair_regularity_estimate(LINE_A, LINE_B, inter, probe))
            del t, u
        return out

    def fresh():
        return ProbeConfig(center=ORIGIN, radius=2.0, sample_count=500, seed=9)

    shared = fresh()
    assert battery(lambda: shared) == battery(fresh)


def _nan_every_seventh(dist):
    """dist, reading NaN on every seventh row of a batch."""
    def with_nan(x):
        d = np.array(dist(x), dtype=float)
        d[::7] = np.nan
        return d
    return with_nan


def test_regularity_modulus_keeps_nan_distances():
    # samples are kept as lb2 keeps them: a NaN distance to Fix T is not
    # on the fixed set, so it reaches the estimate
    probe = ProbeConfig(center=ORIGIN, radius=2.0, sample_count=200, seed=3)
    pa = projection_operator(LINE_A)
    assert abs(regularity_modulus_estimate(pa, LINE_A, probe) - 1.0) < 1e-12
    assert math.isnan(regularity_modulus_estimate(
        pa, _nan_every_seventh(LINE_A.distance), probe))


def test_pair_regularity_keeps_nan_distances():
    # a NaN d(x, A) makes max{d(x, A), d(x, B)} NaN; its row is kept, so
    # the estimate is NaN rather than the estimate without that row
    vert = Hyperplane([1.0, 0.0], 0.0)
    inter = intersect_affine(LINE_A, vert)
    probe = ProbeConfig(center=ORIGIN, radius=2.0, sample_count=200, seed=3)
    assert pair_regularity_estimate(LINE_A, vert, inter, probe) == 1.4141771156996523
    assert math.isnan(pair_regularity_estimate(
        _nan_every_seventh(LINE_A.distance), vert, inter, probe))


def test_pair_regularity_takes_distance_callables():
    inter = intersect_affine(LINE_A, LINE_B)
    assert pair_regularity_estimate(LINE_A.distance, LINE_B.distance,
                                    inter.distance, PROBE) \
        == pair_regularity_estimate(LINE_A, LINE_B, inter, PROBE)


def test_pair_regularity_monotone_in_sample_count():
    inter = intersect_affine(LINE_A, LINE_B)
    vals = []
    for n in (100, 1000, 10000):
        # nested sampling: same seed, growing prefix
        pts = sample_ball(ProbeConfig(center=ORIGIN, radius=2.0,
                                      sample_count=10000, seed=7))[:n]
        dm = np.maximum(LINE_A.distance(pts), LINE_B.distance(pts))
        keep = dm > 1e-9
        vals.append(float(np.max(inter.distance(pts[keep]) / dm[keep])))
    assert vals[0] <= vals[1] <= vals[2]


# ---------------------------------------------------------------------------
# trace-based certificates

def map_trace(n=30, x0=None):
    x0 = U_PI6.copy() if x0 is None else x0
    return run_map(LINE_A, LINE_B, x0, n, solution=ORIGIN)


def test_rate_certificate_map_q_factor():
    # start on B so every step contracts by exactly cos^2(pi/6) = 3/4
    tr = map_trace(60)
    rep = rate_certificate(tr, ORIGIN, epsilon=2.0 / 3.0, delta=0.0,
                           nu_value=4.0 / 3.0, converged_tol=1e-6)
    assert rep.passed                      # delta = 0: vacuous rate bound 1
    assert abs(rep.q_factor - 0.75) < 1e-6


def test_rate_certificate_inconclusive_on_short_trace():
    tr = map_trace(3)
    rep = rate_certificate(tr, ORIGIN, epsilon=1.0, delta=0.0, nu_value=4.0 / 3.0)
    assert rep.skipped and not rep.passed
    assert "inconclusive" in rep.note


def test_rate_certificate_new_method_beats_certified_rate():
    t, u = new_method_ops()
    pair = RelaxationPair(3.0, 1.0)
    cfg = IterationConfig(pair=pair, x0=np.array([1.0, 0.0]), epsilon=1.0,
                          alpha=1.0, max_iter=2000, residual_tol=1e-10)
    tr = iterate(t, u, cfg)
    from cutterkit import delta_projections
    delta = delta_projections(pair, KAPPA_PI6)
    rep = rate_certificate(tr, ORIGIN, epsilon=1.0, delta=delta, nu_value=4.0)
    assert rep.passed
    assert rep.q_factor < 1.0


def test_fejer_check_all_three_drivers():
    x0 = np.array([1.0, 0.0])
    inter = intersect_affine(LINE_A, LINE_B)
    t, u = new_method_ops()
    cfg = IterationConfig(pair=RelaxationPair(3.0, 1.0), x0=x0, epsilon=1.0,
                          alpha=1.0, max_iter=200, residual_tol=1e-10)
    traces = [
        run_map(LINE_A, LINE_B, x0, 100),
        run_dr(LINE_A, LINE_B, x0, 100),
        iterate(t, u, cfg),
    ]
    for tr in traces:
        rep = fejer_check(tr, ORIGIN, intersection_distance=inter)
        assert rep.passed and rep.margin > -1e-9


def test_fejer_check_constant_trace_and_corruption():
    w = np.array([0.5, 0.25])
    const = Trace(iterates=np.tile(w, (5, 1)), residuals=[0.0] * 4,
                  step_sizes=[1.0] * 4)
    rep = fejer_check(const, w)
    assert rep.passed and abs(rep.margin) < 1e-15
    tr = map_trace(20)
    bad = tr.iterates.copy()
    bad[10] *= 2.0  # push one iterate outward
    rep = fejer_check(Trace(iterates=bad, residuals=tr.residuals,
                            step_sizes=tr.step_sizes), ORIGIN)
    assert not rep.passed
    idx = [np.where((v[1] == bad[:-1]).all(axis=1))[0] for v in rep.violations]
    assert any(9 in i for i in idx)  # the jump into iterate 10 breaks monotonicity


def test_dc_gap_check_three_drivers():
    x0 = np.array([1.0, 0.0])
    t, u = new_method_ops()
    cfg = IterationConfig(pair=RelaxationPair(3.0, 1.0), x0=x0, epsilon=1.0,
                          alpha=1.0, max_iter=100, residual_tol=1e-300)
    for tr, n, eps in [
        (run_map(LINE_A, LINE_B, x0, 100), 4.0 / 3.0, 2.0 / 3.0),
        (run_dr(LINE_A, LINE_B, x0, 100), 2.0, 1.0),
        (iterate(t, u, cfg), 4.0, 1.0),
    ]:
        rep = dc_gap_check(tr, ORIGIN, n, eps)
        assert rep.passed and rep.margin > -1e-9


def test_dc_gap_check_validation():
    tr = map_trace(5)
    with pytest.raises(UsageError):
        dc_gap_check(tr, ORIGIN, 4.0 / 3.0, 0.0)


def test_dc_gap_check_rejects_a_negative_nu():
    with pytest.raises(UsageError, match="^recovered alpha_k must be positive$"):
        dc_gap_check(map_trace(5), ORIGIN, -1.0, 1.0)


# ---------------------------------------------------------------------------
# random pairs: lb1/lb2 across set families

@pytest.mark.parametrize("seed", [21, 22, 23])
def test_lb_inequalities_random_hyperplane_pairs(seed):
    rng = np.random.default_rng(seed)
    z0 = rng.standard_normal(2)
    a, b = random_hyperplane_pair(rng, z0)
    lam, mu = random_valid_pair(rng, distinct=True)
    pair = RelaxationPair(lam, mu)
    t = relax(projection_operator(a), lam)
    u = relax(projection_operator(b), mu)
    inter = intersect_affine(a, b)
    probe = ProbeConfig(center=z0, radius=2.0, sample_count=3000, seed=seed)
    assert lb1_check(t, u, pair, [inter.project(z0)], probe).passed
    assert lb2_check(t, u, pair, inter, probe).passed
