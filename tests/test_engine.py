import math
import sys
import warnings

import numpy as np
import pytest

from cutterkit import (AffineSubspace, Ball, Box, DivergenceError, HalfSpace,
                       Hyperplane, IterationConfig, Operator, RelaxationPair,
                       UsageError, compose, identity, iterate,
                       iterate_reformulated, nu, projection_operator, relax,
                       rho_overrelax, run_dr, run_map)
from cutterkit.engine import _norm, _row_norms

U_PI6 = np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)])
LINE_A = Hyperplane([0.0, 1.0], 0.0)
LINE_B = Hyperplane([-math.sin(math.pi / 6), math.cos(math.pi / 6)], 0.0)
X0 = np.array([1.0, 0.0])
ORIGIN = np.zeros(2)


def new_method_ops():
    return relax(projection_operator(LINE_A), 3.0), projection_operator(LINE_B)


# ---------------------------------------------------------------------------
# config validation

def test_config_validation():
    pair = RelaxationPair(1.0, 3.0)
    with pytest.raises(UsageError):
        IterationConfig(pair=pair, x0=X0, epsilon=0.0)
    with pytest.raises(UsageError):
        IterationConfig(pair=pair, x0=X0, residual_tol=0.0)
    with pytest.raises(UsageError):
        IterationConfig(pair=pair, x0=[1.0, np.nan])
    with pytest.raises(UsageError):
        IterationConfig(pair=(1.0, 3.0), x0=X0)


def test_x0_is_a_copy_of_the_callers_point():
    x0 = X0.copy()
    cfg = IterationConfig(pair=RelaxationPair(1.0, 3.0), x0=x0)
    x0[0] = 100.0
    assert np.array_equal(cfg.x0, X0)
    with pytest.raises(ValueError):
        cfg.x0[0] = 1.0


def test_alpha_policies():
    pair = RelaxationPair(1.0, 3.0)
    cfg = IterationConfig(pair=pair, x0=X0, alpha=[1.0, 1.5])
    assert cfg.alpha_at(1) == 1.5
    with pytest.raises(UsageError):
        cfg.alpha_at(2)  # sequence exhausted
    cfg = IterationConfig(pair=pair, x0=X0, alpha=lambda k: 1.0 + 0.1 * k)
    assert cfg.alpha_at(3) == 1.3
    # a run exhausts a sequence at its length
    t, u = new_method_ops()
    cfg = IterationConfig(pair=RelaxationPair(3.0, 1.0), x0=X0, epsilon=0.2,
                          alpha=[1.0, 1.2, 0.8], max_iter=10, residual_tol=1e-300)
    with pytest.raises(UsageError, match="^step sequence exhausted at k=3$"):
        iterate(t, u, cfg)


@pytest.mark.parametrize("alpha", ["x", "1.0", None, 1 + 2j, [[1.0]],
                                   [[1.0], [1.0, 1.2]], [1.0, None]],
                         ids=["string", "numeric-string", "none", "complex",
                              "nested", "ragged", "none-entry"])
def test_alpha_that_is_no_step_schedule_is_a_usage_error(alpha):
    with pytest.raises(UsageError, match="^alpha must be "):
        IterationConfig(pair=RelaxationPair(3.0, 1.0), x0=X0, alpha=alpha)


def test_zero_d_alpha_is_a_constant():
    t, u = new_method_ops()
    runs = []
    for alpha in (1.5, np.array(1.5), np.float64(1.5), np.array([1.5] * 4)):
        cfg = IterationConfig(pair=RelaxationPair(3.0, 1.0), x0=X0, epsilon=0.2,
                              alpha=alpha, max_iter=4, residual_tol=1e-300)
        runs.append(iterate(t, u, cfg).iterates.tobytes())
    assert runs[1:] == runs[:-1]
    cfg = IterationConfig(pair=RelaxationPair(3.0, 1.0), x0=X0, epsilon=0.2,
                          alpha=np.array(1.9), max_iter=4)
    with pytest.raises(UsageError, match=r"^step 0: 1.9 outside \[0.2, 1.8\]$"):
        iterate(t, u, cfg)


# ---------------------------------------------------------------------------
# iterate

def test_identity_operators_stay_put():
    cfg = IterationConfig(pair=RelaxationPair(1.0, 3.0), x0=X0, epsilon=1.0,
                          alpha=1.0, max_iter=5)
    tr = iterate(identity(), identity(), cfg)
    assert np.all(tr.iterates == X0)
    assert tr.residuals == [0.0]


def test_new_method_first_step():
    t, u = new_method_ops()
    cfg = IterationConfig(pair=RelaxationPair(3.0, 1.0), x0=X0, epsilon=1.0,
                          alpha=1.0, max_iter=1, residual_tol=1e-300)
    tr = iterate(t, u, cfg)
    assert np.max(np.abs(tr.iterates[1] - [15.0 / 16.0, math.sqrt(3) / 16])) < 1e-12


def test_map_special_case_matches_run_map():
    # lam = mu = 1, alpha = 4/3 (= nu) makes the step exactly P_B P_A
    cfg = IterationConfig(pair=RelaxationPair(1.0, 1.0), x0=X0, epsilon=2.0 / 3.0,
                          alpha=4.0 / 3.0, max_iter=2, residual_tol=1e-300)
    tr = iterate(projection_operator(LINE_A), projection_operator(LINE_B), cfg)
    tm = run_map(LINE_A, LINE_B, X0, 2)
    assert np.max(np.abs(tr.iterates - tm.iterates)) < 1e-12
    assert np.max(np.abs(tr.iterates[1] - [0.75, math.sqrt(3) / 4])) < 1e-12
    assert np.max(np.abs(tr.iterates[2] - [9.0 / 16.0, 3.0 * math.sqrt(3) / 16])) < 1e-12


def test_iterate_rejects_steps_outside_window():
    t, u = new_method_ops()
    pair = RelaxationPair(3.0, 1.0)
    cfg = IterationConfig(pair=pair, x0=X0, epsilon=0.2, alpha=1.9, max_iter=2)
    with pytest.raises(UsageError, match=r"^step 0: 1\.9 outside \[0\.2, 1\.8\]$"):
        iterate(t, u, cfg)
    # a constant alpha is checked at the first step; no step, no check
    cfg = IterationConfig(pair=pair, x0=X0, epsilon=0.2, alpha=1.9, max_iter=0)
    assert iterate(t, u, cfg).n_steps == 0
    cfg = IterationConfig(pair=pair, x0=X0, epsilon=0.2, alpha=0.1, max_iter=2)
    with pytest.raises(UsageError):
        iterate(t, u, cfg)
    cfg = IterationConfig(pair=pair, x0=X0, epsilon=1.5, alpha=1.0, max_iter=2)
    with pytest.raises(UsageError):
        iterate(t, u, cfg)  # eps > 1: empty window


def test_iterate_dimension_mismatch():
    t, u = new_method_ops()
    cfg = IterationConfig(pair=RelaxationPair(3.0, 1.0), x0=[1.0, 0.0, 0.0],
                          epsilon=1.0, alpha=1.0)
    with pytest.raises(UsageError, match="^operator dimension 2 does not "
                                         "match x0 dimension 3$"):
        iterate(t, u, cfg)
    # T against U is compose's check
    u3 = projection_operator(Hyperplane([0.0, 1.0, 0.0], 0.0))
    with pytest.raises(UsageError, match="^operator dimensions differ: 3 vs 2$"):
        iterate(t, u3, cfg)


# ---------------------------------------------------------------------------
# reformulated driver

def test_reformulated_matches_iterate_under_alpha_over_nu():
    t, u = new_method_ops()
    pair = RelaxationPair(3.0, 1.0)
    n = nu(pair)
    cfg = IterationConfig(pair=pair, x0=X0, epsilon=0.5, alpha=1.2,
                          max_iter=25, residual_tol=1e-300)
    tr1 = iterate(t, u, cfg)
    cfg2 = IterationConfig(pair=pair, x0=X0, epsilon=0.5 / n, alpha=1.2 / n,
                           max_iter=25, residual_tol=1e-300)
    tr2 = iterate_reformulated(t, u, cfg2)
    assert np.max(np.abs(tr1.iterates - tr2.iterates)) < 1e-12
    assert tr1.step_sizes == tr2.step_sizes


def test_reformulated_quarter_step_is_unit_alpha():
    t, u = new_method_ops()
    pair = RelaxationPair(3.0, 1.0)
    cfg = IterationConfig(pair=pair, x0=X0, epsilon=0.25, alpha=0.25,
                          max_iter=5, residual_tol=1e-300)
    tr = iterate_reformulated(t, u, cfg)
    cfg2 = IterationConfig(pair=pair, x0=X0, epsilon=1.0, alpha=1.0,
                           max_iter=5, residual_tol=1e-300)
    tr2 = iterate(t, u, cfg2)
    assert np.max(np.abs(tr.iterates - tr2.iterates)) < 1e-12


def test_reformulated_window_is_strict_about_upper_edge():
    t, u = new_method_ops()
    pair = RelaxationPair(3.0, 1.0)
    rho = rho_overrelax(pair)
    cfg = IterationConfig(pair=pair, x0=X0, epsilon=1e-6, alpha=1.0 + rho,
                          max_iter=2)
    with pytest.raises(UsageError):
        iterate_reformulated(t, u, cfg)  # 1 + rho > 1 + rho - eps
    cfg = IterationConfig(pair=pair, x0=X0, epsilon=0.4, alpha=0.2, max_iter=2)
    with pytest.raises(UsageError):
        iterate_reformulated(t, u, cfg)  # empty window: eps > (1 + rho)/2


# ---------------------------------------------------------------------------
# fixed-step drivers

def test_run_map_paper_iterates():
    tr = run_map(LINE_A, LINE_B, X0, 2)
    assert np.max(np.abs(tr.iterates[1] - [0.75, math.sqrt(3) / 4])) < 1e-12
    assert np.max(np.abs(tr.iterates[2] - [9.0 / 16.0, 3.0 * math.sqrt(3) / 16])) < 1e-12
    assert tr.step_sizes == [1.0, 1.0]


def test_run_map_zero_steps_and_identical_sets():
    tr = run_map(LINE_A, LINE_B, X0, 0)
    assert tr.iterates.shape == (1, 2)
    assert tr.residuals == []
    tr = run_map(LINE_A, LINE_A, np.array([0.3, 1.7]), 5)
    assert np.max(np.abs(tr.iterates[1] - [0.3, 0.0])) < 1e-15


def test_run_dr_first_step_and_stationarity():
    tr = run_dr(LINE_A, LINE_B, X0, 1)
    assert np.max(np.abs(tr.iterates[1] - [0.75, math.sqrt(3) / 4])) < 1e-12
    tr = run_dr(LINE_A, LINE_B, ORIGIN, 3)
    assert np.all(tr.iterates == 0.0)


def test_run_drivers_reject_negative_counts():
    with pytest.raises(UsageError):
        run_map(LINE_A, LINE_B, X0, -1)
    with pytest.raises(UsageError):
        run_dr(LINE_A, LINE_B, X0, -1)


BAD_COUNTS = (-1, -1.0, 2.5, "3", True, False, math.nan, math.inf, None, [3])


@pytest.mark.parametrize("n", BAD_COUNTS, ids=repr)
def test_run_drivers_reject_counts_that_are_no_integers(n):
    # the config files' rule for integers: 3 and 3.0 pass, nothing else
    for driver in (run_map, run_dr):
        with pytest.raises(UsageError, match="^max_iter must be an integer >= 0"):
            driver(LINE_A, LINE_B, X0, n)


@pytest.mark.parametrize("n", BAD_COUNTS, ids=repr)
def test_iteration_config_rejects_max_iter_that_is_no_integer(n):
    with pytest.raises(UsageError, match="^max_iter must be an integer >= 0"):
        IterationConfig(pair=RelaxationPair(3.0, 1.0), x0=X0, max_iter=n)


@pytest.mark.parametrize("n", (3, 3.0, np.int64(3), np.float64(3.0)), ids=repr)
def test_integral_step_counts_run_that_many_steps(n):
    t, u = new_method_ops()
    cfg = IterationConfig(pair=RelaxationPair(3.0, 1.0), x0=X0, epsilon=0.2,
                          max_iter=n, residual_tol=1e-300)
    assert cfg.max_iter == 3 and type(cfg.max_iter) is int
    assert iterate(t, u, cfg).n_steps == 3
    assert run_map(LINE_A, LINE_B, X0, n, residual_tol=1e-300).n_steps == 3
    assert run_dr(LINE_A, LINE_B, X0, n, residual_tol=1e-300).n_steps == 3


# ---------------------------------------------------------------------------
# trace bookkeeping

def test_trace_records_lengths_and_optional_channels():
    t, u = new_method_ops()
    cfg = IterationConfig(pair=RelaxationPair(3.0, 1.0), x0=X0, epsilon=1.0,
                          alpha=1.0, max_iter=7, residual_tol=1e-300)
    tr = iterate(t, u, cfg, solution=ORIGIN)
    n = tr.n_steps
    assert n == 7
    assert tr.iterates.shape == (n + 1, 2)
    assert len(tr.residuals) == len(tr.step_sizes) == n
    assert len(tr.solution_errors) == n + 1
    assert np.all(np.isfinite(tr.iterates))
    assert all(np.isfinite(v) for v in tr.residuals + tr.step_sizes
               + tr.solution_errors)
    # without the optional channel
    tr = iterate(t, u, cfg)
    assert tr.solution_errors is None


def test_divergence_error_carries_partial_trace():
    bad = Operator(lambda x: np.full_like(x, np.nan), label="nan")
    cfg = IterationConfig(pair=RelaxationPair(1.0, 1.0), x0=X0, epsilon=1.0,
                          alpha=1.0, max_iter=10)
    with pytest.raises(DivergenceError) as exc:
        iterate(bad, identity(), cfg, solution=ORIGIN)
    assert exc.value.trace.iterates.shape == (1, 2)
    assert exc.value.trace.solution_errors == [1.0]


def test_residuals_decrease_on_paper_problem_for_all_drivers():
    t, u = new_method_ops()
    cfg = IterationConfig(pair=RelaxationPair(3.0, 1.0), x0=X0, epsilon=1.0,
                          alpha=1.0, max_iter=30, residual_tol=1e-300)
    traces = [
        run_map(LINE_A, LINE_B, X0, 30),
        run_dr(LINE_A, LINE_B, X0, 30),
        iterate(t, u, cfg),
    ]
    for tr in traces:
        res = np.asarray(tr.residuals)
        assert np.all(np.diff(res) <= 1e-15)
        assert res[-1] < res[0] * 0.05


def test_fejer_gaps_are_nonnegative_on_paper_problem():
    tr = run_map(LINE_A, LINE_B, X0, 20)
    d2 = np.linalg.norm(tr.iterates - ORIGIN, axis=1) ** 2
    assert np.min(d2[:-1] - d2[1:]) > -1e-15


@pytest.mark.parametrize("driver, steps", [(run_map, 77), (run_dr, 162)])
def test_baselines_stop_at_residual_tol(driver, steps):
    tr = driver(LINE_A, LINE_B, X0, 2000, residual_tol=1e-10)
    assert tr.n_steps == steps
    assert tr.final_residual <= 1e-10
    assert all(r > 1e-10 for r in tr.residuals[:-1])


def test_residuals_and_errors_match_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(17)
    d = 50
    a = Hyperplane(rng.standard_normal(d), 0.0)
    b = Hyperplane(rng.standard_normal(d), 0.0)
    t, u = relax(projection_operator(a), 3.0), projection_operator(b)
    solution = rng.standard_normal(d) * 1e-3
    cfg = IterationConfig(pair=RelaxationPair(3.0, 1.0),
                          x0=rng.standard_normal(d) * 7.0, epsilon=0.4,
                          alpha=lambda k: (0.4, 1.6, 1.1)[k % 3], max_iter=200,
                          residual_tol=1e-300)
    tr = iterate(t, u, cfg, solution=solution)
    assert tr.n_steps == 200
    xs = tr.iterates
    assert tr.residuals == [float(np.linalg.norm(u(t(x)) - x)) for x in xs[:-1]]
    assert tr.solution_errors == [float(np.linalg.norm(x - solution)) for x in xs]


@pytest.mark.parametrize("d", (1, 2, 5, 30, 33, 50, 100))
def test_solution_errors_column_keeps_the_bits_of_norm_per_row(d):
    # run's error column is one stacked matmul; it must read like _norm
    # of each row, also where the square leaves the normal range or a row
    # is not finite, and without a warning
    rng = np.random.default_rng(d)
    rows = rng.standard_normal((24, d)) * 10.0 ** rng.uniform(-4, 4, (24, 1))
    rows[1] = 0.0
    rows[2] *= 1e160          # the square overflows: math.hypot
    rows[3] *= 1e-160         # the square is subnormal or zero: math.hypot
    rows[4] = 1e300
    rows[5] = 5e-324
    rows[6, 0] = math.inf
    rows[7, -1] = -math.inf
    rows[8, 0] = math.nan
    rows[9, 0], rows[9, -1] = math.inf, math.nan
    rows[10] = 1e-154         # near the lower edge of the normal square
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _row_norms(rows)
        want = [_norm(v) for v in rows]
        assert _row_norms(rows[:1]) == want[:1]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert all(type(e) is float for e in got)


# ---------------------------------------------------------------------------
# step edge cases

def test_far_out_finite_start_on_the_fixed_set_warns_nothing():
    # x . x overflows at |x| = 1e200; the iterate is still finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = run_map(LINE_A, LINE_A, [1e200, 0.0], 3)
    assert tr.iterates.tobytes() == np.array([[1e200, 0.0]] * 2).tobytes()
    assert tr.residuals == [0.0]


def test_steps_longer_than_about_1e154_are_taken_without_warning():
    # ||W(x) - x||^2 and ||x - x*||^2 overflow here; the residuals and the
    # solution errors fall back to a scaled norm instead of reading as
    # non-finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = run_map(LINE_A, LINE_B, [0.0, 1e160], 5, solution=ORIGIN)
        far = run_map(LINE_A, LINE_B, [1e160, 1e160], 5, solution=ORIGIN)
    # one step of length 1e160 onto the common point, then a zero step
    assert tr.residuals == [1e160, 0.0]
    assert tr.solution_errors == [1e160, 0.0, 0.0]
    assert far.n_steps == 5
    steps = np.diff(far.iterates, axis=0)
    assert far.residuals == pytest.approx([math.hypot(*s) for s in steps],
                                          rel=1e-12)
    assert far.solution_errors == [math.hypot(*x) for x in far.iterates]
    # MAP contracts by cos^2(pi/6) per step once on B
    assert far.solution_errors[-1] == pytest.approx(
        far.solution_errors[1] * 0.75 ** 4, rel=1e-12)


def test_norms_below_about_1e154_fall_back_to_hypot():
    # ||x - x*||^2 and ||W(x) - x||^2 leave the normal range below about
    # 1.5e-154; there the norms are math.hypot of the row, not the square
    # root of a subnormal or zero square
    tr = run_map(LINE_A, LINE_B, X0, 5000, solution=ORIGIN)
    tiny = math.sqrt(sys.float_info.min)
    errs, xs = tr.solution_errors, tr.iterates
    assert min(errs) < 1e-300
    # strictly decreasing while the iterates are normal floats
    assert np.all(np.diff([e for e in errs if e >= 1e-300]) < 0)
    low = [k for k, e in enumerate(errs) if e < tiny]
    assert low and [errs[k] for k in low] == [math.hypot(*xs[k]) for k in low]
    w = compose(projection_operator(LINE_B), projection_operator(LINE_A))
    low = [k for k, r in enumerate(tr.residuals) if r < tiny]
    assert low and [tr.residuals[k] for k in low] == \
        [math.hypot(*(w(xs[k]) - xs[k])) for k in low]
    # MAP from (1, 0) on A has ||x^k|| = cos^{2k-1}(pi/6) for k >= 1
    c = math.cos(math.pi / 6)
    for k, e in enumerate(errs[1:], start=1):
        if e < 1e-300:
            break
        assert e == pytest.approx(c ** (2 * k - 1), rel=1e-12), k


def _flip_run(x0):
    # W(x) = -x with the step 1.4 gives x <- -1.8 x, so ||x|| grows by 1.8
    # per step; 1.4 (W(x) - x) overflows while W(x) - x is still finite
    flip = Operator(lambda x: -x, label="flip")
    cfg = IterationConfig(pair=RelaxationPair(1.0, 1.0), x0=x0, epsilon=0.1,
                          alpha=1.4, max_iter=100, residual_tol=1e-300)
    return iterate_reformulated(flip, identity(), cfg, solution=ORIGIN)


# from 4e307 the second step overflows; from 1e301 every step is past 1e300;
# from 1e290 the running norm bound crosses 1e300 in mid-run
@pytest.mark.parametrize("x0, step", [(4e307, 1), (1e301, 27), (1e290, 70)])
def test_overflowing_iterate_raises_at_its_step_with_the_partial_trace(x0, step):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError,
                           match=f"^non-finite iterate at step {step}$") as exc:
            _flip_run([x0, 0.0])
    # the step's own overflow, and no warning from the finiteness test
    assert [(type(w.message), str(w.message)) for w in caught] == [
        (RuntimeWarning, "overflow encountered in multiply")]
    xs = [np.array([x0, 0.0])]
    for _ in range(step):
        xs.append(xs[-1] + 1.4 * (-xs[-1] - xs[-1]))
    tr = exc.value.trace
    assert tr.iterates.tobytes() == np.array(xs).tobytes()
    assert tr.residuals == [abs(2.0 * x[0]) for x in xs[:-1]]
    assert tr.step_sizes == [1.4] * step
    assert tr.solution_errors == [abs(x[0]) for x in xs]


@pytest.mark.parametrize("alpha, step", [
    (math.nan, 0), ([1.0, math.nan, 1.0], 1),
    (lambda k: 1.0 if k < 3 else math.nan, 3)])
def test_nan_alpha_is_outside_the_step_window(alpha, step):
    # a NaN alpha_k fails the window test at its step, before it could
    # make the iterate NaN
    t, u = new_method_ops()
    cfg = IterationConfig(pair=RelaxationPair(3.0, 1.0), x0=X0, epsilon=0.5,
                          alpha=alpha, max_iter=10, residual_tol=1e-300)
    with pytest.raises(UsageError,
                       match=rf"^step {step}: nan outside \[0\.5, 1\.5\]$"):
        iterate(t, u, cfg)


@pytest.mark.parametrize("cset", [Ball([0.5, -0.5], 1.5), Box([-1.0, 0.0], [1.0, 2.0]),
                                  AffineSubspace([1.0, 2.0], [[1.0, 1.0]])])
def test_a_user_map_of_the_wrong_length_stops_the_loop_before_a_projection(cset):
    # the loop calls W's map on x^k unchecked; compose checks T's output
    first = Operator(lambda x: x[..., :1], label="first")
    cfg = IterationConfig(pair=RelaxationPair(1.0, 2.5), x0=[0.3, 0.4], epsilon=0.5)
    with pytest.raises(UsageError, match="dimension mismatch"):
        iterate(first, relax(projection_operator(cset), 2.5), cfg)


def test_user_operators_returning_lists_or_int_arrays():
    as_list = Operator(lambda x: [v + 1.0 for v in x], label="list")
    as_int = Operator(lambda x: np.rint(x).astype(int), label="int")
    double = Operator(lambda x: x * 2, label="double")  # a list would repeat
    x = np.array([0.4, -1.6])
    for op, want in ((compose(double, as_list), (x + 1.0) * 2),
                     (compose(double, as_int), np.rint(x) * 2),
                     (relax(as_list, 0.5), x + 0.5 * ((x + 1.0) - x)),
                     (relax(as_int, 3.0), x + 3.0 * (np.rint(x) - x))):
        got = op(x)
        assert got.dtype == float
        assert got.tobytes() == want.tobytes()
    # lam = mu = 1 and alpha = nu make the step x <- U T x
    cfg = IterationConfig(pair=RelaxationPair(1.0, 1.0), x0=[2.4, -1.6],
                          epsilon=0.1, alpha=4.0 / 3.0, max_iter=3)
    tr = iterate(as_int, as_list, cfg)
    assert tr.iterates.tolist() == [[2.4, -1.6], [3.0, -1.0], [4.0, 0.0], [5.0, 1.0]]


# ---------------------------------------------------------------------------
# bit-for-bit reference: the loop and the projections written out with
# nested Operator calls, np.multiply.outer, np.isfinite(x).all() and a
# per-step alpha_at

def _ref_project(cset, x):
    x = np.asarray(x, dtype=float)
    if isinstance(cset, (Hyperplane, HalfSpace)):
        s = (x @ cset.normal - cset.offset) / float(cset.normal @ cset.normal)
        if isinstance(cset, HalfSpace):
            s = np.maximum(s, 0.0)
        return x - np.multiply.outer(s, cset.normal)
    if isinstance(cset, AffineSubspace):
        q = cset.basis.T
        return cset.anchor + ((x - cset.anchor) @ q) @ q.T
    if isinstance(cset, Ball):
        d = x - cset.center
        n = np.linalg.norm(d, axis=-1, keepdims=True)
        scale = np.where(n > cset.radius, cset.radius / np.where(n > 0, n, 1.0), 1.0)
        return cset.center + scale * d
    return np.clip(x, cset.lo, cset.hi)


def _ref_relax(t, lam):
    return t if lam == 1.0 else Operator(lambda x: x + lam * (t(x) - x))


def _ref_run(w, x0, coeff_at, max_iter, residual_tol, solution):
    x = np.asarray(x0, dtype=float)
    xs, res, steps = [x], [], []
    for k in range(max_iter):
        dx = np.asarray(w(x), dtype=float) - x
        r = math.sqrt(dx @ dx)
        assert math.isfinite(r)
        c = coeff_at(k)
        x = x + c * dx
        assert np.isfinite(x).all()
        res.append(r)
        steps.append(c)
        xs.append(x)
        if r <= residual_tol:
            break
    xs = np.array(xs)
    return xs, res, steps, [math.sqrt(e @ e) for e in xs - solution]


def _reference_pairs():
    rng = np.random.default_rng(2025)
    d = 5
    p = rng.standard_normal(d)

    def unit():
        v = rng.standard_normal(d)
        return v / np.linalg.norm(v)

    n1, n2 = unit(), unit()
    diag = np.full(d, d ** -0.5)
    # thin intersections at p, so that every run takes many steps
    corner = Box(p - 1.0, p + 0.005)
    ball = Ball(p + 0.59 * diag, 0.6)
    return p, unit, {
        "hyperplanes": (Hyperplane(n1, n1 @ p), Hyperplane(n2, n2 @ p)),
        "affine": (AffineSubspace(p, rng.standard_normal((3, d))),
                   AffineSubspace(p, rng.standard_normal((2, d)))),
        "halfspace-ball": (HalfSpace(n1, n1 @ p + 0.01), Ball(p + 0.59 * n1, 0.6)),
        "ball-box": (ball, corner),
        "halfspace-box": (HalfSpace(-diag, -diag @ p), corner),
    }


REFERENCE_RUNS = ("iterate-constant", "iterate-sequence", "iterate-callable",
                  "reformulated", "map", "dr")


@pytest.mark.parametrize("run", REFERENCE_RUNS)
@pytest.mark.parametrize("pair", ("hyperplanes", "affine", "halfspace-ball",
                                  "ball-box", "halfspace-box"))
def test_drivers_match_the_reference_loop_bit_for_bit(pair, run):
    p, unit, pairs = _reference_pairs()
    a, b = pairs[pair]
    x0 = p + 3.0 * unit()
    n, tol = 300, 1e-12
    pa = Operator(lambda x: _ref_project(a, x))
    pb = Operator(lambda x: _ref_project(b, x))
    if run in ("map", "dr"):
        driver = run_map if run == "map" else run_dr
        tr = driver(a, b, x0, n, residual_tol=tol, solution=p)
        if run == "map":
            w, c = Operator(lambda x: pb(pa(x))), 1.0
        else:
            ra, rb = _ref_relax(pa, 2.0), _ref_relax(pb, 2.0)
            w, c = Operator(lambda x: rb(ra(x))), 0.5
        want = _ref_run(w, x0, lambda k: c, n, tol, p)
    else:
        lam, mu = (3.0, 1.0) if pair != "affine" else (2.2, 1.5)
        pair_ = RelaxationPair(lam, mu)
        alpha, eps, hi, divisor = {
            "iterate-constant": (1.3, 0.2, 1.8, nu(pair_)),
            "iterate-sequence": ([(0.4, 1.8, 1.2, 0.9)[k % 4] for k in range(n)],
                                 0.2, 1.8, nu(pair_)),
            "iterate-callable": (lambda k: (0.5, 1.6)[k % 2], 0.2, 1.8, nu(pair_)),
            "reformulated": (0.3, 0.05, 1.0 + rho_overrelax(pair_) - 0.05, 1.0),
        }[run]
        cfg = IterationConfig(pair=pair_, x0=x0, epsilon=eps, alpha=alpha,
                              max_iter=n, residual_tol=tol)
        t, u = relax(projection_operator(a), lam), relax(projection_operator(b), mu)
        driver = iterate if run.startswith("iterate") else iterate_reformulated
        tr = driver(t, u, cfg, solution=p)
        rt, ru = _ref_relax(pa, lam), _ref_relax(pb, mu)

        def coeff_at(k):
            a_k = cfg.alpha_at(k)
            assert eps <= a_k <= hi
            return a_k / divisor

        want = _ref_run(Operator(lambda x: ru(rt(x))), x0, coeff_at, n, tol, p)
    xs, res, steps, errs = want
    assert len(res) > 10
    assert tr.iterates.tobytes() == xs.tobytes()
    assert tr.iterates.shape == xs.shape
    assert tr.residuals == res
    assert tr.step_sizes == steps
    assert tr.solution_errors == errs


# ---------------------------------------------------------------------------
# the single-point step written out as it was computed when every layer
# coerced its input: Operator.__call__, compose's np.asarray of T's
# output, each set's own coercion, and the residual through _norm

def _point_project(cset, x):
    x = np.asarray(x, dtype=float)
    if isinstance(cset, (Hyperplane, HalfSpace)):
        s = (x.dot(cset.normal) - cset.offset) / float(np.vdot(cset.normal, cset.normal))
        if isinstance(cset, HalfSpace):
            s = s if s > 0.0 or s != s else 0.0
        return x - s * cset.normal
    if isinstance(cset, AffineSubspace):
        return cset.anchor + (x - cset.anchor).dot(cset.basis.T).dot(cset.basis)
    if isinstance(cset, Ball):
        d = x - cset.center
        n = math.sqrt(np.add.reduce(d * d))
        return cset.center + (cset.radius / n if n > cset.radius else 1.0) * d
    return x.clip(cset.lo, cset.hi)


def _point_step_run(a, b, lam, mu, x0, c, n, tol):
    def relaxed(cset, r):
        if r == 1.0:
            return lambda x: _point_project(cset, x)
        r = np.array(r)
        return lambda x: (lambda y: y + r * (_point_project(cset, y) - y))(
            np.asarray(x, dtype=float))

    t, u = relaxed(a, lam), relaxed(b, mu)
    x, xs, res = np.asarray(x0, dtype=float), [], []
    factor = np.array(c)
    for _ in range(n):
        xs.append(x)
        dx = u(np.asarray(t(np.asarray(x, dtype=float)), dtype=float)) - x
        res.append(math.sqrt(np.vdot(dx, dx)))
        x = x + factor * dx
        if res[-1] <= tol:
            break
    xs.append(x)
    return np.array(xs), res


@pytest.mark.parametrize("driver", ("iterate", "run_map", "run_dr"))
@pytest.mark.parametrize("pair", ("hyperplanes", "affine", "halfspace-ball",
                                  "ball-box", "halfspace-box"))
def test_the_point_step_keeps_the_bits_of_the_coercing_layers(pair, driver):
    p, unit, pairs = _reference_pairs()
    a, b = pairs[pair]
    x0 = p + 3.0 * unit()
    n, tol = 300, 1e-12
    if driver == "iterate":
        lam, mu = (3.0, 1.0) if pair != "affine" else (2.2, 1.5)
        cfg = IterationConfig(pair=RelaxationPair(lam, mu), x0=x0, epsilon=0.2,
                              alpha=1.3, max_iter=n, residual_tol=tol)
        tr = iterate(relax(projection_operator(a), lam),
                     relax(projection_operator(b), mu), cfg)
        c = 1.3 / nu(cfg.pair)
    else:
        lam = mu = 1.0 if driver == "run_map" else 2.0
        c = 1.0 if driver == "run_map" else 0.5
        tr = (run_map if driver == "run_map" else run_dr)(a, b, x0, n, residual_tol=tol)
    xs, res = _point_step_run(a, b, lam, mu, x0, c, n, tol)
    assert len(res) > 10
    assert tr.iterates.tobytes() == xs.tobytes()
    assert tr.iterates.shape == xs.shape
    assert tr.residuals == res
