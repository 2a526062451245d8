import math

import numpy as np
import pytest

from cutterkit import (DivergenceError, Hyperplane,
                       IterationConfig, Operator, RelaxationPair, UsageError,
                       identity, iterate, iterate_reformulated, nu,
                       projection_operator, relax, rho_overrelax, run_dr,
                       run_map)

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
    with pytest.raises(UsageError):
        iterate(t, u, cfg)
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
    with pytest.raises(UsageError):
        iterate(t, u, cfg)


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
