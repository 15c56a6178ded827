import os

import numpy as np
import pytest

import kslab.linear_solver as linear_solver
import kslab.nonlinear_solver as nonlinear_solver
from conftest import make_coeff, nonlinear_bd
from kslab.config import RunConfig
from kslab.errors import NoConvergence
from kslab.grid import (GridSpec, Trajectory, diff_t_values, discrete_norm,
                        trajectory_from_callable)
from kslab.linear_solver import zero_boundary_data
from kslab.nonlinear_solver import NonlinearSolveConfig, smallness, solve_ks


def test_config_validation():
    with pytest.raises(ValueError):
        NonlinearSolveConfig(max_picard=0)
    with pytest.raises(ValueError):
        NonlinearSolveConfig(picard_tol=0.0)


def test_zero_data_single_sweep():
    g = GridSpec(16, 16, 1.0)
    coeff = make_coeff(g, gamma=np.ones(17))
    y, rep = solve_ks(coeff, zero_boundary_data(g), NonlinearSolveConfig())
    assert np.all(y.values == 0)
    assert rep.iterations == 1
    assert rep.converged


def test_manufactured_convergence_and_ratios(nonlinear_case):
    errs = []
    for nx, nt in ((32, 64), (64, 128)):
        g = GridSpec(nx, nt, 2.0)
        coeff = make_coeff(g, gamma=np.ones(nx + 1))
        bd = nonlinear_bd(nonlinear_case, g, 1e-2)
        y, rep = solve_ks(coeff, bd, NonlinearSolveConfig())
        assert rep.converged
        assert all(r < 1 for r in rep.ratios)
        assert rep.residual_rel <= 10 * 1e-10
        exact = trajectory_from_callable(
            lambda t, x: nonlinear_case["exact"](t, x, 1e-2), g)
        errs.append(np.abs(y.values - exact.values).max())
    assert np.log2(errs[0] / errs[1]) >= 1.7


def test_delta_sweep_monotone_ratios_and_threshold(nonlinear_case):
    g = GridSpec(32, 32, 2.0)
    coeff = make_coeff(g, gamma=np.ones(33))
    cfg = NonlinearSolveConfig(max_picard=30)
    last = []
    for delta in (1e-2, 1e-1, 1.0):
        _, rep = solve_ks(coeff, nonlinear_bd(nonlinear_case, g, delta), cfg)
        last.append(rep.ratios[-1])
    assert last[0] < last[1] < last[2]

    threshold = None
    delta = 1.0
    while delta <= 1e8:
        delta *= 10
        try:
            solve_ks(coeff, nonlinear_bd(nonlinear_case, g, delta), cfg)
        except NoConvergence as exc:
            threshold = delta
            assert getattr(exc, "report", None) is not None
            break
    assert threshold is not None


@pytest.mark.parametrize("nx,nt", [(1024, 256), (512, 512), (2048, 512)])
def test_manufactured_config_converges_on_fine_grids(nx, nt):
    # the updates reach the linear solver's roundoff here; they must still
    # read as converged, not as data outside the small-data regime
    cfg = RunConfig.from_file(os.path.join(
        os.path.dirname(__file__), "..", "configs", "simulate_manufactured.cfg"))
    g = GridSpec(nx, nt, 2.0)
    y, rep = solve_ks(cfg.coefficients(g), cfg.boundary_data(g),
                      cfg.nonlinear_config())
    assert rep.converged
    exact = trajectory_from_callable(
        lambda t, x: 0.01 * np.exp(-t) * x ** 2 * (1 - x) ** 2, g)
    assert np.abs(y.values - exact.values).max() <= 1e-7  # the config's bound


def test_epsilon_report_smallness(nonlinear_case):
    g = GridSpec(32, 16, 1.0)
    bd = nonlinear_bd(nonlinear_case, g, 1e-2)
    report = smallness(bd)
    assert report is not None
    assert report["y0_H4x"] > 0
    assert set(report) >= {"y0_H4x", "g_F", "h1_H2t", "h4_H2t"}


def test_smallness_integrates_g_in_time_by_the_trapezoid_rule(nonlinear_case):
    # g_F^2 = int_0^T |g(t)|_H4^2 dt + |g_t|_L2Q^2, the time integral with
    # half weights at t = 0 and T, where this g is not zero
    g = GridSpec(32, 16, 1.0)
    bd = nonlinear_bd(nonlinear_case, g, 1e-2)
    weights = np.full(g.nt + 1, g.dt)
    weights[[0, -1]] = g.dt / 2
    h4_sq = [discrete_norm(row, "H4x", g) ** 2 for row in bd.g.values]
    g_t = Trajectory(diff_t_values(bd.g.values, g, 1), g)
    oracle = np.sqrt(weights @ h4_sq + discrete_norm(g_t, "L2Q") ** 2)
    assert smallness(bd)["g_F"] == pytest.approx(oracle, rel=1e-12)


def test_one_cn_build_per_coefficient_field(monkeypatch, nonlinear_case):
    counts = {"_principal_part": 0, "dgbtrf": 0, "solve_linear_full": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(linear_solver, "_principal_part")
    counted(linear_solver, "dgbtrf")
    counted(nonlinear_solver, "solve_linear_full")
    g = GridSpec(16, 16, 1.0)
    coeff = make_coeff(g, gamma=np.ones(17))
    bd = nonlinear_bd(nonlinear_case, g, 1e-2)
    _, rep = solve_ks(coeff, bd, NonlinearSolveConfig())
    assert rep.iterations >= 2
    # one linear solve per sweep plus the first, on one CN system
    calls = rep.iterations + 1
    assert counts == {"_principal_part": 1, "dgbtrf": 1,
                      "solve_linear_full": calls}
    # a second solve on the same field reuses that system
    _, again = solve_ks(coeff, bd, NonlinearSolveConfig())
    assert again.iterations == rep.iterations
    assert counts == {"_principal_part": 1, "dgbtrf": 1,
                      "solve_linear_full": 2 * calls}
