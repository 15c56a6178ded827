import os

import numpy as np
import pytest
import scipy.linalg

from conftest import make_coeff, nonlinear_bd
from kslab import inverse, linear_solver
from kslab.config import RunConfig
from kslab.errors import InfConditionViolated, LengthMismatch
from kslab.grid import (GridSpec, ScalarField1D, Trajectory, diff_t_values,
                        diff_x_values, discrete_norm, trapz_weights)
from kslab.inverse import (InverseConfig, MeasurementSet, Observation,
                           gamma_basis, h1t_h4x_norm, linearized_field,
                           linf_h1x_norm, recover_gamma, snapshot_index,
                           stability_report, synthesize_measurements)
from kslab.linear_solver import (CoefficientField, solve_linear_full,
                                 solve_linear_many, zero_boundary_data)
from kslab.nonlinear_solver import NonlinearSolveConfig, solve_ks

T0 = 1.0


@pytest.fixture(scope="module")
def loop48(closedloop_case):
    g = GridSpec(48, 64, 2.0)
    coeff = make_coeff(g, gamma=np.ones(49))
    bd = closedloop_case["build"](g, "1")
    return g, coeff, bd


def test_config_validation():
    with pytest.raises(ValueError):
        InverseConfig(M1=-1)
    with pytest.raises(ValueError):
        InverseConfig(tikhonov_alpha=-1e-3)
    with pytest.raises(ValueError):
        InverseConfig(max_outer=0)
    with pytest.raises(ValueError):
        InverseConfig(n_modes=-1)


def test_snapshot_index_nearest():
    g = GridSpec(16, 10, 1.0)
    assert snapshot_index(g, 0.5) == 5
    assert snapshot_index(g, 0.52) == 5
    assert snapshot_index(g, 0.06) == 1 and snapshot_index(g, 0.94) == 9
    # inside (0, T) but nearest to t = 0 or t = T: no interior snapshot
    for T0 in (1.5, 0.04, 0.96):
        with pytest.raises(ValueError):
            snapshot_index(g, T0)


def test_trajectory_norms_match_their_row_by_row_definitions():
    # oracle: each row's trapezoid sums of |d^j u|^2, j = 0..k, written out
    # one row at a time; the whole-array sums and discrete_norm's space
    # kinds (both grid.row_norms) give them bit for bit
    g = GridSpec(48, 64, 2.0)
    u = np.random.default_rng(3).standard_normal((g.nt + 1, g.nx + 1))
    wx = trapz_weights(g.nx + 1, g.dx)
    wt = trapz_weights(g.nt + 1, g.dt)

    def hk(row, k):
        total = float(wx @ row ** 2)
        for j in range(1, k + 1):
            total += float(wx @ diff_x_values(row, g, j) ** 2)
        return float(np.sqrt(total))

    for n in range(g.nt + 1):
        for kind, k in (("L2x", 0), ("H1x", 1), ("H2x", 2), ("H4x", 4)):
            assert discrete_norm(u[n], kind, g) == hk(u[n], k)
    h4 = sum(float(wt @ np.array([hk(arr[n], 4) ** 2
                                  for n in range(g.nt + 1)]))
             for arr in (u, diff_t_values(u, g, 1)))
    assert h1t_h4x_norm(u, g) == float(np.sqrt(h4))
    assert linf_h1x_norm(u, g) == max(hk(u[n], 1) for n in range(g.nt + 1))


def test_measurements_zero_data():
    g = GridSpec(16, 16, 1.0)
    coeff = make_coeff(g, gamma=np.ones(17))
    meas = synthesize_measurements(coeff, zero_boundary_data(g), 0.5)
    assert np.all(meas.trace2 == 0) and np.all(meas.trace3 == 0)
    assert np.all(meas.snapshot.values == 0)


def test_measurements_deterministic(loop48):
    g, coeff, bd = loop48
    a = synthesize_measurements(coeff, bd, T0, noise_level=1e-3, seed=11)
    b = synthesize_measurements(coeff, bd, T0, noise_level=1e-3, seed=11)
    assert np.array_equal(a.trace2, b.trace2)
    assert np.array_equal(a.trace3, b.trace3)
    assert np.array_equal(a.snapshot.values, b.snapshot.values)
    c = synthesize_measurements(coeff, bd, T0, noise_level=1e-3, seed=12)
    assert not np.array_equal(a.trace2, c.trace2)


def test_measurements_match_analytic_trace(closedloop_case, loop48):
    # oracle: the manufactured solution's second derivative at x=0
    g, coeff, bd = loop48
    meas = synthesize_measurements(coeff, bd, T0)
    analytic = closedloop_case["trace2"](g.t)
    assert np.abs(meas.trace2 - analytic).max() <= 1e-2 * np.abs(analytic).max()
    assert meas.snapshot_time == pytest.approx(T0)


def test_measurement_set_validation():
    g = GridSpec(16, 16, 1.0)
    snap = ScalarField1D(np.zeros(17), g)
    with pytest.raises(LengthMismatch):
        MeasurementSet(np.zeros(5), np.zeros(17), snap, 0.5)
    trace = np.zeros(17)
    trace[3] = np.nan
    with pytest.raises(ValueError, match="trace2 contains non-finite"):
        MeasurementSet(trace, np.zeros(17), snap, 0.5)


@pytest.fixture(scope="module")
def solved_pair(loop48):
    g, coeff, bd = loop48
    gt = ScalarField1D(1.0 + 1e-3 * np.sin(np.pi * g.x), g)
    cfgn = NonlinearSolveConfig()
    y, _ = solve_ks(coeff, bd, cfgn)
    yt, _ = solve_ks(CoefficientField(coeff.sigma, gt), bd, cfgn)
    return g, coeff, bd, gt, y, yt


def test_difference_homogeneous_boundary(solved_pair):
    g, _, _, _, y, yt = solved_pair
    u = y.values - yt.values
    assert np.abs(u[:, [0, -1]]).max() <= 1e-10
    ux = diff_x_values(u, g, 1)
    assert np.abs(ux[:, [0, -1]]).max() <= 1e-10


def test_stability_report_family(loop48):
    g, coeff, bd = loop48
    cfg = InverseConfig()
    gts = [ScalarField1D(1.0 + s * np.sin(np.pi * g.x), g)
           for s in (1e-3, 2e-3, 4e-3)]
    reports = stability_report(coeff, gts, bd, T0, cfg)
    lhs = np.log([r.lhs for r in reports])
    mid = np.log([r.middle for r in reports])
    slope = np.polyfit(mid, lhs, 1)[0]
    assert 0.8 <= slope <= 1.2
    c_lower = [r.c_lower for r in reports]
    c_upper = [r.c_upper for r in reports]
    assert max(c_lower) <= 1.5 * min(c_lower)
    assert max(c_upper) <= 1.5 * min(c_upper)
    for r in reports:
        assert r.lhs <= (1 / min(c_lower) * 1.001) * r.middle


def test_stability_report_degenerate(loop48):
    g, coeff, bd = loop48
    rep, = stability_report(coeff, [coeff.gamma], bd, T0, InverseConfig())
    assert rep.degenerate and rep.lhs == 0.0 and rep.middle == 0.0


def test_stability_report_inf_condition(loop48):
    g, coeff, _ = loop48
    bd0 = zero_boundary_data(g)
    with pytest.raises(InfConditionViolated):
        stability_report(coeff, [coeff.gamma], bd0, T0, InverseConfig())


def test_snapshot_time_robustness(loop48):
    # moving T0 by one grid step changes the middle terms by O(dt) relative
    g, coeff, bd = loop48
    cfg = InverseConfig()
    gt = ScalarField1D(1.0 + 2e-3 * np.sin(np.pi * g.x), g)
    r0, = stability_report(coeff, [gt], bd, T0, cfg)
    r1, = stability_report(coeff, [gt], bd, T0 + g.dt, cfg)
    assert r1.middle == pytest.approx(r0.middle, rel=10 * g.dt)


@pytest.fixture(scope="module")
def shipped_scan():
    """stability_scan.cfg as the CLI runs it: the reference y, its
    linearized field, the observation and the scan's reports."""
    cfg = RunConfig.from_file(os.path.join(os.path.dirname(__file__), "..",
                                           "configs", "stability_scan.cfg"))
    g = cfg.grid()
    coeff, bd = cfg.coefficients(g), cfg.boundary_data(g)
    block, ncfg = cfg.inverse_block(g), cfg.nonlinear_config()
    gts = [ScalarField1D(coeff.gamma.values + s * block["perturbation"], g)
           for s in block["amplitudes"]]
    reports = stability_report(coeff, gts, bd, block["T0"], block["cfg"],
                               ncfg)
    y, _ = solve_ks(coeff, bd, ncfg)
    return dict(g=g, coeff=coeff, bd=bd, block=block, ncfg=ncfg, gts=gts,
                reports=reports, y=y, lin=linearized_field(coeff, y),
                obs=Observation(g, block["T0"]))


def test_scan_middle_is_the_observation_data_norm(shipped_scan):
    sc = shipped_scan
    g, obs = sc["g"], sc["obs"]
    for gt, rep in zip(sc["gts"], sc["reports"]):
        coeff_t = CoefficientField(sc["coeff"].sigma, gt)
        yt, _ = solve_ks(coeff_t, sc["bd"], sc["ncfg"])
        gaps = [a - b for a, b in zip(obs.observe(sc["y"].values),
                                      obs.observe(yt.values))]
        data = obs.stack(*gaps)
        middle = data @ data + discrete_norm(gaps[2], "H1x", g) ** 4
        assert middle == pytest.approx(rep.middle, rel=1e-14, abs=0)


def test_rayleigh_quotient_of_the_tangent_is_the_scans_c_lower(shipped_scan):
    # the scan perturbs gamma by s b with b = sin(pi x), so middle/lhs tends
    # to |J b|^2 / |b|^2 as s -> 0, J the tangent's data rows
    sc = shipped_scan
    g, obs, b = sc["g"], sc["obs"], sc["block"]["perturbation"]
    Jb, = obs.jacobian(sc["lin"], b[None], sc["ncfg"].lin_tol)
    quotient = Jb @ Jb / discrete_norm(b, "L2x", g) ** 2
    for s, rep in zip(sc["block"]["amplitudes"], sc["reports"]):
        assert abs(rep.c_lower - quotient) <= 0.05 * s * quotient

    # over the 8-mode span the worst direction gives the Lipschitz constant
    # C = max_c (c^T G c) / |sum_m c_m J_m|^2, J_m the data rows of mode m
    # and G the span's L2 Gram matrix
    basis = gamma_basis(g, 8)
    J = obs.jacobian(sc["lin"], basis, sc["ncfg"].lin_tol)
    gram = (basis * trapz_weights(g.nx + 1, g.dx)) @ basis.T
    C = 1 / scipy.linalg.eigh(J @ J.T, gram, eigvals_only=True).min()
    assert C == pytest.approx(1.41e4, rel=0.01)


def test_gamma_basis_layout():
    g = GridSpec(16, 16, 1.0)
    basis = gamma_basis(g, 4)
    assert basis.shape == (5, 17)
    assert np.allclose(basis[0], 1.0)
    assert np.allclose(basis[1], np.sin(np.pi * g.x))
    assert np.allclose(basis[2], np.cos(np.pi * g.x))
    assert np.allclose(basis[3], np.sin(2 * np.pi * g.x))


def _solve_at(coeff, bd, g, gamma):
    shifted = CoefficientField(coeff.sigma, ScalarField1D(gamma, g))
    return solve_ks(shifted, bd, NonlinearSolveConfig())[0].values


def _tangent(coeff, bd, g, b):
    """dy for the gamma direction b: the linearized solve recover_gamma uses."""
    y, _ = solve_ks(coeff, bd, NonlinearSolveConfig())
    src = Trajectory(-b * diff_x_values(y.values, g, 2), g)
    dy = solve_linear_full(linearized_field(coeff, y),
                           zero_boundary_data(g, g=src))
    return y.values, dy.values


@pytest.fixture(scope="module", params=["closed-loop", "nonlinear"])
def tangent_case(request, loop48, nonlinear_case):
    """The closed-loop data (y ~ 1e-2), and manufactured data with y ~ 6 whose
    advection y y_x is strong enough that the linearized terms G1 = y and
    G2 = y_x visibly shape the tangent."""
    g, coeff, bd = loop48
    if request.param == "nonlinear":
        bd = nonlinear_bd(nonlinear_case, g, 100.0)
    return g, coeff, bd


@pytest.mark.parametrize("row", [0, 1, 8], ids=["constant", "sin", "mode8"])
def test_tangent_taylor_remainder_is_second_order(tangent_case, row):
    g, coeff, bd = tangent_case
    b = gamma_basis(g, 8)[row]
    y, dy = _tangent(coeff, bd, g, b)
    hs = [0.1, 0.05, 0.025, 0.0125]
    rem = [np.abs(_solve_at(coeff, bd, g, coeff.gamma.values + h * b) - y
                  - h * dy).max() for h in hs]
    ratios = [a / c for a, c in zip(rem, rem[1:])]
    assert all(3.8 <= q <= 4.2 for q in ratios), ratios


@pytest.mark.parametrize("row", [0, 1, 8], ids=["constant", "sin", "mode8"])
def test_tangent_matches_central_difference(tangent_case, row):
    g, coeff, bd = tangent_case
    b = gamma_basis(g, 8)[row]
    _, dy = _tangent(coeff, bd, g, b)
    h = 1e-4
    cd = (_solve_at(coeff, bd, g, coeff.gamma.values + h * b)
          - _solve_at(coeff, bd, g, coeff.gamma.values - h * b)) / (2 * h)
    assert np.abs(dy - cd).max() <= 1e-3 * np.abs(cd).max()


def test_stacked_tangent_columns_equal_their_own_solves(tangent_case):
    # the stacked march of every basis direction on the linearized field
    # (which shares its sigma/gamma band) gives each column's own solve on a
    # field built afresh, bit for bit
    g, coeff, bd = tangent_case
    y, _ = solve_ks(coeff, bd, NonlinearSolveConfig())
    basis = gamma_basis(g, 8)
    sources = -basis[:, None] * diff_x_values(y.values, g, 2)
    lin = linearized_field(coeff, y)
    assert lin.principal_band is coeff.principal_band
    dy = solve_linear_many(lin, zero_boundary_data(g), sources)
    fresh = CoefficientField(coeff.sigma, coeff.gamma, G1=y,
                             G2=Trajectory(diff_x_values(y.values, g, 1), g))
    for src, col in zip(sources, dy):
        single = solve_linear_full(
            fresh, zero_boundary_data(g, g=Trajectory(src, g)))
        assert np.array_equal(single.values, col)


def _closed_loop_problem(closedloop_case, loop48):
    g, coeff, _ = loop48
    bd = closedloop_case["build"](g, "1 + 0.005*sin(pi*x)")
    gamma_true = ScalarField1D(1 + 5e-3 * np.sin(np.pi * g.x), g)
    coeff_true = CoefficientField(coeff.sigma, gamma_true)
    return g, coeff, bd, synthesize_measurements(coeff_true, bd, T0)


def test_recover_solves_once_per_forward_solve_and_field(
        monkeypatch, closedloop_case, loop48):
    # the anchor gamma_tilde is the first iterate, so it has no solve of its
    # own, and a linearized field shares its iterate's sigma/gamma band
    g, coeff, bd, meas = _closed_loop_problem(closedloop_case, loop48)
    solved, banded = [], []
    solve, principal = inverse.solve_ks, linear_solver._principal_part

    def counted_solve(c, *args):
        solved.append(c)
        return solve(c, *args)

    def counted_principal(c):
        banded.append(c.gamma.values.tobytes())
        return principal(c)

    monkeypatch.setattr(inverse, "solve_ks", counted_solve)
    monkeypatch.setattr(linear_solver, "_principal_part", counted_principal)
    _, rep = recover_gamma(meas, coeff, bd, InverseConfig())
    assert rep.forward_solves >= 2 and len(rep.iterations) >= 2
    assert len(solved) == rep.forward_solves
    assert len(banded) == len(set(banded)) == rep.forward_solves


def test_recover_in_groups_of_one_column_is_bit_identical(
        monkeypatch, closedloop_case, loop48):
    g, coeff, bd, meas = _closed_loop_problem(closedloop_case, loop48)
    whole = recover_gamma(meas, coeff, bd, InverseConfig())
    monkeypatch.setattr(inverse, "_STACK_BYTES", 1)
    marched = []
    many = inverse.solve_linear_many

    def counted(coeff, bd, sources, *args, **kwargs):
        marched.append(len(sources))
        return many(coeff, bd, sources, *args, **kwargs)

    monkeypatch.setattr(inverse, "solve_linear_many", counted)
    single = recover_gamma(meas, coeff, bd, InverseConfig())
    assert set(marched) == {1}
    assert np.array_equal(single[0].values, whole[0].values)
    assert single[1].iterations == whole[1].iterations


def test_recover_solves_no_trial_the_projection_holds_at_the_iterate(
        closedloop_case, loop48):
    # with M1 = |gamma_tilde|_inf the projection scales every trial step to
    # 0, so each trial is the iterate itself: rejected without a solve
    g, coeff, bd, meas = _closed_loop_problem(closedloop_case, loop48)
    gamma_hat, rep = recover_gamma(meas, coeff, bd, InverseConfig(M1=1.0))
    assert rep.forward_solves == 1 and len(rep.iterations) == 1
    assert np.array_equal(gamma_hat.values, coeff.gamma.values)


def test_recover_zero_perturbation(loop48):
    g, coeff, bd = loop48
    meas = synthesize_measurements(coeff, bd, T0)
    gamma_hat, rep = recover_gamma(meas, coeff, bd, InverseConfig(),
                                   gamma_true=coeff.gamma)
    assert rep.l2_error <= 1e-8
    assert rep.final_j == 0.0 and rep.converged


def test_recover_closed_loop(closedloop_case, loop48):
    g, coeff, bd_tilde = loop48
    bd = closedloop_case["build"](g, "1 + 0.005*sin(pi*x)")
    gamma_true = ScalarField1D(1 + 5e-3 * np.sin(np.pi * g.x), g)
    coeff_true = CoefficientField(coeff.sigma, gamma_true)
    meas = synthesize_measurements(coeff_true, bd, T0)
    gamma_hat, rep = recover_gamma(meas, coeff, bd, InverseConfig(),
                                   gamma_true=gamma_true)
    pert = discrete_norm(ScalarField1D(gamma_true.values - coeff.gamma.values,
                                       g), "L2x")
    assert rep.l2_error / pert <= 0.05
    js = [row[1] for row in rep.iterations]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(js, js[1:]))


def test_recover_noisy_closed_loop(closedloop_case, loop48):
    g, coeff, _ = loop48
    bd = closedloop_case["build"](g, "1 + 0.005*sin(pi*x)")
    gamma_true = ScalarField1D(1 + 5e-3 * np.sin(np.pi * g.x), g)
    coeff_true = CoefficientField(coeff.sigma, gamma_true)
    meas = synthesize_measurements(coeff_true, bd, T0, noise_level=1e-3,
                                   seed=42)
    gamma_hat, rep = recover_gamma(meas, coeff, bd, InverseConfig(),
                                   gamma_true=gamma_true)
    pert = discrete_norm(ScalarField1D(gamma_true.values - coeff.gamma.values,
                                       g), "L2x")
    assert rep.l2_error / pert <= 0.20
    js = [row[1] for row in rep.iterations]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(js, js[1:]))


def test_recover_degenerate_zero_data():
    g = GridSpec(16, 16, 1.0)
    coeff = make_coeff(g, gamma=np.ones(17))
    bd = zero_boundary_data(g)
    meas = synthesize_measurements(coeff, bd, 0.5)
    with pytest.raises(InfConditionViolated):
        recover_gamma(meas, coeff, bd, InverseConfig())


def test_recover_max_outer_flag(closedloop_case, loop48):
    g, coeff, _ = loop48
    bd = closedloop_case["build"](g, "1 + 0.005*sin(pi*x)")
    gamma_true = ScalarField1D(1 + 5e-3 * np.sin(np.pi * g.x), g)
    coeff_true = CoefficientField(coeff.sigma, gamma_true)
    meas = synthesize_measurements(coeff_true, bd, T0)
    _, rep = recover_gamma(meas, coeff, bd, InverseConfig(max_outer=1),
                           gamma_true=gamma_true)
    assert rep.max_outer_reached and not rep.converged
