import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_coeff
from kslab import linear_solver
from kslab.errors import (CompatibilityViolation, GridMismatch, LengthMismatch,
                          SingularSystem)
from kslab.grid import (GridSpec, ScalarField1D, Trajectory, diff_matrix,
                        diff_x_values, field_from_callable,
                        trajectory_from_callable, trapz_qt, trapz_weights)
from kslab.linear_solver import (_KA, BoundaryData, _band, _CNSystem,
                                 operator_matrix, operator_residual,
                                 solve_linear_full, solve_linear_many,
                                 solve_principal, zero_boundary_data)


def full_case_bd(case, grid):
    tt = grid.t
    ones = np.ones_like(tt)
    return BoundaryData(case["exact"](tt, 0.0) * ones,
                        case["exact"](tt, 1.0) * ones,
                        case["exact_x"](tt, 0.0) * ones,
                        case["exact_x"](tt, 1.0) * ones,
                        field_from_callable(lambda x: case["exact"](0.0, x), grid),
                        trajectory_from_callable(case["source"], grid))


# ------------------------------------------------------------ boundary data
def test_lifting_length_mismatch():
    g = GridSpec(16, 8, 1.0)
    other = GridSpec(16, 16, 1.0)
    with pytest.raises(GridMismatch):
        solve_linear_full(make_coeff(g), zero_boundary_data(other))


def test_boundary_data_rejects_bad_series():
    g = GridSpec(16, 8, 1.0)
    y0 = ScalarField1D(np.zeros(g.nx + 1), g)
    src = Trajectory(np.zeros((g.nt + 1, g.nx + 1)), g)
    zero, short, bad = np.zeros(g.nt + 1), np.zeros(g.nt), np.zeros(g.nt + 1)
    bad[3] = np.nan
    with pytest.raises(LengthMismatch, match="h2 has shape"):
        BoundaryData(zero, short, zero, zero, y0, src)
    with pytest.raises(ValueError, match="h3 contains non-finite"):
        BoundaryData(zero, zero, bad, zero, y0, src)


def test_boundary_series_and_initial_profile_are_read_only(full_linear_case):
    bd = full_case_bd(full_linear_case, GridSpec(16, 8, 1.0))
    for arr in (bd.h1, bd.h2, bd.h3, bd.h4, bd.y0.values):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_with_source_shares_lifting_and_matches_fresh_data(full_linear_case):
    g = GridSpec(32, 32, 1.0)
    coeff = make_coeff(g, sigma=full_linear_case["sigma"](g.x),
                       gamma=np.ones(33))
    bd = full_case_bd(full_linear_case, g)
    g2 = Trajectory(bd.g.values + np.outer(np.sin(g.t), g.x * (1 - g.x)), g)
    bd2 = bd.with_source(g2)
    assert bd2.g is g2 and bd2.corner_gaps is bd.corner_gaps
    fresh = BoundaryData(bd.h1, bd.h2, bd.h3, bd.h4, bd.y0, g2)
    assert np.array_equal(solve_linear_full(coeff, bd2, comp_tol=1.0).values,
                          solve_linear_full(coeff, fresh, comp_tol=1.0).values)


# ---------------------------------------------------------- principal solve
def test_principal_zero_solution():
    g = GridSpec(16, 16, 1.0)
    coeff = make_coeff(g)
    z = solve_principal(coeff, Trajectory(np.zeros((17, 17)), g),
                        ScalarField1D(np.zeros(17), g))
    assert np.all(z.values == 0)


def test_principal_rejects_incompatible_initial_profile():
    g = GridSpec(16, 16, 1.0)
    coeff = make_coeff(g)
    bad = field_from_callable(lambda x: 1 + x, g)
    with pytest.raises(CompatibilityViolation):
        solve_principal(coeff, Trajectory(np.zeros((17, 17)), g), bad)


def test_principal_manufactured_convergence(principal_case):
    errs = []
    for nx, nt in ((32, 64), (64, 128)):
        g = GridSpec(nx, nt, 2.0)
        coeff = make_coeff(g)
        f = trajectory_from_callable(principal_case["source"], g)
        z0 = field_from_callable(principal_case["z0"], g)
        z = solve_principal(coeff, f, z0)
        exact = trajectory_from_callable(principal_case["exact"], g)
        errs.append(np.abs(z.values - exact.values).max())
    assert np.log2(errs[0] / errs[1]) >= 1.7


def test_principal_energy_decay_stepwise():
    # midpoint form of the dissipation identity with a 1.9 safety factor
    g = GridSpec(64, 128, 1.0)
    coeff = make_coeff(g)
    z0 = field_from_callable(lambda x: 16 * (x * (1 - x)) ** 2, g)
    z = solve_principal(coeff, Trajectory(np.zeros((129, 65)), g), z0)
    wx = trapz_weights(g.nx + 1, g.dx)
    I = np.array([wx @ z.values[n] ** 2 for n in range(g.nt + 1)])
    assert np.all(np.diff(I) <= 1e-14)
    zmid_xx = diff_x_values(0.5 * (z.values[1:] + z.values[:-1]), g, 2)
    for n in range(g.nt):
        s_mid = wx @ (coeff.sigma.values * zmid_xx[n] ** 2)
        assert (I[n + 1] - I[n]) / g.dt + 1.9 * s_mid <= 1e-12


# ---------------------------------------------------------------- full solve
def test_full_zero_data():
    g = GridSpec(16, 16, 1.0)
    coeff = make_coeff(g, gamma=np.ones(17))
    z = solve_linear_full(coeff, zero_boundary_data(g))
    assert np.all(z.values == 0)


def test_full_reduces_to_principal(principal_case):
    g = GridSpec(32, 32, 1.0)
    coeff = make_coeff(g)
    f = trajectory_from_callable(principal_case["source"], g)
    z0 = field_from_callable(principal_case["z0"], g)
    z_p = solve_principal(coeff, f, z0)
    z_f = solve_linear_full(coeff, zero_boundary_data(g, y0=z0, g=f))
    scale = np.abs(z_p.values).max()
    assert np.abs(z_f.values - z_p.values).max() <= 1e-12 * max(scale, 1.0)


def test_full_manufactured_convergence_and_residual(full_linear_case):
    errs = []
    for nx, nt in ((64, 128), (128, 256)):
        g = GridSpec(nx, nt, 2.0)
        coeff = make_coeff(g, sigma=full_linear_case["sigma"](g.x),
                           gamma=np.ones(nx + 1))
        bd = full_case_bd(full_linear_case, g)
        z = solve_linear_full(coeff, bd, comp_tol=1.0)
        exact = trajectory_from_callable(full_linear_case["exact"], g)
        errs.append(np.abs(z.values - exact.values).max())
        max_rel, _ = operator_residual(z, coeff, bd.g)
        assert max_rel <= 1e-10
    assert np.log2(errs[0] / errs[1]) >= 1.7


def test_full_compatibility_gate(full_linear_case):
    # sin(pi x) profile: the discrete slope misses h3(0) at default comp_tol
    g = GridSpec(64, 64, 2.0)
    coeff = make_coeff(g, sigma=full_linear_case["sigma"](g.x),
                       gamma=np.ones(65))
    bd = full_case_bd(full_linear_case, g)
    with pytest.raises(CompatibilityViolation):
        solve_linear_full(coeff, bd)


@pytest.mark.parametrize("nx,nt", [(48, 64), (1024, 256), (2048, 512)])
def test_lifting_exactness_of_solution(nx, nt):
    # polynomial profile: discrete traces land exactly on the series, also
    # on fine grids, where the constraint rows are small beside the interior
    g = GridSpec(nx, nt, 2.0)
    coeff = make_coeff(g, sigma=1 + g.x / 2, gamma=np.ones(nx + 1))
    tt = g.t
    y0 = field_from_callable(lambda x: 1 + x + x ** 2, g)
    bd = BoundaryData(np.cos(tt), 3 * np.cos(tt), np.cos(tt), 3 * np.cos(tt),
                      y0, Trajectory(np.zeros((nt + 1, nx + 1)), g))
    z = solve_linear_full(coeff, bd)
    D1 = diff_matrix(g, 1, "x")
    d0 = D1[0].toarray().ravel()
    d1 = D1[g.nx].toarray().ravel()
    assert np.abs(z.values[:, 0] - bd.h1).max() <= 1e-8
    assert np.abs(z.values[:, -1] - bd.h2).max() <= 1e-8
    assert np.abs(z.values @ d0 - bd.h3).max() <= 1e-8
    assert np.abs(z.values @ d1 - bd.h4).max() <= 1e-8


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(-2, 2), st.floats(-2, 2))
def test_full_solver_linearity(seed, a, b):
    g = GridSpec(16, 8, 1.0)
    coeff = make_coeff(g, sigma=1 + g.x / 2, gamma=np.ones(17))
    rng = np.random.default_rng(seed)

    def random_bd():
        hs = [1e-2 * rng.normal(size=g.nt + 1) for _ in range(4)]
        y0 = 1e-2 * rng.normal(size=g.nx + 1)
        src = Trajectory(rng.normal(size=(g.nt + 1, g.nx + 1)), g)
        return hs, y0, src

    (h_a, y0_a, g_a), (h_b, y0_b, g_b) = random_bd(), random_bd()

    def solve(hs, y0, src):
        bd = BoundaryData(hs[0], hs[1], hs[2], hs[3], ScalarField1D(y0, g), src)
        return solve_linear_full(coeff, bd, comp_tol=np.inf)

    za = solve(h_a, y0_a, g_a)
    zb = solve(h_b, y0_b, g_b)
    zc = solve([a * u + b * v for u, v in zip(h_a, h_b)],
               a * y0_a + b * y0_b,
               Trajectory(a * g_a.values + b * g_b.values, g))
    combo = a * za.values + b * zb.values
    scale = max(np.abs(combo).max(), 1.0)
    assert np.abs(zc.values - combo).max() <= 1e-10 * scale


def dense_march_reference(coeff, bd, grid):
    """solve_linear_full step by step with dense matrices: one operator and
    one clamped, unweighted one-step matrix per time slot, each step
    np.linalg.solve."""
    nx, nt, dt = grid.nx, grid.nt, grid.dt
    D1 = diff_matrix(grid, 1, "x").toarray()
    ops = [operator_matrix(coeff, n).toarray() for n in range(nt + 1)]
    f = bd.g.values
    z = np.empty_like(f)
    z[0] = bd.y0.values
    for n in range(nt):
        M = np.eye(nx + 1) / dt + 0.5 * ops[n + 1]
        M[[0, nx]] = 0.0
        M[0, 0] = M[nx, nx] = 1.0
        M[1], M[nx - 1] = D1[0], D1[nx]
        rhs = z[n] / dt - 0.5 * ops[n] @ z[n] + 0.5 * (f[n + 1] + f[n])
        rhs[[0, 1, nx - 1, nx]] = (bd.h1[n + 1], bd.h3[n + 1], bd.h4[n + 1],
                                   bd.h2[n + 1])
        z[n + 1] = np.linalg.solve(M, rhs)
    return z


def time_dependent_coeff(g):
    # G1 = ytilde and G2 = ytilde_x, as in the time-derived difference system
    yt = trajectory_from_callable(
        lambda t, x: 0.3 * np.exp(-t) * (1 + x ** 2) + 0.1 * np.sin(t + 2 * x), g)
    return make_coeff(g, sigma=1 + g.x / 2, gamma=np.ones(g.nx + 1), G1=yt,
                      G2=Trajectory(diff_x_values(yt.values, g, 1), g))


@pytest.mark.parametrize("kind", ["variable-sigma", "G1-G2"])
def test_march_matches_dense_step_reference(full_linear_case, kind):
    g = GridSpec(32, 48, 2.0)
    if kind == "G1-G2":
        coeff = time_dependent_coeff(g)
    else:
        coeff = make_coeff(g, sigma=full_linear_case["sigma"](g.x),
                           gamma=np.ones(33))
    bd = full_case_bd(full_linear_case, g)
    z = solve_linear_full(coeff, bd, comp_tol=1.0)
    ref = dense_march_reference(coeff, bd, g)
    assert np.abs(z.values - ref).max() <= 1e-10 * np.abs(ref).max()


def test_march_residual_check_reports_first_step(full_linear_case):
    g = GridSpec(16, 16, 1.0)
    coeff = make_coeff(g, sigma=full_linear_case["sigma"](g.x),
                       gamma=np.ones(17))
    bd = full_case_bd(full_linear_case, g)
    with pytest.raises(SingularSystem, match="step 0: relative residual"):
        solve_linear_full(coeff, bd, comp_tol=1.0, lin_tol=1e-30)


@pytest.mark.parametrize("kind", ["constant", "G1-G2"])
def test_march_non_finite_source_raises(full_linear_case, kind):
    g = GridSpec(16, 16, 1.0)
    coeff = (time_dependent_coeff(g) if kind == "G1-G2"
             else make_coeff(g, gamma=np.ones(17)))
    bd = full_case_bd(full_linear_case, g)
    bd.g.values[3, 5] = np.inf  # a Trajectory checks finiteness when built
    with pytest.raises(SingularSystem, match="non-finite"):
        solve_linear_full(coeff, bd, comp_tol=1.0)


def test_march_names_a_failing_step_before_a_non_finite_one(
        full_linear_case, monkeypatch):
    # with G1/G2 the band's zero corners join one time slot to the next in
    # the check product; 0 * inf there must not hide step 2's residual
    g = GridSpec(16, 16, 1.0)
    coeff = time_dependent_coeff(g)
    bd = full_case_bd(full_linear_case, g)
    real, steps = linear_solver.dgbtrs, iter(range(g.nt))

    def dgbtrs(*args):
        z, info = real(*args)
        n = next(steps)
        if n == 2:
            z[g.nx // 2] += 1.0
        elif n == 3:
            z[:] = np.inf
        return z, info

    monkeypatch.setattr(linear_solver, "dgbtrs", dgbtrs)
    with pytest.raises(SingularSystem, match="step 2: relative residual"):
        solve_linear_full(coeff, bd, comp_tol=1.0)


def stacked_sources(g, k, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((k, g.nt + 1, g.nx + 1))


@pytest.mark.parametrize("kind", ["constant", "G1-G2"])
def test_many_non_finite_source_in_one_column_raises(full_linear_case, kind):
    g = GridSpec(16, 16, 1.0)
    coeff = (time_dependent_coeff(g) if kind == "G1-G2"
             else make_coeff(g, gamma=np.ones(17)))
    sources = stacked_sources(g, 4)
    sources[2, 3, 5] = np.inf
    with pytest.raises(SingularSystem, match="non-finite"):
        solve_linear_many(coeff, zero_boundary_data(g), sources)


def test_many_residual_check_reports_first_step(full_linear_case):
    g = GridSpec(16, 16, 1.0)
    coeff = make_coeff(g, sigma=full_linear_case["sigma"](g.x),
                       gamma=np.ones(17))
    bd = full_case_bd(full_linear_case, g)
    with pytest.raises(SingularSystem, match="step 0: relative residual"):
        solve_linear_many(coeff, bd, stacked_sources(g, 3), comp_tol=1.0,
                          lin_tol=1e-30)


def test_many_in_groups_equals_one_stack(full_linear_case):
    # a stack marched whole, in groups and one source at a time gives the
    # same bits, and each solution is its own solve_linear_full
    g = GridSpec(24, 20, 1.0)
    coeff = time_dependent_coeff(g)
    bd = full_case_bd(full_linear_case, g)
    sources = stacked_sources(g, 5)
    whole = solve_linear_many(coeff, bd, sources, comp_tol=1.0)
    groups = np.concatenate([
        solve_linear_many(coeff, bd, part, comp_tol=1.0)
        for part in np.split(sources, [2, 3])])
    assert np.array_equal(whole, groups)
    for src, z in zip(sources, whole):
        single = solve_linear_full(
            coeff, bd.with_source(Trajectory(src, g)), comp_tol=1.0)
        assert np.array_equal(single.values, z)


@pytest.mark.parametrize("k", [1, 2, 9])
def test_stacked_g1_g2_march_at_48x64_equals_each_own_solve(full_linear_case,
                                                            k):
    # a step acts on the k profiles of a time as on one block-diagonal band,
    # whose zero corners join one profile to the next; at the benchmark's
    # invert size every column is still its own solve, bit for bit
    g = GridSpec(48, 64, 2.0)
    coeff = time_dependent_coeff(g)
    bd = full_case_bd(full_linear_case, g)
    sources = stacked_sources(g, k, seed=k)
    stack = solve_linear_many(coeff, bd, sources, comp_tol=1.0)
    for src, z in zip(sources, stack):
        single = solve_linear_full(
            coeff, bd.with_source(Trajectory(src, g)), comp_tol=1.0)
        assert np.array_equal(single.values, z)


def test_many_rejects_a_stack_of_the_wrong_shape():
    g = GridSpec(16, 16, 1.0)
    coeff = make_coeff(g, gamma=np.ones(17))
    for shape in [(17, 17), (2, 16, 17), (2, 17, 18)]:
        with pytest.raises(LengthMismatch):
            solve_linear_many(coeff, zero_boundary_data(g), np.zeros(shape))


@pytest.mark.parametrize("other", [GridSpec(16, 32, 1.0), GridSpec(32, 16, 1.0)],
                         ids=["nt", "nx"])
def test_coefficient_field_from_another_grid_is_rejected(other):
    g = GridSpec(16, 16, 1.0)
    coeff = make_coeff(other, gamma=np.ones(other.nx + 1))
    with pytest.raises(GridMismatch):
        solve_linear_full(coeff, zero_boundary_data(g))
    z = Trajectory(np.zeros((g.nt + 1, g.nx + 1)), g)
    with pytest.raises(GridMismatch):
        operator_residual(z, coeff, z)


# ---------------------------------------------------------- scheme residual
def one_step_norm(A, grid):
    """|M|_inf of the clamped one-step matrix I/dt + A/2 with unweighted
    constraint rows."""
    nx = grid.nx
    D1 = diff_matrix(grid, 1, "x")
    M = (sparse.identity(nx + 1) / grid.dt + 0.5 * A).tolil()
    M[0] = 0.0
    M[0, 0] = 1.0
    M[1] = D1[0].toarray().ravel()
    M[nx - 1] = D1[nx].toarray().ravel()
    M[nx] = 0.0
    M[nx, nx] = 1.0
    return abs(M.tocsc()).sum(axis=1).max()


def reference_residual(z, coeff, fhat):
    """Step-by-step CN residual: one operator and one one-step matrix per
    time slot, as operator_residual computed it before it was vectorized."""
    grid = z.grid
    nx, dt = grid.nx, grid.dt
    interior = slice(2, nx - 1)
    A_n = operator_matrix(coeff, 0)
    res_field = np.zeros_like(z.values)
    max_rel = 0.0
    for n in range(grid.nt):
        A_np1 = operator_matrix(coeff, n + 1)
        m_norm = one_step_norm(A_np1, grid)
        r = ((z.values[n + 1] - z.values[n]) / dt
             + 0.5 * (A_np1 @ z.values[n + 1] + A_n @ z.values[n])
             - 0.5 * (fhat.values[n + 1] + fhat.values[n]))[interior]
        res_field[n + 1, interior] = r
        scale = m_norm * np.abs(z.values[n + 1]).max() + np.abs(
            0.5 * (fhat.values[n + 1] + fhat.values[n])).max() + 1e-300
        max_rel = max(max_rel, np.abs(r).max() / scale)
        A_n = A_np1
    l2 = float(np.sqrt(trapz_qt(res_field ** 2, grid)))
    return max_rel, l2


def test_residual_matches_step_reference_variable_sigma(full_linear_case):
    g = GridSpec(32, 48, 2.0)
    coeff = make_coeff(g, sigma=full_linear_case["sigma"](g.x),
                       gamma=np.ones(33))
    bd = full_case_bd(full_linear_case, g)
    z = solve_linear_full(coeff, bd, comp_tol=1.0)
    off = Trajectory(z.values + 1e-3 * np.outer(np.cos(g.t), np.sin(3 * g.x)), g)
    for traj in (z, off):
        assert operator_residual(traj, coeff, bd.g) == \
            reference_residual(traj, coeff, bd.g)


def test_residual_matches_step_reference_time_dependent():
    g = GridSpec(24, 32, 1.0)
    coeff = time_dependent_coeff(g)
    z = trajectory_from_callable(
        lambda t, x: np.cos(t) * x ** 2 * (1 - x) ** 2 + 0.01 * t * x, g)
    fhat = trajectory_from_callable(lambda t, x: np.sin(3 * t) * (1 + x), g)
    assert operator_residual(z, coeff, fhat) == reference_residual(z, coeff, fhat)


@pytest.mark.parametrize("terms", ["none", "G1", "G2", "G1-G2"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), nx=st.integers(8, 130),
       nt=st.integers(8, 12))
def test_band_and_apply_match_operator_matrix(terms, seed, nx, nt):
    # every slot's band is the band of the sparse reference, apply is its
    # product on every time row and each step's |M|_inf is the reference
    # one-step norm, all bit for bit
    rng = np.random.default_rng(seed)
    g = GridSpec(nx, nt, 1.0)

    def traj():
        return Trajectory(rng.standard_normal((nt + 1, nx + 1)), g)

    coeff = make_coeff(g, sigma=1 + rng.random(nx + 1),
                       gamma=rng.standard_normal(nx + 1),
                       G1=traj() if "G1" in terms else None,
                       G2=traj() if "G2" in terms else None)
    system = _CNSystem(coeff)
    band = np.broadcast_to(system.band, (nt + 1,) + system.band.shape[1:])
    z = rng.standard_normal((nt + 1, nx + 1))
    ops = [operator_matrix(coeff, n) for n in range(nt + 1)]
    for n, A in enumerate(ops):
        assert np.array_equal(band[n], _band(A, _KA))
    Az = system.apply(z)
    pair = system.apply(np.stack([z, -z]))
    assert np.array_equal(Az, np.array([A @ row for A, row in zip(ops, z)]))
    m_norm = np.broadcast_to(system.m_norm, (nt,))
    assert np.array_equal(m_norm, [one_step_norm(A, g) for A in ops[1:]])
    # a stack of trajectories is each trajectory's product
    assert np.array_equal(pair, np.stack([Az, -Az]))


def test_coefficient_field_values_are_read_only():
    g = GridSpec(16, 16, 1.0)
    yt = Trajectory(np.ones((17, 17)), g)
    coeff = make_coeff(g, gamma=np.ones(17), G1=yt, G2=yt)
    for arr in (coeff.sigma.values, coeff.gamma.values, coeff.G1.values,
                coeff.G2.values):
        with pytest.raises(ValueError):
            arr[3] = 2.0


def test_coefficient_field_validates_sigma_floor():
    g = GridSpec(16, 16, 1.0)
    with pytest.raises(ValueError):
        make_coeff(g, sigma=np.linspace(-0.1, 1, 17))
    with pytest.raises(ValueError):
        make_coeff(g, sigma=np.linspace(0.0, 1, 17))
