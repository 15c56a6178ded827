import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kslab.errors import GridTooCoarse, LengthMismatch
from kslab.grid import (GridSpec, ScalarField1D, Trajectory, diff_matrix,
                        diff_x_values, discrete_norm, extract_traces,
                        field_from_callable, trajectory_from_callable,
                        trapz_x)


def test_grid_spec_nodes_cover_domain_exactly():
    g = GridSpec(16, 8, 2.0)
    assert g.x[0] == 0.0 and g.x[-1] == 1.0
    assert g.t[0] == 0.0 and g.t[-1] == 2.0
    assert len(g.x) == 17 and len(g.t) == 9
    assert g.dx == 1.0 / 16 and g.dt == 0.25


def test_grid_nodes_are_cached_and_read_only():
    g = GridSpec(16, 8, 2.0)
    assert g.x is g.x and g.t is g.t
    for nodes in (g.x, g.t):
        with pytest.raises(ValueError):
            nodes[0] = 0.5
    assert g == GridSpec(16, 8, 2.0) and hash(g) == hash(GridSpec(16, 8, 2.0))


def test_grid_spec_rejects_coarse_grids():
    with pytest.raises(GridTooCoarse):
        GridSpec(7, 16, 1.0)
    with pytest.raises(GridTooCoarse):
        GridSpec(16, 7, 1.0)
    with pytest.raises(ValueError):
        GridSpec(16, 16, -1.0)


def test_field_length_and_finiteness_validated():
    g = GridSpec(8, 8, 1.0)
    with pytest.raises(LengthMismatch):
        ScalarField1D(np.zeros(5), g)
    with pytest.raises(ValueError):
        ScalarField1D(np.full(9, np.nan), g)
    with pytest.raises(LengthMismatch):
        Trajectory(np.zeros((3, 9)), g)
    values = np.zeros((9, 9))
    values[4, 4] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        Trajectory(values, g)


def test_diff_x_constant_is_zero():
    g = GridSpec(64, 8, 1.0)
    f = field_from_callable(np.ones_like, g)
    assert np.abs(diff_x_values(f.values, g, 1)).max() < 1e-13


def test_diff_x_exact_on_quadratic():
    g = GridSpec(32, 8, 1.0)
    f = field_from_callable(lambda x: x ** 2, g)
    assert np.abs(diff_x_values(f.values, g, 2) - 2.0).max() < 1e-10


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_diff_x_polynomial_exactness(order):
    # stencils are exact on polynomials of degree order + 1
    g = GridSpec(24, 8, 1.0)
    deg = order + 1
    coeffs = np.arange(1, deg + 2, dtype=float)

    def poly(x):
        return sum(c * x ** k for k, c in enumerate(coeffs))

    def dpoly(x):
        out = np.zeros_like(x)
        for k, c in enumerate(coeffs):
            if k >= order:
                fact = np.prod(np.arange(k - order + 1, k + 1, dtype=float))
                out += c * fact * x ** (k - order)
        return out

    f = field_from_callable(poly, g)
    err = np.abs(diff_x_values(f.values, g, order) - dpoly(g.x)).max()
    assert err < 1e-6 * max(1.0, np.abs(dpoly(g.x)).max())


def test_diff_x_order4_refinement_ratio():
    # oracle: analytic fourth derivative pi^4 sin(pi x)
    errs = []
    for nx in (64, 128):
        g = GridSpec(nx, 8, 1.0)
        f = field_from_callable(lambda x: np.sin(np.pi * x), g)
        errs.append(np.abs(diff_x_values(f.values, g, 4)
                           - np.pi ** 4 * np.sin(np.pi * g.x)).max())
    assert 3.4 <= errs[0] / errs[1] <= 4.6


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_stencil_consistency_dyadic_triple(order):
    # observed order across a dyadic refinement triple stays near two
    errs = []
    for nx in (64, 128, 256):
        g = GridSpec(nx, 8, 1.0)
        f = field_from_callable(lambda x: np.sin(np.pi * x) + np.cos(2 * x), g)
        exact = {1: lambda x: np.pi * np.cos(np.pi * x) - 2 * np.sin(2 * x),
                 2: lambda x: -np.pi ** 2 * np.sin(np.pi * x) - 4 * np.cos(2 * x),
                 3: lambda x: -np.pi ** 3 * np.cos(np.pi * x) + 8 * np.sin(2 * x),
                 4: lambda x: np.pi ** 4 * np.sin(np.pi * x) + 16 * np.cos(2 * x),
                 }[order](g.x)
        errs.append(np.abs(diff_x_values(f.values, g, order) - exact).max())
    for coarse, fine in zip(errs, errs[1:]):
        observed = np.log2(coarse / fine)
        assert 1.7 <= observed <= 2.3


def test_diff_matrix_rejects_unknown_axis_and_order():
    g = GridSpec(16, 16, 1.0)
    with pytest.raises(ValueError):
        diff_matrix(g, 5, "x")
    with pytest.raises(ValueError):
        diff_matrix(g, 1, "z")


def test_trajectory_derivative_is_c_ordered():
    g = GridSpec(16, 32, 1.0)
    traj = trajectory_from_callable(lambda t, x: np.sin(t + 3 * x), g)
    for order in (1, 2, 3, 4):
        d = diff_x_values(traj.values, g, order)
        assert d.flags.c_contiguous
        assert np.array_equal(d, (diff_matrix(g, order) @ traj.values.T).T)


def test_diff_matrix_is_cached_and_read_only():
    g = GridSpec(16, 32, 1.0)
    for axis in ("x", "t"):
        D = diff_matrix(g, 2, axis)
        assert diff_matrix(GridSpec(16, 32, 1.0), 2, axis) is D
        for arr in (D.data, D.indices, D.indptr):
            with pytest.raises(ValueError):
                arr[0] = arr[0]


def test_norm_zero_field():
    g = GridSpec(16, 16, 1.0)
    z = ScalarField1D(np.zeros(17), g)
    for kind in ("L2x", "H1x", "H2x", "H4x"):
        assert discrete_norm(z, kind) == 0.0
    assert discrete_norm(np.zeros(17), "L2t", GridSpec(16, 16, 1.0)) == 0.0


def test_norm_constant_one():
    g = GridSpec(64, 8, 1.0)
    f = field_from_callable(np.ones_like, g)
    assert abs(discrete_norm(f, "L2x") - 1.0) < 1e-12


def test_norm_h1x_closed_form():
    # oracle: int sin^2(2 pi x) = 1/2, int (2 pi cos(2 pi x))^2 = 2 pi^2
    g = GridSpec(256, 8, 1.0)
    f = field_from_callable(lambda x: np.sin(2 * np.pi * x), g)
    target = np.sqrt(0.5 + 2 * np.pi ** 2)
    assert abs(discrete_norm(f, "H1x") - target) < 1e-3


def test_norm_l2x_quadrature_on_linear_field():
    # trapezoid converges at second order on the squared linear integrand
    errs = []
    for nx in (64, 128):
        g = GridSpec(nx, 8, 1.0)
        f = field_from_callable(lambda x: 1 + 2 * x, g)
        exact = np.sqrt(1 + 2 + 4 / 3)  # int (1+2x)^2 = 13/3
        errs.append(abs(discrete_norm(f, "L2x") - exact))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] < 1e-4


@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, 17, elements=st.floats(-10, 10)))
def test_norm_monotonicity(values):
    g = GridSpec(16, 8, 1.0)
    f = ScalarField1D(values, g)
    norms = [discrete_norm(f, k) for k in ("L2x", "H1x", "H2x", "H4x")]
    assert norms[0] <= norms[1] <= norms[2] <= norms[3]


def test_norm_l2q_and_time_kinds():
    g = GridSpec(16, 32, 2.0)
    traj = trajectory_from_callable(lambda t, x: np.ones_like(x + t), g)
    assert abs(discrete_norm(traj, "L2Q") - np.sqrt(2.0)) < 1e-12
    series = np.cos(g.t)
    l2t = discrete_norm(series, "L2t", g)
    h1t = discrete_norm(series, "H1t", g)
    assert h1t >= l2t > 0
    with pytest.raises(LengthMismatch):
        discrete_norm(series, "L2x", g)
    with pytest.raises(ValueError):
        discrete_norm(series, "L3t", g)
    profile = np.ones(g.nx + 1)
    with pytest.raises(ValueError, match="explicit grid"):
        discrete_norm(profile, "L2x")
    with pytest.raises(LengthMismatch, match="L2Q needs a trajectory"):
        discrete_norm(ScalarField1D(profile, g), "L2Q")
    with pytest.raises(LengthMismatch, match="time series of length 33"):
        discrete_norm(profile, "H1t", g)


def test_extract_traces_zero_and_polynomials():
    g = GridSpec(64, 16, 1.0)
    zero = Trajectory(np.zeros((17, 65)), g)
    t2, t3 = extract_traces(zero.values, g)
    assert np.all(t2 == 0) and np.all(t3 == 0)

    sq = trajectory_from_callable(lambda t, x: x ** 2 + 0 * t, g)
    t2, t3 = extract_traces(sq.values, g)
    assert np.abs(t2 - 2.0).max() < 1e-10
    assert np.abs(t3).max() < 1e-10

    cub = trajectory_from_callable(lambda t, x: x ** 3 + 0 * t, g)
    _, t3 = extract_traces(cub.values, g)
    assert np.abs(t3 - 6.0).max() < 1e-8  # oracle: analytic third derivative


def test_trapz_x_linear():
    g = GridSpec(16, 8, 1.0)
    assert abs(trapz_x(2 * g.x, g) - 1.0) < 1e-14
