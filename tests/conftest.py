"""Shared fixtures: manufactured solutions with symbolically derived sources."""

import numpy as np
import pytest
import sympy as sp

from kslab.grid import (ScalarField1D, Trajectory, field_from_callable,
                        trajectory_from_callable)
from kslab.linear_solver import BoundaryData, CoefficientField


def make_coeff(grid, sigma=None, gamma=None, G1=None, G2=None):
    if sigma is None:
        sigma = np.ones(grid.nx + 1)
    if gamma is None:
        gamma = np.zeros(grid.nx + 1)
    sigma = np.asarray(sigma, dtype=float)
    return CoefficientField(ScalarField1D(sigma, grid),
                            ScalarField1D(np.asarray(gamma, dtype=float), grid),
                            G1=G1, G2=G2)


@pytest.fixture(scope="session")
def principal_case():
    """z* = exp(-t) x^2 (1-x)^2 with sigma = 1; source by symbolic differentiation."""
    t, x = sp.symbols("t x")
    zs = sp.exp(-t) * x ** 2 * (1 - x) ** 2
    f = sp.diff(zs, t) + sp.diff(sp.diff(zs, x, 2), x, 2)
    return {
        "exact": sp.lambdify((t, x), zs, "numpy"),
        "source": sp.lambdify((t, x), f, "numpy"),
        "z0": sp.lambdify(x, zs.subs(t, 0), "numpy"),
    }


@pytest.fixture(scope="session")
def full_linear_case():
    """z* = cos(t)(1 + sin(pi x)), sigma = 1 + x/2, gamma = 1; nonzero traces."""
    t, x = sp.symbols("t x")
    zs = sp.cos(t) * (1 + sp.sin(sp.pi * x))
    sig = 1 + x / 2
    fhat = (sp.diff(zs, t) + sp.diff(sig * sp.diff(zs, x, 2), x, 2)
            + sp.diff(zs, x, 2))
    return {
        "exact": sp.lambdify((t, x), zs, "numpy"),
        "exact_x": sp.lambdify((t, x), sp.diff(zs, x), "numpy"),
        "source": sp.lambdify((t, x), fhat, "numpy"),
        "sigma": sp.lambdify(x, sig, "numpy"),
    }


@pytest.fixture(scope="session")
def nonlinear_case():
    """y* = delta exp(-t) x^2(1-x)^2 with sigma = gamma = 1; g symbolic."""
    t, x, d = sp.symbols("t x delta")
    ys = d * sp.exp(-t) * x ** 2 * (1 - x) ** 2
    g = (sp.diff(ys, t) + sp.diff(sp.diff(ys, x, 2), x, 2)
         + sp.diff(ys, x, 2) + ys * sp.diff(ys, x))
    return {
        "exact": sp.lambdify((t, x, d), ys, "numpy"),
        "source": sp.lambdify((t, x, d), g, "numpy"),
        "y0": sp.lambdify((x, d), ys.subs(t, 0), "numpy"),
    }


def nonlinear_bd(case, grid, delta):
    z = np.zeros(grid.nt + 1)
    return BoundaryData(
        z, z.copy(), z.copy(), z.copy(),
        field_from_callable(lambda x: case["y0"](x, delta), grid),
        trajectory_from_callable(lambda t, x: case["source"](t, x, delta), grid))


@pytest.fixture(scope="session")
def closedloop_case():
    """y* = 0.01 exp(-t)(1 + x^2): curvature 0.02 exp(-t) never vanishes.

    The source is assembled symbolically for a given gamma expression, so
    the same fixture drives recovery, stability scans and trace oracles.
    """
    t, x = sp.symbols("t x")
    delta = sp.Rational(1, 100)
    ys = delta * sp.exp(-t) * (1 + x ** 2)
    gam = sp.Function("gam")(x)
    g = (sp.diff(ys, t) + sp.diff(sp.diff(ys, x, 2), x, 2)
         + gam * sp.diff(ys, x, 2) + ys * sp.diff(ys, x))

    def build(grid, gamma_expr_str="1"):
        gexpr = sp.sympify(gamma_expr_str, locals={"x": x})
        src = sp.lambdify((t, x), g.subs(gam, gexpr), "numpy")
        tt = grid.t
        e = np.exp(-tt)
        return BoundaryData(
            0.01 * e, 0.02 * e, np.zeros_like(tt), 0.02 * e,
            field_from_callable(lambda xx: 0.01 * (1 + xx ** 2), grid),
            trajectory_from_callable(lambda a, b: src(a, b) * np.ones_like(b),
                                     grid))

    return {
        "build": build,
        "exact": sp.lambdify((t, x), ys, "numpy"),
        "trace2": sp.lambdify(t, sp.diff(ys, x, 2).subs(x, 0), "numpy"),
    }


def layered_bump(grid, eta=None):
    """sin^2 window bump times the clamped quartic envelope."""
    T = grid.T
    eta = T / 10 if eta is None else eta
    t, x = grid.t, grid.x
    tfac = np.where((t >= eta - 1e-12) & (t <= T - eta + 1e-12),
                    np.sin(np.pi * np.clip((t - eta) / (T - 2 * eta), 0, 1)) ** 2,
                    0.0)
    return Trajectory(np.outer(tfac, x ** 2 * (1 - x) ** 2), grid)
