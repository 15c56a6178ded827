"""Closed-loop recovery demo: synthesize measurements for a perturbed
anti-diffusion coefficient, recover it, and sweep the noise level."""

import argparse

import numpy as np
import sympy as sp

from kslab.grid import (GridSpec, ScalarField1D, discrete_norm,
                        field_from_callable, trajectory_from_callable)
from kslab.inverse import InverseConfig, recover_gamma, synthesize_measurements
from kslab.linear_solver import BoundaryData, CoefficientField


def build_bd(grid, gamma_vals):
    t, x = sp.symbols("t x")
    ys = sp.Rational(1, 100) * sp.exp(-t) * (1 + x ** 2)
    gam = sp.Function("gam")(x)
    g = (sp.diff(ys, t) + sp.diff(sp.diff(ys, x, 2), x, 2)
         + gam * sp.diff(ys, x, 2) + ys * sp.diff(ys, x))
    gam_interp = lambda xx: np.interp(xx, grid.x, gamma_vals)
    base = sp.lambdify((t, x), g.subs(gam, 0), "numpy")
    curv = sp.lambdify((t, x), sp.diff(ys, x, 2), "numpy")
    src = lambda tt, xx: base(tt, xx) + gam_interp(xx) * curv(tt, xx)
    e = np.exp(-grid.t)
    return BoundaryData(0.01 * e, 0.02 * e, np.zeros_like(e), 0.02 * e,
                        field_from_callable(lambda xx: 0.01 * (1 + xx ** 2),
                                            grid),
                        trajectory_from_callable(src, grid))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nx", type=int, default=48)
    ap.add_argument("--nt", type=int, default=64)
    ap.add_argument("--amplitude", type=float, default=5e-3)
    ap.add_argument("--noises", default="0,1e-4,1e-3")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    g = GridSpec(args.nx, args.nt, 2.0)
    gamma_true = ScalarField1D(1 + args.amplitude * np.sin(np.pi * g.x), g)
    gamma_tilde = ScalarField1D(np.ones(args.nx + 1), g)
    sigma = ScalarField1D(np.ones(args.nx + 1), g)
    coeff_true = CoefficientField(sigma, gamma_true)
    coeff_tilde = CoefficientField(sigma, gamma_tilde)
    bd = build_bd(g, gamma_true.values)
    pert = discrete_norm(ScalarField1D(gamma_true.values - gamma_tilde.values,
                                       g), "L2x")
    cfg = InverseConfig()

    print(f"perturbation amplitude {args.amplitude:g}, |pert|_L2 = {pert:.3e}")
    print(f"{'noise':>8} {'rel L2 err':>11} {'iters':>6} {'solves':>7} "
          f"{'final J':>10}")
    for noise in (float(s) for s in args.noises.split(",")):
        meas = synthesize_measurements(coeff_true, bd, 1.0,
                                       noise_level=noise, seed=args.seed)
        _, rep = recover_gamma(meas, coeff_tilde, bd, cfg,
                               gamma_true=gamma_true)
        print(f"{noise:8.0e} {rep.l2_error / pert:11.2%} "
              f"{len(rep.iterations) - 1:6d} {rep.forward_solves:7d} "
              f"{rep.final_j:10.2e}")


if __name__ == "__main__":
    main()
