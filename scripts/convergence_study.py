"""Manufactured-solution refinement study for the linear and nonlinear solvers.

Prints max-norm errors and observed orders across a dyadic ladder; the
sources come from symbolic differentiation of the chosen exact solutions.
"""

import argparse
import time

import numpy as np
import sympy as sp

from kslab.grid import (GridSpec, field_from_callable, trajectory_from_callable)
from kslab.linear_solver import BoundaryData, CoefficientField, solve_principal
from kslab.grid import ScalarField1D
from kslab.nonlinear_solver import NonlinearSolveConfig, solve_ks


def build_cases(delta):
    t, x = sp.symbols("t x")
    zs = sp.exp(-t) * x ** 2 * (1 - x) ** 2
    f_lin = sp.diff(zs, t) + sp.diff(sp.diff(zs, x, 2), x, 2)
    ys = delta * sp.exp(-t) * x ** 2 * (1 - x) ** 2
    g_nl = (sp.diff(ys, t) + sp.diff(sp.diff(ys, x, 2), x, 2)
            + sp.diff(ys, x, 2) + ys * sp.diff(ys, x))
    return {
        "lin_exact": sp.lambdify((t, x), zs, "numpy"),
        "lin_source": sp.lambdify((t, x), f_lin, "numpy"),
        "nl_exact": sp.lambdify((t, x), ys, "numpy"),
        "nl_source": sp.lambdify((t, x), g_nl, "numpy"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=3,
                    help="number of dyadic refinements starting at (32,64)")
    ap.add_argument("--delta", type=float, default=1e-2,
                    help="amplitude of the nonlinear manufactured solution")
    args = ap.parse_args()

    cases = build_cases(args.delta)
    print(f"{'grid':>12} {'linear err':>12} {'order':>6} "
          f"{'nonlinear err':>14} {'order':>6} {'secs':>6}")
    prev = (None, None)
    for level in range(args.levels):
        nx, nt = 32 * 2 ** level, 64 * 2 ** level
        g = GridSpec(nx, nt, 2.0)
        start = time.perf_counter()

        ones = np.ones(nx + 1)
        coeff = CoefficientField(ScalarField1D(ones, g),
                                 ScalarField1D(np.zeros(nx + 1), g))
        f = trajectory_from_callable(cases["lin_source"], g)
        z0 = field_from_callable(lambda x: x ** 2 * (1 - x) ** 2, g)
        z = solve_principal(coeff, f, z0)
        lin_err = np.abs(z.values
                         - trajectory_from_callable(cases["lin_exact"],
                                                    g).values).max()

        coeff_nl = CoefficientField(ScalarField1D(ones, g),
                                    ScalarField1D(ones.copy(), g))
        zeros_t = np.zeros(nt + 1)
        bd = BoundaryData(zeros_t, zeros_t.copy(), zeros_t.copy(),
                          zeros_t.copy(),
                          field_from_callable(
                              lambda x: args.delta * x ** 2 * (1 - x) ** 2, g),
                          trajectory_from_callable(cases["nl_source"], g))
        y, _ = solve_ks(coeff_nl, bd, NonlinearSolveConfig())
        nl_err = np.abs(y.values
                        - trajectory_from_callable(cases["nl_exact"],
                                                   g).values).max()
        took = time.perf_counter() - start

        def fmt_order(err, prev_err):
            return f"{np.log2(prev_err / err):6.2f}" if prev_err else "     -"

        print(f"({nx:4d},{nt:4d}) {lin_err:12.3e} {fmt_order(lin_err, prev[0])} "
              f"{nl_err:14.3e} {fmt_order(nl_err, prev[1])} {took:6.1f}")
        prev = (lin_err, nl_err)


if __name__ == "__main__":
    main()
