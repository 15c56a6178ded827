"""Lambda scan of the Carleman machinery on the random clamped ensemble.

For each lambda: worst empirical inequality constant over the ensemble, the
ledger balance of the worst member, and the coercivity margin delta_hat.
"""

import argparse

import numpy as np

from kslab.carleman import (CarlemanConfig, ensemble_audit, make_default_weight)
from kslab.grid import GridSpec, ScalarField1D
from kslab.linear_solver import CoefficientField


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nx", type=int, default=128)
    ap.add_argument("--nt", type=int, default=256)
    ap.add_argument("--members", type=int, default=50)
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--lambdas", default="2,4,8,16")
    args = ap.parse_args()

    g = GridSpec(args.nx, args.nt, 2.0)
    sigma = ScalarField1D(np.ones(args.nx + 1), g)
    coeff = CoefficientField(sigma, ScalarField1D(np.zeros(args.nx + 1), g))
    weight = make_default_weight(sigma, 1.0)
    cfg = CarlemanConfig(
        lambda_grid=tuple(float(s) for s in args.lambdas.split(",")))

    print(f"weight: r = {weight.r:.6f}, epsilon margin = "
          f"{weight.epsilon_margin:.4f}")
    ens = ensemble_audit(weight, coeff, cfg, n_members=args.members,
                         seed=args.seed)
    print(f"{'lambda':>8} {'worst c_hat':>12} {'delta_min':>10}")
    for row in ens.rows:
        print(f"{row.lam:8g} {row.c_hat:12.4f} "
              f"{ens.delta_min[row.lam]:10.4f}")
    delta0 = ("none" if ens.delta_at_lambda0 is None
              else f"{ens.delta_at_lambda0:.4f}")
    print(f"empirical lambda0 = {ens.lambda0 or 'none'}, "
          f"delta_hat(lambda0) = {delta0}")
    led = ens.worst_ledger
    print(f"worst-member ledger at lambda = {led.lam:g}: direct = "
          f"{led.direct:.6e}, itemized = {led.itemized:.6e}, relative "
          f"mismatch = {led.mismatch_rel:.2e}")


if __name__ == "__main__":
    main()
