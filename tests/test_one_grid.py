"""Every solver, inverse and Carleman entry point reads its grid from its
data and rejects data from two grids, even two of the same shape."""

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_coeff
from kslab.carleman import (carleman_audit, make_default_weight,
                            random_clamped_bump)
from kslab.errors import GridMismatch
from kslab.grid import GridSpec
from kslab.inverse import (InverseConfig, recover_gamma, stability_report,
                           synthesize_measurements)
from kslab.linear_solver import (solve_linear_full, solve_linear_many,
                                 solve_principal)
from kslab.nonlinear_solver import NonlinearSolveConfig, solve_ks


def bump(data):
    """A test function on the grid of data, inside the Carleman window."""
    return random_clamped_bump(data.coeff.sigma.grid,
                               np.random.default_rng(0))


# the same shape, T = 2 and T = 1; each call mixes data of a (on the first
# grid) with data of b (on the second)
CALLS = {
    "solve_linear_full": lambda a, b: solve_linear_full(a.coeff, b.bd),
    "solve_linear_many": lambda a, b: solve_linear_many(
        a.coeff, b.bd, b.bd.g.values[None]),
    "solve_principal": lambda a, b: solve_principal(a.coeff, b.bd.g, b.bd.y0),
    "solve_ks": lambda a, b: solve_ks(a.coeff, b.bd, NonlinearSolveConfig()),
    "synthesize_measurements": lambda a, b: synthesize_measurements(
        a.coeff, b.bd, 0.5),
    "stability_report": lambda a, b: stability_report(
        a.coeff, [b.coeff.gamma], a.bd, 0.5, InverseConfig()),
    "recover_gamma": lambda a, b: recover_gamma(
        synthesize_measurements(b.coeff, b.bd, 0.5), a.coeff, a.bd,
        InverseConfig()),
    "make_default_weight": lambda a, b: carleman_audit(
        bump(a), make_default_weight(b.coeff.sigma, 0.5)),
    "carleman_audit": lambda a, b: carleman_audit(
        bump(a), make_default_weight(a.coeff.sigma, 0.5),
        (bump(b), None, None)),
}


@pytest.mark.parametrize("entry", sorted(CALLS))
def test_data_from_two_grids_is_rejected(closedloop_case, entry):
    a, b = [SimpleNamespace(coeff=make_coeff(g, gamma=np.ones(g.nx + 1)),
                            bd=closedloop_case["build"](g, "1"))
            for g in (GridSpec(48, 64, 2.0), GridSpec(48, 64, 1.0))]
    with pytest.raises(GridMismatch):
        CALLS[entry](a, b)
