"""Fixed-point solver for the full nonlinear K-S system.

The nonlinearity y y_x is lagged: each sweep solves the linear system with
source g - v v_x evaluated on the previous iterate, which is exactly the
contraction map whose fixed point defines the solution.  Only the source
changes between sweeps, so a sweep is one source update
(``BoundaryData.with_source``, which keeps the corner gaps built once) plus
one march of the same banded CN system, which carries h1..h4 in its weighted
constraint rows.  The sweep history (update norms and contraction ratios) is
part of the result, because the contraction behavior itself is a test target:
ratios approach a limit proportional to the data size, and the iteration is
expected to break down once the data leaves the small-data regime.

The grid is the boundary data's; the first linear solve checks once that
the coefficient field shares it (GridMismatch otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence
from .grid import (Trajectory, diff_t_values, diff_x_values, discrete_norm,
                   row_norms, trapz_t)
from .linear_solver import (BoundaryData, CoefficientField, DEFAULT_COMP_TOL,
                            DEFAULT_LIN_TOL, operator_residual,
                            solve_linear_full)


@dataclass(frozen=True)
class NonlinearSolveConfig:
    max_picard: int = 50
    picard_tol: float = 1e-10
    comp_tol: float = DEFAULT_COMP_TOL
    lin_tol: float = DEFAULT_LIN_TOL

    def __post_init__(self):
        if self.max_picard < 1:
            raise ValueError("max_picard must be >= 1")
        if not (self.picard_tol > 0):
            raise ValueError("picard_tol must be positive")
        if not (self.lin_tol > 0 and self.comp_tol >= 0):
            raise ValueError("lin_tol must be positive, comp_tol non-negative")


@dataclass
class PicardReport:
    iterations: int
    update_norms: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    residual_rel: float = 0.0
    residual_l2: float = 0.0
    converged: bool = False


def _lagged_source(bd: BoundaryData, v: np.ndarray) -> Trajectory:
    """The lagged source g - v v_x."""
    with np.errstate(over="ignore"):
        vvx = v * diff_x_values(v, bd.grid, 1)
    if not np.all(np.isfinite(vvx)):
        raise NoConvergence("fixed-point iterate overflowed")
    return Trajectory(bd.g.values - vvx, bd.grid)


def smallness(bd: BoundaryData) -> dict:
    """Discrete surrogates for the small-data hypothesis norms."""
    grid = bd.grid
    out = {"y0_H4x": discrete_norm(bd.y0, "H4x")}
    g_t = diff_t_values(bd.g.values, grid, 1)
    g_sq = trapz_t(row_norms(bd.g.values, grid, 4) ** 2, grid)
    out["g_F"] = float(np.sqrt(g_sq + discrete_norm(
        Trajectory(g_t, grid), "L2Q") ** 2))
    for name in ("h1", "h2", "h3", "h4"):
        h = getattr(bd, name)
        hp = diff_t_values(h, grid, 1)
        hpp = diff_t_values(h, grid, 2)
        out[f"{name}_H2t"] = float(np.sqrt(
            discrete_norm(h, "L2t", grid) ** 2
            + discrete_norm(hp, "L2t", grid) ** 2
            + discrete_norm(hpp, "L2t", grid) ** 2))
    return out


def solve_ks(coeff: CoefficientField, bd: BoundaryData,
             cfg: NonlinearSolveConfig) -> tuple[Trajectory, PicardReport]:
    """Iterate v -> solution of the linear system with source g - v v_x.

    Starts from the linear solve with the nonlinearity off and stops when the
    relative update falls below picard_tol.  Raises NoConvergence when the
    budget is exhausted or the ratios sit at or above 1 for three consecutive
    sweeps (data outside the small-data regime); the partial report rides on
    the exception.
    """
    report = PicardReport(iterations=0)
    v = solve_linear_full(coeff, bd, cfg.comp_tol, cfg.lin_tol)
    # relative updates below this are linear-solver roundoff; a sweep that
    # stops contracting down there has converged to the achievable floor and
    # its update ratio measures noise, so it is not recorded
    floor_rel = 1e-8
    try:
        for k in range(1, cfg.max_picard + 1):
            bd_k = bd.with_source(_lagged_source(bd, v.values))
            v_new = solve_linear_full(coeff, bd_k, cfg.comp_tol, cfg.lin_tol)
            with np.errstate(over="ignore"):
                update = discrete_norm(v_new.values - v.values, "L2Q",
                                       bd.grid)
            if not np.isfinite(update):
                raise NoConvergence("fixed-point update is not finite")
            ratio = update / report.update_norms[-1] if k > 1 else None
            report.iterations = k
            report.update_norms.append(update)
            v = v_new
            vnorm = discrete_norm(v, "L2Q")
            rel = update / vnorm if vnorm > 0 else 0.0
            if update == 0.0 or rel <= cfg.picard_tol:
                if ratio is not None:
                    report.ratios.append(ratio)
                report.converged = True
                break
            if ratio is not None and ratio >= 0.5 and rel <= floor_rel:
                report.converged = True
                break
            if ratio is not None:
                report.ratios.append(ratio)
            if len(report.ratios) >= 3 and all(
                    r >= 1.0 for r in report.ratios[-3:]):
                raise NoConvergence(
                    f"contraction ratios {report.ratios[-3:]} stay at or above "
                    f"1 (data too large for the small-data regime)")
        if not report.converged:
            raise NoConvergence(
                f"no convergence in {cfg.max_picard} sweeps "
                f"(last update {report.update_norms[-1]:.3e})")
        fhat = _lagged_source(bd, v.values)
    except NoConvergence as exc:
        exc.report = report
        raise

    report.residual_rel, report.residual_l2 = operator_residual(v, coeff, fhat)
    return v, report
