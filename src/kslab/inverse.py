"""Recovery of the anti-diffusion coefficient from boundary traces plus one
interior snapshot, and the numerical two-sided stability functional.

The measurement operator, `Observation`, is: second and third one-sided
x-derivative traces at x=0 over (0,T), plus the full profile at the grid
time nearest T0, measured in the paper's data norm (the H1(0,T) norm of each
trace plus the H4 norm of the snapshot).  The synthesis of measurements, the
recovery and the stability functional all read it.  The
reconstruction is regularized output least squares over a low-dimensional
spectral parameterization of gamma (constant plus the leading sine/cosine
modes), driven by a Gauss-Newton iteration on the stacked misfit with the
tangent-linear Jacobian (one linear solve per parameter on the K-S system
linearized at the current iterate, all marched together) and an
L-infinity projection of each step.  It stops when |grad J| is at most
grad_tol, when the projected step does not lower J, or after max_outer
iterations.

Admissibility: gamma stays in an L-infinity ball of radius M1, which must
hold the true gamma and every gamma_tilde (HypothesisViolation otherwise),
the trajectory norm surrogate stays below M2 (HypothesisViolation otherwise),
and the reference snapshot curvature must be bounded away from zero
(InfConditionViolated otherwise; without it the measurements carry no
information about gamma).

Everything lives on the one space-time grid of the data: no entry point
takes a grid beside its data.  Each reads it from its boundary data and
checks once that the other data (coefficients, measurements, gamma fields)
share it, GridMismatch otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import HypothesisViolation, InfConditionViolated
from .grid import (GridSpec, ScalarField1D, Trajectory, diff_t_values,
                   diff_x_values, discrete_norm, extract_traces,
                   require_same_grid, row_norms, sampled, trapz_weights)
from .linear_solver import (BoundaryData, CoefficientField,
                            solve_linear_many, zero_boundary_data)
from .nonlinear_solver import NonlinearSolveConfig, solve_ks


@dataclass(frozen=True)
class MeasurementSet:
    """Boundary traces y_xx(.,0), y_xxx(.,0) and the interior snapshot."""

    trace2: np.ndarray
    trace3: np.ndarray
    snapshot: ScalarField1D
    snapshot_time: float

    def __post_init__(self):
        grid = self.snapshot.grid
        for name in ("trace2", "trace3"):
            object.__setattr__(self, name, sampled(
                getattr(self, name), (grid.nt + 1,), name))


@dataclass(frozen=True)
class InverseConfig:
    M1: float = 10.0            # L-infinity cap on admissible gamma
    M2: float = 1e4             # cap on the trajectory norm surrogate
    r_floor: float = 1e-4       # required inf |ytilde_xx(T0, .)|
    tikhonov_alpha: float = 1e-10
    max_outer: int = 40
    grad_tol: float = 1e-9
    n_modes: int = 8            # spectral modes of the gamma parameterization

    def __post_init__(self):
        for name in ("M1", "M2", "r_floor", "grad_tol"):
            if not getattr(self, name) > 0:  # NaN is not positive
                raise ValueError(f"{name} must be positive")
        if self.n_modes < 0:
            raise ValueError("n_modes must be nonnegative")
        if not 0 <= self.tikhonov_alpha < np.inf:
            raise ValueError("tikhonov_alpha must be nonnegative and finite")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")


def snapshot_index(grid: GridSpec, T0: float) -> int:
    """Grid time slot nearest T0 (no interpolation), which must be an
    interior one: the snapshot at t = 0 or T is no interior measurement."""
    if not (0.0 < T0 < grid.T):
        raise ValueError(f"T0 must lie in (0, T), got {T0}")
    n0 = int(round(T0 / grid.dt))
    if not 0 < n0 < grid.nt:
        raise ValueError(f"T0 = {T0} rounds to the grid time slot {n0}, "
                         f"not one of 1..{grid.nt - 1}")
    return n0


# bytes of the tangent sources marched at once (at least one source); the
# march and its solutions hold a few more arrays that size
_STACK_BYTES = 1 << 22


class Observation:
    """The measurement operator on a grid and the paper's data norm.

    It observes the traces y_xx(.,0) and y_xxx(.,0) over (0,T) and the
    snapshot at the grid time slot n0 nearest T0.  The squared norm of the
    stack of an observation gap is the data norm squared: the squared
    H1(0,T) norms of the two trace gaps plus the squared H4 norm of the
    snapshot gap, each the trapezoid quadrature of grid.discrete_norm.
    """

    def __init__(self, grid: GridSpec, T0: float):
        self.grid = grid
        self.n0 = snapshot_index(grid, T0)
        self.swt = np.sqrt(trapz_weights(grid.nt + 1, grid.dt))
        self.swx = np.sqrt(trapz_weights(grid.nx + 1, grid.dx))

    @cached_property
    def zero_bd(self) -> BoundaryData:
        return zero_boundary_data(self.grid)

    def observe(self, values: np.ndarray):
        """Traces and snapshot (views into values) of a trajectory array,
        or of each trajectory of a (k, nt+1, nx+1) stack."""
        return (*extract_traces(values, self.grid), values[..., self.n0, :])

    def stack(self, t2, t3, ds) -> np.ndarray:
        """Weighted rows of trace and snapshot gaps (linear in each), along
        the last axis: of one set of gaps, or of each row of (k, .) arrays
        of them."""
        grid, swt, swx = self.grid, self.swt, self.swx
        parts = []
        for d in (t2, t3):
            parts += [swt * d, swt * diff_t_values(d.T, grid, 1).T]
        parts += [swx * ds] + [swx * diff_x_values(ds, grid, k)
                               for k in range(1, 5)]
        return np.concatenate(parts, axis=-1)

    def check_curvature(self, y: np.ndarray, r_floor: float) -> None:
        """InfConditionViolated when the snapshot of the trajectory array y
        has inf |y_xx| below r_floor: the measurements then carry no
        information about gamma."""
        curvature = np.abs(diff_x_values(y[self.n0], self.grid, 2)).min()
        if curvature < r_floor:
            raise InfConditionViolated(
                f"inf |ytilde_xx(T0,.)| = {curvature:.3e} < r_floor={r_floor:g}: "
                "measurements carry no gamma information")

    def jacobian(self, lin: CoefficientField, basis: np.ndarray,
                 lin_tol: float) -> np.ndarray:
        """Row m: the stack of dy, the exact derivative of the observation
        at the iterate y = lin.G1 along the profile basis[m].  dy solves the
        K-S system linearized at y with zero data and source -basis[m] y_xx;
        the profiles are marched in groups of about _STACK_BYTES of
        sources."""
        y_xx = diff_x_values(lin.G1.values, self.grid, 2)
        group = max(1, _STACK_BYTES // y_xx.nbytes)
        rows = []
        for b in np.split(basis, range(group, len(basis), group)):
            dy = solve_linear_many(lin, self.zero_bd, -b[:, None] * y_xx,
                                   lin_tol=lin_tol)
            rows.append(self.stack(*self.observe(dy)))
        return np.concatenate(rows)


def synthesize_measurements(coeff: CoefficientField, bd: BoundaryData,
                            T0: float, noise_level: float = 0.0, seed: int = 0,
                            solve_cfg: NonlinearSolveConfig | None = None
                            ) -> MeasurementSet:
    """Forward-solve and read off the measurement operator.

    Noise, when requested, is i.i.d. uniform and relative across the three
    measurement channels: trace2, trace3 and the snapshot are each scaled by
    their own (1 + noise_level * U(-1, 1)) factor drawn from a generator
    seeded with ``seed``.  Channel-wise scaling
    keeps the noisy data inside the differentiability class that the
    H1-in-time and H4-in-space misfit norms require; white per-sample noise
    would be amplified by dt^-1 and dx^-4 and carry no recoverable signal.
    """
    solve_cfg = solve_cfg or NonlinearSolveConfig()
    obs = Observation(bd.grid, T0)
    y, _ = solve_ks(coeff, bd, solve_cfg)
    trace2, trace3, snapshot = obs.observe(y.values)
    snapshot = snapshot.copy()
    if noise_level > 0:
        rng = np.random.default_rng(seed)
        trace2 = trace2 * (1 + noise_level * rng.uniform(-1, 1))
        trace3 = trace3 * (1 + noise_level * rng.uniform(-1, 1))
        snapshot = snapshot * (1 + noise_level * rng.uniform(-1, 1))
    return MeasurementSet(trace2, trace3, ScalarField1D(snapshot, bd.grid),
                          bd.grid.t[obs.n0])


def linearized_field(coeff: CoefficientField, y: Trajectory) -> CoefficientField:
    """coeff with the advection G1 = y and reaction G2 = y_x of the K-S
    system linearized at y, sharing coeff's sigma/gamma band."""
    return coeff.with_lower_order(
        y, Trajectory(diff_x_values(y.values, y.grid, 1), y.grid))


def h1t_h4x_norm(u: np.ndarray, grid: GridSpec) -> float:
    """Discrete H1(0,T; H4(0,1)) norm of a trajectory array."""
    wt = trapz_weights(grid.nt + 1, grid.dt)
    total = 0.0
    for arr in (u, diff_t_values(u, grid, 1)):
        total += float(wt @ row_norms(arr, grid, 4) ** 2)
    return float(np.sqrt(total))


def _check_m1(gamma: ScalarField1D, cfg: InverseConfig, label: str) -> float:
    """|gamma|_inf; HypothesisViolation naming M1, and label in its message,
    when it exceeds M1."""
    bound = np.abs(gamma.values).max()
    if bound > cfg.M1:
        raise HypothesisViolation(
            f"{label} = {bound:.3e} exceeds M1={cfg.M1:g}", failed=["M1"])
    return bound


def _check_m2(y: Trajectory, cfg: InverseConfig) -> None:
    """HypothesisViolation naming M2 when the norm surrogate of y exceeds it."""
    surrogate = h1t_h4x_norm(y.values, y.grid)
    if surrogate > cfg.M2:
        raise HypothesisViolation(
            f"trajectory norm surrogate {surrogate:.3e} exceeds M2={cfg.M2:g}",
            failed=["M2"])


def linf_h1x_norm(u: np.ndarray, grid: GridSpec) -> float:
    """Discrete L-infinity(0,T; H1(0,1)) norm of a trajectory array."""
    return float(row_norms(u, grid, 1).max())


@dataclass
class StabilityReport:
    lhs: float                   # |gamma - gamma_tilde|^2 in L2(0,1)
    middle: float                # data norm^2 + |snapshot gap|^4 in H1
    far_rhs: float               # H1(0,T;H4)^2 + Linf(0,T;H1)^4 of y - ytilde
    c_lower: float               # middle / lhs
    c_upper: float               # middle / far_rhs
    degenerate: bool = False


def stability_report(coeff: CoefficientField,
                     gamma_tildes: list[ScalarField1D], bd: BoundaryData,
                     T0: float, cfg: InverseConfig,
                     solve_cfg: NonlinearSolveConfig | None = None
                     ) -> list[StabilityReport]:
    """Evaluate both sides of the two-sided stability estimate, one report
    per gamma_tilde of the list, against one solve of the reference y.

    Left: the squared L2 coefficient gap.  Middle: the squared data norm of
    the observation gap (Observation.stack) plus the fourth power of the H1
    snapshot gap.  Far right: the H1(0,T;H4) and L-infinity(0,T;H1) norms of
    the trajectory difference.  The empirical constants are the exact ratios
    middle/lhs and middle/far.  gamma and every gamma_tilde must lie in the
    M1 ball and y's norm surrogate must be at most M2 (HypothesisViolation
    otherwise), checked once, before any ytilde is solved; each ytilde's
    snapshot curvature after its solve.
    """
    require_same_grid(coeff.sigma, bd.y0, *gamma_tildes)
    _check_m1(coeff.gamma, cfg, "|gamma|_inf")
    for gamma_tilde in gamma_tildes:
        _check_m1(gamma_tilde, cfg, "|gamma_tilde|_inf")
    grid = bd.grid
    obs = Observation(grid, T0)
    solve_cfg = solve_cfg or NonlinearSolveConfig()
    y, _ = solve_ks(coeff, bd, solve_cfg)
    _check_m2(y, cfg)
    seen = obs.observe(y.values)

    reports = []
    for gamma_tilde in gamma_tildes:
        coeff_t = CoefficientField(coeff.sigma, gamma_tilde)
        ytilde, _ = solve_ks(coeff_t, bd, solve_cfg)
        obs.check_curvature(ytilde.values, cfg.r_floor)

        gaps = [a - b for a, b in zip(seen, obs.observe(ytilde.values))]
        data = obs.stack(*gaps)
        middle = float(data @ data) + discrete_norm(gaps[2], "H1x", grid) ** 4
        lhs = discrete_norm(coeff.gamma.values - gamma_tilde.values, "L2x",
                            grid) ** 2
        u = y.values - ytilde.values
        far = h1t_h4x_norm(u, grid) ** 2 + linf_h1x_norm(u, grid) ** 4
        reports.append(StabilityReport(
            lhs, middle, far, middle / lhs if lhs > 0 else np.nan,
            middle / far if far > 0 else np.nan,
            lhs == 0.0 or middle == 0.0))
    return reports


def gamma_basis(grid: GridSpec, n_modes: int) -> np.ndarray:
    """Constant plus alternating sin/cos modes: rows are basis profiles."""
    x = grid.x
    rows = [np.ones_like(x)]
    for m in range(1, n_modes + 1):
        k = (m + 1) // 2
        rows.append(np.sin(k * np.pi * x) if m % 2 else np.cos(k * np.pi * x))
    return np.asarray(rows)


@dataclass
class RecoveryReport:
    final_j: float
    grad_norm: float
    iterations: list = field(default_factory=list)  # (iter, J, |grad|, l2err)
    l2_error: float | None = None
    converged: bool = False
    max_outer_reached: bool = False
    forward_solves: int = 0


def recover_gamma(meas: MeasurementSet, coeff_tilde: CoefficientField,
                  bd: BoundaryData, cfg: InverseConfig,
                  gamma_true: ScalarField1D | None = None,
                  solve_cfg: NonlinearSolveConfig | None = None
                  ) -> tuple[ScalarField1D, RecoveryReport]:
    """Regularized output least squares for gamma, anchored at gamma_tilde.

    Minimizes the squared H1-in-time trace misfits plus the squared H4
    snapshot misfit plus tikhonov_alpha * |gamma - gamma_tilde|^2_{H2} over
    the spectral parameterization.  Each iteration takes one Gauss-Newton
    step, the least-squares solution of J delta = -r for the stacked misfit
    residual r and its tangent-linear Jacobian J, projected into the M1
    ball, and accepts it when it lowers J.  The run stops when |grad J| is
    at most grad_tol (converged), when the projected step does not lower J
    or leaves gamma as it is (converged: no descent), or after max_outer
    iterations (max_outer_reached).  The misfit is the observation's
    stack of the data gaps (Observation.stack) followed by the Tikhonov
    rows; column m of its Jacobian is Observation.jacobian's row m for the
    basis profile b_m, followed by b_m's Tikhonov rows: the exact
    derivative of the discrete map, one linear solve per basis profile, all
    of them one march.  gamma_tilde must lie in the M1 ball, so that the
    projection can keep every iterate in it, and so must gamma_true when
    given (HypothesisViolation otherwise, the anchor checked first).  The
    first iterate is gamma_tilde itself, so its solve is ytilde, on which
    the norm surrogate is checked against M2 (HypothesisViolation
    otherwise) and then the snapshot curvature.

    The grid is the data's: the measurements, coeff_tilde, bd and gamma_true
    (when given) must share it, GridMismatch otherwise.
    """
    require_same_grid(meas.snapshot, coeff_tilde.sigma, bd.y0,
                      *[f for f in (gamma_true,) if f is not None])
    grid = bd.grid
    solve_cfg = solve_cfg or NonlinearSolveConfig()
    gamma_tilde = coeff_tilde.gamma
    anchor = _check_m1(gamma_tilde, cfg, "anchor |gamma_tilde|_inf")
    if gamma_true is not None:
        _check_m1(gamma_true, cfg, "|gamma|_inf")
    obs = Observation(grid, meas.snapshot_time)
    basis = gamma_basis(grid, cfg.n_modes)
    n_par = basis.shape[0]
    solves = 0
    sqrt_alpha = np.sqrt(cfg.tikhonov_alpha)

    def gamma_of(theta: np.ndarray) -> np.ndarray:
        return gamma_tilde.values + theta @ basis

    def project(theta: np.ndarray) -> np.ndarray:
        gv = gamma_of(theta)
        if np.abs(gv).max() <= cfg.M1:
            return theta
        scale = (cfg.M1 - anchor) / np.abs(theta @ basis).max()
        return theta * min(1.0, 0.999 * scale)

    def tikhonov(dg: np.ndarray) -> np.ndarray:
        """The regularizer's rows of a gamma gap, or of each row of a (k, .)
        array of them: sqrt(alpha) times the H2 rows."""
        return np.concatenate([sqrt_alpha * obs.swx * dg] + [
            sqrt_alpha * obs.swx * diff_x_values(dg, grid, k) for k in (1, 2)],
            axis=-1)

    def residual(theta: np.ndarray):
        """Stacked misfit whose squared norm is exactly the objective J, and
        the K-S system linearized at the solve."""
        nonlocal solves
        gv = gamma_of(theta)
        coeff_g = CoefficientField(coeff_tilde.sigma, ScalarField1D(gv, grid))
        y, _ = solve_ks(coeff_g, bd, solve_cfg)
        solves += 1
        t2, t3, snapshot = obs.observe(y.values)
        data = obs.stack(t2 - meas.trace2, t3 - meas.trace3,
                         snapshot - meas.snapshot.values)
        return (np.concatenate([data, tikhonov(gv - gamma_tilde.values)]),
                linearized_field(coeff_g, y))

    def l2err(theta: np.ndarray):
        if gamma_true is None:
            return None
        return discrete_norm(gamma_of(theta) - gamma_true.values, "L2x", grid)

    report = RecoveryReport(final_j=np.inf, grad_norm=np.inf)
    theta = np.zeros(n_par)
    r, lin = residual(theta)
    _check_m2(lin.G1, cfg)
    obs.check_curvature(lin.G1.values, cfg.r_floor)
    j_cur = float(r @ r)
    grad_norm = np.inf
    for it in range(cfg.max_outer):
        J = np.concatenate([obs.jacobian(lin, basis, solve_cfg.lin_tol),
                            tikhonov(basis)], axis=-1).T
        grad = 2.0 * (J.T @ r)
        grad_norm = float(np.linalg.norm(grad))
        report.iterations.append((it, j_cur, grad_norm, l2err(theta)))
        if grad_norm <= cfg.grad_tol:
            report.converged = True
            break

        cand = project(theta + np.linalg.lstsq(J, -r, rcond=None)[0])
        # J depends on theta only through gamma: a step that leaves gamma
        # as it is (as when the projection leaves no room) is no descent
        if np.array_equal(gamma_of(cand), gamma_of(theta)):
            report.converged = True
            break
        r_new, lin_new = residual(cand)
        j_new = float(r_new @ r_new)
        if not j_new < j_cur:
            report.converged = True  # no descent along the projected step
            break
        theta, r, j_cur, lin = cand, r_new, j_new, lin_new
    else:
        report.max_outer_reached = True

    report.final_j = j_cur
    report.grad_norm = grad_norm
    report.l2_error = l2err(theta)
    report.forward_solves = solves
    return ScalarField1D(gamma_of(theta), grid), report
