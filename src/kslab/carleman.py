"""Carleman weight construction, conjugated-operator decomposition and the
numerical audit of the weighted inequality.

The weight is phi(t,x) = beta(x)/phi0(t) with beta increasing and concave and
phi0 a C^1 bump vanishing at t = 0, T, so exp(-lambda*phi) vanishes to all
orders in the time layers.  All phi derivatives (up to phi_xxxx and phi_t)
are analytic: beta and phi0 carry closed-form derivatives, never finite
differences, because the decomposition consumes fourth derivatives of phi.

Quadrature is restricted to the window [eta, T-eta] (default eta = T/10) and
test functions must be negligible outside it; this avoids evaluating the
weight inside the singular layers.

The conjugated operator P = exp(-lambda*phi) L exp(lambda*phi) splits into
P1 (self-adjoint-like), P2 (skew-like) and a remainder R.  The reference
evaluation of P, conjugated_reference, is expanded from the definition by
the chain rule and shares every discrete derivative array with the itemized
P1+P2+R, so the identity residual measures the split's algebra, not the
stencils.  The remainder formulas carry sigma-derivative terms that matter
only for non-constant diffusion; each was checked against the reference.

A weight is admissible for one sigma only, so it carries that sigma and
its jet (sigma, sigma_x, sigma_xx, sigma_xxx), and no entry point takes a
coefficient field.  Every entry point evaluates through a _Window per
(weight, eta), which holds the rows, phi arrays and trapezoid weights and
takes a test function's jets, and a _Lambda per lambda on it, which builds
what that lambda adds on first use.  The ledger's coefficient fields and
the conjugated-operator reference are the plain numpy functions of
ledger_fields, generated from sympy derivations kept with the tests, so no
entry point imports sympy.  Since phi = beta(x)/phi0(t), each ledger field
is a time factor u^a v^b (u = 1/phi0, v = -phi0'/phi0^2) on the window rows
times an x factor on the nodes, and the ledger contracts the two factors
with a w-derivative square one after the other: no field is ever formed on
the whole window.

Every ensemble member is a coefficient vector c in a span of 2*n_modes
profiles (_Span), and each audit quantity and both parts of delta_hat are
quadratic forms c^T M c.  The forms use the ledger's split too: each term is
lam^p times a time factor, at most one field and an x factor.  So
<P1 w, P2 w> and the weighted norm are sums of lam^p M_p, each M_p built once
per span, and per lambda the terms under exp(-2 lambda phi) are reduced in
time by one product with that field.  ensemble_audit builds the forms of each
lambda once and screens all members with them; it evaluates on the
per-member path only the members whose bounds reach the reported extremes,
and builds the full ledger once, for the worst member at the largest lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import HypothesisViolation, LayerViolation
from .grid import (GridSpec, ScalarField1D, Trajectory, diff_matrix,
                   diff_t_values, diff_x_values, require_same_grid,
                   trapz_weights)
from .ledger_fields import FIELDS, conjugated_reference

_LAYER_TOL = 1e-12
_BOUNDARY = [name for name in FIELDS if name.startswith("bnd_")]
_INTERIOR = [name for name in FIELDS if name not in _BOUNDARY]
# the derivative order k of the w_kx^2 each boundary field multiplies, and
# the columns x = 0 and x = 1
_SQUARES = {name: ("w2", "wx2", "wxx2", "wxxx2").index(FIELDS[name][1])
            for name in _BOUNDARY}
_ENDS = [0, -1]
# the lambda of the entry points called without one
_DEFAULT_LAM = 8.0
# the horizons T a weight accepts: the bump squares T0 and T - T0, and the
# audit's time factors scale like T^-1 and T^-2 (v = -phi0'/phi0^2 and the
# squared time derivatives of the weight) times powers of lambda and 1/phi0,
# so T^2 and T^-2 keep 1e100 of float range to spare
_T_RANGE = (1e-100, 1e100)


@dataclass(frozen=True)
class CarlemanWeight:
    """Sampled weight data with analytic derivatives, for one sigma.

    sigma is the diffusion the weight was built for and sigma_jet holds
    (sigma, sigma_x, sigma_xx, sigma_xxx) on the nodes; both are read-only,
    and the weight lives on sigma's grid.  beta_derivs[k] holds d^k beta /
    dx^k on the nodes for k = 0..4; phi0 and phi0_prime are sampled on the
    time nodes with phi0 normalized to peak value 1 at T0.  r is the largest
    admissible hypothesis margin and epsilon_margin the pointwise slack of
    the four sign inequalities the decomposition rests on.
    """

    sigma: ScalarField1D
    sigma_jet: tuple
    beta_derivs: tuple
    phi0: np.ndarray
    phi0_prime: np.ndarray
    r: float
    epsilon_margin: float

    @property
    def grid(self) -> GridSpec:
        return self.sigma.grid

    def phi_arrays(self, rows: np.ndarray):
        """(phi, phi_x, phi_xx, phi_xxx, phi_xxxx, phi_t) on the given rows."""
        inv = 1.0 / self.phi0[rows]
        b = self.beta_derivs
        out = [np.outer(inv, b[k]) for k in range(5)]
        phi_t = np.outer(-self.phi0_prime[rows] * inv ** 2, b[0])
        return out[0], out[1], out[2], out[3], out[4], phi_t


def _time_window(grid: GridSpec, eta: float | None):
    """eta (T/10 when None) and the mask of the time nodes in [eta, T-eta],
    never t = 0 or T, where phi0 vanishes, however small eta is."""
    eta = grid.T / 10.0 if eta is None else eta
    if not (0 < eta < grid.T / 2):
        raise ValueError(f"eta must lie in (0, T/2), got {eta}")
    t = grid.t
    return eta, ((t >= eta - 1e-12) & (t <= grid.T - eta + 1e-12)
                 & (t > 0) & (t < grid.T))


def _phi0_bump(t: np.ndarray, T: float, T0: float):
    """Piecewise-quadratic C^1 bump with phi0(0)=phi0(T)=0 and peak 1 at T0."""
    left = t * (2 * T0 - t) / T0 ** 2
    right = (T - t) * (T - 2 * T0 + t) / (T - T0) ** 2
    phi0 = np.where(t <= T0, left, right)
    phi0p = np.where(t <= T0, (2 * T0 - 2 * t) / T0 ** 2,
                     (2 * T0 - 2 * t) / (T - T0) ** 2)
    return phi0, phi0p


def _epsilon_margin(beta_derivs, sigma_jet):
    """Pointwise slack of the four sign inequalities, scaled by beta."""
    b0, b1, b2 = beta_derivs[0], beta_derivs[1], beta_derivs[2]
    sigma, sigma_x = sigma_jet[:2]
    exprs = (
        b2,
        30 * b2 * sigma + 12 * b1 * sigma_x,
        58 * b2 * sigma + 40 * b1 * sigma_x,
        2 * b2 * sigma - 4 * b1 * sigma_x,
    )
    return float(min((-e / b0).min() for e in exprs))


def make_default_weight(sigma: ScalarField1D, T0: float) -> CarlemanWeight:
    """Weight with beta = sqrt(1+x) and the quadratic time bump peaking at T0.

    Four of the five hypotheses hold by construction: beta > 0, beta' > 0
    (hip1B) and beta'' < 0 (hip3B) on [0, 1], so r = min(beta, beta',
    -beta'') = 2^-3.5 on every grid, and phi0 vanishes at t = 0, T (hip1P)
    and lies in (0, 1] in between (hip2P) for every T0 in (0, T).  Only the
    smallness condition hip4B, |sigma_x beta'| <= (r/4) min sigma, depends
    on sigma; HypothesisViolation names it when it fails.  A horizon T
    outside _T_RANGE is a ValueError.  The weight keeps sigma and its jet,
    and lives on sigma's grid.
    """
    grid = sigma.grid
    low, high = _T_RANGE
    if not low <= grid.T <= high:
        raise ValueError(f"T = {grid.T:g} must lie in [{low:g}, {high:g}], "
                         "where the weight's time factors stay in range")
    if not (0.0 < T0 < grid.T):
        raise ValueError(f"T0 must lie in (0, T), got {T0}")
    x = grid.x
    beta_derivs = (
        np.sqrt(1 + x),
        0.5 * (1 + x) ** -0.5,
        -0.25 * (1 + x) ** -1.5,
        0.375 * (1 + x) ** -2.5,
        -0.9375 * (1 + x) ** -3.5,
    )
    b0, b1, b2 = beta_derivs[:3]
    jet = (sigma.values,) + tuple(diff_x_values(sigma.values, grid, k)
                                  for k in (1, 2, 3))
    for part in jet:
        part.flags.writeable = False
    r = min(b0.min(), b1.min(), -b2.max())
    if np.abs(jet[1] * b1).max() > (r / 4.0) * jet[0].min():
        raise HypothesisViolation("weight hypotheses violated: hip4B",
                                  failed=["hip4B"])
    eps = _epsilon_margin(beta_derivs, jet)
    phi0, phi0p = _phi0_bump(grid.t, grid.T, T0)
    return CarlemanWeight(sigma, jet, beta_derivs, phi0, phi0p, float(r), eps)


class _Window:
    """What every quantity needs of one weight and window [eta, T-eta]: the
    rows, the phi arrays, the time factors u = 1/phi0 and v = -phi0'/phi0^2
    of the ledger fields, the weight's sigma jet and the trapezoid weights,
    and from first use the powers of phi and phi_x that each _Lambda
    scales."""

    def __init__(self, weight: CarlemanWeight, eta: float | None):
        self.weight, self.grid = weight, weight.grid
        self.eta, inside = _time_window(self.grid, eta)
        self.rows = rows = np.flatnonzero(inside)
        self.phi = weight.phi_arrays(rows)
        self.u = 1.0 / weight.phi0[rows]
        self.v = -weight.phi0_prime[rows] * self.u ** 2
        self.sig = weight.sigma_jet
        self.trapz_t = trapz_weights(rows.size, self.grid.dt)
        self.trapz_x = trapz_weights(self.grid.nx + 1, self.grid.dx)

    def quad(self, values: np.ndarray) -> float:
        """Trapezoid quadrature over the window rows x [0, 1]."""
        return float(self.trapz_t @ values @ self.trapz_x)

    def quad_t(self, series: np.ndarray) -> float:
        return float(self.trapz_t @ series)

    def check(self, w: Trajectory) -> np.ndarray:
        """w on the window rows; GridMismatch for a w from another grid,
        LayerViolation for one that is not negligible outside the window."""
        require_same_grid(w, self)
        w0 = w.values[self.rows]
        inside = np.abs(w0).max()
        outside = np.abs(np.delete(w.values, self.rows, 0)).max(initial=0.0)
        if outside > _LAYER_TOL * max(inside, 1e-300):
            raise LayerViolation(
                f"test function carries {outside:.2e} outside the time window "
                f"(inside max {inside:.2e})")
        return w0

    def jets(self, w: Trajectory):
        """([w, w_x, .., w_xxxx], w_t, [w^2, .., w_xxx^2]) on the window rows,
        after check(w)."""
        w0 = self.check(w)
        jets = [w0] + [diff_x_values(w0, self.grid, k) for k in range(1, 5)]
        return (jets, diff_t_values(w.values, self.grid, 1)[self.rows],
                [j ** 2 for j in jets[:4]])

    def full(self, values: np.ndarray) -> Trajectory:
        """Window-row values as a trajectory that is zero outside the window."""
        out = np.zeros((self.grid.nt + 1, self.grid.nx + 1))
        out[self.rows] = values
        return Trajectory(out, self.grid)

    @cached_property
    def phi_powers(self) -> tuple:
        """phi^7, phi^5 and phi^3: the weighted norm's factors but for lam."""
        phi = self.phi[0]
        return phi ** 7, phi ** 5, phi ** 3

    @cached_property
    def px_powers(self) -> tuple:
        """phi_x^2, phi_x^3, phi_x^4 and (phi_x^2 sigma)_x, of which the P1
        and P2 factors are lam-multiples."""
        _, px, pxx = self.phi[:3]
        s, sx = self.sig[:2]
        px2 = px ** 2
        return px2, px ** 3, px ** 4, 2 * px * pxx * s + px2 * sx


class _Lambda:
    """What one lambda adds on a window.  Each part, and the two factors of
    each ledger field, is built on first use, so an entry point pays only for
    what it reads.  lambda's one range rule: a lambda whose reciprocal (the
    curvature terms' lam^-1) overflows, lambda = 0 aside, or for which lam^7
    phi^7, the weighted norm's weight of w^2, overflows somewhere on the
    window is a ValueError."""

    def __init__(self, window: _Window, lam: float | None):
        self.window = window
        self.lam = _DEFAULT_LAM if lam is None else lam
        self._factors = {}
        phi_max, lam = window.phi[0].max(), np.float64(self.lam)
        with np.errstate(over="ignore"):
            if lam != 0 and not np.isfinite(1 / lam):
                raise ValueError(f"lambda = {lam:g} overflows 1/lambda")
            if not np.isfinite(lam ** 7 * phi_max ** 7):
                raise ValueError(f"lambda = {lam:g} overflows lambda^7 "
                                 f"phi^7, where phi reaches {phi_max:.4g}")

    @cached_property
    def e2(self) -> np.ndarray:
        return np.exp(-2 * self.lam * self.window.phi[0])

    @cached_property
    def boundary(self) -> list:
        """(exp(-2 lam phi), v_xx^2 factor, v_xxx^2 factor) at x = 0 and 1."""
        lam, (phi, px), sig = self.lam, self.window.phi[:2], self.window.sig[0]
        return [(np.exp(-2 * lam * phi[:, col]),
                 lam ** 3 * px[:, col] ** 3 * sig[col] ** 2,
                 lam * px[:, col] * sig[col] ** 2) for col in (0, -1)]

    @cached_property
    def norm(self) -> tuple:
        """Weights of w^2, w_x^2, w_xx^2 and w_xxx^2 in the weighted norm."""
        lam, (p7, p5, p3) = self.lam, self.window.phi_powers
        return (lam ** 7 * p7, lam ** 5 * p5, lam ** 3 * p3,
                lam * self.window.phi[0])

    @cached_property
    def split(self) -> tuple:
        """The w-independent factor of each P1 and P2 term, in the order in
        which _p1_p2 multiplies them into the w derivatives."""
        px, (px2, px3, px4, pxs_x) = self.window.phi[1], self.window.px_powers
        (s, sx), lam = self.window.sig[:2], self.lam
        lam2, lam3, lam4 = lam ** 2, lam ** 3, lam ** 4
        return (6 * lam2 * px2 * s, lam4 * px4 * s, 2 * sx,
                6 * lam2 * pxs_x, 4 * lam3 * px3 * s, 4 * lam * px * s,
                4 * lam3 * px * pxs_x)

    def factors(self, name: str) -> tuple:
        """(tf, xf): the ledger field FIELDS[name] is tf on the window rows
        times xf on the nodes."""
        if name not in self._factors:
            x_factor, _, a, b = FIELDS[name]
            window = self.window
            xf = x_factor(self.lam, *window.weight.beta_derivs, *window.sig)
            self._factors[name] = (window.u ** a * window.v ** b,
                                   np.broadcast_to(xf, (window.grid.nx + 1,)))
        return self._factors[name]

    def column(self, name: str, col: int) -> np.ndarray:
        """The ledger field FIELDS[name] at node col, on the window rows."""
        tf, xf = self.factors(name)
        return tf * xf[col]


def _q_arrays(q, window: _Window, m: float = np.inf):
    """q0, q1, q2 (each a Trajectory or None, or q None for all three) on
    the window rows, an absent one as the scalar 0.0; GridMismatch for a q
    from another grid, ValueError when one exceeds the bound m."""
    out = []
    for i, qi in enumerate((None, None, None) if q is None else q):
        if qi is not None:
            require_same_grid(qi, window)
        qi = 0.0 if qi is None else qi.values[window.rows]
        if np.abs(qi).max() > m + 1e-12:
            raise ValueError(f"q{i} exceeds the configured bound m={m}")
        out.append(qi)
    return out


def _p1_p2(lw: _Lambda, jets, wt):
    """P1 w and P2 w on the window rows from the itemized formulas."""
    f_wxx, f_w, f_sx, f_wx, g_wx, g_wxxx, g_w = lw.split
    sig = lw.window.sig
    w0, wx, wxx, wxxx, wxxxx = jets
    swxx_xx = sig[2] * wxx + f_sx * wxxx + sig[0] * wxxxx
    P1 = f_wxx * wxx + f_w * w0 + swxx_xx + f_wx * wx
    P2 = wt + g_wx * wx + g_wxxx * wxxx + g_w * w0
    return P1, P2


def _remainder(lw: _Lambda, jets, qs):
    """R w on the window rows, the lower-order rest of the split."""
    w0, wx, wxx = jets[:3]
    _, px, pxx, pxxx, pxxxx, pt = lw.window.phi
    sig, sx, sxx = lw.window.sig[:3]
    q0, q1, q2 = qs
    lam, lam2, lam3 = lw.lam, lw.lam ** 2, lw.lam ** 3
    # the 6*lam*phi_xx*sigma_x term must multiply w_x, not w -- the identity
    # only balances for constant sigma otherwise
    return (lam * pt * w0 + 2 * lam * px * sxx * wx + lam2 * px ** 2 * sxx * w0
            + lam * pxx * sxx * w0
            + 6 * lam * px * sx * wxx + 6 * lam2 * px * pxx * sx * w0
            + 6 * lam * pxx * sx * wx + 2 * lam * pxxx * sx * w0
            + 4 * lam2 * px * pxxx * sig * w0 + 6 * lam * pxx * sig * wxx
            + 3 * lam2 * pxx ** 2 * sig * w0 + 4 * lam * pxxx * sig * wx
            + lam * pxxxx * sig * w0
            + q0 * w0 + q1 * wx + q1 * lam * px * w0
            + q2 * wxx + 2 * lam * q2 * px * wx + lam2 * q2 * px ** 2 * w0
            + lam * pxx * q2 * w0
            - 2 * lam3 * px ** 2 * pxx * sig * w0 - 2 * lam3 * px ** 3 * sx * w0)


def conjugate_decompose(w: Trajectory, weight: CarlemanWeight, q=None,
                        lam: float | None = None, eta: float | None = None):
    """Evaluate the split Pw = P1 w + P2 w + R w term by term.

    Returns three trajectories supported on the window rows.  Raises
    LayerViolation when w is not negligible outside the window.
    """
    window = _Window(weight, eta)
    lw = _Lambda(window, lam)
    jets, wt, _ = window.jets(w)
    P1, P2 = _p1_p2(lw, jets, wt)
    R = _remainder(lw, jets, _q_arrays(q, window))
    return window.full(P1), window.full(P2), window.full(R)


def conjugation_identity_residual(w: Trajectory, weight: CarlemanWeight,
                                  q=None, lam: float | None = None,
                                  eta: float | None = None) -> float:
    """Relative L2 gap between P1+P2+R and the chain-rule reference."""
    window = _Window(weight, eta)
    lw = _Lambda(window, lam)
    jets, wt, _ = window.jets(w)
    qs = _q_arrays(q, window)
    P1, P2 = _p1_p2(lw, jets, wt)
    R = _remainder(lw, jets, qs)
    _, px, pxx, pxxx, pxxxx, pt = window.phi
    direct = conjugated_reference(lw.lam, wt, pt, *jets, px, pxx, pxxx, pxxxx,
                                  *window.sig[:3], *qs)
    num = window.quad((P1 + P2 + R - direct) ** 2)
    den = window.quad(direct ** 2)
    if den == 0.0:
        return 0.0
    return math.sqrt(num / den)


def _norm_integrand(factors, squares):
    n_w, n_wx, n_wxx, n_wxxx = factors
    w2, wx2, wxx2, wxxx2 = squares
    return n_w * w2 + n_wx * wx2 + n_wxx * wxx2 + n_wxxx * wxxx2


def weighted_norm(w: Trajectory, weight: CarlemanWeight,
                  lam: float | None = None, eta: float | None = None) -> float:
    """Quadratic form iint lam^7 phi^7 w^2 + lam^5 phi^5 w_x^2 + lam^3 phi^3
    w_xx^2 + lam phi w_xxx^2 over the window (the squared weighted norm).

    Raises LayerViolation when w is not negligible outside the window.
    """
    window = _Window(weight, eta)
    squares = window.jets(w)[2]
    return window.quad(_norm_integrand(_Lambda(window, lam).norm, squares))


@dataclass
class Ledger:
    """Direct vs itemized inner product and the associated lower bound."""

    lam: float
    eta: float
    direct: float
    items: dict
    ix0: float
    ix1: float
    itemized: float
    mismatch_rel: float
    weighted_norm_sq: float
    delta_hat: float


def _margin(lw: _Lambda, jets, wt, squares) -> tuple:
    """(direct, ix0, ix1, weighted_norm_sq, delta_hat): the part of one
    member's ledger that delta_hat reads, which needs no interior field."""
    window = lw.window
    P1, P2 = _p1_p2(lw, jets, wt)
    direct = window.quad(P1 * P2)
    bnd0, bnd1 = 0.0, 0.0
    for name in _BOUNDARY:
        square = squares[_SQUARES[name]]
        bnd0 += window.quad_t(lw.column(name, 0) * square[:, 0])
        bnd1 += window.quad_t(lw.column(name, -1) * square[:, -1])
    wn = window.quad(_norm_integrand(lw.norm, squares))
    delta_hat = (direct - (bnd1 - bnd0)) / wn if wn > 0 else 0.0
    return direct, bnd0, bnd1, wn, delta_hat


def _ledger(lw: _Lambda, jets, wt, squares) -> Ledger:
    """Contract one member's jets with the fields of one lambda: each
    interior item is (trapz_t tf) @ square @ (xf trapz_x)."""
    direct, bnd0, bnd1, wn, delta_hat = _margin(lw, jets, wt, squares)
    wsq = dict(zip(("w2", "wx2", "wxx2", "wxxx2"), squares),
               w_wxx=jets[0] * jets[2])
    trapz_t, trapz_x = lw.window.trapz_t, lw.window.trapz_x
    items = {}
    for name in _INTERIOR:
        tf, xf = lw.factors(name)
        items[name] = float((trapz_t * tf) @ wsq[FIELDS[name][1]]
                            @ (xf * trapz_x))
    itemized = sum(items.values()) + (bnd1 - bnd0)
    scale = max(abs(direct), abs(itemized), 1e-300)
    mismatch = abs(direct - itemized) / scale
    return Ledger(lw.lam, lw.window.eta, direct, items, bnd0, bnd1, itemized,
                  mismatch, wn, delta_hat)


def inner_product_ledger(w: Trajectory, weight: CarlemanWeight,
                         lam: float | None = None,
                         eta: float | None = None) -> Ledger:
    """Balance <P1 w, P2 w> against the itemized integration-by-parts sum.

    The itemized side carries the interior integrals I(w_kx), the remainder
    block R0(w) and the boundary integral I_x = [.]_{x=0}^{1}; both endpoint
    contributions are reported separately.  delta_hat = (direct - I_x) /
    ||w||^2_{lam,phi} is the empirical coercivity margin of the lower bound.
    The lower-order coefficients q enter only the remainder R, which the
    balance leaves out, so they are no argument.
    """
    window = _Window(weight, eta)
    return _ledger(_Lambda(window, lam), *window.jets(w))


@dataclass(frozen=True)
class CarlemanConfig:
    """Audit configuration: uniform bound m on the q_i, the lambda grid and
    the time-layer cutoff eta."""

    m: float = 1.0
    lambda_grid: tuple = (2.0, 4.0, 8.0, 16.0)
    eta: float | None = None
    c_cap: float = 1e6

    def __post_init__(self):
        lams = tuple(float(v) for v in self.lambda_grid)
        object.__setattr__(self, "lambda_grid", lams)
        if len(lams) == 0:
            raise ValueError("lambda_grid must be non-empty")
        if not all(0 < v < np.inf for v in lams) or any(
                b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("lambda_grid must be strictly increasing, "
                             "positive and finite")
        if not self.m >= 0:  # inf is a legal bound, NaN is not
            raise ValueError(f"m must be nonnegative, got {self.m}")
        if not self.c_cap > 0:
            raise ValueError(f"c_cap must be positive, got {self.c_cap}")


@dataclass
class AuditRow:
    lam: float
    lhs: float
    rhs_interior: float
    rhs_boundary0: float
    rhs_boundary1: float
    c_hat: float
    passed: bool
    degenerate: bool = False


def _audit_terms(window: _Window, jets, wt, qs):
    """v_t^2 + ((sigma v_xx)_xx)^2 and (L v)^2 on the window rows."""
    v0, vx, vxx = jets[:3]
    svxx_xx = diff_x_values(window.sig[0] * vxx, window.grid, 2)
    q0, q1, q2 = qs
    Lv = wt + svxx_xx + q2 * vxx + q1 * vx + q0 * v0
    return wt ** 2 + svxx_xx ** 2, Lv ** 2


def _audit_row(lw: _Lambda, squares, terms, c_cap: float) -> AuditRow:
    """Both sides of the weighted inequality for one member and lambda."""
    window, lam, (n7, n5, n3, n1) = lw.window, lw.lam, lw.norm
    curv, lv2 = terms
    v2, vx2, vxx2, vxxx2 = squares
    lhs = window.quad(lw.e2 * (curv / n1 + n7 * v2 + n5 * vx2 + n3 * vxx2
                               + n1 * vxxx2))
    rhs_int = window.quad(lw.e2 * lv2)
    bnd0, bnd1 = (window.quad_t(e * (a * vxx2[:, col] + b * vxxx2[:, col]))
                  for col, (e, a, b) in zip((0, -1), lw.boundary))
    rhs = rhs_int + bnd0
    if lhs == 0.0 and rhs == 0.0:
        return AuditRow(lam, 0.0, 0.0, 0.0, 0.0, 0.0, True, True)
    c_hat = lhs / rhs if rhs > 0 else np.inf
    return AuditRow(lam, lhs, rhs_int, bnd0, bnd1, c_hat, bool(c_hat <= c_cap))


def carleman_audit(v: Trajectory, weight: CarlemanWeight, q=None,
                   cfg: CarlemanConfig = CarlemanConfig()) -> list:
    """Evaluate both sides of the weighted inequality for each lambda.

    LHS gathers the weighted curvature terms of v; the RHS is the weighted
    residual of L v plus the boundary observation terms.  The reported
    c_hat uses the x=0 boundary terms (the observation side selected by the
    increasing beta); the x=1 terms are reported alongside.
    """
    window = _Window(weight, cfg.eta)
    jets, wt, squares = window.jets(v)
    terms = _audit_terms(window, jets, wt, _q_arrays(q, window, cfg.m))
    return [_audit_row(_Lambda(window, lam), squares, terms, cfg.c_cap)
            for lam in cfg.lambda_grid]


def _bump_time_factor(grid: GridSpec, eta: float | None) -> np.ndarray:
    """The sin^2 window bump in time of random_clamped_bump."""
    eta, inside = _time_window(grid, eta)
    t, T = grid.t, grid.T
    return np.where(inside,
                    np.sin(np.pi * np.clip((t - eta) / (T - 2 * eta), 0, 1)) ** 2,
                    0.0)


def _clamped_bump(grid: GridSpec, coeffs: np.ndarray,
                  eta: float | None) -> Trajectory:
    """tfac(t) x^2(1-x)^2 sum_k (a_k sin k pi x + b_k cos k pi x)."""
    x = grid.x
    prof = np.zeros_like(x)
    for k in range(1, coeffs.size // 2 + 1):
        prof += (coeffs[2 * k - 2] * np.sin(k * np.pi * x)
                 + coeffs[2 * k - 1] * np.cos(k * np.pi * x))
    return Trajectory(np.outer(_bump_time_factor(grid, eta),
                               x ** 2 * (1 - x) ** 2 * prof), grid)


def random_clamped_bump(grid: GridSpec, rng: np.random.Generator,
                        eta: float | None = None, n_modes: int = 4) -> Trajectory:
    """Random Fourier-in-x profile under the clamping envelope x^2(1-x)^2,
    modulated by the sin^2 window bump in time; coefficients in [-1, 1]."""
    return _clamped_bump(grid, rng.uniform(-1, 1, 2 * n_modes), eta)


def _abs_diff_x(values: np.ndarray, grid: GridSpec, order: int) -> np.ndarray:
    """|D_k| |values| row by row: bounds the k-th x-derivative of values and
    the roundoff of its stencil sums."""
    return (abs(diff_matrix(grid, order, "x")) @ np.abs(values).T).T


def _sum_powers(poly: dict, lam: float) -> tuple:
    """sum over p of lam^p (M_p, M_abs_p)."""
    return tuple(sum(lam ** p * pair[i] for p, pair in poly.items())
                 for i in (0, 1))


class _Span:
    """The ensemble's span.  A member is tau(t) sum_a c_a p_a(x) with p_a =
    x^2(1-x)^2 sin(k pi x) and cos(k pi x), k = 1..n_modes, in the order of
    random_clamped_bump's coefficients, so every quantity of the audit and
    of delta_hat is a quadratic form c^T M c.

    Holds tau and tau' on the window rows, the x-jets of the p_a ([0]..[4]
    the derivatives, "S" (sigma p_xx)_xx as in _audit_terms, "P1" the sigma
    part of _p1_p2), their absolute values and the majorants |D_k| |p_a| of
    their stencil sums.  Since phi = beta(x) u(t), each term of a form is
    lam^p times a time factor on the rows (tau^2, tau tau' or tau'^2 times a
    power of u), at most one field (exp(-2 lam phi)) and an x factor, and a
    form is the sum over its terms of the time reduction times the
    x-quadrature of two profile jets.  A column form reads one node, weighed
    by 1 instead of trapz_x.  The field-free forms, <P1 w, P2 w> and the
    weighted norm, are sum_p lam^p M_p with each M_p built once per span, as
    are the time factors of the terms under exp(-2 lam phi).

    A per-member quadrature and c^T M c differ by the roundoff of the jets
    (a few eps times the majorant in an x factor, up to about eps rows/pi
    times |tau'| in a tau' factor) and by that of the sums on either side:
    the member's sums over the rows and the nodes, and the form's time
    reduction over the rows, x-quadrature over the nodes and sum of at most
    25 terms and lam powers.  A sum of n terms errs by at most about n eps
    times the sum of their absolute values, and the two sides' factors
    differ by at most a few dozen roundings (u^7 beta^7 lam^7 against
    (u beta)^7 lam^7; 6 lam^2 phi_x^2 sigma split into a time and an x
    part).  M_abs, the quadrature of |s f| (majorant x |jet| + |jet| x
    majorant), majorizes every term's absolute value, so band = eps (rows +
    nx + 65) times M_abs bounds the gap to first order, for coefficients
    that keep every product clear of underflow, as those rng.uniform(-1, 1)
    draws do."""

    def __init__(self, window: _Window, n_modes: int):
        grid, (s, sx, sxx, _) = window.grid, window.sig
        x, tfac = grid.x, _bump_time_factor(grid, window.eta)
        P = np.array([x ** 2 * (1 - x) ** 2 * f(k * np.pi * x)
                      for k in range(1, n_modes + 1) for f in (np.sin, np.cos)])
        P = P.reshape(2 * n_modes, grid.nx + 1)
        self.window = window
        self.tau = tau = tfac[window.rows]
        self.dtau = dtau = diff_t_values(tfac, grid, 1)[window.rows]
        self.band = np.finfo(float).eps * (window.rows.size + grid.nx + 65)
        jets = [P] + [diff_x_values(P, grid, k) for k in range(1, 5)]
        bounds = [np.abs(P)] + [_abs_diff_x(P, grid, k) for k in range(1, 5)]
        jets += [diff_x_values(s * jets[2], grid, 2),
                 sxx * jets[2] + 2 * sx * jets[3] + s * jets[4]]
        bounds += [_abs_diff_x(s * bounds[2], grid, 2),
                   np.abs(sxx) * bounds[2] + np.abs(2 * sx) * bounds[3]
                   + np.abs(s) * bounds[4]]
        names = (0, 1, 2, 3, 4, "S", "P1")
        self.jets, self.bounds = dict(zip(names, jets)), dict(zip(names, bounds))
        self.sizes = {name: np.abs(j) for name, j in self.jets.items()}

        u, b, t2 = window.u, window.weight.beta_derivs, tau ** 2
        pxs_x = 2 * b[1] * b[2] * s + b[1] ** 2 * sx  # (phi_x^2 sigma)_x / u^2
        # (p, time factor, x factor, jet) of each term of P1 and of P2, as
        # _p1_p2 and _Lambda.split have them
        p1 = [(2, tau * u ** 2, 6 * b[1] ** 2 * s, 2),
              (4, tau * u ** 4, b[1] ** 4 * s, 0), (0, tau, 1.0, "P1"),
              (2, tau * u ** 2, 6 * pxs_x, 1)]
        p2 = [(0, dtau, 1.0, 0), (3, tau * u ** 3, 4 * b[1] ** 3 * s, 1),
              (1, tau * u, 4 * b[1] * s, 3),
              (3, tau * u ** 3, 4 * b[1] * pxs_x, 0)]
        norm = [(p, t2 * u ** p, b[0] ** p, k, k)
                for k, p in enumerate((7, 5, 3, 1))]
        self._direct = self._polynomial(
            (pa + pb, sa * sb, fa * fb, X, Y)
            for (pa, sa, fa, X), (pb, sb, fb, Y) in product(p1, p2))
        self._norm = self._polynomial(norm)
        # the terms under exp(-2 lam phi) alone: those of the audit's lhs
        # (the curvature over lam phi, then the norm's) and those of
        # rhs_interior, the square of the member's L v
        lv = [(dtau, 0), (tau, "S")]
        terms = [("lhs", -1, dtau ** 2 / u, 1 / b[0], 0, 0),
                 ("lhs", -1, t2 / u, 1 / b[0], "S", "S")]
        terms += [("lhs",) + term for term in norm]
        terms += [("rhs_interior", 0, sa * sb, 1.0, X, Y)
                  for (sa, X), (sb, Y) in product(lv, lv)]
        self._e2_terms = [(name, p, f * window.trapz_x, X, Y)
                          for name, p, _, f, X, Y in terms]
        # their time reductions' weights, then those of the majorants
        times = window.trapz_t * np.array([term[2] for term in terms])
        self._e2_times = np.vstack([times, np.abs(times)])

    def _contract(self, terms) -> tuple:
        """(M, M_abs) of terms (X, Y, k, k_abs): M sums the x-quadratures
        of k X(p_a) Y(p_b), M_abs those of k_abs (majorant |Y| + |X|
        majorant); k is a term's time reduction times its x factor and
        quadrature weight."""
        J, B, S = self.jets, self.bounds, self.sizes
        M = M_abs = 0.0
        for X, Y, k, k_abs in terms:
            M = M + (J[X] * k) @ J[Y].T
            # an infinite majorant only sends a member to the exact path
            with np.errstate(over="ignore"):
                M_abs = M_abs + (B[X] * k_abs) @ S[Y].T \
                    + (S[X] * k_abs) @ B[Y].T
        return M, M_abs

    def _polynomial(self, terms) -> dict:
        """{p: (M_p, M_abs_p)} of field-free terms (p, s, f, X, Y), lam^p
        s(t) f(x) X(p_a) Y(p_b): the form at lam is sum_p lam^p M_p."""
        trapz_t, trapz_x = self.window.trapz_t, self.window.trapz_x
        powers = {}
        for p, s, f, X, Y in terms:
            fw = f * trapz_x
            powers.setdefault(p, []).append(
                (X, Y, (trapz_t @ s) * fw, (trapz_t @ np.abs(s)) * np.abs(fw)))
        return {p: self._contract(ts) for p, ts in powers.items()}

    def _column(self, k: int, col: int, series: np.ndarray) -> tuple:
        """The term of a column form: the time quadrature of series times
        the squares of the k-th x-derivatives at the node col."""
        weight = np.zeros((2, self.window.grid.nx + 1))
        trapz_t = self.window.trapz_t
        weight[:, col] = trapz_t @ series, trapz_t @ np.abs(series)
        return k, k, weight[0], weight[1]

    def forms(self, lw: _Lambda) -> dict:
        """{name: (M, M_abs)} of one lambda, named after the AuditRow field
        or the _margin value that c^T M c gives for the member c: lhs,
        rhs_interior, rhs_boundary0/1, direct, ix0/ix1 and norm.  The terms
        under exp(-2 lam phi) are reduced in time by one product, and the
        field-free forms are summed from their powers of lam."""
        lam = lw.lam
        terms = {"lhs": [], "rhs_interior": []}
        k, k_abs = np.split(self._e2_times @ lw.e2, 2)
        for (name, p, fw, X, Y), ki, ki_abs in zip(self._e2_terms, k, k_abs):
            fw = lam ** p * fw
            terms[name].append((X, Y, ki * fw, ki_abs * np.abs(fw)))
        out = {name: self._contract(ts) for name, ts in terms.items()}
        out["direct"] = tuple((m + m.T) / 2
                              for m in _sum_powers(self._direct, lam))
        out["norm"] = _sum_powers(self._norm, lam)
        t2 = self.tau ** 2
        for side, col, (e, a, b) in zip("01", _ENDS, lw.boundary):
            out["rhs_boundary" + side] = self._contract(
                [self._column(2, col, t2 * (e * a)),
                 self._column(3, col, t2 * (e * b))])
            out["ix" + side] = self._contract(
                [self._column(_SQUARES[name], col, t2 * lw.column(name, col))
                 for name in _BOUNDARY])
        return out

    def values(self, coeffs: np.ndarray, forms: dict, plus, minus=()):
        """Each member's sum(plus) - sum(minus) of forms and its roundoff
        bound."""
        M = sum(forms[name][0] for name in plus) \
            - sum(forms[name][0] for name in minus)
        M_abs = sum(forms[name][1] for name in plus + minus)
        a = np.abs(coeffs)
        value = ((coeffs @ M) * coeffs).sum(1)
        # an infinite band only sends a member to the exact path
        with np.errstate(over="ignore"):
            return value, self.band * ((a @ M_abs) * a).sum(1)


def _ratio_bounds(num, num_err, den, den_err):
    """Bounds of num/den for each member; (-inf, inf) where the denominator
    may be 0, so that a possibly degenerate member is always confirmed."""
    with np.errstate(all="ignore"):
        q = [(num + a) / (den + b) for a in (-num_err, num_err)
             for b in (-den_err, den_err)]
        lo, hi = np.minimum.reduce(q), np.maximum.reduce(q)
        sure = (den - den_err > 0) & np.isfinite(lo) & np.isfinite(hi)
    return np.where(sure, lo, -np.inf), np.where(sure, hi, np.inf)


@dataclass
class EnsembleAudit:
    """Worst-case audit rows and ledger scan over a random test ensemble."""

    rows: list                   # AuditRow with ensemble-max c_hat per lambda
    delta_min: dict              # lambda -> min delta_hat over the ensemble
    lambda0: float | None        # first lambda with delta_min > 0
    delta_at_lambda0: float | None
    worst_member: int            # index attaining the max c_hat at max lambda
    worst_ledger: Ledger


def ensemble_audit(weight: CarlemanWeight, cfg: CarlemanConfig,
                   n_members: int = 50, seed: int = 0,
                   n_modes: int = 4) -> EnsembleAudit:
    """Audit + ledger scan over seeded random clamped bumps, with q = 0.

    The members are screened by the quadratic forms of the span (_Span):
    per lambda, every member whose c_hat or delta_hat bounds reach the
    ensemble's max c_hat or min delta_hat is rebuilt and evaluated on the
    per-member path of carleman_audit and inner_product_ledger.  Only those
    exact values are reported, so the result is the one of evaluating every
    member that way.
    """
    if n_members < 1:
        raise ValueError(f"n_members must be at least 1, got {n_members}")
    window = _Window(weight, cfg.eta)
    qs = [0.0, 0.0, 0.0]
    lws = [_Lambda(window, lam) for lam in cfg.lambda_grid]
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1, 1, (n_members, 2 * n_modes))
    span = _Span(window, n_modes)

    chat_at, delta_at = [[] for _ in coeffs], [[] for _ in coeffs]
    for k, lw in enumerate(lws):
        forms = span.forms(lw)
        lo, hi = _ratio_bounds(
            *span.values(coeffs, forms, ("lhs",)),
            *span.values(coeffs, forms, ("rhs_interior", "rhs_boundary0")))
        for i in np.flatnonzero(hi >= lo.max()):
            chat_at[i].append(k)
        lo, hi = _ratio_bounds(
            *span.values(coeffs, forms, ("direct", "ix0"), ("ix1",)),
            *span.values(coeffs, forms, ("norm",)))
        for i in np.flatnonzero(lo <= hi.min()):
            delta_at[i].append(k)

    rows, deltas = [None] * len(lws), [None] * len(lws)

    def confirm(i):
        """The exact rows and delta_hats the screen asks of member i; its
        jets if it is the worst member so far at the largest lambda."""
        worst = None
        jets, wt, squares = window.jets(
            _clamped_bump(window.grid, coeffs[i], cfg.eta))
        terms = _audit_terms(window, jets, wt, qs) if chat_at[i] else None
        for k in chat_at[i]:
            row = _audit_row(lws[k], squares, terms, cfg.c_cap)
            if rows[k] is None or row.c_hat > rows[k].c_hat:  # first of ties
                rows[k] = row
                if k == len(lws) - 1:
                    worst = (i, jets, wt, squares)
        for k in delta_at[i]:
            delta = _margin(lws[k], jets, wt, squares)[-1]
            deltas[k] = delta if deltas[k] is None else min(deltas[k], delta)
        return worst

    # one member's jets alive at a time, besides those of the worst member
    # so far at the largest lambda, kept for its ledger
    worst = None
    for i in range(n_members):
        if chat_at[i] or delta_at[i]:
            worst = confirm(i) or worst
    delta_min = {lw.lam: d for lw, d in zip(lws, deltas)}

    lambda0 = next((lam for lam in cfg.lambda_grid if delta_min[lam] > 0),
                   None)
    return EnsembleAudit(rows, delta_min, lambda0,
                         None if lambda0 is None else delta_min[lambda0],
                         worst[0], _ledger(lws[-1], *worst[1:]))
