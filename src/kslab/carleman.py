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
evaluation of P is generated symbolically from the definition by chain rule
and shares every discrete derivative array with the itemized P1+P2+R, so the
identity residual measures the split's algebra, not the stencils.  The
remainder formulas carry sigma-derivative terms that matter only for
non-constant diffusion; each was checked against the symbolic reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import HypothesisViolation, LayerViolation
from .grid import (GridSpec, ScalarField1D, Trajectory, diff_matrix,
                   diff_t_values, diff_x_values, require_same_grid,
                   trapz_weights)
from .linear_solver import CoefficientField

_LAYER_TOL = 1e-12


@dataclass(frozen=True)
class CarlemanWeight:
    """Sampled weight data with analytic derivatives.

    beta_derivs[k] holds d^k beta / dx^k on the nodes for k = 0..4; phi0 and
    phi0_prime are sampled on the time nodes with phi0 normalized to peak
    value 1 at T0.  r is the largest admissible hypothesis margin and
    epsilon_margin the pointwise slack of the four sign inequalities the
    decomposition rests on.
    """

    grid: GridSpec
    beta_derivs: tuple
    phi0: np.ndarray
    phi0_prime: np.ndarray
    T0: float
    r: float
    epsilon_margin: float
    lam: float

    @property
    def beta(self) -> ScalarField1D:
        return ScalarField1D(self.beta_derivs[0], self.grid)

    def default_eta(self) -> float:
        return self.grid.T / 10.0

    def window(self, eta: float | None = None) -> np.ndarray:
        """Time-node indices inside [eta, T-eta]."""
        eta = self.default_eta() if eta is None else eta
        if not (0 < eta < self.grid.T / 2):
            raise ValueError(f"eta must lie in (0, T/2), got {eta}")
        t = self.grid.t
        return np.where((t >= eta - 1e-12) & (t <= self.grid.T - eta + 1e-12))[0]

    def phi_arrays(self, rows: np.ndarray):
        """(phi, phi_x, phi_xx, phi_xxx, phi_xxxx, phi_t) on the given rows."""
        inv = 1.0 / self.phi0[rows]
        b = self.beta_derivs
        out = [np.outer(inv, b[k]) for k in range(5)]
        phi_t = np.outer(-self.phi0_prime[rows] * inv ** 2, b[0])
        return out[0], out[1], out[2], out[3], out[4], phi_t


def _phi0_bump(t: np.ndarray, T: float, T0: float):
    """Piecewise-quadratic C^1 bump with phi0(0)=phi0(T)=0 and peak 1 at T0."""
    left = t * (2 * T0 - t) / T0 ** 2
    right = (T - t) * (T - 2 * T0 + t) / (T - T0) ** 2
    phi0 = np.where(t <= T0, left, right)
    phi0p = np.where(t <= T0, (2 * T0 - 2 * t) / T0 ** 2,
                     (2 * T0 - 2 * t) / (T - T0) ** 2)
    return phi0, phi0p


def _hypothesis_report(beta_derivs, sigma: np.ndarray, sigma_x: np.ndarray):
    """Largest admissible r and the failing-hypothesis list."""
    b0, b1, b2 = beta_derivs[0], beta_derivs[1], beta_derivs[2]
    failed = []
    r = min(b0.min(), b1.min(), -b2.max())
    if not (b0.min() > 0 and b1.min() > 0):
        failed.append("hip1B")
    if not (b2.max() < 0):
        failed.append("hip3B")
    if r > 0 and np.abs(sigma_x * b1).max() > (r / 4.0) * sigma.min():
        failed.append("hip4B")
    return r, failed


def _epsilon_margin(beta_derivs, sigma, sigma_x):
    """Pointwise slack of the four sign inequalities, scaled by beta."""
    b0, b1, b2 = beta_derivs[0], beta_derivs[1], beta_derivs[2]
    exprs = (
        b2,
        30 * b2 * sigma + 12 * b1 * sigma_x,
        58 * b2 * sigma + 40 * b1 * sigma_x,
        2 * b2 * sigma - 4 * b1 * sigma_x,
    )
    return float(min((-e / b0).min() for e in exprs))


def make_default_weight(grid: GridSpec, sigma: ScalarField1D, T0: float,
                        lam: float = 8.0) -> CarlemanWeight:
    """Weight with beta = sqrt(1+x) and the quadratic time bump peaking at T0.

    Raises HypothesisViolation naming the failing hypotheses when the
    supplied sigma is incompatible with this beta (large sigma_x breaks the
    hip4B smallness condition).
    """
    if not (0.0 < T0 < grid.T):
        raise ValueError(f"T0 must lie in (0, T), got {T0}")
    if sigma.grid != grid:
        raise ValueError("sigma lives on a different grid")
    x = grid.x
    beta_derivs = (
        np.sqrt(1 + x),
        0.5 * (1 + x) ** -0.5,
        -0.25 * (1 + x) ** -1.5,
        0.375 * (1 + x) ** -2.5,
        -0.9375 * (1 + x) ** -3.5,
    )
    sigma_x = diff_x_values(sigma.values, grid, 1)
    r, failed = _hypothesis_report(beta_derivs, sigma.values, sigma_x)
    if failed:
        raise HypothesisViolation(
            f"weight hypotheses violated: {', '.join(failed)}", failed=failed)
    eps = _epsilon_margin(beta_derivs, sigma.values, sigma_x)

    phi0, phi0p = _phi0_bump(grid.t, grid.T, T0)
    if abs(phi0[0]) > 1e-12 or abs(phi0[-1]) > 1e-12:
        raise HypothesisViolation("phi0 does not vanish at the endpoints",
                                  failed=["hip1P"])
    interior = phi0[1:-1]
    if not (interior.min() > 0 and interior.max() <= 1.0 + 1e-12):
        raise HypothesisViolation("phi0 positivity/peak condition fails",
                                  failed=["hip2P"])
    return CarlemanWeight(grid, beta_derivs, phi0, phi0p, T0, float(r), eps, lam)


def _layer_check(values: np.ndarray, rows: np.ndarray):
    mask = np.zeros(values.shape[0], dtype=bool)
    mask[rows] = True
    inside = np.abs(values[mask]).max()
    outside = np.abs(values[~mask]).max() if (~mask).any() else 0.0
    if outside > _LAYER_TOL * max(inside, 1e-300):
        raise LayerViolation(
            f"test function carries {outside:.2e} outside the time window "
            f"(inside max {inside:.2e})")


def _q_arrays(q, grid: GridSpec, rows: np.ndarray):
    if q is None:
        zero = np.zeros((rows.size, grid.nx + 1))
        return zero, zero.copy(), zero.copy()
    out = []
    for qi in q:
        if qi is None:
            out.append(np.zeros((rows.size, grid.nx + 1)))
        elif isinstance(qi, Trajectory):
            out.append(qi.values[rows])
        else:
            arr = np.asarray(qi, dtype=float)
            out.append(np.broadcast_to(arr, (rows.size, grid.nx + 1)).copy())
    return out


def _w_jet(w: Trajectory, rows: np.ndarray):
    """Shared discrete derivative arrays of w on the window rows."""
    grid = w.grid
    jets = [w.values[rows]]
    for k in range(1, 5):
        jets.append(diff_x_values(w.values, grid, k)[rows])
    wt = diff_t_values(w.values, grid, 1)[rows]
    return jets, wt


def _sigma_jet(coeff: CoefficientField, grid: GridSpec, up_to: int = 3):
    s = [coeff.sigma.values]
    for k in range(1, up_to + 1):
        s.append(diff_x_values(coeff.sigma.values, grid, k))
    return s


@lru_cache(maxsize=None)
def _symbolic_conjugated_operator():
    """Chain-rule expansion of exp(-lam*phi) L (exp(lam*phi) w), lambdified.

    Generated from the definition with sympy, then mapped onto plain symbols
    for the derivative arrays, so the reference side of the identity check is
    independent of the hand-transcribed split.
    """
    import sympy as sp

    t, x, lam = sp.symbols("t x lam")
    w = sp.Function("w")(t, x)
    phi = sp.Function("phi")(t, x)
    sig = sp.Function("sig")(x)
    q0, q1, q2 = [sp.Function(f"q{i}")(t, x) for i in range(3)]

    v = sp.exp(lam * phi) * w
    Lv = (sp.diff(v, t) + sp.diff(sig * sp.diff(v, x, 2), x, 2)
          + q2 * sp.diff(v, x, 2) + q1 * sp.diff(v, x) + q0 * v)
    P = sp.expand(sp.exp(-lam * phi) * sp.expand(Lv))

    syms = {}
    subs = {}
    for k in range(5):
        syms[f"W{k}"] = sp.Symbol(f"W{k}")
        subs[sp.Derivative(w, (x, k)) if k else w] = syms[f"W{k}"]
        syms[f"P{k}"] = sp.Symbol(f"P{k}")
        if k:
            subs[sp.Derivative(phi, (x, k))] = syms[f"P{k}"]
    for k in range(3):
        syms[f"S{k}"] = sp.Symbol(f"S{k}")
        subs[sp.Derivative(sig, (x, k)) if k else sig] = syms[f"S{k}"]
    syms["WT"] = sp.Symbol("WT")
    subs[sp.Derivative(w, t)] = syms["WT"]
    syms["PT"] = sp.Symbol("PT")
    subs[sp.Derivative(phi, t)] = syms["PT"]
    for i, qi in enumerate((q0, q1, q2)):
        syms[f"Q{i}"] = sp.Symbol(f"Q{i}")
        subs[qi] = syms[f"Q{i}"]

    P = P.subs(subs)
    order = ["lam", "WT", "PT"] + [f"W{k}" for k in range(5)] \
        + [f"P{k}" for k in range(1, 5)] + [f"S{k}" for k in range(3)] \
        + [f"Q{i}" for i in range(3)]
    args = [sp.Symbol("lam")] + [syms[name] for name in order[1:]]
    return sp.lambdify(args, P, "numpy")


def conjugated_operator(w: Trajectory, weight: CarlemanWeight,
                        coeff: CoefficientField, q=None,
                        lam: float | None = None,
                        eta: float | None = None) -> Trajectory:
    """Reference Pw = exp(-lam phi) L(exp(lam phi) w) on the window rows."""
    grid = w.grid
    lam = weight.lam if lam is None else lam
    rows = weight.window(eta)
    _layer_check(w.values, rows)
    jets, wt = _w_jet(w, rows)
    _, px, pxx, pxxx, pxxxx, pt = weight.phi_arrays(rows)
    s = _sigma_jet(coeff, grid, up_to=2)
    q0, q1, q2 = _q_arrays(q, grid, rows)
    fn = _symbolic_conjugated_operator()
    vals = fn(lam, wt, pt, *jets, px, pxx, pxxx, pxxxx, *s, q0, q1, q2)
    out = np.zeros_like(w.values)
    out[rows] = vals
    return Trajectory(out, grid)


def _split_terms(w: Trajectory, weight: CarlemanWeight, coeff: CoefficientField,
                 q, lam: float, rows: np.ndarray):
    """P1, P2, R on the window rows from the itemized formulas."""
    grid = w.grid
    (w0, wx, wxx, wxxx, wxxxx), wt = _w_jet(w, rows)
    _, px, pxx, pxxx, pxxxx, pt = weight.phi_arrays(rows)
    sig, sx, sxx = _sigma_jet(coeff, grid, up_to=2)
    q0, q1, q2 = _q_arrays(q, grid, rows)
    lam2, lam3, lam4 = lam ** 2, lam ** 3, lam ** 4

    swxx_xx = sxx * wxx + 2 * sx * wxxx + sig * wxxxx
    pxs_x = 2 * px * pxx * sig + px ** 2 * sx  # (phi_x^2 sigma)_x

    P1 = (6 * lam2 * px ** 2 * sig * wxx + lam4 * px ** 4 * sig * w0
          + swxx_xx + 6 * lam2 * pxs_x * wx)
    P2 = (wt + 4 * lam3 * px ** 3 * sig * wx + 4 * lam * px * sig * wxxx
          + 4 * lam3 * px * pxs_x * w0)
    # remainder; the 6*lam*phi_xx*sigma_x term must multiply w_x, not w --
    # the identity only balances for constant sigma otherwise
    R = (lam * pt * w0 + 2 * lam * px * sxx * wx + lam2 * px ** 2 * sxx * w0
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
    return P1, P2, R


def conjugate_decompose(w: Trajectory, weight: CarlemanWeight,
                        coeff: CoefficientField, q=None,
                        lam: float | None = None, eta: float | None = None):
    """Evaluate the split Pw = P1 w + P2 w + R w term by term.

    Returns three trajectories supported on the window rows.  Raises
    LayerViolation when w is not negligible outside the window.
    """
    require_same_grid(w, coeff.sigma)
    grid = w.grid
    lam = weight.lam if lam is None else lam
    rows = weight.window(eta)
    _layer_check(w.values, rows)
    parts = _split_terms(w, weight, coeff, q, lam, rows)
    out = []
    for p in parts:
        full = np.zeros_like(w.values)
        full[rows] = p
        out.append(Trajectory(full, grid))
    return tuple(out)


def _window_quad(values: np.ndarray, grid: GridSpec, rows: np.ndarray) -> float:
    """Trapezoid quadrature over [t_rows] x [0,1]."""
    return float(trapz_weights(rows.size, grid.dt) @ values
                 @ trapz_weights(grid.nx + 1, grid.dx))


def _window_quad_t(series: np.ndarray, grid: GridSpec, rows: np.ndarray) -> float:
    return float(trapz_weights(rows.size, grid.dt) @ series)


def conjugation_identity_residual(w: Trajectory, weight: CarlemanWeight,
                                  coeff: CoefficientField, q=None,
                                  lam: float | None = None,
                                  eta: float | None = None) -> float:
    """Relative L2 gap between P1+P2+R and the chain-rule reference."""
    lam = weight.lam if lam is None else lam
    rows = weight.window(eta)
    P1, P2, R = conjugate_decompose(w, weight, coeff, q, lam, eta)
    direct = conjugated_operator(w, weight, coeff, q, lam, eta)
    total = P1.values + P2.values + R.values
    num = _window_quad((total - direct.values)[rows] ** 2, w.grid, rows)
    den = _window_quad(direct.values[rows] ** 2, w.grid, rows)
    if den == 0.0:
        return 0.0
    return math.sqrt(num / den)


def weighted_norm(w: Trajectory, weight: CarlemanWeight,
                  lam: float | None = None, eta: float | None = None) -> float:
    """Quadratic form iint lam^7 phi^7 w^2 + lam^5 phi^5 w_x^2 + lam^3 phi^3
    w_xx^2 + lam phi w_xxx^2 over the window (the squared weighted norm)."""
    grid = w.grid
    lam = weight.lam if lam is None else lam
    rows = weight.window(eta)
    (w0, wx, wxx, wxxx, _), _ = _w_jet(w, rows)
    phi = weight.phi_arrays(rows)[0]
    integrand = (lam ** 7 * phi ** 7 * w0 ** 2 + lam ** 5 * phi ** 5 * wx ** 2
                 + lam ** 3 * phi ** 3 * wxx ** 2 + lam * phi * wxxx ** 2)
    return _window_quad(integrand, grid, rows)


@lru_cache(maxsize=None)
def _symbolic_ledger_coeffs():
    """Coefficient fields of the itemized inner-product integrals.

    Each entry is one integration-by-parts result for a pairwise product of
    P1 and P2 terms: the four leading blocks I(w_kx), the remainder block
    R0, and the boundary integrands.  The r0_i34b and r0_i44 coefficients
    keep sigma inside the outer derivative; variants that pull it out do not
    balance the direct product (checked by quadrature), and the difference
    stays in the remainder class.  Returns {name: (callable, kind)} where
    kind names the w-derivative square (or product) the coefficient
    multiplies.
    """
    import sympy as sp

    x, t, lam = sp.symbols("x t lam")
    phi = sp.Function("phi")(t, x)
    sig = sp.Function("sig")(x)
    px = sp.diff(phi, x)

    exprs = {
        "I_w": (-6 * lam ** 7 * px ** 6 * sp.diff(phi, x, 2) * sig ** 2, "w2"),
        "I_wx": (-lam ** 5 * px ** 4 * sig
                 * (30 * sp.diff(phi, x, 2) * sig + 12 * px * sp.diff(sig, x)), "wx2"),
        "I_w2x": (-lam ** 3 * px ** 2 * sig
                  * (58 * sp.diff(phi, x, 2) * sig + 40 * px * sp.diff(sig, x)), "wxx2"),
        "I_w3x": (-lam * sig
                  * (2 * sp.diff(phi, x, 2) * sig - 4 * px * sp.diff(sig, x)), "wxxx2"),
        "r0_i11": (3 * lam ** 2 * sp.diff(px ** 2 * sig, t), "wx2"),
        "r0_i14": (12 * lam ** 5
                   * sp.diff(px ** 3 * sig * sp.diff(px ** 2 * sig, x), x, 2), "w2"),
        "r0_i21": (-sp.Rational(1, 2) * lam ** 4 * sp.diff(px ** 4 * sig, t), "w2"),
        "r0_i23": (-2 * lam ** 5 * sp.diff(px ** 5 * sig ** 2, x, 3), "w2"),
        "r0_i32": (-2 * lam ** 3
                   * sp.diff(sp.diff(px ** 3 * sig, x, 2) * sig, x), "wx2"),
        "r0_i33": (-2 * lam * sp.diff(px * sig * sp.diff(sig, x, 2), x), "wxx2"),
        "r0_i34a": (4 * lam ** 3 * sp.diff(px * sp.diff(px ** 2 * sig, x), x, 2)
                    * sig, "w_wxx"),
        "r0_i34b": (-4 * lam ** 3
                    * sp.diff(sig * sp.diff(px * sp.diff(px ** 2 * sig, x), x), x),
                    "wx2"),
        "r0_i43": (12 * lam ** 3
                   * sp.diff(sp.diff(px ** 2 * sig, x) * px * sig, x, 2), "wx2"),
        "r0_i44": (-12 * lam ** 5
                   * sp.diff(px * sp.diff(px ** 2 * sig, x) ** 2, x), "w2"),
        "bnd_w2x_a": (10 * lam ** 3 * px ** 3 * sig ** 2, "wxx2"),
        "bnd_w2x_b": (2 * lam * px * sig * sp.diff(sig, x, 2), "wxx2"),
        "bnd_w3x": (2 * lam * px * sig ** 2, "wxxx2"),
    }

    syms, subs = {}, {}
    for k in range(5):
        syms[f"P{k}"] = sp.Symbol(f"P{k}")
        if k:
            subs[sp.Derivative(phi, (x, k))] = syms[f"P{k}"]
    syms["PT"] = sp.Symbol("PT")
    subs[sp.Derivative(phi, t)] = syms["PT"]
    syms["PXT"] = sp.Symbol("PXT")
    subs[sp.Derivative(phi, t, x)] = syms["PXT"]
    for k in range(4):
        syms[f"S{k}"] = sp.Symbol(f"S{k}")
        subs[sp.Derivative(sig, (x, k)) if k else sig] = syms[f"S{k}"]

    order = [sp.Symbol("lam")] + [syms[f"P{k}"] for k in range(1, 5)] \
        + [syms["PT"], syms["PXT"]] + [syms[f"S{k}"] for k in range(4)]
    out = {}
    for name, (expr, kind) in exprs.items():
        expanded = sp.expand(sp.expand(expr).subs(subs))
        out[name] = (sp.lambdify(order, expanded, "numpy"), kind)
    return out


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


def inner_product_ledger(w: Trajectory, weight: CarlemanWeight,
                         coeff: CoefficientField, q=None,
                         lam: float | None = None, eta: float | None = None,
                         ledger_tol: float = 1e-4) -> Ledger:
    """Balance <P1 w, P2 w> against the itemized integration-by-parts sum.

    The itemized side carries the interior integrals I(w_kx), the remainder
    block R0(w) and the boundary integral I_x = [.]_{x=0}^{1}; both endpoint
    contributions are reported separately.  delta_hat = (direct - I_x) /
    ||w||^2_{lam,phi} is the empirical coercivity margin of the lower bound.
    """
    grid = w.grid
    lam = weight.lam if lam is None else lam
    eta_val = weight.default_eta() if eta is None else eta
    rows = weight.window(eta_val)
    _layer_check(w.values, rows)

    P1, P2, _ = (p.values[rows] for p in
                 conjugate_decompose(w, weight, coeff, q, lam, eta_val))
    direct = _window_quad(P1 * P2, grid, rows)

    (w0, wx, wxx, wxxx, _), _ = _w_jet(w, rows)
    _, px, pxx, pxxx, pxxxx, pt = weight.phi_arrays(rows)
    inv = 1.0 / weight.phi0[rows]
    # phi_xt = -beta' phi0'/phi0^2, analytic like the other derivatives
    pxt = np.outer(-weight.phi0_prime[rows] * inv ** 2, weight.beta_derivs[1])
    sig, sx, sxx, sxxx = _sigma_jet(coeff, grid, up_to=3)
    wsq = {"w2": w0 ** 2, "wx2": wx ** 2, "wxx2": wxx ** 2, "wxxx2": wxxx ** 2,
           "w_wxx": w0 * wxx}

    coeffs = _symbolic_ledger_coeffs()
    args = (lam, px, pxx, pxxx, pxxxx, pt, pxt, sig, sx, sxx, sxxx)
    items, bnd0, bnd1 = {}, 0.0, 0.0
    for name, (fn, kind) in coeffs.items():
        cfield = np.broadcast_to(fn(*args), wsq[kind].shape)
        if name.startswith("bnd_"):
            bnd0 += _window_quad_t((cfield * wsq[kind])[:, 0], grid, rows)
            bnd1 += _window_quad_t((cfield * wsq[kind])[:, -1], grid, rows)
        else:
            items[name] = _window_quad(cfield * wsq[kind], grid, rows)

    ix = bnd1 - bnd0
    itemized = sum(items.values()) + ix
    scale = max(abs(direct), abs(itemized), 1e-300)
    mismatch = abs(direct - itemized) / scale

    wn = weighted_norm(w, weight, lam, eta_val)
    delta_hat = (direct - ix) / wn if wn > 0 else 0.0
    return Ledger(lam, eta_val, direct, items, bnd0, bnd1, itemized, mismatch,
                  wn, delta_hat)


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
        if any(v <= 0 for v in lams) or any(
                b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("lambda_grid must be strictly increasing and positive")
        if self.m < 0:
            raise ValueError("m must be nonnegative")


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


def carleman_audit(v: Trajectory, weight: CarlemanWeight,
                   coeff: CoefficientField, q=None,
                   cfg: CarlemanConfig = CarlemanConfig()) -> list:
    """Evaluate both sides of the weighted inequality for each lambda.

    LHS gathers the weighted curvature terms of v; the RHS is the weighted
    residual of L v plus the boundary observation terms.  The reported
    c_hat uses the x=0 boundary terms (the observation side selected by the
    increasing beta); the x=1 terms are reported alongside.
    """
    grid = v.grid
    rows = weight.window(cfg.eta)
    _layer_check(v.values, rows)

    (v0, vx, vxx, vxxx, _), vt_full = _w_jet(v, rows)
    D2 = diff_matrix(grid, 2, "x")
    sig = coeff.sigma.values
    svxx_xx = (D2 @ (sig * diff_x_values(v.values, grid, 2)).T).T[rows]
    q0, q1, q2 = _q_arrays(q, grid, rows)
    for name, qi in (("q0", q0), ("q1", q1), ("q2", q2)):
        if np.abs(qi).max() > cfg.m + 1e-12:
            raise ValueError(f"{name} exceeds the configured bound m={cfg.m}")
    Lv = vt_full + svxx_xx + q2 * vxx + q1 * vx + q0 * v0
    phi, px = weight.phi_arrays(rows)[:2]

    out = []
    for lam in cfg.lambda_grid:
        e2 = np.exp(-2 * lam * phi)
        lhs = _window_quad(e2 * ((vt_full ** 2 + svxx_xx ** 2) / (lam * phi)
                                 + lam ** 7 * phi ** 7 * v0 ** 2
                                 + lam ** 5 * phi ** 5 * vx ** 2
                                 + lam ** 3 * phi ** 3 * vxx ** 2
                                 + lam * phi * vxxx ** 2), grid, rows)
        rhs_int = _window_quad(e2 * Lv ** 2, grid, rows)
        bnd = {}
        for side, col in (("0", 0), ("1", -1)):
            series = (np.exp(-2 * lam * phi[:, col])
                      * (lam ** 3 * px[:, col] ** 3 * sig[col] ** 2
                         * vxx[:, col] ** 2
                         + lam * px[:, col] * sig[col] ** 2
                         * vxxx[:, col] ** 2))
            bnd[side] = _window_quad_t(series, grid, rows)
        rhs = rhs_int + bnd["0"]
        if lhs == 0.0 and rhs == 0.0:
            out.append(AuditRow(lam, 0.0, 0.0, 0.0, 0.0, 0.0, True, True))
            continue
        c_hat = lhs / rhs if rhs > 0 else np.inf
        out.append(AuditRow(lam, lhs, rhs_int, bnd["0"], bnd["1"], c_hat,
                            bool(c_hat <= cfg.c_cap)))
    return out


def random_clamped_bump(grid: GridSpec, rng: np.random.Generator,
                        eta: float | None = None, n_modes: int = 4) -> Trajectory:
    """Random Fourier-in-x profile under the clamping envelope x^2(1-x)^2,
    modulated by the sin^2 window bump in time; coefficients in [-1, 1]."""
    T = grid.T
    eta = T / 10.0 if eta is None else eta
    t, x = grid.t, grid.x
    tfac = np.where((t >= eta - 1e-12) & (t <= T - eta + 1e-12),
                    np.sin(np.pi * np.clip((t - eta) / (T - 2 * eta), 0, 1)) ** 2,
                    0.0)
    prof = np.zeros_like(x)
    for k in range(1, n_modes + 1):
        prof += (rng.uniform(-1, 1) * np.sin(k * np.pi * x)
                 + rng.uniform(-1, 1) * np.cos(k * np.pi * x))
    return Trajectory(np.outer(tfac, x ** 2 * (1 - x) ** 2 * prof), grid)


@dataclass
class EnsembleAudit:
    """Worst-case audit rows and ledger scan over a random test ensemble."""

    rows: list                   # AuditRow with ensemble-max c_hat per lambda
    delta_min: dict              # lambda -> min delta_hat over the ensemble
    lambda0: float | None        # first lambda with delta_min > 0
    delta_at_lambda0: float | None
    worst_member: int            # index attaining the max c_hat at max lambda
    worst_ledger: Ledger


def ensemble_audit(weight: CarlemanWeight, coeff: CoefficientField,
                   cfg: CarlemanConfig, n_members: int = 50,
                   seed: int = 0, q=None, n_modes: int = 4) -> EnsembleAudit:
    """Audit + ledger scan over seeded random clamped bumps."""
    grid = weight.grid
    rng = np.random.default_rng(seed)
    members = [random_clamped_bump(grid, rng, cfg.eta, n_modes)
               for _ in range(n_members)]

    best = {}
    deltas = {lam: [] for lam in cfg.lambda_grid}
    worst_idx, worst_chat = 0, -np.inf
    for i, v in enumerate(members):
        rows = carleman_audit(v, weight, coeff, q, cfg)
        for row in rows:
            if row.lam not in best or row.c_hat > best[row.lam].c_hat:
                best[row.lam] = row
        for lam in cfg.lambda_grid:
            led = inner_product_ledger(v, weight, coeff, q, lam, cfg.eta)
            deltas[lam].append(led.delta_hat)
        if rows[-1].c_hat > worst_chat:
            worst_chat, worst_idx = rows[-1].c_hat, i
        if worst_idx == i:
            worst_ledger = led           # the ledger at the largest lambda

    delta_min = {lam: min(d) for lam, d in deltas.items()}
    lambda0 = next((lam for lam in cfg.lambda_grid if delta_min[lam] > 0),
                   None)
    return EnsembleAudit(list(best.values()), delta_min, lambda0,
                         None if lambda0 is None else delta_min[lambda0],
                         worst_idx, worst_ledger)
