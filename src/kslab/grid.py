"""Uniform space-time grid, finite-difference operators and discrete norms.

The spatial domain is always [0, 1] with nx intervals (nx+1 nodes) and the
time domain [0, T] with nt steps (nt+1 nodes).  All derivative operators are
2nd-order accurate: centered stencils in the interior, one-sided stencils
near the boundary.  A stencil for the k-th derivative built from k+2 nodes is
exact on polynomials of degree <= k+1, which pins the boundary closures.

Discrete Sobolev norms reuse the same stencils, so norms and operators are
mutually consistent, and all quadrature is the trapezoid rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sparse

from .errors import GridTooCoarse, GridMismatch, LengthMismatch

# half-width of the centered interior stencil per derivative order
_CENTER_HALFWIDTH = {1: 1, 2: 1, 3: 2, 4: 2}

NORM_KINDS = ("L2x", "H1x", "H2x", "H4x", "L2t", "H1t", "L2Q")


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [0,T] x [0,1] with nx space intervals and nt time steps.

    At least 8 of each, so at least 9 nodes: the widest stencil, the
    one-sided closure of the 4th derivative, takes 7 nodes."""

    nx: int
    nt: int
    T: float

    def __post_init__(self):
        if self.nx < 8:
            raise GridTooCoarse(f"nx must be >= 8, got {self.nx}")
        if self.nt < 8:
            raise GridTooCoarse(f"nt must be >= 8, got {self.nt}")
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError(f"T must be a positive finite real, got {self.T}")

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    @property
    def dt(self) -> float:
        return self.T / self.nt

    @cached_property
    def x(self) -> np.ndarray:
        """The space nodes, built once per grid and read-only."""
        return _read_only(np.linspace(0.0, 1.0, self.nx + 1))

    @cached_property
    def t(self) -> np.ndarray:
        """The time nodes, built once per grid and read-only."""
        return _read_only(np.linspace(0.0, self.T, self.nt + 1))


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class ScalarField1D:
    """Sampled function of x on the nodes of a grid."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.nx + 1,):
            raise LengthMismatch(
                f"field has {v.shape} values, grid wants {self.grid.nx + 1}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite entries")


@dataclass(frozen=True)
class Trajectory:
    """Space-time array; row n is the spatial profile at t_n."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.nt + 1, self.grid.nx + 1):
            raise LengthMismatch(
                f"trajectory has shape {v.shape}, grid wants "
                f"{(self.grid.nt + 1, self.grid.nx + 1)}")
        if not np.all(np.isfinite(v)):
            raise ValueError("trajectory contains non-finite entries")


def field_from_callable(fn, grid: GridSpec) -> ScalarField1D:
    return ScalarField1D(np.asarray(fn(grid.x), dtype=float), grid)


def trajectory_from_callable(fn, grid: GridSpec) -> Trajectory:
    tt, xx = np.meshgrid(grid.t, grid.x, indexing="ij")
    return Trajectory(np.asarray(fn(tt, xx), dtype=float), grid)


def fd_weights(offsets, deriv: int) -> np.ndarray:
    """Finite-difference weights for the ``deriv``-th derivative at offset 0.

    Solves the Vandermonde moment conditions sum_j c_j o_j^p = deriv! * [p==deriv]
    for p = 0..len(offsets)-1, so the stencil is exact on polynomials of
    degree <= len(offsets)-1.  Offsets are in units of the grid spacing; the
    caller divides by h**deriv.
    """
    o = np.asarray(offsets, dtype=float)
    n = o.size
    if deriv >= n:
        raise ValueError("need more than deriv+1 points")
    rhs = np.zeros(n)
    rhs[deriv] = float(math.factorial(deriv))
    V = np.vander(o, n, increasing=True).T
    return np.linalg.solve(V, rhs)


@lru_cache(maxsize=None)
def _unit_diff_matrix(n: int, order: int) -> sparse.csr_matrix:
    """Differentiation matrix for unit spacing on n uniform nodes.

    Boundary closures take max(order+3, 5) nodes: at least one order above
    the interior, so the max-norm error is governed by the centered stencils,
    and exact on quartics, so clamped polynomial profiles register as exactly
    compatible.
    """
    hw = _CENTER_HALFWIDTH[order]
    m_side = max(order + 3, 5)
    offsets = np.arange(-hw, hw + 1)
    interior = np.arange(hw, n - hw)
    rows = [np.repeat(interior, offsets.size)]
    cols = [(interior[:, None] + offsets).ravel()]
    vals = [np.tile(fd_weights(offsets, order), interior.size)]
    for i in range(hw):
        # skewed stencil on the first m_side nodes, evaluated at node i, and
        # its mirror at the right end
        rows += [np.full(m_side, i), np.full(m_side, n - 1 - i)]
        cols += [np.arange(m_side), np.arange(n - m_side, n)]
        vals += [fd_weights(np.arange(m_side) - i, order),
                 fd_weights(np.arange(-m_side + 1, 1) + i, order)]
    r, c, v = map(np.concatenate, (rows, cols, vals))
    keep = v != 0  # no stored zeros, D1's centre weight among them
    return sparse.csr_matrix((v[keep], (r[keep], c[keep])), shape=(n, n))


@lru_cache(maxsize=None)
def _scaled_diff_matrix(n_nodes: int, order: int, h: float) -> sparse.csr_matrix:
    """The unit-spacing matrix scaled to spacing h, built once and shared by
    every caller, so its arrays are read-only."""
    D = _unit_diff_matrix(n_nodes, order) * h ** (-order)
    for arr in (D.data, D.indices, D.indptr):
        arr.flags.writeable = False
    return D


def diff_matrix(grid: GridSpec, order: int, axis: str = "x") -> sparse.csr_matrix:
    """Sparse derivative operator along x (nodes) or t (rows); the returned
    matrix is shared and read-only."""
    if order not in (1, 2, 3, 4):
        raise ValueError(f"order must be in 1..4, got {order}")
    if axis == "x":
        return _scaled_diff_matrix(grid.nx + 1, order, grid.dx)
    if axis == "t":
        return _scaled_diff_matrix(grid.nt + 1, order, grid.dt)
    raise ValueError(f"axis must be 'x' or 't', got {axis!r}")


def diff_x_values(values: np.ndarray, grid: GridSpec, order: int) -> np.ndarray:
    """Spatial derivative of a raw profile or trajectory array, in C order."""
    D = diff_matrix(grid, order, "x")
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        return D @ v
    return np.ascontiguousarray((D @ v.T).T)


def diff_t_values(values: np.ndarray, grid: GridSpec, order: int = 1) -> np.ndarray:
    """Time derivative of a time series or of every column of a trajectory array."""
    D = diff_matrix(grid, order, "t")
    return D @ np.asarray(values, dtype=float)


def trapz_weights(n: int, h: float) -> np.ndarray:
    """Trapezoid weights of n equispaced nodes with spacing h."""
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def trapz_x(values: np.ndarray, grid: GridSpec) -> float:
    """Trapezoid quadrature over [0,1] of a spatial profile."""
    return float(trapz_weights(grid.nx + 1, grid.dx) @ np.asarray(values))


def trapz_t(values: np.ndarray, grid: GridSpec) -> float:
    return float(trapz_weights(grid.nt + 1, grid.dt) @ np.asarray(values))


def trapz_qt(values: np.ndarray, grid: GridSpec) -> float:
    """Trapezoid quadrature over Q = (0,T) x (0,1) of a trajectory array."""
    return float(trapz_weights(grid.nt + 1, grid.dt) @ np.asarray(values)
                 @ trapz_weights(grid.nx + 1, grid.dx))


def row_norms(u: np.ndarray, grid: GridSpec, order: int) -> np.ndarray:
    """Discrete H^order_x norm of every time row of a 2-D array u: the
    trapezoid sums of |d^j u|^2, j = 0..order, in that order, each row's
    quadrature a batched (1, nx+1) by (nx+1, 1) product, which numpy takes
    as the dot product a single row gets (a matrix-vector product may round
    differently)."""
    wx = trapz_weights(grid.nx + 1, grid.dx)[:, None]

    def quad(v):
        return (v[:, None] @ wx)[:, 0, 0]

    total = quad(u ** 2)
    for j in range(1, order + 1):
        total += quad(diff_x_values(u, grid, j) ** 2)
    return np.sqrt(total)


_SPACE_ORDERS = {"L2x": 0, "H1x": 1, "H2x": 2, "H4x": 4}
_TIME_ORDERS = {"L2t": 0, "H1t": 1}


def discrete_norm(obj, kind: str, grid: GridSpec | None = None) -> float:
    """Discrete Sobolev norm: sqrt of the trapezoid quadrature of sum_j |d^j .|^2.

    Space kinds (L2x, H1x, H2x, H4x) apply to a ScalarField1D or a raw
    profile; time kinds (L2t, H1t) to a time series; L2Q to a Trajectory.
    """
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}")
    if isinstance(obj, ScalarField1D):
        values, grid = obj.values, obj.grid
    elif isinstance(obj, Trajectory):
        values, grid = obj.values, obj.grid
    else:
        values = np.asarray(obj, dtype=float)
        if grid is None:
            raise ValueError("raw arrays need an explicit grid")

    if kind == "L2Q":
        if values.ndim != 2:
            raise LengthMismatch("L2Q needs a trajectory")
        return float(np.sqrt(trapz_qt(values ** 2, grid)))

    if kind in _SPACE_ORDERS:
        if values.ndim != 1 or values.shape != (grid.nx + 1,):
            raise LengthMismatch(f"{kind} needs a spatial profile of length {grid.nx + 1}")
        return float(row_norms(values[None], grid, _SPACE_ORDERS[kind])[0])

    if values.ndim != 1 or values.shape != (grid.nt + 1,):
        raise LengthMismatch(f"{kind} needs a time series of length {grid.nt + 1}")
    total = trapz_t(values ** 2, grid)
    if kind == "H1t":
        total += trapz_t(diff_t_values(values, grid, 1) ** 2, grid)
    return float(np.sqrt(total))


def extract_traces(values: np.ndarray, grid: GridSpec
                   ) -> tuple[np.ndarray, np.ndarray]:
    """One-sided 2nd-order traces y_xx(t,0) and y_xxx(t,0), length nt+1, of a
    trajectory array, or of each trajectory of a (..., nt+1, nx+1) stack."""
    w2 = fd_weights(np.arange(4), 2) / grid.dx ** 2
    w3 = fd_weights(np.arange(5), 3) / grid.dx ** 3
    trace2 = values[..., :4] @ w2
    trace3 = values[..., :5] @ w3
    return trace2, trace3


def require_same_grid(*objs):
    grids = {o.grid for o in objs}
    if len(grids) > 1:
        raise GridMismatch(f"objects live on different grids: {grids}")
