"""Implicit solvers for the linear fourth-order parabolic systems.

The semi-discrete operator is

    A(t) z = D2 (sigma * D2 z) + gamma * D2 z + G1(t) * D1 z + G2(t) * z

with D1, D2 the grid module's 2nd-order derivative matrices, so the operator
and the discrete Sobolev norms share one discretization.  Time stepping is
the trapezoidal (Crank-Nicolson) one-step scheme

    (z^{n+1} - z^n)/dt + (A^{n+1} z^{n+1} + A^n z^n)/2 = (f^{n+1} + f^n)/2

on the interior equation slots; the four equation slots nearest the boundary
are replaced by the clamped constraints z = h1, h2 (identity rows) and
z_x = h3, h4 (one-sided first-derivative rows) at time t^{n+1}.  Both halves
are banded: A has half-bandwidth 5 (the 5-node closures of D2), the clamped
one-step matrix M half-bandwidth 3 (the 5-node slope rows).  Each
coefficient field holds one array of A's LAPACK bands, one slot for all times
or, with G1/G2, one per time slot, built for all slots in one numpy pass from
D2's and D1's stencils, entry for entry the sums of the sparse reference
``operator_matrix``; the explicit half and the band LU of M are sliced from
it once and shared by the steps, the Picard sweeps and the residual.  The
row sums of |M|_inf are additions of the band's diagonals, and A z over a
whole trajectory is one scipy sparse product with the same bands, rows
reversed (scipy's diagonal storage).  A step is one banded product and one
banded solve; a stack of sources with the same field and data
(``solve_linear_many``, the tangent solves of the inverse problem) marches
as one, the k profiles of a time as one block-diagonal band vector, so a
step is still one banded product and one banded solve.  The finite-value
and residual checks run once per march.

No solver takes a grid beside its data: the grid is the coefficient
field's and the boundary data's, and each solve checks once that the two
share it (GridMismatch otherwise).

The solver marches z itself from y0, with h1..h4 at t^{n+1} on the
constraint slots.  The constraint rows of M are O(1) and O(dx^-1) while the
interior rows are O(dx^-4), so partial pivoting would swamp them: each
constraint row and its right-hand-side entry are scaled so that the row's
absolute sum is M's largest interior diagonal entry.  The scheme is
unchanged, only its roundoff, and |M|_inf keeps its interior value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sparse
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import (CompatibilityViolation, LengthMismatch, SingularSystem)
from .grid import (GridSpec, ScalarField1D, Trajectory, diff_matrix,
                   diff_x_values, require_same_grid, sampled, trapz_qt)

DEFAULT_COMP_TOL = 1e-8
DEFAULT_LIN_TOL = 1e-10


@dataclass(frozen=True)
class CoefficientField:
    """Diffusion sigma(x) > 0, anti-diffusion gamma(x), and the optional
    time-dependent low-order coefficients G1, G2."""

    sigma: ScalarField1D
    gamma: ScalarField1D
    G1: Trajectory | None = None
    G2: Trajectory | None = None

    def __post_init__(self):
        parts = [p for p in (self.sigma, self.gamma, self.G1, self.G2)
                 if p is not None]
        require_same_grid(*parts)
        if not self.sigma.values.min() > 0:
            raise ValueError(
                f"sigma must be positive, got min(sigma)="
                f"{self.sigma.values.min():g}")
        # the cached CN system is only valid while the coefficients stay put
        for p in parts:
            p.values.flags.writeable = False

    @cached_property
    def principal_band(self) -> np.ndarray:
        """The band of the sigma/gamma part D2 sigma D2 + gamma D2 of A, in
        LAPACK band storage with _KA sub- and super-diagonals."""
        band = _principal_part(self)
        band.flags.writeable = False
        return band

    @cached_property
    def _system(self) -> "_CNSystem":
        return _CNSystem(self)

    def with_lower_order(self, G1: Trajectory | None,
                         G2: Trajectory | None) -> "CoefficientField":
        """The same sigma and gamma with G1 and G2, sharing this principal
        band."""
        coeff = replace(self, G1=G1, G2=G2)
        coeff.__dict__["principal_band"] = self.principal_band
        return coeff


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet/Neumann series h1..h4, initial profile y0 and source g."""

    h1: np.ndarray
    h2: np.ndarray
    h3: np.ndarray
    h4: np.ndarray
    y0: ScalarField1D
    g: Trajectory

    def __post_init__(self):
        grid = self.y0.grid
        require_same_grid(self.y0, self.g)
        for name in ("h1", "h2", "h3", "h4"):
            h = sampled(getattr(self, name), (grid.nt + 1,), name)
            object.__setattr__(self, name, h)
            h.flags.writeable = False
        # the cached corner gaps are only valid while h1..h4 and y0 stay put
        self.y0.values.flags.writeable = False

    @property
    def grid(self) -> GridSpec:
        return self.y0.grid

    @cached_property
    def corner_gaps(self) -> dict:
        """Corner gaps of y0 against h_j(0), with y0' taken discretely."""
        y0p = diff_x_values(self.y0.values, self.grid, 1)
        return {
            "y0(0)=h1(0)": float(abs(self.y0.values[0] - self.h1[0])),
            "y0(1)=h2(0)": float(abs(self.y0.values[-1] - self.h2[0])),
            "y0'(0)=h3(0)": float(abs(y0p[0] - self.h3[0])),
            "y0'(1)=h4(0)": float(abs(y0p[-1] - self.h4[0])),
        }

    def with_source(self, g: Trajectory) -> "BoundaryData":
        """The same h1..h4 and y0 with source g, sharing these corner gaps."""
        bd = replace(self, g=g)
        bd.__dict__["corner_gaps"] = self.corner_gaps
        return bd

    def check_compatibility(self, comp_tol: float = DEFAULT_COMP_TOL):
        """Corner compatibility of y0 with h_j(0)."""
        bad = {k: v for k, v in self.corner_gaps.items() if v > comp_tol}
        if bad:
            raise CompatibilityViolation(
                f"compatibility gaps exceed comp_tol={comp_tol:g}: {bad}")


def zero_boundary_data(grid: GridSpec, y0: ScalarField1D | None = None,
                       g: Trajectory | None = None) -> BoundaryData:
    """Homogeneous boundary series with optional initial profile and source."""
    z = np.zeros(grid.nt + 1)
    if y0 is None:
        y0 = ScalarField1D(np.zeros(grid.nx + 1), grid)
    if g is None:
        g = Trajectory(np.zeros((grid.nt + 1, grid.nx + 1)), grid)
    return BoundaryData(z, z, z, z, y0, g)


@lru_cache(maxsize=None)
def _constraint_rows(grid: GridSpec) -> np.ndarray:
    """The unweighted constraint rows of M, dense, for the slots 0, 1, nx - 1
    and nx: z(0), the one-sided slopes D1 z at x = 0 and x = 1, and z(1)."""
    rows = np.zeros((4, grid.nx + 1))
    rows[0, 0] = rows[3, grid.nx] = 1.0
    rows[1:3] = diff_matrix(grid, 1, "x")[[0, grid.nx]].toarray()
    rows.flags.writeable = False
    return rows


def operator_matrix(coeff: CoefficientField,
                    n: int | None = None) -> sparse.csr_matrix:
    """Spatial operator A (optionally at time slot n for G1/G2 terms) as
    scipy sparse products, the terms added in the order of its formula: the
    reference that ``_CNSystem``'s bands reproduce.  Its column indices are
    sorted, so its product sums each row in ascending column order, as
    ``_CNSystem.apply`` does."""
    D2 = diff_matrix(coeff.sigma.grid, 2, "x")
    A = D2 @ sparse.diags(coeff.sigma.values) @ D2 \
        + sparse.diags(coeff.gamma.values) @ D2
    if coeff.G1 is not None:
        A = A + sparse.diags(coeff.G1.values[n]) @ diff_matrix(
            coeff.sigma.grid, 1, "x")
    if coeff.G2 is not None:
        A = A + sparse.diags(coeff.G2.values[n])
    A = A.tocsr()
    A.sort_indices()
    return A


@lru_cache(maxsize=None)
def _d2_stencils(grid: GridSpec):
    """D2's entries as ``_principal_part`` reads them: the weights w of the
    centred stencil (offsets -1, 0, 1) of every row from 1 to nx - 1, and at
    each end e the two outer rows i[e], the nodes k[:, e] in descending
    order and the columns j[e] that their rows of D2 sigma D2 reach, with
    D2[i, k] and D2[k, j] (k first), D2[i, j] and the band storage rows q of
    the (i, j)."""
    d2 = _band(diff_matrix(grid, 2, "x"), _KA)
    n = grid.nx + 1

    def at(rows, cols):  # D2[rows, cols], all within the band
        return d2[_KA + rows - cols, cols]

    i = np.array([[0, 1], [n - 2, n - 1]])
    k = np.array([np.arange(4, -1, -1), np.arange(n - 1, n - 6, -1)]).T
    j = np.array([np.arange(6), np.arange(n - 6, n)])[:, None]
    q = _KA + i[..., None] - j
    return (at(1, np.arange(3)), i, k, np.broadcast_to(j, q.shape), q,
            at(i, k[..., None]), at(k[..., None], j[:, 0]),
            at(i[..., None], j))


def _principal_part(coeff: CoefficientField) -> np.ndarray:
    """The band of the time-independent part D2 sigma D2 + gamma D2 of A,
    in LAPACK band storage with _KA sub- and super-diagonals.

    Entry (i, j) is the sum over k of (D2[i, k] sigma[k]) D2[k, j] in
    descending k, plus gamma[i] D2[i, j]: the terms and the order in which
    the sparse products of ``operator_matrix`` add them, so the two bands
    agree bit for bit.  Rows 2 to nx - 2 take only centred stencils, so each
    of their five diagonals is a few vector operations; the two rows at each
    end are summed from dense blocks."""
    w, i, k, j, q, d2_ik, d2_kj, d2_ij = _d2_stencils(coeff.sigma.grid)
    sigma, gamma = coeff.sigma.values, coeff.gamma.values
    n = len(sigma)
    ab = np.zeros((2 * _KA + 1, n))
    # (D2 sigma)[i, i + p] on rows 2..nx-2, for the stencil offsets p
    left = {p: w[p + 1] * sigma[2 + p:n - 2 + p] for p in (1, 0, -1)}
    for o in range(-2, 3):
        terms = [left[p] * w[o - p + 1] for p in (1, 0, -1) if abs(o - p) <= 1]
        if abs(o) <= 1:
            terms.append(gamma[2:n - 2] * w[o + 1])
        ab[_KA - o, 2 + o:n - 2 + o] = sum(terms[1:], terms[0])
    # the end rows: the products [k, e, i, j], summed over k
    products = (d2_ik * sigma[k][..., None])[..., None] * d2_kj[:, :, None]
    ab[q, j] = sum(products[1:], products[0]) + gamma[i][..., None] * d2_ij
    ab += 0.0  # a sum of zero terms may be -0.0, where the sparse band is 0
    return ab


@lru_cache(maxsize=None)
def _d1_band(grid: GridSpec):
    """D1's nonzero entries in band storage with _KA sub- and
    super-diagonals: their band rows d, columns j and values."""
    d1 = _band(diff_matrix(grid, 1, "x"), _KA)
    d, j = np.nonzero(d1)
    return d, j, d1[d, j]


class _CNSystem:
    """The Crank-Nicolson system of one coefficient field on its own grid.

    ``band[n]`` is the operator A at time slot n in LAPACK band storage,
    built for all slots in one pass: the band of D2 sigma D2 + gamma D2
    (``_principal_part``), plus G1[n] times the band of D1 scaled row by row,
    plus G2[n] on the diagonal (the sums of ``operator_matrix``, entry for
    entry).  The step to t^{n+1} reads ``explicit[n]``, the explicit half
    B = I/dt - A^n/2 with its four constraint rows zeroed, in band storage,
    and ``steps[n]``, the banded LU factor (lu, piv) of the clamped one-step
    matrix M = I/dt + A^{n+1}/2; ``m_norm`` holds |M|_inf and ``weights``
    the scales of M's four constraint rows; ``A`` holds every slot's band as
    one block-diagonal ``dia_matrix``, which ``apply`` multiplies by.
    Without G1/G2 every slot shares one band, one step, one |M|_inf and one
    row of weights.
    """

    def __init__(self, coeff: CoefficientField):
        grid = self.grid = coeff.sigma.grid
        nx, nt, dt = grid.nx, grid.nt, grid.dt
        a = coeff.principal_band[None]
        if coeff.G1 is not None or coeff.G2 is not None:
            a = np.repeat(a, nt + 1, axis=0)
            if coeff.G1 is not None:
                # entry (d, j) of D1's band sits in row j + d - _KA
                d, j, d1 = _d1_band(grid)
                a[:, d, j] += coeff.G1.values[:, j + d - _KA] * d1
            if coeff.G2 is not None:
                a[:, _KA] += coeff.G2.values
        self.band = a
        self.A = _dia(a, _KA)
        # the steps from t^n read slot n and the steps to t^{n+1} slot n + 1,
        # or one slot for all times
        a_now, a_next = (a[:-1], a[1:]) if len(a) > 1 else (a, a)

        # every slot of B is Fortran-ordered, as dgbmv reads it
        B = np.empty((len(a_now), nx + 1, 2 * _KB + 1)).transpose(0, 2, 1)
        np.multiply(-0.5, a_now[:, _KA - _KB:_KA + _KB + 1], out=B)
        B[:, _KB] += 1 / dt
        M = 0.5 * a_next[:, _KA - _KM:_KA + _KM + 1]
        M[:, _KM] += 1 / dt
        # each constraint row is scaled to an absolute sum equal to M's largest
        # interior diagonal entry (see the module docstring)
        rows = _constraint_rows(grid)
        self.weights = (np.abs(M[:, _KM, 2:nx - 1]).max(axis=1)[:, None]
                        / np.abs(rows).sum(axis=1))
        zero = np.zeros(nx + 1)
        for i, row, w in zip((0, 1, nx - 1, nx), rows, self.weights.T):
            _set_row(B, _KB, i, zero)
            _set_row(M, _KM, i, w[:, None] * row)
        steps, self.m_norm = _factor(M)
        self.explicit = list(B) * (nt // len(B))
        self.steps = steps * (nt // len(steps))

    def apply(self, z: np.ndarray) -> np.ndarray:
        """A z on every time row of a trajectory array, or of each
        trajectory of a stack (..., nt + 1, nx + 1), as one product with
        the block-diagonal ``_dia`` matrix of ``band``.  That product sums
        each row in ascending column order, as the product of the sorted
        ``operator_matrix`` sums it, so the two agree bit for bit (while z
        is finite, the band's zeros add nothing to such a sum)."""
        A = self.A
        return (A @ z.reshape(-1, A.shape[1]).T).T.reshape(z.shape)


# half-bandwidths in LAPACK band storage, ab[k + i - j, j] = A[i, j]: A (the
# 5-node D2 closures), M (the 5-node slope rows) and B (centred rows only)
_KA, _KM, _KB = 5, 3, 2


def _band(A: sparse.csr_matrix, k: int) -> np.ndarray:
    """A in band storage with k sub- and k super-diagonals."""
    n = A.shape[0]
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    ab = np.zeros((2 * k + 1, n))
    ab[k + rows - A.indices, A.indices] = A.data
    return ab


def _dia(bands: np.ndarray, k: int) -> sparse.dia_matrix:
    """The block-diagonal matrix of the band matrices bands[s] (LAPACK band
    storage, k sub- and k super-diagonals) in scipy's diagonal storage: the
    same arrays with the band rows reversed, offsets -k..k in order.  The
    band's unused corners become the zero entries that join one block to the
    next."""
    slots, _, n = bands.shape
    data = bands[:, ::-1].transpose(1, 0, 2).reshape(2 * k + 1, slots * n)
    return sparse.dia_matrix((data, np.arange(-k, k + 1)),
                             shape=(slots * n, slots * n))


def _set_row(ab: np.ndarray, k: int, i: int, row: np.ndarray):
    """Overwrite row i of the band matrices ab[:, 2k+1, N] with row (one row
    for all, or one per matrix)."""
    j = np.arange(max(0, i - k), min(ab.shape[-1], i + k + 1))
    ab[:, k + i - j, j] = row[..., j]


def _factor(m_bands: np.ndarray):
    """Banded LU factors [(lu, piv), ...] of the one-step matrices
    m_bands[s] and the |M|_inf of each, its row sums added diagonal by
    diagonal."""
    k, (slots, _, n) = _KM, m_bands.shape
    # each row's absolute sum, its entries added in ascending column order
    # as the sparse reference adds them; entry (i, i + d) sits in band row
    # k - d, column i + d
    abs_bands = np.abs(m_bands)
    row_sums = np.zeros((slots, n))
    for d in range(-k, k + 1):
        row_sums[:, max(0, -d):n - max(0, d)] += \
            abs_bands[:, k - d, max(0, d):n + min(0, d)]
    # every slot Fortran-ordered with k extra rows for the fill-in, as
    # dgbtrf factors it in place (m, n, ldab and overwrite_ab by position)
    factors = np.zeros((slots, n, 3 * k + 1)).transpose(0, 2, 1)
    factors[:, k:] = m_bands
    steps = []
    for ab in factors:
        lu, piv, info = dgbtrf(ab, k, k, n, n, 3 * k + 1, 1)
        if info != 0:
            raise SingularSystem(
                f"one-step factorization failed: dgbtrf info={info}")
        steps.append((lu, piv))
    return steps, row_sums.max(axis=1)


def _steps(system: _CNSystem, y0: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The CN steps of k profiles at once, time-major: z[0, j] = y0 and
    z[n + 1] = M^{-1} (B z^n + c[n]), a (nt + 1, k, nx + 1) array.

    The k profiles of one time are one vector, on which B acts as one
    block-diagonal band: B's band repeated k times, its zero corners joining
    one profile to the next.  So a step is two LAPACK calls for any k: a
    banded product adds B z^n to z^{n+1}, which holds c[n], and a banded
    solve with k right-hand sides overwrites it.
    """
    nt, k, n = c.shape
    z = np.empty((nt + 1, k, n))
    z[0] = y0
    z[1:] = c
    flat = z.reshape(nt + 1, k * n)
    # B's band repeated k times, Fortran-ordered as dgbmv reads it; a field
    # without G1/G2 has one B for all steps
    repeated = np.empty((k, n, 2 * _KB + 1))
    band, last = repeated.reshape(k * n, -1).T, None
    # now and after are z^n and z^{n+1} as flat vectors, rhs is z^{n+1} as
    # the (n, k) Fortran array dgbtrs reads
    for B, (lu, piv), now, after, rhs in zip(
            system.explicit, system.steps, flat[:-1], flat[1:],
            z[1:].transpose(0, 2, 1)):
        if B is not last:
            repeated[:], last = B.T, B
        # z^{n+1} += B z^n (beta = 1, overwrite_y), then the solve in place
        # (trans = 0, overwrite_b); passed by position, which f2py parses in
        # half the time
        dgbmv(k * n, k * n, _KB, _KB, 1.0, band, now, 1, 0, 1.0, after,
              1, 0, 0, 1)
        dgbtrs(lu, _KM, _KM, rhs, piv, 0, n, 3 * _KM + 1, n, 1)
    return z


def _march(system: _CNSystem, bd: BoundaryData, sources: np.ndarray,
           lin_tol: float) -> np.ndarray:
    """CN march z[j] from y0 with the source sources[j], for each j of a
    (k, nt + 1, nx + 1) stack.

    The interior slots hold the averaged source and the constraint slots the
    weighted h1, h3, h4, h2 at t^{n+1}: the constant part c^n of step n's
    right-hand side B z^n + c^n, built at once.  ``_steps`` marches all k
    profiles together; the checks run once, on the whole stack, and name
    the first failing step.
    """
    grid = system.grid
    nx, nt, k = grid.nx, grid.nt, len(sources)
    interior, constrained = slice(2, nx - 1), [0, 1, nx - 1, nx]

    # time-major, as _steps reads it
    c = np.zeros((nt, k, nx + 1))
    c[..., interior] = 0.5 * (sources[:, 1:, interior]
                              + sources[:, :-1, interior]).transpose(1, 0, 2)
    c[..., constrained] = (system.weights * np.transpose(
        [bd.h1, bd.h3, bd.h4, bd.h2])[1:])[:, None]
    z = np.ascontiguousarray(
        _steps(system, bd.y0.values, c).transpose(1, 0, 2))
    z += 0.0  # the solve leaves -0.0 below negative pivots; make it +0.0

    # the finite and residual checks of every step at once; M z^{n+1} and the
    # right-hand side B z^n + c^n are formed from A's band and the
    # constraint rows, independently of B, M and the LU factors
    znew, rhs = z[:, 1:], c.transpose(1, 0, 2)
    # the max of |z^{n+1}| is nan or inf where z^{n+1} is not finite
    z_max = np.abs(znew).max(axis=-1)
    finite = np.isfinite(z_max)
    # with G1/G2 the band's zero corners join the slots of apply's product,
    # where 0 * inf would carry a non-finite step into its neighbours'
    # residuals; that step fails as non-finite, so the product reads it as 0
    half_Az = system.apply(
        z if finite.all() else np.where(np.isfinite(z), z, 0.0))
    half_Az *= 0.5
    with np.errstate(invalid="ignore"):
        Mz = znew / grid.dt + half_Az[:, 1:]
        Mz[..., constrained] = system.weights * (
            znew @ _constraint_rows(grid).T)
        rhs[..., interior] += z[:, :-1, interior] / grid.dt
        rhs[..., interior] -= half_Az[:, :-1, interior]
        Mz -= rhs
        res = np.abs(Mz, out=Mz).max(axis=-1)
        scale = system.m_norm * z_max + np.abs(rhs).max(axis=-1)
        bad = ~finite | (res > lin_tol * np.maximum(scale, 1e-300))
    if bad.any():
        n = int(np.argmax(bad.any(axis=0)))
        j = int(np.argmax(bad[:, n]))
        if not finite[j, n]:
            raise SingularSystem("one-step solve produced non-finite values")
        raise SingularSystem(
            f"step {n}: relative residual {res[j, n] / scale[j, n]:.2e} "
            f"exceeds lin_tol={lin_tol:g} (ill-conditioned one-step system)")
    return z


def solve_principal(coeff: CoefficientField, f: Trajectory, z0: ScalarField1D,
                    comp_tol: float = DEFAULT_COMP_TOL,
                    lin_tol: float = DEFAULT_LIN_TOL) -> Trajectory:
    """Solve z_t + (sigma z_xx)_xx = f with homogeneous clamped boundary."""
    grid = z0.grid
    principal = CoefficientField(
        coeff.sigma, ScalarField1D(np.zeros(grid.nx + 1), grid))
    return solve_linear_full(principal, zero_boundary_data(grid, y0=z0, g=f),
                             comp_tol, lin_tol)


def solve_linear_full(coeff: CoefficientField, bd: BoundaryData,
                      comp_tol: float = DEFAULT_COMP_TOL,
                      lin_tol: float = DEFAULT_LIN_TOL) -> Trajectory:
    """Solve the full linear system with clamped boundary data.

    z is marched directly from y0.  Every step's constraint rows put z(0),
    z(1) on h1, h2 and the one-sided slopes D1 z at x = 0, 1 on h3, h4 at
    t^{n+1}, so the discrete traces of z land on h1..h4 to solver precision;
    the interior rows are the CN scheme with the averaged source g.
    """
    return Trajectory(solve_linear_many(coeff, bd, bd.g.values[None],
                                        comp_tol, lin_tol)[0], bd.grid)


def solve_linear_many(coeff: CoefficientField, bd: BoundaryData,
                      sources: np.ndarray,
                      comp_tol: float = DEFAULT_COMP_TOL,
                      lin_tol: float = DEFAULT_LIN_TOL) -> np.ndarray:
    """``solve_linear_full`` for each source of a (k, nt + 1, nx + 1) stack,
    with bd's y0 and h1..h4 (bd.g is not read): the (k, nt + 1, nx + 1)
    stack of solutions, each equal bit for bit to its own solve.

    The sources share one march, which holds a few more arrays the size of
    the stack; a caller bounds its memory by the stacks it passes.
    """
    require_same_grid(coeff.sigma, bd.y0)
    grid = bd.grid
    if sources.ndim != 3 or sources.shape[1:] != (grid.nt + 1, grid.nx + 1):
        raise LengthMismatch(
            f"sources have shape {sources.shape}, grid wants "
            f"(k, {grid.nt + 1}, {grid.nx + 1})")
    bd.check_compatibility(comp_tol)
    return _march(coeff._system, bd, sources, lin_tol)


def operator_residual(z: Trajectory, coeff: CoefficientField, fhat: Trajectory):
    """Residual of the CN scheme on the interior slots for a given trajectory.

    Returns (max relative one-step residual in the backward-error sense,
    absolute L2Q norm of the interior residual field).
    """
    require_same_grid(z, fhat, coeff.sigma)
    system = coeff._system
    grid = z.grid
    interior = slice(2, grid.nx - 1)
    zv, fv = z.values, fhat.values
    Az = system.apply(zv)
    f_mid = 0.5 * (fv[1:] + fv[:-1])
    r = ((zv[1:] - zv[:-1]) / grid.dt + 0.5 * (Az[1:] + Az[:-1])
         - f_mid)[:, interior]
    res_field = np.zeros_like(zv)
    res_field[1:, interior] = r
    scale = (system.m_norm * np.abs(zv[1:]).max(axis=1)
             + np.abs(f_mid).max(axis=1) + 1e-300)
    max_rel = max(0.0, *(np.abs(r).max(axis=1) / scale))
    # the quadrature of r scaled by the power of two of its largest entry,
    # then the root scaled back: the squares stay in the float range however
    # large r is (a tiny dt makes it huge), and the scaling is exact
    e = np.frexp(np.abs(r).max())[1]
    l2 = float(np.ldexp(np.sqrt(trapz_qt(np.ldexp(res_field, -e) ** 2,
                                         grid)), e))
    return max_rel, l2
