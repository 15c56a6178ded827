import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import layered_bump, make_coeff
import kslab.carleman
from kslab.carleman import (AuditRow, CarlemanConfig, CarlemanWeight,
                            carleman_audit, conjugate_decompose,
                            conjugation_identity_residual, ensemble_audit,
                            inner_product_ledger, make_default_weight,
                            random_clamped_bump, weighted_norm)
from kslab.errors import GridMismatch, HypothesisViolation, LayerViolation
from kslab.grid import (GridSpec, ScalarField1D, Trajectory, diff_matrix,
                        diff_t_values, diff_x_values, trapz_weights)

EPS = np.finfo(float).eps
R_ANALYTIC = 1.0 / (4.0 * 2.0 ** 1.5)  # min over [0,1] of -beta'' for sqrt(1+x)


@pytest.fixture(scope="module")
def setup128():
    g = GridSpec(128, 256, 2.0)
    coeff = make_coeff(g)
    weight = make_default_weight(coeff.sigma, 1.0)
    return g, coeff, weight, layered_bump(g)


def test_default_weight_r_value(setup128):
    _, _, weight, _ = setup128
    assert weight.r == pytest.approx(R_ANALYTIC, abs=1e-6)
    assert weight.epsilon_margin > 0


def test_phi0_endpoints_and_peak():
    g = GridSpec(16, 32, 2.0)
    coeff = make_coeff(g)
    for T0 in (1.0, 0.75):
        w = make_default_weight(coeff.sigma, T0)
        assert w.phi0[0] == 0.0 and w.phi0[-1] == 0.0
        assert w.phi0.max() == pytest.approx(1.0, abs=1e-12)
        interior = w.phi0[1:-1]
        assert interior.min() > 0
        # C^1: phi0' vanishes at the peak and matches difference quotients
        n0 = int(round(T0 / g.dt))
        assert abs(w.phi0_prime[n0]) < 1e-10
        fd = np.gradient(w.phi0, g.dt)
        assert np.abs(fd[2:-2] - w.phi0_prime[2:-2]).max() < 0.1


def test_weight_rejects_large_sigma_slope():
    g = GridSpec(64, 64, 2.0)
    sigma = ScalarField1D(1 + 10 * g.x, g)
    with pytest.raises(HypothesisViolation) as err:
        make_default_weight(sigma, 1.0)
    assert "hip4B" in err.value.failed


def test_weight_rejects_bad_T0():
    g = GridSpec(16, 16, 1.0)
    coeff = make_coeff(g)
    with pytest.raises(ValueError):
        make_default_weight(coeff.sigma, 1.5)


def test_sign_structure_pointwise(setup128):
    # the four weighted-sign inequalities hold with the stored margin
    g, coeff, weight, _ = setup128
    b0, b1, b2, _, _ = weight.beta_derivs
    sig = coeff.sigma.values
    sx = diff_x_values(sig, g, 1)
    eps = weight.epsilon_margin
    assert np.all(b2 <= -eps * b0 + 1e-12)
    assert np.all(30 * b2 * sig + 12 * b1 * sx <= -eps * b0 + 1e-12)
    assert np.all(58 * b2 * sig + 40 * b1 * sx <= -eps * b0 + 1e-12)
    assert np.all(2 * b2 * sig - 4 * b1 * sx <= -eps * b0 + 1e-12)


def test_layer_violation():
    g = GridSpec(32, 32, 2.0)
    coeff = make_coeff(g)
    weight = make_default_weight(coeff.sigma, 1.0)
    bad = Trajectory(np.ones((33, 33)), g)  # supported everywhere
    with pytest.raises(LayerViolation):
        conjugate_decompose(bad, weight, coeff)


def test_weighted_norm_layer_violation():
    # constant in time, so it does not vanish in the layers the window cuts
    g = GridSpec(64, 128, 2.0)
    weight = make_default_weight(make_coeff(g).sigma, 1.0)
    w = Trajectory(np.outer(np.ones(g.nt + 1), g.x ** 2 * (1 - g.x) ** 2), g)
    with pytest.raises(LayerViolation):
        weighted_norm(w, weight)


@pytest.mark.parametrize("other", [GridSpec(32, 128, 2.0),
                                   GridSpec(64, 64, 2.0)], ids=["nt", "nx"])
@pytest.mark.parametrize("call", [
    lambda w, weight, coeff: carleman_audit(w, weight, coeff),
    lambda w, weight, coeff: inner_product_ledger(w, weight, coeff),
    lambda w, weight, coeff: weighted_norm(w, weight),
    lambda w, weight, coeff: conjugate_decompose(w, weight, coeff),
    lambda w, weight, coeff: conjugation_identity_residual(w, weight, coeff),
], ids=["audit", "ledger", "norm", "decompose", "identity"])
def test_test_function_from_another_grid_is_rejected(call, other):
    g = GridSpec(32, 64, 2.0)
    coeff = make_coeff(g)
    weight = make_default_weight(coeff.sigma, 1.0)
    with pytest.raises(GridMismatch):
        call(layered_bump(other), weight, coeff)


def test_decompose_zero_function(setup128):
    g, coeff, weight, _ = setup128
    zero = Trajectory(np.zeros((g.nt + 1, g.nx + 1)), g)
    P1, P2, R = conjugate_decompose(zero, weight, coeff)
    assert np.all(P1.values == 0) and np.all(P2.values == 0) \
        and np.all(R.values == 0)
    assert conjugation_identity_residual(zero, weight, coeff) == 0.0


def test_decompose_lambda_zero_reduction(setup128):
    g, coeff, weight, w = setup128
    q2 = Trajectory(np.full((g.nt + 1, g.nx + 1), 0.3), g)
    P1, P2, R = conjugate_decompose(w, weight, coeff, (None, None, q2), 0.0)
    rows = weight.window()
    swxx_xx = diff_x_values(coeff.sigma.values
                            * diff_x_values(w.values, g, 2), g, 2)
    # P1 reduces to the principal operator, P2 to the time derivative, R to
    # the low-order terms
    sxx = diff_x_values(coeff.sigma.values, g, 2)
    sx = diff_x_values(coeff.sigma.values, g, 1)
    wxx = diff_x_values(w.values, g, 2)
    wxxx = diff_x_values(w.values, g, 3)
    wxxxx = diff_x_values(w.values, g, 4)
    expanded = (sxx * wxx + 2 * sx * wxxx + coeff.sigma.values * wxxxx)[rows]
    assert np.abs(P1.values[rows] - expanded).max() < 1e-12
    assert np.abs(P2.values[rows]
                  - diff_t_values(w.values, g, 1)[rows]).max() < 1e-12
    assert np.abs(R.values[rows] - 0.3 * wxx[rows]).max() < 1e-12


@pytest.mark.parametrize("lam", [2.0, 5.0, 8.0])
def test_identity_residual_bump(setup128, lam):
    g, coeff, weight, w = setup128
    res = conjugation_identity_residual(w, weight, coeff, None, lam)
    assert res <= 1e-6


def test_identity_residual_nonconstant_sigma_and_q():
    # sigma_x != 0 exercises the re-derived remainder term; coefficients q
    # enter both sides
    g = GridSpec(96, 128, 2.0)
    sigma = ScalarField1D(1 + g.x / 30, g)
    coeff = make_coeff(g, sigma=sigma.values)
    weight = make_default_weight(sigma, 1.0)
    w = layered_bump(g)
    q = (Trajectory(np.full((g.nt + 1, g.nx + 1), 0.5), g),
         Trajectory(np.full((g.nt + 1, g.nx + 1), -0.25), g),
         Trajectory(np.full((g.nt + 1, g.nx + 1), 0.8), g))
    for lam in (2.0, 8.0):
        assert conjugation_identity_residual(w, weight, coeff, q, lam) <= 1e-6


def test_eta_outside_half_horizon_is_rejected(setup128):
    g, _, weight, w = setup128
    for eta in (0.0, -0.1, g.T / 2):
        with pytest.raises(ValueError, match="eta must lie in"):
            weighted_norm(w, weight, eta=eta)


def test_weighted_norm_zero_and_scaling(setup128):
    g, _, weight, w = setup128
    zero = Trajectory(np.zeros((g.nt + 1, g.nx + 1)), g)
    assert weighted_norm(zero, weight) == 0.0
    one = weighted_norm(w, weight, 5.0)
    four = weighted_norm(Trajectory(2 * w.values, g), weight, 5.0)
    assert four == pytest.approx(4 * one, rel=1e-12)


def test_weighted_norm_lambda_monotone(setup128):
    _, _, weight, w = setup128
    vals = [weighted_norm(w, weight, lam) for lam in (2, 4, 8, 16)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_ledger_zero_function(setup128):
    g, coeff, weight, _ = setup128
    zero = Trajectory(np.zeros((g.nt + 1, g.nx + 1)), g)
    led = inner_product_ledger(zero, weight, coeff)
    assert led.direct == 0.0 and led.itemized == 0.0
    assert all(v == 0.0 for v in led.items.values())


def test_ledger_balance_and_signs():
    # fine-in-x grid: the spatial integration-by-parts residues dominate the
    # mismatch and sit below 1e-4 there
    g = GridSpec(1024, 256, 2.0)
    coeff = make_coeff(g)
    weight = make_default_weight(coeff.sigma, 1.0)
    w = layered_bump(g)
    for lam in (2.0, 5.0, 8.0):
        led = inner_product_ledger(w, weight, coeff, lam)
        assert led.mismatch_rel <= 1e-4
        for name in ("I_w", "I_wx", "I_w2x", "I_w3x"):
            assert led.items[name] > 0
        assert led.delta_hat > 0


def test_ledger_lower_bound_scan(setup128):
    g, coeff, weight, w = setup128
    deltas = [inner_product_ledger(w, weight, coeff, lam).delta_hat
              for lam in (2, 4, 8, 16)]
    assert all(d > 0 for d in deltas)


def test_audit_zero_degenerate(setup128):
    g, coeff, weight, _ = setup128
    zero = Trajectory(np.zeros((g.nt + 1, g.nx + 1)), g)
    rows = carleman_audit(zero, weight, coeff, None,
                          CarlemanConfig(lambda_grid=(2.0, 4.0)))
    assert all(r.degenerate for r in rows)


def test_audit_bump_finite_and_stable(setup128):
    g, coeff, weight, w = setup128
    cfg = CarlemanConfig(lambda_grid=(2.0, 4.0, 8.0, 16.0))
    rows = carleman_audit(w, weight, coeff, None, cfg)
    chats = [r.c_hat for r in rows]
    assert all(np.isfinite(chats)) and all(c > 0 for c in chats)
    assert all(r.rhs_boundary1 >= 0 for r in rows)
    # refinement stability of the largest-lambda constant
    g2 = GridSpec(256, 512, 2.0)
    coeff2 = make_coeff(g2)
    weight2 = make_default_weight(coeff2.sigma, 1.0)
    rows2 = carleman_audit(layered_bump(g2), weight2, coeff2, None, cfg)
    assert rows2[-1].c_hat == pytest.approx(chats[-1], rel=0.3)


def test_audit_rejects_oversized_q(setup128):
    g, coeff, weight, w = setup128
    q = (Trajectory(np.full((g.nt + 1, g.nx + 1), 3.0), g), None, None)
    with pytest.raises(ValueError):
        carleman_audit(w, weight, coeff, q, CarlemanConfig(m=1.0))


def test_carleman_config_validation():
    with pytest.raises(ValueError):
        CarlemanConfig(lambda_grid=())
    with pytest.raises(ValueError):
        CarlemanConfig(lambda_grid=(4.0, 2.0))
    with pytest.raises(ValueError):
        CarlemanConfig(lambda_grid=(-1.0, 2.0))
    for bad in ({"lambda_grid": (2.0, np.nan)}, {"lambda_grid": (np.nan,)},
                {"lambda_grid": (2.0, np.inf)}, {"m": np.nan},
                {"c_cap": np.nan}, {"c_cap": 0.0}, {"c_cap": -1.0}):
        with pytest.raises(ValueError):
            CarlemanConfig(**bad)
    assert CarlemanConfig(m=np.inf).m == np.inf


def test_ensemble_audit_lambda0_and_worst_ledger():
    g = GridSpec(64, 128, 2.0)
    coeff = make_coeff(g)
    weight = make_default_weight(coeff.sigma, 1.0)
    cfg = CarlemanConfig(lambda_grid=(2.0, 8.0))
    ens = ensemble_audit(weight, coeff, cfg, n_members=6, seed=7)
    assert ens.lambda0 == 2.0
    assert ens.delta_at_lambda0 > 0
    assert ens.worst_ledger.mismatch_rel < 0.05
    assert len(ens.rows) == 2


def test_ensemble_audit_needs_a_member():
    g = GridSpec(16, 32, 2.0)
    coeff = make_coeff(g)
    weight = make_default_weight(coeff.sigma, 1.0)
    with pytest.raises(ValueError, match="n_members must be at least 1"):
        ensemble_audit(weight, coeff, CarlemanConfig(), n_members=0)


def test_ensemble_audit_matches_per_member_calls():
    # the batched ensemble must reproduce the public per-member audit and
    # ledger bit for bit, here with a non-constant sigma
    g = GridSpec(32, 64, 2.0)
    sigma = ScalarField1D(1 + 0.02 * g.x, g)
    coeff = make_coeff(g, sigma=sigma.values)
    weight = make_default_weight(sigma, 1.0)
    cfg = CarlemanConfig(lambda_grid=(2.0, 5.0, 8.0))
    ens = ensemble_audit(weight, coeff, cfg, n_members=5, seed=11)

    rng = np.random.default_rng(11)
    members = [random_clamped_bump(g, rng, cfg.eta) for _ in range(5)]
    audits = [carleman_audit(v, weight, coeff, None, cfg) for v in members]
    ledgers = [[inner_product_ledger(v, weight, coeff, lam, cfg.eta)
                for lam in cfg.lambda_grid] for v in members]
    # max() keeps the first of equal values, like the ensemble's strict >
    rows = [max((a[k] for a in audits), key=lambda r: r.c_hat)
            for k in range(len(cfg.lambda_grid))]
    delta_min = {lam: min(led[k].delta_hat for led in ledgers)
                 for k, lam in enumerate(cfg.lambda_grid)}
    lambda0 = next((lam for lam in cfg.lambda_grid if delta_min[lam] > 0),
                   None)
    worst = max(range(5), key=lambda i: audits[i][-1].c_hat)

    assert ens.rows == rows
    assert ens.delta_min == delta_min
    assert ens.lambda0 == lambda0
    assert ens.worst_member == worst
    assert vars(ens.worst_ledger) == vars(ledgers[worst][-1])


def _q_sloped(g):
    tt, xx = np.meshgrid(g.t, g.x, indexing="ij")
    return (Trajectory(0.5 * np.sin(np.pi * xx) * np.cos(tt), g), None,
            Trajectory(np.full((g.nt + 1, g.nx + 1), -0.3), g))


@pytest.mark.parametrize("lambdas, n_modes", [
    ((5.0,), 4),
    ((2.0, 5.0, 8.0), 0),
], ids=["single-lambda", "all-ties"])
def test_ensemble_audit_parity_cases(lambdas, n_modes):
    # the member-by-member walk against the public per-member calls, where
    # the order of work could matter: one lambda, and an ensemble of equal
    # (zero, so degenerate) members
    g = GridSpec(32, 64, 2.0)
    sigma = ScalarField1D(1 + 0.02 * g.x, g)
    coeff = make_coeff(g, sigma=sigma.values)
    weight = make_default_weight(sigma, 1.0)
    cfg = CarlemanConfig(lambda_grid=lambdas)
    ens = ensemble_audit(weight, coeff, cfg, n_members=4, seed=5,
                         n_modes=n_modes)

    rng = np.random.default_rng(5)
    members = [random_clamped_bump(g, rng, cfg.eta, n_modes)
               for _ in range(4)]
    audits = [carleman_audit(v, weight, coeff, None, cfg) for v in members]
    ledgers = [[inner_product_ledger(v, weight, coeff, lam, cfg.eta)
                for lam in lambdas] for v in members]
    rows = [max((a[k] for a in audits), key=lambda r: r.c_hat)
            for k in range(len(lambdas))]
    delta_min = {lam: min(led[k].delta_hat for led in ledgers)
                 for k, lam in enumerate(lambdas)}
    worst = max(range(4), key=lambda i: audits[i][-1].c_hat)

    assert ens.rows == rows
    assert ens.delta_min == delta_min
    assert ens.worst_member == worst
    assert vars(ens.worst_ledger) == vars(ledgers[worst][-1])
    if n_modes == 0:
        assert ens.worst_member == 0 and ens.lambda0 is None
        assert all(row.degenerate for row in ens.rows)
        assert ens.rows == audits[0]


def reference_audit(v, weight, coeff, q, cfg):
    """carleman_audit as written before the shared window and per-lambda
    objects: full-array jets, its own D2 and the whole per-lambda
    expression inline."""
    grid = v.grid
    rows = weight.window(cfg.eta)
    wt, wx = trapz_weights(rows.size, grid.dt), trapz_weights(grid.nx + 1, grid.dx)
    v0 = v.values[rows]
    vx, vxx, vxxx = [diff_x_values(v.values, grid, k)[rows] for k in (1, 2, 3)]
    vt_full = diff_t_values(v.values, grid, 1)[rows]
    D2 = diff_matrix(grid, 2, "x")
    sig = coeff.sigma.values
    svxx_xx = (D2 @ (sig * diff_x_values(v.values, grid, 2)).T).T[rows]
    q0, q1, q2 = [np.zeros((rows.size, grid.nx + 1)) if qi is None
                  else qi.values[rows] for qi in q]
    Lv = vt_full + svxx_xx + q2 * vxx + q1 * vx + q0 * v0
    phi, px = weight.phi_arrays(rows)[:2]

    out = []
    for lam in cfg.lambda_grid:
        e2 = np.exp(-2 * lam * phi)
        lhs = float(wt @ (e2 * ((vt_full ** 2 + svxx_xx ** 2) / (lam * phi)
                                + lam ** 7 * phi ** 7 * v0 ** 2
                                + lam ** 5 * phi ** 5 * vx ** 2
                                + lam ** 3 * phi ** 3 * vxx ** 2
                                + lam * phi * vxxx ** 2)) @ wx)
        rhs_int = float(wt @ (e2 * Lv ** 2) @ wx)
        bnd = {}
        for side, col in (("0", 0), ("1", -1)):
            series = (np.exp(-2 * lam * phi[:, col])
                      * (lam ** 3 * px[:, col] ** 3 * sig[col] ** 2
                         * vxx[:, col] ** 2
                         + lam * px[:, col] * sig[col] ** 2
                         * vxxx[:, col] ** 2))
            bnd[side] = float(wt @ series)
        rhs = rhs_int + bnd["0"]
        if lhs == 0.0 and rhs == 0.0:
            out.append(AuditRow(lam, 0.0, 0.0, 0.0, 0.0, 0.0, True, True))
            continue
        c_hat = lhs / rhs if rhs > 0 else np.inf
        out.append(AuditRow(lam, lhs, rhs_int, bnd["0"], bnd["1"], c_hat,
                            bool(c_hat <= cfg.c_cap)))
    return out


@pytest.mark.parametrize("slope, with_q", [(0.0, False), (0.02, True)],
                         ids=["constant-sigma", "sloped-sigma-and-q"])
def test_audit_matches_reference(slope, with_q):
    g = GridSpec(48, 96, 2.0)
    sigma = ScalarField1D(1 + slope * g.x, g)
    coeff = make_coeff(g, sigma=sigma.values)
    weight = make_default_weight(sigma, 1.0)
    cfg = CarlemanConfig(lambda_grid=(2.0, 4.0, 8.0, 16.0), eta=0.25)
    q = _q_sloped(g) if with_q else (None, None, None)
    rng = np.random.default_rng(4)
    members = [random_clamped_bump(g, rng, cfg.eta) for _ in range(3)]
    members.append(Trajectory(np.zeros((g.nt + 1, g.nx + 1)), g))
    for v in members:
        assert carleman_audit(v, weight, coeff, q, cfg) \
            == reference_audit(v, weight, coeff, q, cfg)


def test_ensemble_builds_window_once_and_jets_once_per_member(monkeypatch):
    # one phi_arrays per ensemble; jets once for each member the forms
    # confirm, which here are exactly the members the audit reports; one
    # full ledger, for the final worst member
    calls = {"phi": 0, "jets": [], "ledger": 0}
    phi_arrays, jets = CarlemanWeight.phi_arrays, kslab.carleman._Window.jets
    ledger = kslab.carleman._ledger

    def counted_phi(self, rows):
        calls["phi"] += 1
        return phi_arrays(self, rows)

    def counted_jets(self, w):
        calls["jets"].append(w.values)
        return jets(self, w)

    def counted_ledger(*args):
        calls["ledger"] += 1
        return ledger(*args)

    monkeypatch.setattr(CarlemanWeight, "phi_arrays", counted_phi)
    monkeypatch.setattr(kslab.carleman._Window, "jets", counted_jets)
    monkeypatch.setattr(kslab.carleman, "_ledger", counted_ledger)
    g = GridSpec(32, 64, 2.0)
    coeff = make_coeff(g)
    weight = make_default_weight(coeff.sigma, 1.0)
    cfg = CarlemanConfig(lambda_grid=(2.0, 5.0, 8.0))
    ens = ensemble_audit(weight, coeff, cfg, n_members=20, seed=3)
    assert calls["phi"] == 1 and calls["ledger"] == 1

    rng = np.random.default_rng(3)
    members = [random_clamped_bump(g, rng, cfg.eta) for _ in range(20)]
    confirmed = [next(i for i, v in enumerate(members)
                      if np.array_equal(v.values, w)) for w in calls["jets"]]
    audits = [carleman_audit(v, weight, coeff, None, cfg) for v in members]
    reported = {max(range(20), key=lambda i: audits[i][k].c_hat)
                for k in range(3)}
    reported |= {min(range(20), key=lambda i: inner_product_ledger(
        members[i], weight, coeff, lam, cfg.eta).delta_hat)
        for lam in cfg.lambda_grid}
    assert confirmed == sorted(reported)  # each once, in member order
    assert ens.worst_member in reported


@settings(max_examples=30, deadline=None)
@given(nx=st.integers(16, 48), nt=st.integers(16, 64),
       slope=st.floats(-0.03, 0.03),
       lambdas=st.lists(st.floats(0.5, 32.0), min_size=1, max_size=3,
                        unique=True).map(sorted),
       eta=st.sampled_from([None, 0.3]), n_modes=st.integers(1, 4),
       data=st.data())
def test_span_forms_match_per_member_quadratures(nx, nt, slope, lambdas, eta,
                                                 n_modes, data):
    # each form's c^T M c is the per-member quadrature of the rebuilt member
    # to roundoff, within the screening band, and the c_hat and delta_hat
    # bounds the screen draws from them hold the exact values
    g = GridSpec(nx, nt, 2.0)
    sigma = ScalarField1D(1 + slope * g.x, g)
    coeff = make_coeff(g, sigma=sigma.values)
    weight = make_default_weight(sigma, 1.0)
    window = kslab.carleman._Window(weight, coeff, eta)
    qs = kslab.carleman._q_arrays(None, window)
    span = kslab.carleman._Span(window, n_modes)
    # coefficient vectors from the values rng.uniform(-1, 1) can return,
    # the multiples of 2^-52 in [-1, 1]
    coeffs = np.array(data.draw(st.lists(
        st.lists(st.integers(-2 ** 52, 2 ** 52), min_size=2 * n_modes,
                 max_size=2 * n_modes), min_size=1, max_size=3))) / 2.0 ** 52
    for lam in lambdas:
        lw = kslab.carleman._Lambda(window, lam)
        forms = span.forms(lw)
        for c in coeffs:
            v = kslab.carleman._clamped_bump(g, c, eta)
            jets, wt, squares = window.jets(v)
            terms = kslab.carleman._audit_terms(window, jets, wt, qs)
            row = kslab.carleman._audit_row(lw, squares, terms, 1e6)
            direct, ix0, ix1, wn, delta = kslab.carleman._margin(
                lw, jets, wt, squares)
            exact = {"lhs": row.lhs, "rhs_interior": row.rhs_interior,
                     "rhs_boundary0": row.rhs_boundary0,
                     "rhs_boundary1": row.rhs_boundary1, "direct": direct,
                     "ix0": ix0, "ix1": ix1, "norm": wn}
            for name, value in exact.items():
                screened, band = span.values(c[None], forms, (name,))
                err = abs(screened[0] - value)
                # band / span.band is the sum of absolute contributions
                assert err <= 16 * EPS * band[0] / span.band, name
                assert err <= band[0], name
            lo, hi = kslab.carleman._ratio_bounds(
                *span.values(c[None], forms, ("lhs",)),
                *span.values(c[None], forms,
                             ("rhs_interior", "rhs_boundary0")))
            assert lo[0] <= row.c_hat <= hi[0]
            lo, hi = kslab.carleman._ratio_bounds(
                *span.values(c[None], forms, ("direct", "ix0"), ("ix1",)),
                *span.values(c[None], forms, ("norm",)))
            assert lo[0] <= delta <= hi[0]


def test_random_clamped_bump_is_admissible():
    g = GridSpec(64, 64, 2.0)
    rng = np.random.default_rng(3)
    v = random_clamped_bump(g, rng)
    assert np.all(v.values[:, 0] == 0) and np.all(v.values[:, -1] == 0)
    assert np.all(v.values[0] == 0) and np.all(v.values[-1] == 0)
    weight = make_default_weight(make_coeff(g).sigma, 1.0)
    conjugate_decompose(v, weight, make_coeff(g))  # no LayerViolation


def test_conjugated_operator_matches_plain_L_at_lambda_zero(setup128):
    g, coeff, weight, w = setup128
    # the generated conjugated_reference, as conjugation_identity_residual
    # evaluates it on the window rows
    window = kslab.carleman._Window(weight, coeff, None)
    jets, wt, _ = window.jets(w)
    direct = kslab.carleman._conjugated(kslab.carleman._Lambda(window, 0.0),
                                        jets, wt, [0.0, 0.0, 0.0])
    rows = window.rows
    sig = coeff.sigma.values
    expanded = (diff_x_values(sig, g, 2) * diff_x_values(w.values, g, 2)
                + 2 * diff_x_values(sig, g, 1) * diff_x_values(w.values, g, 3)
                + sig * diff_x_values(w.values, g, 4))
    Lw = diff_t_values(w.values, g, 1) + expanded
    assert np.abs(direct - Lw[rows]).max() < 1e-9
    # nested and expanded principal terms agree on interior columns (the
    # composite centered stencils convolve exactly)
    nested = diff_x_values(sig * diff_x_values(w.values, g, 2), g, 2)
    gap = np.abs(nested - expanded)[rows][:, 2:-2].max()
    assert gap < 1e-6  # roundoff at the dx^-4 scale


def _reference_pairs(left, right, weight=None):
    """Terms (s, f, X, Y) of the product of two linear maps, each a list of
    (s, f, X) for s(t) f(t, x) X(p), under an optional common field."""
    for sa, fa, xa in left:
        for sb, fb, xb in right:
            field = None
            for f in (weight, fa, fb):
                if f is not None:
                    field = f if field is None else field * f
            yield sa * sb, field, xa, xb


def _reference_form(span, terms, col=None):
    """(M, M_abs) of terms (s, f, X, Y) with full (rows x nodes) fields f:
    one time reduction per term, then the x-quadrature of two profiles."""
    window = span.window
    xs, wx = (slice(None), window.trapz_x) if col is None else ([col], 1.0)
    M = M_abs = 0.0
    for s, f, X, Y in terms:
        f = np.ones((s.size, 1)) if f is None else f
        k = (window.trapz_t * s) @ f * wx
        k_abs = (window.trapz_t * np.abs(s)) @ np.abs(f) * wx
        M = M + (span.jets[X][:, xs] * k) @ span.jets[Y][:, xs].T
        M_abs = M_abs + (
            (span.bounds[X][:, xs] * k_abs) @ span.sizes[Y][:, xs].T
            + (span.sizes[X][:, xs] * k_abs) @ span.bounds[Y][:, xs].T)
    return M, M_abs


def reference_forms(span, lw):
    """_Span.forms as written before the time x factor split: every factor
    a full (rows x nodes) field from _Lambda.split, _Lambda.norm and e2."""
    tau, dtau, t2 = span.tau, span.dtau, span.tau ** 2
    e2, norm = lw.e2, lw.norm
    f_wxx, f_w, _, f_wx, g_wx, g_wxxx, g_w = lw.split
    lv = [(dtau, None, 0), (tau, None, "S")]
    p1 = [(tau, f_wxx, 2), (tau, f_w, 0), (tau, None, "P1"), (tau, f_wx, 1)]
    p2 = [(dtau, None, 0), (tau, g_wx, 1), (tau, g_wxxx, 3), (tau, g_w, 0)]
    e2n1 = e2 / norm[3]
    direct = _reference_form(span, _reference_pairs(p1, p2))
    curvature = [(dtau ** 2, e2n1, 0, 0), (t2, e2n1, "S", "S")]
    out = {
        "lhs": _reference_form(span, curvature + [
            (t2, e2 * n, k, k) for k, n in enumerate(norm)]),
        "rhs_interior": _reference_form(span, _reference_pairs(lv, lv, e2)),
        "direct": tuple((m + m.T) / 2 for m in direct),
        "norm": _reference_form(span, [(t2, n, k, k)
                                       for k, n in enumerate(norm)]),
    }
    squares = kslab.carleman._SQUARES
    for side, col, (e, a, b) in zip("01", (0, -1), lw.boundary):
        out["rhs_boundary" + side] = _reference_form(
            span, [(t2, (e * a)[:, None], 2, 2), (t2, (e * b)[:, None], 3, 3)],
            col)
        out["ix" + side] = _reference_form(
            span, [(t2, lw.column(name, col)[:, None], squares[name],
                    squares[name]) for name in kslab.carleman._BOUNDARY], col)
    return out


def _span_case(nx, nt, slope, eta):
    """The window of a sloped sigma on nx x nt."""
    g = GridSpec(nx, nt, 2.0)
    sigma = ScalarField1D(1 + slope * g.x, g)
    coeff = make_coeff(g, sigma=sigma.values)
    return kslab.carleman._Window(make_default_weight(sigma, 1.0), coeff, eta)


@settings(max_examples=30, deadline=None)
@given(nx=st.integers(16, 48), nt=st.integers(16, 64),
       slope=st.floats(-0.03, 0.03),
       lambdas=st.lists(st.floats(0.5, 32.0), min_size=1, max_size=3,
                        unique=True),
       eta=st.sampled_from([None, 0.3]), n_modes=st.integers(1, 4))
def test_span_forms_match_full_field_reference(nx, nt, slope, lambdas, eta,
                                               n_modes):
    # the factored forms against the full-field ones entry by entry: the
    # values within 16 eps of the majorant, the majorants within the band
    window = _span_case(nx, nt, slope, eta)
    span = kslab.carleman._Span(window, n_modes)
    for lam in lambdas:
        lw = kslab.carleman._Lambda(window, lam)
        forms, reference = span.forms(lw), reference_forms(span, lw)
        assert forms.keys() == reference.keys()
        for name, (M_ref, M_abs_ref) in reference.items():
            M, M_abs = forms[name]
            assert np.all(np.abs(M - M_ref) <= 16 * EPS * M_abs_ref), name
            assert np.all(np.abs(M_abs - M_abs_ref)
                          <= span.band * M_abs_ref), name


def test_span_forms_read_no_full_window_factor(monkeypatch):
    # the forms take the P1/P2 and weighted-norm factors from their time
    # and x parts, never from the (rows x nodes) fields of _Lambda
    def forbidden(self):
        raise AssertionError("forms read a full-window factor of _Lambda")

    monkeypatch.setattr(kslab.carleman._Lambda, "split", property(forbidden))
    monkeypatch.setattr(kslab.carleman._Lambda, "norm", property(forbidden))
    window = _span_case(24, 32, 0.02, None)
    span = kslab.carleman._Span(window, 3)
    for lam in (2.0, 8.0):
        forms = span.forms(kslab.carleman._Lambda(window, lam))
        assert len(forms) == 8


def test_span_builds_lambda_free_parts_once(monkeypatch):
    # <P1, P2> and the norm are reduced to their lam powers and the jets
    # taken when the span is built; forms for any number of lambdas add
    # neither
    calls = {"polynomial": 0, "diff_x": 0}
    polynomial = kslab.carleman._Span._polynomial
    diff_x = kslab.carleman.diff_x_values

    def counted_polynomial(self, terms):
        calls["polynomial"] += 1
        return polynomial(self, terms)

    def counted_diff_x(*args):
        calls["diff_x"] += 1
        return diff_x(*args)

    window = _span_case(24, 32, 0.02, None)
    monkeypatch.setattr(kslab.carleman._Span, "_polynomial",
                        counted_polynomial)
    monkeypatch.setattr(kslab.carleman, "diff_x_values", counted_diff_x)
    span = kslab.carleman._Span(window, 3)
    built = dict(calls)
    assert built["polynomial"] == 2
    times = span._e2_times
    for lam in (1.0, 2.0, 4.0, 8.0, 16.0):
        span.forms(kslab.carleman._Lambda(window, lam))
    assert calls == built and span._e2_times is times


@pytest.mark.parametrize("seed, n_members, n_modes",
                         [(1234, 50, 4), (7, 1, 4), (0, 3, 1), (99, 4, 6),
                          (5, 2, 0)])
def test_coefficient_blocks_draw_the_scalar_stream(seed, n_members, n_modes):
    # one uniform call per block draws what one call per coefficient drew,
    # so members keep their coefficients
    rng = np.random.default_rng(seed)
    scalar = np.array([[rng.uniform(-1, 1) for _ in range(2 * n_modes)]
                       for _ in range(n_members)]).reshape(n_members, -1)
    block = np.random.default_rng(seed).uniform(-1, 1,
                                                (n_members, 2 * n_modes))
    assert np.array_equal(block, scalar)
    rng = np.random.default_rng(seed)
    for row in scalar:
        assert np.array_equal(kslab.carleman._bump_coefficients(rng, n_modes),
                              row)
