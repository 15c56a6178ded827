import numpy as np
import pytest

from conftest import layered_bump, make_coeff
from kslab.carleman import (CarlemanConfig, carleman_audit,
                            conjugate_decompose, conjugated_operator,
                            conjugation_identity_residual, ensemble_audit,
                            inner_product_ledger, make_default_weight,
                            random_clamped_bump, weighted_norm)
from kslab.errors import HypothesisViolation, LayerViolation
from kslab.grid import (GridSpec, ScalarField1D, Trajectory, diff_t_values,
                        diff_x_values)

R_ANALYTIC = 1.0 / (4.0 * 2.0 ** 1.5)  # min over [0,1] of -beta'' for sqrt(1+x)


@pytest.fixture(scope="module")
def setup128():
    g = GridSpec(128, 256, 2.0)
    coeff = make_coeff(g)
    weight = make_default_weight(g, coeff.sigma, 1.0)
    return g, coeff, weight, layered_bump(g)


def test_default_weight_r_value(setup128):
    _, _, weight, _ = setup128
    assert weight.r == pytest.approx(R_ANALYTIC, abs=1e-6)
    assert weight.epsilon_margin > 0


def test_phi0_endpoints_and_peak():
    g = GridSpec(16, 32, 2.0)
    coeff = make_coeff(g)
    for T0 in (1.0, 0.75):
        w = make_default_weight(g, coeff.sigma, T0)
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
        make_default_weight(g, sigma, 1.0)
    assert "hip4B" in err.value.failed


def test_weight_rejects_bad_T0():
    g = GridSpec(16, 16, 1.0)
    coeff = make_coeff(g)
    with pytest.raises(ValueError):
        make_default_weight(g, coeff.sigma, 1.5)


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
    weight = make_default_weight(g, coeff.sigma, 1.0)
    bad = Trajectory(np.ones((33, 33)), g)  # supported everywhere
    with pytest.raises(LayerViolation):
        conjugate_decompose(bad, weight, coeff)


def test_decompose_zero_function(setup128):
    g, coeff, weight, _ = setup128
    zero = Trajectory(np.zeros((g.nt + 1, g.nx + 1)), g)
    P1, P2, R = conjugate_decompose(zero, weight, coeff)
    assert np.all(P1.values == 0) and np.all(P2.values == 0) \
        and np.all(R.values == 0)


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
    weight = make_default_weight(g, sigma, 1.0)
    w = layered_bump(g)
    q = (Trajectory(np.full((g.nt + 1, g.nx + 1), 0.5), g),
         Trajectory(np.full((g.nt + 1, g.nx + 1), -0.25), g),
         Trajectory(np.full((g.nt + 1, g.nx + 1), 0.8), g))
    for lam in (2.0, 8.0):
        assert conjugation_identity_residual(w, weight, coeff, q, lam) <= 1e-6


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
    weight = make_default_weight(g, coeff.sigma, 1.0)
    w = layered_bump(g)
    for lam in (2.0, 5.0, 8.0):
        led = inner_product_ledger(w, weight, coeff, None, lam)
        assert led.mismatch_rel <= 1e-4
        for name in ("I_w", "I_wx", "I_w2x", "I_w3x"):
            assert led.items[name] > 0
        assert led.delta_hat > 0


def test_ledger_lower_bound_scan(setup128):
    g, coeff, weight, w = setup128
    deltas = [inner_product_ledger(w, weight, coeff, None, lam).delta_hat
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
    weight2 = make_default_weight(g2, coeff2.sigma, 1.0)
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


def test_ensemble_audit_lambda0_and_worst_ledger():
    g = GridSpec(64, 128, 2.0)
    coeff = make_coeff(g)
    weight = make_default_weight(g, coeff.sigma, 1.0)
    cfg = CarlemanConfig(lambda_grid=(2.0, 8.0))
    ens = ensemble_audit(weight, coeff, cfg, n_members=6, seed=7)
    assert ens.lambda0 == 2.0
    assert ens.delta_at_lambda0 > 0
    assert ens.worst_ledger.mismatch_rel < 0.05
    assert len(ens.rows) == 2


def test_ensemble_audit_matches_per_member_calls():
    # the batched ensemble must reproduce the public per-member audit and
    # ledger bit for bit, here with a non-constant sigma
    g = GridSpec(32, 64, 2.0)
    sigma = ScalarField1D(1 + 0.02 * g.x, g)
    coeff = make_coeff(g, sigma=sigma.values)
    weight = make_default_weight(g, sigma, 1.0)
    cfg = CarlemanConfig(lambda_grid=(2.0, 5.0, 8.0))
    ens = ensemble_audit(weight, coeff, cfg, n_members=5, seed=11)

    rng = np.random.default_rng(11)
    members = [random_clamped_bump(g, rng, cfg.eta) for _ in range(5)]
    audits = [carleman_audit(v, weight, coeff, None, cfg) for v in members]
    ledgers = [[inner_product_ledger(v, weight, coeff, None, lam, cfg.eta)
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


def test_random_clamped_bump_is_admissible():
    g = GridSpec(64, 64, 2.0)
    rng = np.random.default_rng(3)
    v = random_clamped_bump(g, rng)
    assert np.all(v.values[:, 0] == 0) and np.all(v.values[:, -1] == 0)
    assert np.all(v.values[0] == 0) and np.all(v.values[-1] == 0)
    weight = make_default_weight(g, make_coeff(g).sigma, 1.0)
    conjugate_decompose(v, weight, make_coeff(g))  # no LayerViolation


def test_conjugated_operator_matches_plain_L_at_lambda_zero(setup128):
    g, coeff, weight, w = setup128
    direct = conjugated_operator(w, weight, coeff, None, 0.0)
    rows = weight.window()
    sig = coeff.sigma.values
    expanded = (diff_x_values(sig, g, 2) * diff_x_values(w.values, g, 2)
                + 2 * diff_x_values(sig, g, 1) * diff_x_values(w.values, g, 3)
                + sig * diff_x_values(w.values, g, 4))
    Lw = diff_t_values(w.values, g, 1) + expanded
    assert np.abs(direct.values[rows] - Lw[rows]).max() < 1e-9
    # nested and expanded principal terms agree on interior columns (the
    # composite centered stencils convolve exactly)
    nested = diff_x_values(sig * diff_x_values(w.values, g, 2), g, 2)
    gap = np.abs(nested - expanded)[rows][:, 2:-2].max()
    assert gap < 1e-6  # roundoff at the dx^-4 scale
