"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import os
import time

import numpy as np
import pytest

from conftest import layered_bump, make_coeff, nonlinear_bd
from kslab.carleman import (CarlemanConfig, carleman_audit,
                            conjugation_identity_residual, ensemble_audit,
                            inner_product_ledger, make_default_weight,
                            random_clamped_bump)
from kslab.cli import main
from kslab.errors import (HypothesisViolation, InfConditionViolated,
                          NoConvergence)
from kslab.grid import (GridSpec, ScalarField1D, Trajectory, diff_matrix,
                        discrete_norm, field_from_callable,
                        trajectory_from_callable)
from kslab.inverse import (InverseConfig, recover_gamma, stability_report,
                           synthesize_measurements)
from kslab.linear_solver import (BoundaryData, CoefficientField,
                                 solve_linear_full, solve_principal,
                                 zero_boundary_data)
from kslab.nonlinear_solver import NonlinearSolveConfig, solve_ks

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def report(num, desc, passed):
    print(f"\n[criterion {num}] {'PASS' if passed else 'FAIL'} - {desc}")
    assert passed, f"criterion {num} failed: {desc}"


def test_criterion_1_manufactured_convergence(principal_case, nonlinear_case):
    pairs = ((64, 128), (128, 256))
    lin_errs, nl_errs = [], []
    elapsed = []
    for nx, nt in pairs:
        start = time.perf_counter()
        g = GridSpec(nx, nt, 2.0)
        coeff = make_coeff(g)
        f = trajectory_from_callable(principal_case["source"], g)
        z0 = field_from_callable(principal_case["z0"], g)
        z = solve_principal(coeff, f, z0)
        exact = trajectory_from_callable(principal_case["exact"], g)
        lin_errs.append(np.abs(z.values - exact.values).max())

        coeff_nl = make_coeff(g, gamma=np.ones(nx + 1))
        bd = nonlinear_bd(nonlinear_case, g, 1e-2)
        y, _ = solve_ks(coeff_nl, bd, NonlinearSolveConfig())
        exact_nl = trajectory_from_callable(
            lambda t, x: nonlinear_case["exact"](t, x, 1e-2), g)
        nl_errs.append(np.abs(y.values - exact_nl.values).max())
        elapsed.append(time.perf_counter() - start)

    order_lin = np.log2(lin_errs[0] / lin_errs[1])
    order_nl = np.log2(nl_errs[0] / nl_errs[1])
    ok = order_lin >= 1.7 and order_nl >= 1.7 and max(elapsed) <= 60.0
    errors = ", ".join(
        f"{nx}x{nt} {lin:.3e}/{nl:.3e}"
        for (nx, nt), lin, nl in zip(pairs, lin_errs, nl_errs))
    report(1, f"manufactured convergence: linear order {order_lin:.2f}, "
              f"nonlinear order {order_nl:.2f}, slowest pair "
              f"{max(elapsed):.1f}s; max error linear/nonlinear {errors}", ok)


def test_criterion_2_fixed_point_behavior(nonlinear_case):
    g = GridSpec(64, 128, 2.0)
    coeff = make_coeff(g, gamma=np.ones(65))
    _, rep = solve_ks(coeff, nonlinear_bd(nonlinear_case, g, 1e-2),
                      NonlinearSolveConfig())
    small_ok = rep.converged and all(r < 1 for r in rep.ratios)

    g = GridSpec(32, 32, 2.0)
    coeff = make_coeff(g, gamma=np.ones(33))
    cfg = NonlinearSolveConfig(max_picard=30)
    finals = []
    for delta in (1e-2, 1e-1, 1.0):
        _, rep_d = solve_ks(coeff, nonlinear_bd(nonlinear_case, g, delta),
                            cfg)
        finals.append(rep_d.ratios[-1])
    grow_ok = finals[0] < finals[1] < finals[2]

    threshold, delta = None, 1.0
    while delta <= 1e8 and threshold is None:
        delta *= 10
        try:
            solve_ks(coeff, nonlinear_bd(nonlinear_case, g, delta), cfg)
        except NoConvergence:
            threshold = delta
    ok = small_ok and grow_ok and threshold is not None
    report(2, f"fixed point: ratios<1 at delta=1e-2, ratios grow "
              f"{[f'{r:.1e}' for r in finals]}, NoConvergence threshold "
              f"delta={threshold:g}", ok)


def test_criterion_3_boundary_traces_land_on_h():
    g = GridSpec(64, 128, 2.0)
    coeff = make_coeff(g, sigma=1 + g.x / 2, gamma=np.ones(65))
    tt = g.t
    bd = BoundaryData(np.cos(tt), 3 * np.cos(tt), np.cos(tt), 3 * np.cos(tt),
                      field_from_callable(lambda x: 1 + x + x ** 2, g),
                      Trajectory(np.zeros((g.nt + 1, g.nx + 1)), g))
    z = solve_linear_full(coeff, bd)
    D1 = diff_matrix(g, 1, "x")
    d0 = D1[0].toarray().ravel()
    d1 = D1[g.nx].toarray().ravel()
    gaps = (np.abs(z.values[:, 0] - bd.h1).max(),
            np.abs(z.values[:, -1] - bd.h2).max(),
            np.abs(z.values @ d0 - bd.h3).max(),
            np.abs(z.values @ d1 - bd.h4).max())
    ok = max(gaps) <= 1e-8
    report(3, f"boundary traces on h1..h4: worst gap {max(gaps):.2e} "
              f"(nonzero data, every step)", ok)


def test_criterion_4_conjugation_identity():
    residuals = {}
    for nx, nt in ((128, 256), (256, 512)):
        g = GridSpec(nx, nt, 2.0)
        coeff = make_coeff(g)
        weight = make_default_weight(coeff.sigma, 1.0)
        w = layered_bump(g)
        residuals[(nx, nt)] = [
            conjugation_identity_residual(w, weight, None, lam)
            for lam in (2.0, 8.0)]
    coarse, fine = residuals[(128, 256)], residuals[(256, 512)]
    # the matched-expansion residual sits at the roundoff floor, so the
    # refinement comparison carries an explicit roundoff allowance
    ok = (max(coarse) <= 1e-6 and max(fine) <= 1e-6
          and all(f <= c + 1e-12 for c, f in zip(coarse, fine)))
    report(4, "conjugation identity: residuals at (128,256) = "
              f"{[f'{r:.1e}' for r in coarse]}, at (256,512) = "
              f"{[f'{r:.1e}' for r in fine]} (lambda = 2, 8)", ok)


def test_criterion_5_inner_product_ledger():
    g = GridSpec(1024, 256, 2.0)
    coeff = make_coeff(g)
    weight = make_default_weight(coeff.sigma, 1.0)
    w = layered_bump(g)
    mismatches = [inner_product_ledger(w, weight, lam).mismatch_rel
                  for lam in (2.0, 5.0, 8.0)]
    balance_ok = max(mismatches) <= 1e-4

    cfg = CarlemanConfig(lambda_grid=(2.0, 4.0, 8.0, 16.0))
    scans = {}
    for nx, nt in ((128, 256), (256, 512)):
        gg = GridSpec(nx, nt, 2.0)
        ww = make_default_weight(make_coeff(gg).sigma, 1.0)
        scans[(nx, nt)] = ensemble_audit(ww, cfg, n_members=50, seed=1234)
    e1, e2 = scans[(128, 256)], scans[(256, 512)]
    lower_ok = (e1.lambda0 is not None
                and all(e1.delta_min[lam] > 0 for lam in cfg.lambda_grid
                        if lam >= e1.lambda0))
    stable_ok = (e2.lambda0 == e1.lambda0
                 and e2.delta_at_lambda0
                 == pytest.approx(e1.delta_at_lambda0, rel=0.3))
    ok = balance_ok and lower_ok and stable_ok
    report(5, f"ledger: worst mismatch {max(mismatches):.2e} (<=1e-4); "
              f"lambda0={e1.lambda0:g}, delta_hat={e1.delta_at_lambda0:.4f} "
              f"(refined: {e2.delta_at_lambda0:.4f})", ok)


def test_criterion_6_carleman_audit():
    cfg = CarlemanConfig(lambda_grid=(2.0, 4.0, 8.0, 16.0))
    chat16 = {}
    finite_ok = True
    for nx, nt in ((128, 256), (256, 512)):
        g = GridSpec(nx, nt, 2.0)
        coeff = make_coeff(g)
        weight = make_default_weight(coeff.sigma, 1.0)
        rng = np.random.default_rng(1234)
        worst = {lam: 0.0 for lam in cfg.lambda_grid}
        for _ in range(50):
            v = random_clamped_bump(g, rng)
            for row in carleman_audit(v, weight, None, cfg):
                finite_ok &= bool(np.isfinite(row.c_hat))
                worst[row.lam] = max(worst[row.lam], row.c_hat)
        chat16[(nx, nt)] = worst[16.0]
    stable_ok = chat16[(256, 512)] == pytest.approx(chat16[(128, 256)],
                                                    rel=0.3)
    g = GridSpec(64, 64, 2.0)
    try:
        make_default_weight(ScalarField1D(1 + 10 * g.x, g), 1.0)
        hyp_ok = False
    except HypothesisViolation as exc:
        hyp_ok = "hip4B" in exc.failed
    ok = finite_ok and stable_ok and hyp_ok
    report(6, f"carleman audit: ensemble c_hat(16) = "
              f"{chat16[(128, 256)]:.3f} vs refined {chat16[(256, 512)]:.3f}; "
              f"hip4B violation raised for sigma=1+10x", ok)


def test_criterion_7_stability_two_sidedness(closedloop_case):
    start = time.perf_counter()
    g = GridSpec(48, 64, 2.0)
    coeff = make_coeff(g, gamma=np.ones(49))
    bd = closedloop_case["build"](g, "1")
    cfg = InverseConfig()
    gts = [ScalarField1D(1.0 + s * np.sin(np.pi * g.x), g)
           for s in (1e-3, 2e-3, 4e-3)]
    reports = stability_report(coeff, gts, bd, 1.0, cfg)
    slope = np.polyfit(np.log([r.middle for r in reports]),
                       np.log([r.lhs for r in reports]), 1)[0]
    c_low = [r.c_lower for r in reports]
    c_up = [r.c_upper for r in reports]
    finite = all(np.isfinite(c_low + c_up))
    spread_ok = (max(c_low) <= 1.5 * min(c_low)
                 and max(c_up) <= 1.5 * min(c_up))
    took = time.perf_counter() - start
    ok = 0.8 <= slope <= 1.2 and finite and spread_ok and took <= 300.0
    report(7, f"stability two-sidedness: log-log slope {slope:.3f}, "
              f"c_lower in [{min(c_low):.3g},{max(c_low):.3g}], "
              f"c_upper in [{min(c_up):.3g},{max(c_up):.3g}], {took:.0f}s", ok)


def test_criterion_8_closed_loop_recovery(closedloop_case, tmp_path):
    g = GridSpec(48, 64, 2.0)
    coeff_tilde = make_coeff(g, gamma=np.ones(49))
    bd = closedloop_case["build"](g, "1 + 0.005*sin(pi*x)")
    gamma_true = ScalarField1D(1 + 5e-3 * np.sin(np.pi * g.x), g)
    coeff_true = CoefficientField(coeff_tilde.sigma, gamma_true)
    pert = discrete_norm(ScalarField1D(
        gamma_true.values - coeff_tilde.gamma.values, g), "L2x")
    cfg = InverseConfig()

    meas = synthesize_measurements(coeff_true, bd, 1.0)
    _, rep0 = recover_gamma(meas, coeff_tilde, bd, cfg,
                            gamma_true=gamma_true)
    noiseless_rel = rep0.l2_error / pert

    meas_n = synthesize_measurements(coeff_true, bd, 1.0,
                                     noise_level=1e-3, seed=42)
    _, rep1 = recover_gamma(meas_n, coeff_tilde, bd, cfg,
                            gamma_true=gamma_true)
    noisy_rel = rep1.l2_error / pert

    degenerate_ok = False
    try:
        bd0 = zero_boundary_data(g)
        meas_z = synthesize_measurements(coeff_true, bd0, 1.0)
        recover_gamma(meas_z, coeff_tilde, bd0, cfg)
    except InfConditionViolated:
        degenerate_ok = True
    exit4 = main(["invert", "--config",
                  os.path.join(CONFIG_DIR, "fail_infcond.cfg"),
                  "--out", str(tmp_path / "degenerate")]) == 4

    ok = noiseless_rel <= 0.05 and noisy_rel <= 0.20 and degenerate_ok and exit4
    report(8, f"closed-loop recovery: noiseless {noiseless_rel:.2%} (<=5%), "
              f"noise 1e-3 {noisy_rel:.2%} (<=20%), degenerate data raises "
              f"InfConditionViolated and exits 4", ok)


def test_criterion_9_determinism_and_interfaces(tmp_path):
    reruns = [("simulate", "simulate_manufactured.cfg",
               ("trajectory.csv", "traces.csv", "picard.csv")),
              ("invert", "invert_closed_loop.cfg",
               ("gamma_hat.csv", "recovery.csv")),
              ("stability-scan", "stability_scan.cfg", ("stability.csv",)),
              ("carleman-audit", "carleman_default.cfg",
               ("audit.csv", "ledger.csv"))]
    identical = True
    for cmd, cfg_name, files in reruns:
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / f"{cfg_name}_{tag}")
            code = main([cmd, "--config", os.path.join(CONFIG_DIR, cfg_name),
                         "--out", out])
            identical &= code == 0
            outs.append(out)
        for name in files:
            with open(os.path.join(outs[0], name), "rb") as f1, \
                    open(os.path.join(outs[1], name), "rb") as f2:
                identical &= f1.read() == f2.read()
        # report.json reproducible apart from wall-clock timings
        rep = [json.load(open(os.path.join(o, "report.json"))) for o in outs]
        for r in rep:
            r.pop("timings")
        identical &= rep[0] == rep[1]

    exit_codes = []
    for cmd, name in (("simulate", "fail_config.cfg"),
                      ("simulate", "fail_noconv.cfg"),
                      ("carleman-audit", "fail_hypothesis.cfg"),
                      ("invert", "fail_infcond.cfg")):
        out = str(tmp_path / f"fail_{name}")
        exit_codes.append(main([cmd, "--config",
                                os.path.join(CONFIG_DIR, name), "--out", out]))
    contract_ok = exit_codes == [1, 2, 3, 4]
    ok = identical and contract_ok
    report(9, f"determinism: byte-identical CSV reruns across four commands; "
              f"failure-mode exit codes {exit_codes}", ok)
