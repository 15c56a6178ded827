"""The checked-in ledger fields are the sympy derivation's output, and their
factors reproduce the full fields the derivation's expressions give."""

import os
import subprocess
import sys

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import ledger_derivation
from conftest import make_coeff
from kslab.carleman import (_Lambda, _Window, inner_product_ledger,
                            make_default_weight, random_clamped_bump)
from kslab.grid import GridSpec
from kslab.ledger_fields import FIELDS


def test_ledger_fields_module_is_the_derivations_text():
    with open(ledger_derivation.MODULE_PATH) as fh:
        checked_in = fh.read()
    assert checked_in == ledger_derivation.module_text(), (
        f"{os.path.normpath(ledger_derivation.MODULE_PATH)} differs from the "
        f"derivation in tests/ledger_derivation.py; regenerate it with "
        f"`{ledger_derivation.REGENERATE}` from the repository root")


def test_check_passes_on_the_module_and_names_a_stale_line(
        tmp_path, monkeypatch, capsys):
    assert subprocess.run([sys.executable, ledger_derivation.__file__,
                           "--check"]).returncode == 0
    lines = ledger_derivation.module_text().splitlines(True)
    stale = tmp_path / "ledger_fields.py"
    stale.write_text("".join(lines[:19] + ["    return 0\n"] + lines[20:]))
    monkeypatch.setattr(ledger_derivation, "MODULE_PATH", str(stale))
    assert ledger_derivation.main(["--check"]) == 1
    assert f"{stale}:20: '    return 0\\n' differs from the derivation's" \
        in capsys.readouterr().err
    stale.write_text("".join(lines[:-1]))
    assert ledger_derivation.stale_line(str(stale)).startswith(
        f"{stale}:{len(lines)}: 'end of file' differs")


def test_a_field_of_two_powers_of_u_is_rejected():
    P1, P2, PXT, S0 = sp.symbols("P1 P2 PXT S0")
    assert ledger_derivation.factor_field(3 * P1 * PXT * S0)[1:] == (1, 1)
    with pytest.raises(ValueError, match="not one monomial"):
        ledger_derivation.factor_field(P1 ** 2 * S0 + P2 * S0)


@pytest.fixture(scope="module")
def full_fields():
    """{name: (field, kind)}: each ledger expression lambdified in (lam,
    P1..P4, PT, PXT, S0..S3), to be evaluated on whole window arrays."""
    exprs, order = ledger_derivation.ledger_exprs()
    return {name: (sp.lambdify(order, expr, "numpy"), kind)
            for name, (expr, kind) in exprs.items()}


def _full(field, lw: _Lambda) -> np.ndarray:
    """field on the window rows x nodes, from the phi arrays as a whole."""
    window, weight = lw.window, lw.window.weight
    _, px, pxx, pxxx, pxxxx, pt = window.phi
    inv = 1.0 / weight.phi0[window.rows]
    pxt = np.outer(-weight.phi0_prime[window.rows] * inv ** 2,
                   weight.beta_derivs[1])
    return np.broadcast_to(
        field(lw.lam, px, pxx, pxxx, pxxxx, pt, pxt, *window.sig), px.shape)


def _setup(nx, nt, slope, lam):
    """A _Lambda on a sigma of the given slope.  The weight is the default
    one of sigma = 1: the factorization holds for any sigma, whether or not
    it meets the weight's hypotheses."""
    g = GridSpec(nx, nt, 2.0)
    weight = make_default_weight(make_coeff(g).sigma, 1.0)
    coeff = make_coeff(g, sigma=1 + slope * g.x)
    return g, weight, coeff, _Lambda(_Window(weight, coeff, None), lam)


@pytest.mark.parametrize("nx, nt", [(64, 128), (256, 64)])
@pytest.mark.parametrize("lam", [2.0, 64.0])
def test_factors_are_the_full_fields(full_fields, nx, nt, lam):
    lw = _setup(nx, nt, 0.2, lam)[-1]
    assert list(full_fields) == list(FIELDS)
    for name, (field, _) in full_fields.items():
        tf, xf = lw.factors(name)
        full = _full(field, lw)
        assert np.abs(np.outer(tf, xf) - full).max() \
            <= 1e-13 * np.abs(full).max(), name


def _full_array_ledger(full_fields, lw, jets, squares):
    """The field parts of a ledger as whole-window quadratures: {name: item}
    and the boundary sums at x = 0 and 1."""
    window = lw.window
    wsq = dict(zip(("w2", "wx2", "wxx2", "wxxx2"), squares),
               w_wxx=jets[0] * jets[2])
    items, ends = {}, [0.0, 0.0]
    for name, (field, kind) in full_fields.items():
        values = _full(field, lw) * wsq[kind]
        if name.startswith("bnd_"):
            for side, col in enumerate((0, -1)):
                ends[side] += window.quad_t(values[:, col])
        else:
            items[name] = window.quad(values)
    return items, ends


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(16, 64), nt=st.integers(16, 64),
       slope=st.floats(0.0, 0.3), lam=st.floats(1.0, 64.0),
       n_modes=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_factored_ledger_is_the_full_array_ledger_to_roundoff(
        full_fields, nx, nt, slope, lam, n_modes, seed):
    g, weight, coeff, lw = _setup(nx, nt, slope, lam)
    w = random_clamped_bump(g, np.random.default_rng(seed), None, n_modes)
    led = inner_product_ledger(w, weight, coeff, None, lam)
    jets, _, squares = lw.window.jets(w)
    items, (ix0, ix1) = _full_array_ledger(full_fields, lw, jets, squares)

    scale = max(abs(v) for v in items.values())
    for name, value in items.items():
        assert abs(led.items[name] - value) <= 1e-12 * scale, name
    itemized = sum(items.values()) + (ix1 - ix0)
    mismatch = abs(led.direct - itemized) / max(abs(led.direct),
                                                abs(itemized), 1e-300)
    assert abs(led.mismatch_rel - mismatch) <= 1e-12
    delta_hat = (led.direct - (ix1 - ix0)) / led.weighted_norm_sq
    assert abs(led.delta_hat - delta_hat) \
        <= 1e-12 * (abs(ix0) + abs(ix1)) / led.weighted_norm_sq
