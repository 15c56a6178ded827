"""Sympy derivations of the generated numpy code in ``src/kslab``: the
inner-product ledger's coefficient fields and the reference expansion of the
conjugated operator.

    python tests/ledger_derivation.py

regenerates ``src/kslab/ledger_fields.py`` from the expressions below.  The
checked-in module is this script's output, byte for byte:
``tests/test_ledger_fields.py`` regenerates the text and compares.  The
runtime imports the module, so no kslab command needs sympy.

Each field is one integration-by-parts result for a pairwise product of P1
and P2 terms: the four leading blocks I(w_kx), the remainder block R0, and
the boundary integrands.  The r0_i34b and r0_i44 coefficients keep sigma
inside the outer derivative; variants that pull it out do not balance the
direct product (checked by quadrature), and the difference stays in the
remainder class.  Each field's kind names the w-derivative square (or
product) it multiplies.

The conjugated operator's reference is the chain-rule expansion of
exp(-lam*phi) L (exp(lam*phi) w) from the definition, so the reference side
of the identity check is independent of the hand-transcribed split.
"""

import inspect
import os
import sys

import sympy as sp

MODULE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src", "kslab", "ledger_fields.py")
REGENERATE = "python tests/ledger_derivation.py"

HEADER = f'''"""Coefficient fields of the inner-product ledger and the reference
expansion of the conjugated operator, as plain numpy.

Generated by ``{REGENERATE}`` from the sympy
derivations in that file; do not edit by hand.  Each function is the text
sympy.lambdify emits for one expression, so its operands, their order and
the integer powers are the derivation's.  FIELDS maps each ledger field's
name to (function, kind), where kind names the w-derivative square (or
product) the field multiplies.  conjugated_reference is
exp(-lam*phi) L (exp(lam*phi) w) expanded by the chain rule.
"""
'''


def ledger_exprs():
    """{name: (expanded expression in plain symbols, kind)} and the symbols
    in argument order (lam, P1..P4, PT, PXT, S0..S3)."""
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
    return ({name: (sp.expand(sp.expand(expr).subs(subs)), kind)
             for name, (expr, kind) in exprs.items()}, order)


def conjugated_expr():
    """exp(-lam*phi) L (exp(lam*phi) w), expanded, in plain symbols, and the
    symbols in argument order (lam, WT, PT, W0..W4, P1..P4, S0..S2,
    Q0..Q2)."""
    t, x, lam = sp.symbols("t x lam")
    w = sp.Function("w")(t, x)
    phi = sp.Function("phi")(t, x)
    sig = sp.Function("sig")(x)
    q0, q1, q2 = [sp.Function(f"q{i}")(t, x) for i in range(3)]

    v = sp.exp(lam * phi) * w
    Lv = (sp.diff(v, t) + sp.diff(sig * sp.diff(v, x, 2), x, 2)
          + q2 * sp.diff(v, x, 2) + q1 * sp.diff(v, x) + q0 * v)
    Pw = sp.expand(sp.exp(-lam * phi) * sp.expand(Lv))

    W, P, S, Q = (sp.symbols(names)
                  for names in ("W0:5", "P1:5", "S0:3", "Q0:3"))
    WT, PT = sp.symbols("WT PT")
    subs = {w: W[0], sig: S[0], sp.Derivative(w, t): WT,
            sp.Derivative(phi, t): PT, **dict(zip((q0, q1, q2), Q))}
    for k in range(1, 5):
        subs[sp.Derivative(w, (x, k))] = W[k]
        subs[sp.Derivative(phi, (x, k))] = P[k - 1]
    for k in range(1, 3):
        subs[sp.Derivative(sig, (x, k))] = S[k]
    return Pw.subs(subs), [lam, WT, PT, *W, *P, *S, *Q]


def _function_text(name, args, expr) -> str:
    """The source sympy.lambdify emits for expr, as a function called name."""
    source = inspect.getsource(sp.lambdify(args, expr, "numpy"))
    return source.replace("def _lambdifygenerated(", f"def {name}(", 1)


def module_text() -> str:
    """Text of ledger_fields.py: one lambdified function per field, the
    FIELDS table in derivation order, then conjugated_reference."""
    exprs, order = ledger_exprs()
    parts = [HEADER]
    for name, (expr, _) in exprs.items():
        parts.append("\n\n" + _function_text(name, order, expr))
    parts.append("\n\nFIELDS = {\n"
                 + "".join(f'    "{name}": ({name}, "{kind}"),\n'
                           for name, (_, kind) in exprs.items())
                 + "}\n")
    expr, args = conjugated_expr()
    parts.append("\n\n" + _function_text("conjugated_reference", args, expr))
    return "".join(parts)


if __name__ == "__main__":
    with open(MODULE_PATH, "w") as fh:
        fh.write(module_text())
    print(f"wrote {os.path.normpath(MODULE_PATH)}", file=sys.stderr)
