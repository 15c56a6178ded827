"""Sympy derivations of the generated numpy code in ``src/kslab``: the
inner-product ledger's coefficient fields and the reference expansion of the
conjugated operator.

    python tests/ledger_derivation.py           # regenerate
    python tests/ledger_derivation.py --check   # exit 1 if it is stale

regenerates ``src/kslab/ledger_fields.py`` from the expressions below, or
checks it: the checked-in module is this script's output, byte for byte,
and ``--check`` names the first line that differs.
``tests/test_ledger_fields.py`` runs the same comparison.  The runtime
imports the module, so no kslab command needs sympy.

Each field is one integration-by-parts result for a pairwise product of P1
and P2 terms: the four leading blocks I(w_kx), the remainder block R0, and
the boundary integrands.  The r0_i34b and r0_i44 coefficients keep sigma
inside the outer derivative; variants that pull it out do not balance the
direct product (checked by quadrature), and the difference stays in the
remainder class.  Each field's kind names the w-derivative square (or
product) it multiplies.

The weight is phi = beta(x) u(t) with u = 1/phi0, so d^k phi/dx^k =
B_k u, phi_t = B0 v and phi_xt = B1 v with B_k = d^k beta/dx^k and v =
-phi0'/phi0^2.  Every field is then one monomial u^a v^b times a function of
x alone; factor_field finds it, and the generated module evaluates the x
factor on the nodes and leaves u^a v^b to the caller, which never forms the
(rows x nodes) field.

The conjugated operator's reference is the chain-rule expansion of
exp(-lam*phi) L (exp(lam*phi) w) from the definition, so the reference side
of the identity check is independent of the hand-transcribed split.
"""

import functools
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
the integer powers are the derivation's.  The weight phi = beta(x)/phi0(t)
makes every ledger field u^a v^b times a function of x alone, where u =
1/phi0 and v = -phi0'/phi0^2.  FIELDS maps each field's name to
(x_factor, kind, a, b).  x_factor(lam, B0..B4, S0..S3) is the x factor on
the nodes, from the beta derivatives B_k and the sigma jet S_k; kind names
the w-derivative square (or product) the field multiplies.
conjugated_reference is exp(-lam*phi) L (exp(lam*phi) w) expanded by the
chain rule.
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


def factor_field(expr):
    """(x factor, a, b) of a field expr in the symbols of ledger_exprs, with
    expr = x factor * u^a * v^b after P_k = B_k u, PT = B0 v, PXT = B1 v;
    ValueError when expr is not one such monomial."""
    u, v = sp.symbols("u v")
    B = sp.symbols("B0:5")
    subs = {sp.Symbol(f"P{k}"): B[k] * u for k in range(1, 5)}
    subs[sp.Symbol("PT")], subs[sp.Symbol("PXT")] = B[0] * v, B[1] * v
    terms = sp.Poly(sp.expand(expr.subs(subs)), u, v).terms()
    if len(terms) != 1:
        raise ValueError(f"{expr} is not one monomial in u and v: it has the "
                         f"powers {[m for m, _ in terms]}")
    (a, b), x_factor = terms[0]
    return x_factor, a, b


def factored_exprs():
    """{name: (x factor, kind, a, b)} of the ledger fields and the x
    factor's symbols in argument order (lam, B0..B4, S0..S3)."""
    fields = {}
    for name, (expr, kind) in ledger_exprs()[0].items():
        x_factor, a, b = factor_field(expr)
        fields[name] = (x_factor, kind, a, b)
    return fields, list(sp.symbols("lam B0:5 S0:4"))


def _function_text(name, args, expr) -> str:
    """The source sympy.lambdify emits for expr, as a function called name."""
    source = inspect.getsource(sp.lambdify(args, expr, "numpy"))
    return source.replace("def _lambdifygenerated(", f"def {name}(", 1)


@functools.cache
def module_text() -> str:
    """Text of ledger_fields.py: one lambdified x factor per field, the
    FIELDS table in derivation order, then conjugated_reference."""
    exprs, args = factored_exprs()
    parts = [HEADER]
    for name, (expr, *_) in exprs.items():
        parts.append("\n\n" + _function_text(name, args, expr))
    parts.append("\n\nFIELDS = {\n"
                 + "".join(f'    "{name}": ({name}, "{kind}", {a}, {b}),\n'
                           for name, (_, kind, a, b) in exprs.items())
                 + "}\n")
    expr, args = conjugated_expr()
    parts.append("\n\n" + _function_text("conjugated_reference", args, expr))
    return "".join(parts)


def stale_line(path: str) -> str | None:
    """None when the file at path is module_text(), else a message naming
    its first line that differs from the derivation's."""
    with open(path) as fh:
        checked_in = fh.read()
    derived = module_text()
    if checked_in == derived:
        return None
    old_lines, new_lines = (text.splitlines(True)
                            for text in (checked_in, derived))
    number = next((n for n, (old, new)
                   in enumerate(zip(old_lines, new_lines), 1) if old != new),
                  min(len(old_lines), len(new_lines)) + 1)
    old, new = (lines[number - 1] if number <= len(lines) else "end of file"
                for lines in (old_lines, new_lines))
    return (f"{os.path.normpath(path)}:{number}: {old!r} differs from the "
            f"derivation's {new!r}")


def main(argv) -> int:
    if argv == ["--check"]:
        message = stale_line(MODULE_PATH)
        if message is not None:
            print(f"{message}; regenerate it with `{REGENERATE}`",
                  file=sys.stderr)
            return 1
        return 0
    if argv:
        print(f"usage: {REGENERATE} [--check]", file=sys.stderr)
        return 2
    with open(MODULE_PATH, "w") as fh:
        fh.write(module_text())
    print(f"wrote {os.path.normpath(MODULE_PATH)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
