"""Coefficient fields of the inner-product ledger and the reference
expansion of the conjugated operator, as plain numpy.

Generated by ``python tests/ledger_derivation.py`` from the sympy
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


def I_w(lam, B0, B1, B2, B3, B4, S0, S1, S2, S3):
    return -6*B1**6*B2*S0**2*lam**7


def I_wx(lam, B0, B1, B2, B3, B4, S0, S1, S2, S3):
    return -12*B1**5*S0*S1*lam**5 - 30*B1**4*B2*S0**2*lam**5


def I_w2x(lam, B0, B1, B2, B3, B4, S0, S1, S2, S3):
    return -40*B1**3*S0*S1*lam**3 - 58*B1**2*B2*S0**2*lam**3


def I_w3x(lam, B0, B1, B2, B3, B4, S0, S1, S2, S3):
    return 4*B1*S0*S1*lam - 2*B2*S0**2*lam


def r0_i11(lam, B0, B1, B2, B3, B4, S0, S1, S2, S3):
    return 6*B1**2*S0*lam**2


def r0_i14(lam, B0, B1, B2, B3, B4, S0, S1, S2, S3):
    return 12*B1**5*S0*S3*lam**5 + 36*B1**5*S1*S2*lam**5 + 168*B1**4*B2*S0*S2*lam**5 + 168*B1**4*B2*S1**2*lam**5 + 156*B1**4*B3*S0*S1*lam**5 + 24*B1**4*B4*S0**2*lam**5 + 624*B1**3*B2**2*S0*S1*lam**5 + 288*B1**3*B2*B3*S0**2*lam**5 + 288*B1**2*B2**3*S0**2*lam**5


def r0_i21(lam, B0, B1, B2, B3, B4, S0, S1, S2, S3):
    return -2*B1**4*S0*lam**4


def r0_i23(lam, B0, B1, B2, B3, B4, S0, S1, S2, S3):
    return -4*B1**5*S0*S3*lam**5 - 12*B1**5*S1*S2*lam**5 - 60*B1**4*B2*S0*S2*lam**5 - 60*B1**4*B2*S1**2*lam**5 - 60*B1**4*B3*S0*S1*lam**5 - 10*B1**4*B4*S0**2*lam**5 - 240*B1**3*B2**2*S0*S1*lam**5 - 120*B1**3*B2*B3*S0**2*lam**5 - 120*B1**2*B2**3*S0**2*lam**5


def r0_i32(lam, B0, B1, B2, B3, B4, S0, S1, S2, S3):
    return -2*B1**3*S0*S3*lam**3 - 2*B1**3*S1*S2*lam**3 - 18*B1**2*B2*S0*S2*lam**3 - 12*B1**2*B2*S1**2*lam**3 - 24*B1**2*B3*S0*S1*lam**3 - 6*B1**2*B4*S0**2*lam**3 - 48*B1*B2**2*S0*S1*lam**3 - 36*B1*B2*B3*S0**2*lam**3 - 12*B2**3*S0**2*lam**3


def r0_i33(lam, B0, B1, B2, B3, B4, S0, S1, S2, S3):
    return -2*B1*S0*S3*lam - 2*B1*S1*S2*lam - 2*B2*S0*S2*lam


def r0_i34a(lam, B0, B1, B2, B3, B4, S0, S1, S2, S3):
    return 4*B1**3*S0*S3*lam**3 + 32*B1**2*B2*S0*S2*lam**3 + 28*B1**2*B3*S0*S1*lam**3 + 8*B1**2*B4*S0**2*lam**3 + 56*B1*B2**2*S0*S1*lam**3 + 48*B1*B2*B3*S0**2*lam**3 + 16*B2**3*S0**2*lam**3


def r0_i34b(lam, B0, B1, B2, B3, B4, S0, S1, S2, S3):
    return -4*B1**3*S0*S3*lam**3 - 4*B1**3*S1*S2*lam**3 - 32*B1**2*B2*S0*S2*lam**3 - 20*B1**2*B2*S1**2*lam**3 - 36*B1**2*B3*S0*S1*lam**3 - 8*B1**2*B4*S0**2*lam**3 - 72*B1*B2**2*S0*S1*lam**3 - 48*B1*B2*B3*S0**2*lam**3 - 16*B2**3*S0**2*lam**3


def r0_i43(lam, B0, B1, B2, B3, B4, S0, S1, S2, S3):
    return 12*B1**3*S0*S3*lam**3 + 36*B1**3*S1*S2*lam**3 + 120*B1**2*B2*S0*S2*lam**3 + 120*B1**2*B2*S1**2*lam**3 + 132*B1**2*B3*S0*S1*lam**3 + 24*B1**2*B4*S0**2*lam**3 + 264*B1*B2**2*S0*S1*lam**3 + 144*B1*B2*B3*S0**2*lam**3 + 48*B2**3*S0**2*lam**3


def r0_i44(lam, B0, B1, B2, B3, B4, S0, S1, S2, S3):
    return -24*B1**5*S1*S2*lam**5 - 48*B1**4*B2*S0*S2*lam**5 - 108*B1**4*B2*S1**2*lam**5 - 48*B1**4*B3*S0*S1*lam**5 - 288*B1**3*B2**2*S0*S1*lam**5 - 96*B1**3*B2*B3*S0**2*lam**5 - 144*B1**2*B2**3*S0**2*lam**5


def bnd_w2x_a(lam, B0, B1, B2, B3, B4, S0, S1, S2, S3):
    return 10*B1**3*S0**2*lam**3


def bnd_w2x_b(lam, B0, B1, B2, B3, B4, S0, S1, S2, S3):
    return 2*B1*S0*S2*lam


def bnd_w3x(lam, B0, B1, B2, B3, B4, S0, S1, S2, S3):
    return 2*B1*S0**2*lam


FIELDS = {
    "I_w": (I_w, "w2", 7, 0),
    "I_wx": (I_wx, "wx2", 5, 0),
    "I_w2x": (I_w2x, "wxx2", 3, 0),
    "I_w3x": (I_w3x, "wxxx2", 1, 0),
    "r0_i11": (r0_i11, "wx2", 1, 1),
    "r0_i14": (r0_i14, "w2", 5, 0),
    "r0_i21": (r0_i21, "w2", 3, 1),
    "r0_i23": (r0_i23, "w2", 5, 0),
    "r0_i32": (r0_i32, "wx2", 3, 0),
    "r0_i33": (r0_i33, "wxx2", 1, 0),
    "r0_i34a": (r0_i34a, "w_wxx", 3, 0),
    "r0_i34b": (r0_i34b, "wx2", 3, 0),
    "r0_i43": (r0_i43, "wx2", 3, 0),
    "r0_i44": (r0_i44, "w2", 5, 0),
    "bnd_w2x_a": (bnd_w2x_a, "wxx2", 3, 0),
    "bnd_w2x_b": (bnd_w2x_b, "wxx2", 1, 0),
    "bnd_w3x": (bnd_w3x, "wxxx2", 1, 0),
}


def conjugated_reference(lam, WT, PT, W0, W1, W2, W3, W4, P1, P2, P3, P4, S0, S1, S2, Q0, Q1, Q2):
    return P1**4*S0*W0*lam**4 + 4*P1**3*S0*W1*lam**3 + 2*P1**3*S1*W0*lam**3 + 6*P1**2*P2*S0*W0*lam**3 + P1**2*Q2*W0*lam**2 + 6*P1**2*S0*W2*lam**2 + 6*P1**2*S1*W1*lam**2 + P1**2*S2*W0*lam**2 + 12*P1*P2*S0*W1*lam**2 + 6*P1*P2*S1*W0*lam**2 + 4*P1*P3*S0*W0*lam**2 + P1*Q1*W0*lam + 2*P1*Q2*W1*lam + 4*P1*S0*W3*lam + 6*P1*S1*W2*lam + 2*P1*S2*W1*lam + 3*P2**2*S0*W0*lam**2 + P2*Q2*W0*lam + 6*P2*S0*W2*lam + 6*P2*S1*W1*lam + P2*S2*W0*lam + 4*P3*S0*W1*lam + 2*P3*S1*W0*lam + P4*S0*W0*lam + PT*W0*lam + Q0*W0 + Q1*W1 + Q2*W2 + S0*W4 + 2*S1*W3 + S2*W2 + WT
