"""Coefficient fields of the inner-product ledger and the reference
expansion of the conjugated operator, as plain numpy.

Generated by ``python tests/ledger_derivation.py`` from the sympy
derivations in that file; do not edit by hand.  Each function is the text
sympy.lambdify emits for one expression, so its operands, their order and
the integer powers are the derivation's.  FIELDS maps each ledger field's
name to (function, kind), where kind names the w-derivative square (or
product) the field multiplies.  conjugated_reference is
exp(-lam*phi) L (exp(lam*phi) w) expanded by the chain rule.
"""


def I_w(lam, P1, P2, P3, P4, PT, PXT, S0, S1, S2, S3):
    return -6*P1**6*P2*S0**2*lam**7


def I_wx(lam, P1, P2, P3, P4, PT, PXT, S0, S1, S2, S3):
    return -12*P1**5*S0*S1*lam**5 - 30*P1**4*P2*S0**2*lam**5


def I_w2x(lam, P1, P2, P3, P4, PT, PXT, S0, S1, S2, S3):
    return -40*P1**3*S0*S1*lam**3 - 58*P1**2*P2*S0**2*lam**3


def I_w3x(lam, P1, P2, P3, P4, PT, PXT, S0, S1, S2, S3):
    return 4*P1*S0*S1*lam - 2*P2*S0**2*lam


def r0_i11(lam, P1, P2, P3, P4, PT, PXT, S0, S1, S2, S3):
    return 6*P1*PXT*S0*lam**2


def r0_i14(lam, P1, P2, P3, P4, PT, PXT, S0, S1, S2, S3):
    return 12*P1**5*S0*S3*lam**5 + 36*P1**5*S1*S2*lam**5 + 168*P1**4*P2*S0*S2*lam**5 + 168*P1**4*P2*S1**2*lam**5 + 156*P1**4*P3*S0*S1*lam**5 + 24*P1**4*P4*S0**2*lam**5 + 624*P1**3*P2**2*S0*S1*lam**5 + 288*P1**3*P2*P3*S0**2*lam**5 + 288*P1**2*P2**3*S0**2*lam**5


def r0_i21(lam, P1, P2, P3, P4, PT, PXT, S0, S1, S2, S3):
    return -2*P1**3*PXT*S0*lam**4


def r0_i23(lam, P1, P2, P3, P4, PT, PXT, S0, S1, S2, S3):
    return -4*P1**5*S0*S3*lam**5 - 12*P1**5*S1*S2*lam**5 - 60*P1**4*P2*S0*S2*lam**5 - 60*P1**4*P2*S1**2*lam**5 - 60*P1**4*P3*S0*S1*lam**5 - 10*P1**4*P4*S0**2*lam**5 - 240*P1**3*P2**2*S0*S1*lam**5 - 120*P1**3*P2*P3*S0**2*lam**5 - 120*P1**2*P2**3*S0**2*lam**5


def r0_i32(lam, P1, P2, P3, P4, PT, PXT, S0, S1, S2, S3):
    return -2*P1**3*S0*S3*lam**3 - 2*P1**3*S1*S2*lam**3 - 18*P1**2*P2*S0*S2*lam**3 - 12*P1**2*P2*S1**2*lam**3 - 24*P1**2*P3*S0*S1*lam**3 - 6*P1**2*P4*S0**2*lam**3 - 48*P1*P2**2*S0*S1*lam**3 - 36*P1*P2*P3*S0**2*lam**3 - 12*P2**3*S0**2*lam**3


def r0_i33(lam, P1, P2, P3, P4, PT, PXT, S0, S1, S2, S3):
    return -2*P1*S0*S3*lam - 2*P1*S1*S2*lam - 2*P2*S0*S2*lam


def r0_i34a(lam, P1, P2, P3, P4, PT, PXT, S0, S1, S2, S3):
    return 4*P1**3*S0*S3*lam**3 + 32*P1**2*P2*S0*S2*lam**3 + 28*P1**2*P3*S0*S1*lam**3 + 8*P1**2*P4*S0**2*lam**3 + 56*P1*P2**2*S0*S1*lam**3 + 48*P1*P2*P3*S0**2*lam**3 + 16*P2**3*S0**2*lam**3


def r0_i34b(lam, P1, P2, P3, P4, PT, PXT, S0, S1, S2, S3):
    return -4*P1**3*S0*S3*lam**3 - 4*P1**3*S1*S2*lam**3 - 32*P1**2*P2*S0*S2*lam**3 - 20*P1**2*P2*S1**2*lam**3 - 36*P1**2*P3*S0*S1*lam**3 - 8*P1**2*P4*S0**2*lam**3 - 72*P1*P2**2*S0*S1*lam**3 - 48*P1*P2*P3*S0**2*lam**3 - 16*P2**3*S0**2*lam**3


def r0_i43(lam, P1, P2, P3, P4, PT, PXT, S0, S1, S2, S3):
    return 12*P1**3*S0*S3*lam**3 + 36*P1**3*S1*S2*lam**3 + 120*P1**2*P2*S0*S2*lam**3 + 120*P1**2*P2*S1**2*lam**3 + 132*P1**2*P3*S0*S1*lam**3 + 24*P1**2*P4*S0**2*lam**3 + 264*P1*P2**2*S0*S1*lam**3 + 144*P1*P2*P3*S0**2*lam**3 + 48*P2**3*S0**2*lam**3


def r0_i44(lam, P1, P2, P3, P4, PT, PXT, S0, S1, S2, S3):
    return -24*P1**5*S1*S2*lam**5 - 48*P1**4*P2*S0*S2*lam**5 - 108*P1**4*P2*S1**2*lam**5 - 48*P1**4*P3*S0*S1*lam**5 - 288*P1**3*P2**2*S0*S1*lam**5 - 96*P1**3*P2*P3*S0**2*lam**5 - 144*P1**2*P2**3*S0**2*lam**5


def bnd_w2x_a(lam, P1, P2, P3, P4, PT, PXT, S0, S1, S2, S3):
    return 10*P1**3*S0**2*lam**3


def bnd_w2x_b(lam, P1, P2, P3, P4, PT, PXT, S0, S1, S2, S3):
    return 2*P1*S0*S2*lam


def bnd_w3x(lam, P1, P2, P3, P4, PT, PXT, S0, S1, S2, S3):
    return 2*P1*S0**2*lam


FIELDS = {
    "I_w": (I_w, "w2"),
    "I_wx": (I_wx, "wx2"),
    "I_w2x": (I_w2x, "wxx2"),
    "I_w3x": (I_w3x, "wxxx2"),
    "r0_i11": (r0_i11, "wx2"),
    "r0_i14": (r0_i14, "w2"),
    "r0_i21": (r0_i21, "w2"),
    "r0_i23": (r0_i23, "w2"),
    "r0_i32": (r0_i32, "wx2"),
    "r0_i33": (r0_i33, "wxx2"),
    "r0_i34a": (r0_i34a, "w_wxx"),
    "r0_i34b": (r0_i34b, "wx2"),
    "r0_i43": (r0_i43, "wx2"),
    "r0_i44": (r0_i44, "w2"),
    "bnd_w2x_a": (bnd_w2x_a, "wxx2"),
    "bnd_w2x_b": (bnd_w2x_b, "wxx2"),
    "bnd_w3x": (bnd_w3x, "wxxx2"),
}


def conjugated_reference(lam, WT, PT, W0, W1, W2, W3, W4, P1, P2, P3, P4, S0, S1, S2, Q0, Q1, Q2):
    return P1**4*S0*W0*lam**4 + 4*P1**3*S0*W1*lam**3 + 2*P1**3*S1*W0*lam**3 + 6*P1**2*P2*S0*W0*lam**3 + P1**2*Q2*W0*lam**2 + 6*P1**2*S0*W2*lam**2 + 6*P1**2*S1*W1*lam**2 + P1**2*S2*W0*lam**2 + 12*P1*P2*S0*W1*lam**2 + 6*P1*P2*S1*W0*lam**2 + 4*P1*P3*S0*W0*lam**2 + P1*Q1*W0*lam + 2*P1*Q2*W1*lam + 4*P1*S0*W3*lam + 6*P1*S1*W2*lam + 2*P1*S2*W1*lam + 3*P2**2*S0*W0*lam**2 + P2*Q2*W0*lam + 6*P2*S0*W2*lam + 6*P2*S1*W1*lam + P2*S2*W0*lam + 4*P3*S0*W1*lam + 2*P3*S1*W0*lam + P4*S0*W0*lam + PT*W0*lam + Q0*W0 + Q1*W1 + Q2*W2 + S0*W4 + 2*S1*W3 + S2*W2 + WT
