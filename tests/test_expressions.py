import ast
import math
import os
import sys

import numpy as np
import pytest

import kslab
from kslab.config import RunConfig
from kslab.errors import ConfigError
from kslab.expressions import parse_expression


def test_numbers_and_constants():
    assert parse_expression("2.5e-3")() == pytest.approx(2.5e-3)
    assert parse_expression("pi")() == pytest.approx(math.pi)
    assert parse_expression("e")() == pytest.approx(math.e)


def test_precedence_and_power():
    assert parse_expression("2 + 3*4^2")() == pytest.approx(50.0)
    assert parse_expression("2^3^2")() == pytest.approx(512.0)  # right assoc
    assert parse_expression("-2^2")() == pytest.approx(-4.0)
    assert parse_expression("(2+3)*4")() == pytest.approx(20.0)
    assert parse_expression("2**3")() == pytest.approx(8.0)


def test_functions_and_variables():
    f = parse_expression("sin(pi*x) + cos(0*t)")
    x = np.linspace(0, 1, 5)
    out = f(x=x, t=0.0)
    assert out == pytest.approx(np.sin(np.pi * x) + 1.0)


def test_unary_minus_and_division():
    f = parse_expression("-x/2 + 1")
    assert f(x=np.array([2.0]))[0] == pytest.approx(0.0)


def test_broadcast_to_argument_shape():
    f = parse_expression("1")
    out = f(x=np.zeros(7))
    assert out.shape == (7,)


def test_variable_whitelist():
    with pytest.raises(ConfigError):
        parse_expression("x + t", variables=("x",))._eval  # parse fails
    f = parse_expression("x", variables=("x",))
    with pytest.raises(ConfigError):
        f(t=1.0)  # x missing at call time


def test_parse_errors():
    for bad in ("1 +* x", "sin x", "2 +", "(1+2", "1 2", "", "foo(3)", "x $ y",
                # Python's parser reads these, the grammar does not
                "1 # c", "0x10", "1_0", "0b1", "1j", "True", "x % 2", "x // 2",
                "x < 1", "x @ x", "~x", "not x", "1 if x else 2", "x[0]",
                "x.T", "sin(x, t)", "sin(x=1)", "sin + 1", "\uff58"):
        with pytest.raises(ConfigError):
            parse_expression(bad)


@pytest.mark.parametrize("text", ["1+" * 2000 + "1", "1+" * 100000 + "1",
                                  "-" * 3000 + "1", "2^" * 1500 + "1"],
                         ids=["sum-2000", "sum-100000", "signs", "powers"])
def test_deep_nesting_is_config_error(text):
    # Python's parser and the grammar check both recurse per level
    with pytest.raises(ConfigError, match="nested too deeply"):
        parse_expression(text)


def test_deep_evaluation_is_config_error():
    # the tree passed the check, but the stack left at the call is shorter
    f = parse_expression("1+" * 400 + "1")
    assert f() == 401.0
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        with pytest.raises(ConfigError, match="nested too deeply"):
            f()
    finally:
        sys.setrecursionlimit(limit)


def test_grammar_reads_what_python_alone_rejects():
    assert parse_expression("007")() == 7.0
    assert parse_expression("\u0663.5")() == 3.5  # an Arabic-Indic 3
    # a configparser continuation line
    f = parse_expression("1 +\n  x")
    assert f(x=np.array([2.0]))[0] == 3.0
    assert parse_expression("  2")() == 2.0
    assert parse_expression("2 ^ - 1")() == 0.5


def test_evaluation_order_matches_numpy_bit_for_bit():
    cfg = RunConfig.from_file(os.path.join(
        os.path.dirname(__file__), "..", "configs", "invert_closed_loop.cfg"))
    grid = cfg.grid()
    t, x = np.meshgrid(grid.t, grid.x, indexing="ij")
    out = parse_expression(cfg.raw["data"]["g"])(x=x, t=t)
    ref = (-0.01 * np.exp(-t) * (1 + np.power(x, 2.0))
           + (1 + 0.005 * np.sin(np.pi * x)) * 0.02 * np.exp(-t)
           + 0.0001 * np.exp(-2.0 * t) * (1 + np.power(x, 2.0)) * 2.0 * x)
    assert np.array_equal(out, ref)


def src_modules():
    """(file name, syntax tree) of every module in src/kslab."""
    src = os.path.dirname(kslab.__file__)
    for name in sorted(n for n in os.listdir(src) if n.endswith(".py")):
        with open(os.path.join(src, name)) as fh:
            yield name, ast.parse(fh.read(), name)


def test_no_module_executes_text():
    # config text is only ever parsed: no kslab module calls the builtins
    # eval, exec or compile (ast.parse and re.compile are other functions)
    banned = {prefix + name for prefix in ("", "builtins.", "__builtins__.")
              for name in ("eval", "exec", "compile")}
    for name, tree in src_modules():
        calls = {ast.unparse(node.func) for node in ast.walk(tree)
                 if isinstance(node, ast.Call)}
        assert not calls & banned, name


def test_no_module_imports_sympy():
    # sympy derivations live with the tests; src/kslab holds their output
    for name, tree in src_modules():
        modules = {alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names}
        modules |= {node.module or "" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)}
        assert not {m for m in modules if m.split(".")[0] == "sympy"}, name
