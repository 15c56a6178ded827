"""Closed-form expression strings for coefficients and data.

A deliberately small grammar so configs stay portable: + - * / ^ (or **),
unary + and -, parentheses, sin, cos, exp, sqrt, pi, e, decimal literals and
the variables x and t.  Python's parser reads the text, each node is checked
against this whitelist, and numpy evaluates the tree; nothing is executed.
"""

from __future__ import annotations

import ast
import math
import operator
import re
import warnings

import numpy as np

from .errors import ConfigError

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}
_CONSTANTS = {"pi": math.pi, "e": math.e}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: np.power}
_UNARY = {ast.UAdd: lambda a: a, ast.USub: operator.neg}
# the grammar's characters and literals, narrower than Python's (1 # c, 0x10,
# 1_0, 1j, fullwidth x), and what the grammar reads but Python's parser does
# not: leading zeros (007), non-ASCII digits, newlines and leading blanks
_ALPHABET = re.compile(r"[\w.+\-*/^() ]*", re.ASCII)
_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")
_DIGIT = re.compile(r"(?![0-9])\d")


class Expression:
    """Checked expression; call with keyword arrays, e.g. f(x=..., t=...)."""

    def __init__(self, text: str, variables: tuple = ("x", "t")):
        self.text, self.variables = text, tuple(variables)
        src = " ".join(_DIGIT.sub(lambda d: str(int(d[0])), text).split())
        src = _LEADING_ZEROS.sub("", src)
        end = _ALPHABET.match(src).end()
        if end < len(src):
            raise self._error(f"unexpected character {src[end]!r}", end)
        self._src = src.replace("^", "**")
        try:
            with warnings.catch_warnings():  # Python only warns of 1if
                warnings.simplefilter("error", SyntaxWarning)
                self._tree = ast.parse(self._src, mode="eval").body
            self._check(self._tree)
        except SyntaxError as exc:
            raise self._error("syntax error", (exc.offset or 1) - 1) from None
        except RecursionError:
            raise self._too_deep() from None

    def _error(self, what: str, at: int, hint: str = "") -> ConfigError:
        return ConfigError(f"{what} at position {at} in expression "
                           f"{self.text!r}{hint}")

    def _too_deep(self) -> ConfigError:
        return ConfigError(f"expression {self.text!r} is nested too deeply")

    def _check(self, node):
        """Reject any node outside the grammar; store each literal's value."""
        children = ()
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            children = node.left, node.right
        elif isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
            children = node.operand,
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in _FUNCTIONS and len(node.args) == 1
              and not node.keywords):
            children = node.args
        elif isinstance(node, ast.Name) and node.id not in _FUNCTIONS:
            if node.id not in _CONSTANTS and node.id not in self.variables:
                raise self._error(f"unknown name {node.id!r}", node.col_offset,
                                  f" (variables here: {self.variables})")
        elif isinstance(node, ast.Constant) and _NUMBER.fullmatch(
                literal := self._src[node.col_offset:node.end_col_offset]):
            node.value = float(literal)
        else:
            raise self._error("unexpected token", node.col_offset)
        for child in children:
            self._check(child)

    def __call__(self, **kw):
        try:
            out = self._eval(self._tree, kw)
        except RecursionError:
            raise self._too_deep() from None
        shapes = [np.shape(v) for v in kw.values() if np.ndim(v) > 0]
        if shapes and np.ndim(out) == 0:
            out = np.full(np.broadcast_shapes(*shapes), out, dtype=float)
        return out

    def _eval(self, node, kw):
        if isinstance(node, ast.BinOp):
            return _BINARY[type(node.op)](self._eval(node.left, kw),
                                          self._eval(node.right, kw))
        if isinstance(node, ast.UnaryOp):
            return _UNARY[type(node.op)](self._eval(node.operand, kw))
        if isinstance(node, ast.Call):
            return _FUNCTIONS[node.func.id](self._eval(node.args[0], kw))
        if isinstance(node, ast.Constant):
            return node.value
        if node.id in _CONSTANTS:
            return _CONSTANTS[node.id]
        if node.id not in kw:
            raise ConfigError(f"expression {self.text!r} needs variable "
                              f"{node.id!r}")
        return np.asarray(kw[node.id], dtype=float)


def parse_expression(text: str, variables: tuple = ("x", "t")) -> Expression:
    if not isinstance(text, str) or not text.strip():
        raise ConfigError("empty expression string")
    return Expression(text, variables)
