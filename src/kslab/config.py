"""Run configuration: single structured-text file with key = value blocks.

_TABLE names every section and key with its kind of value; values are
parsed lazily, so an invalid entry reports its section and key.  The table
holds defaults and bounds only where no dataclass owns them: GridSpec
checks [grid]; NonlinearSolveConfig owns [solver]; CarlemanConfig owns
[carleman] c_cap, and the carleman module the default eta = T/10;
InverseConfig owns [inverse] m1, m2, r_floor, tikhonov_alpha, max_outer,
grad_tol and modes.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, GridTooCoarse
from .expressions import parse_expression
from .grid import GridSpec, ScalarField1D, Trajectory
from .linear_solver import BoundaryData, CoefficientField
from .nonlinear_solver import NonlinearSolveConfig
from .carleman import CarlemanConfig
from .inverse import InverseConfig, snapshot_index


def _evaluate(text: str, grid: GridSpec, names: str):
    """text as an expression in the variables names ("x", "t" or "xt")
    evaluated on the grid's nodes; every value must be finite."""
    nodes = {"x": grid.x, "t": grid.t}
    if names == "xt":
        nodes["t"], nodes["x"] = np.meshgrid(grid.t, grid.x, indexing="ij")
    try:
        with np.errstate(all="ignore"):
            values = parse_expression(text, tuple(names))(
                **{v: nodes[v] for v in names})
    except ZeroDivisionError:
        values = np.nan
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"expression {text!r} is not finite on the grid")
    return values


def _number_list(text: str, grid) -> list:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError("must be a non-empty comma-separated list")
    return [float(s) for s in items]


# each kind of value: (text, grid) -> value; ValueError or ConfigError if
# text is not one
_PARSE = {"integer": lambda text, grid: int(text),
          "number": lambda text, grid: float(text),
          "number list": _number_list,
          "string": lambda text, grid: text,
          "f(x)": partial(_evaluate, names="x"),
          "f(t)": partial(_evaluate, names="t"),
          "f(x, t)": partial(_evaluate, names="xt")}


class _Key(NamedTuple):
    """How a key reads.  One with neither default nor field is required."""
    kind: str                      # a kind of _PARSE
    default: str | None = None     # config text, or T/2 of [grid] T
    bounds: str | None = None      # such as "[0, inf)"; every item lies in it
    field: str | None = None       # the dataclass argument the key sets


_TABLE = {
    "grid": {"nx": _Key("integer"), "nt": _Key("integer"),
             "t": _Key("number")},
    "coefficients": {"sigma": _Key("f(x)", None, "(0, inf)"),
                     "gamma": _Key("f(x)")},
    "data": {"y0": _Key("f(x)", "0"), "g": _Key("f(x, t)", "0"),
             **{h: _Key("f(t)", "0") for h in ("h1", "h2", "h3", "h4")}},
    "solver": {"comp_tol": _Key("number", field="comp_tol"),
               "lin_tol": _Key("number", field="lin_tol"),
               "max_picard": _Key("integer", field="max_picard"),
               "picard_tol": _Key("number", field="picard_tol")},
    "carleman": {"t0": _Key("number", "T/2", "(0, T)"),
                 "lambda": _Key("number list"),
                 "eta": _Key("number", None, "(0, T/2)", "eta"),
                 "ensemble": _Key("integer", "50", "(0, inf)"),
                 "modes": _Key("integer", "4", "(0, inf)"),
                 "seed": _Key("integer", "0", "[0, inf)"),
                 "c_cap": _Key("number", field="c_cap")},
    "inverse": {"gamma_tilde": _Key("f(x)", "0"),
                "t0": _Key("number", "T/2", "(0, T)"),
                "noise": _Key("number", "0", "[0, 1)"),
                "seed": _Key("integer", "0", "[0, inf)"),
                "m1": _Key("number", field="M1"),
                "m2": _Key("number", field="M2"),
                "r_floor": _Key("number", field="r_floor"),
                "tikhonov_alpha": _Key("number", field="tikhonov_alpha"),
                "max_outer": _Key("integer", field="max_outer"),
                "grad_tol": _Key("number", field="grad_tol"),
                "modes": _Key("integer", field="n_modes"),
                "perturbation": _Key("f(x)", "sin(pi*x)"),
                "amplitudes": _Key("number list", "1e-3,2e-3,4e-3",
                                   "(-inf, inf)"),
                "c_cap": _Key("number", "1e3", "(0, inf]")},
    "output": {"dir": _Key("string", "out")},
}


def _scaled(text: str, grid: GridSpec) -> float:
    """A default or interval end of the table: a number, T or T/2."""
    return float({"T": grid.T, "T/2": grid.T / 2.0}.get(text, text))


def _within(value, bounds: str, grid: GridSpec) -> bool:
    """Whether value, every item of it, lies in the interval bounds."""
    low, high = (_scaled(end, grid) for end in bounds[1:-1].split(", "))
    above = value >= low if bounds[0] == "[" else value > low
    below = value <= high if bounds[-1] == "]" else value < high
    return bool(np.all(above & below))


@dataclass
class RunConfig:
    """Raw section/key/value strings plus typed accessors."""

    raw: dict

    # -- construction ---------------------------------------------------
    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        raw = {s: dict(parser.items(s)) for s in parser.sections()}
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        for section, keys in raw.items():
            if section not in _TABLE:
                raise ConfigError(f"unknown config section [{section}]")
            for key in keys:
                if key.lower() not in _TABLE[section]:
                    raise ConfigError(
                        f"unknown key {key!r} in section [{section}]")
        return cls({s: {k.lower(): str(v) for k, v in kv.items()}
                    for s, kv in raw.items()})

    def to_dict(self) -> dict:
        return {s: dict(kv) for s, kv in self.raw.items()}

    # -- reading through the table ---------------------------------------
    def require(self, *sections: str):
        for s in sections:
            if s not in self.raw:
                raise ConfigError(f"missing required section [{s}]")

    def _read(self, section: str, key: str, grid: GridSpec | None = None):
        """[section] key, or its default, parsed as _TABLE says."""
        spec, given = _TABLE[section][key], self.raw.get(section, {})
        if key not in given:
            if spec.default is None:
                raise ConfigError(f"missing key {key!r} in section [{section}]")
            if spec.default.startswith("T"):
                return _scaled(spec.default, grid)
        text = given.get(key, spec.default)
        try:
            value = _PARSE[spec.kind](text, grid)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc
        if spec.bounds and not _within(np.asarray(value), spec.bounds, grid):
            raise ConfigError(f"[{section}] {key} = {text} must lie in "
                              f"{spec.bounds}")
        return value

    def _build(self, cls, section: str, grid: GridSpec | None = None,
               **values):
        """cls from values and the keys of section the file sets that name
        a field; cls supplies the defaults and checks of those keys."""
        given = self.raw.get(section, {})
        for key, spec in _TABLE[section].items():
            if spec.field and key in given:
                values[spec.field] = self._read(section, key, grid)
        try:
            return cls(**values)
        except (ValueError, GridTooCoarse) as exc:
            raise ConfigError(f"[{section}] invalid: {exc}") from exc

    # -- typed blocks -----------------------------------------------------
    def grid(self) -> GridSpec:
        self.require("grid")
        return self._build(GridSpec, "grid", nx=self._read("grid", "nx"),
                           nt=self._read("grid", "nt"),
                           T=self._read("grid", "t"))

    def coefficients(self, grid: GridSpec) -> CoefficientField:
        self.require("coefficients")
        sigma, gamma = (ScalarField1D(self._read("coefficients", key, grid),
                                      grid) for key in ("sigma", "gamma"))
        return CoefficientField(sigma, gamma)

    def boundary_data(self, grid: GridSpec) -> BoundaryData:
        self.require("data")
        y0, g, h1, h2, h3, h4 = (self._read("data", key, grid)
                                 for key in _TABLE["data"])
        return BoundaryData(h1, h2, h3, h4, ScalarField1D(y0, grid),
                            Trajectory(g, grid))

    def nonlinear_config(self) -> NonlinearSolveConfig:
        return self._build(NonlinearSolveConfig, "solver")

    def carleman_block(self, grid: GridSpec) -> dict:
        self.require("carleman")
        read = partial(self._read, "carleman", grid=grid)
        return {"cfg": self._build(CarlemanConfig, "carleman", grid,
                                   lambda_grid=read("lambda")),
                "T0": read("t0"), "ensemble": read("ensemble"),
                "modes": read("modes"), "seed": read("seed")}

    def inverse_block(self, grid: GridSpec) -> dict:
        self.require("inverse")
        read = partial(self._read, "inverse", grid=grid)
        T0 = read("t0")
        try:
            snapshot_index(grid, T0)
        except ValueError as exc:
            raise ConfigError(f"[inverse] t0: {exc}") from exc
        return {"cfg": self._build(InverseConfig, "inverse"),
                "gamma_tilde": ScalarField1D(read("gamma_tilde"), grid),
                "T0": T0, "noise": read("noise"), "seed": read("seed"),
                "perturbation": read("perturbation"),
                "amplitudes": read("amplitudes"), "c_cap": read("c_cap")}

    def output_block(self) -> dict:
        return {"dir": self._read("output", "dir")}
