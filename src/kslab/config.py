"""Run configuration: single structured-text file with key = value blocks.

Sections: [grid] (nx, nt, T), [coefficients] (sigma, gamma expression
strings in x), [data] (y0 in x; g in x and t; h1..h4 in t), [solver],
[carleman], [inverse], [output].  Values are parsed lazily so an invalid
entry reports its section and key.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .expressions import parse_expression
from .grid import GridSpec, ScalarField1D, Trajectory
from .linear_solver import BoundaryData, CoefficientField
from .nonlinear_solver import NonlinearSolveConfig
from .carleman import CarlemanConfig
from .inverse import InverseConfig

_KNOWN = {
    "grid": {"nx", "nt", "t"},
    "coefficients": {"sigma", "gamma"},
    "data": {"y0", "g", "h1", "h2", "h3", "h4"},
    "solver": {"comp_tol", "lin_tol", "max_picard", "picard_tol"},
    "carleman": {"t0", "lambda", "eta", "ensemble", "modes", "seed", "m",
                 "c_cap"},
    "inverse": {"gamma_tilde", "t0", "noise", "seed", "m1", "m2", "r_floor",
                "tikhonov_alpha", "max_outer", "grad_tol", "modes",
                "perturbation", "amplitudes", "c_cap"},
    "output": {"dir"},
}


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
            if section not in _KNOWN:
                raise ConfigError(f"unknown config section [{section}]")
            for key in keys:
                if key.lower() not in _KNOWN[section]:
                    raise ConfigError(
                        f"unknown key {key!r} in section [{section}]")
        return cls({s: {k.lower(): str(v) for k, v in kv.items()}
                    for s, kv in raw.items()})

    def to_dict(self) -> dict:
        return {s: dict(kv) for s, kv in self.raw.items()}

    # -- raw getters ------------------------------------------------------
    def _get(self, section: str, key: str, default=None):
        try:
            return self.raw[section][key]
        except KeyError:
            if default is not None:
                return default
            raise ConfigError(f"missing key {key!r} in section [{section}]")

    def require(self, *sections: str):
        for s in sections:
            if s not in self.raw:
                raise ConfigError(f"missing required section [{s}]")

    def _number(self, section, key, default=None):
        val = self._get(section, key, default)
        try:
            return float(val)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"[{section}] {key} = {val!r} is not a valid number") from exc

    def _int(self, section, key, default=None):
        val = self._get(section, key, default)
        try:
            return int(str(val))
        except ValueError as exc:
            raise ConfigError(
                f"[{section}] {key} = {val!r} is not a valid integer") from exc

    def _values(self, section, key, default=None, **grid):
        """The expression [section] key evaluated on the arrays ``grid``,
        which name its variables; every value must be finite."""
        text = self._get(section, key, default)
        try:
            with np.errstate(all="ignore"):
                values = parse_expression(text, tuple(grid))(**grid)
        except ConfigError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc
        except ZeroDivisionError:
            values = np.nan
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"[{section}] {key}: expression {text!r} is not "
                              f"finite on the grid")
        return values

    def _float_list(self, section, key, default=None):
        text = self._get(section, key, default)
        items = [s.strip() for s in str(text).split(",") if s.strip()]
        if not items:
            raise ConfigError(f"[{section}] {key} must be a non-empty "
                              f"comma-separated list")
        try:
            return [float(s) for s in items]
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {text!r}: {exc}") from exc

    # -- typed blocks -----------------------------------------------------
    def grid(self) -> GridSpec:
        self.require("grid")
        nx = self._int("grid", "nx")
        nt = self._int("grid", "nt")
        T = self._number("grid", "t")
        try:
            return GridSpec(nx, nt, T)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"[grid] invalid: {exc}") from exc

    def coefficients(self, grid: GridSpec) -> CoefficientField:
        self.require("coefficients")
        sigma = self._values("coefficients", "sigma", x=grid.x)
        gamma = self._values("coefficients", "gamma", x=grid.x)
        sigma0 = float(np.min(sigma))
        if not (sigma0 > 0):
            raise ConfigError("[coefficients] sigma must be strictly positive "
                              f"on [0,1]; min = {sigma0:g}")
        return CoefficientField(ScalarField1D(sigma, grid),
                                ScalarField1D(gamma, grid), sigma0)

    def boundary_data(self, grid: GridSpec) -> BoundaryData:
        self.require("data")
        y0 = self._values("data", "y0", "0", x=grid.x)
        tt, xx = np.meshgrid(grid.t, grid.x, indexing="ij")
        g = self._values("data", "g", "0", x=xx, t=tt)
        hs = [self._values("data", h, "0", t=grid.t)
              for h in ("h1", "h2", "h3", "h4")]
        return BoundaryData(hs[0], hs[1], hs[2], hs[3],
                            ScalarField1D(y0, grid), Trajectory(g, grid))

    def nonlinear_config(self) -> NonlinearSolveConfig:
        """The [solver] keys the file sets; the dataclass supplies the rest."""
        given = self.raw.get("solver", {})
        opts = {key: self._number("solver", key) for key in
                ("comp_tol", "lin_tol", "picard_tol") if key in given}
        if "max_picard" in given:
            opts["max_picard"] = self._int("solver", "max_picard")
        try:
            return NonlinearSolveConfig(**opts)
        except ValueError as exc:
            raise ConfigError(f"[solver] invalid: {exc}") from exc

    def carleman_block(self, grid: GridSpec) -> dict:
        self.require("carleman")
        lam = self._float_list("carleman", "lambda")
        try:
            cfg = CarlemanConfig(
                m=self._number("carleman", "m", 1.0),
                lambda_grid=tuple(lam),
                eta=self._number("carleman", "eta", grid.T / 10.0),
                c_cap=self._number("carleman", "c_cap", 1e6))
        except ValueError as exc:
            raise ConfigError(f"[carleman] invalid: {exc}") from exc
        block = {
            "cfg": cfg,
            "T0": self._number("carleman", "t0", grid.T / 2.0),
            "ensemble": self._int("carleman", "ensemble", 50),
            "modes": self._int("carleman", "modes", 4),
            "seed": self._int("carleman", "seed", 0),
        }
        for key, val, upper in (("ensemble", block["ensemble"], np.inf),
                                ("modes", block["modes"], np.inf),
                                ("T0", block["T0"], grid.T),
                                ("eta", cfg.eta, grid.T / 2)):
            if not 0 < val < upper:
                raise ConfigError(f"[carleman] {key} = {val:g} must lie in "
                                  f"(0, {upper:g})")
        return block

    def inverse_block(self, grid: GridSpec) -> dict:
        self.require("inverse")
        try:
            cfg = InverseConfig(
                M1=self._number("inverse", "m1", 10.0),
                M2=self._number("inverse", "m2", 1e4),
                r_floor=self._number("inverse", "r_floor", 1e-4),
                tikhonov_alpha=self._number("inverse", "tikhonov_alpha", 1e-10),
                max_outer=self._int("inverse", "max_outer", 40),
                grad_tol=self._number("inverse", "grad_tol", 1e-9),
                n_modes=self._int("inverse", "modes", 8))
        except ValueError as exc:
            raise ConfigError(f"[inverse] invalid: {exc}") from exc
        gamma_tilde = self._values("inverse", "gamma_tilde", "0", x=grid.x)
        block = {
            "cfg": cfg,
            "gamma_tilde": ScalarField1D(gamma_tilde, grid),
            "T0": self._number("inverse", "t0", grid.T / 2.0),
            "noise": self._number("inverse", "noise", 0.0),
            "seed": self._int("inverse", "seed", 0),
            "perturbation": self._values("inverse", "perturbation",
                                         "sin(pi*x)", x=grid.x),
            "amplitudes": self._float_list("inverse", "amplitudes",
                                           "1e-3,2e-3,4e-3"),
            "c_cap": self._number("inverse", "c_cap", 1e3),
        }
        if not 0 < block["T0"] < grid.T:
            raise ConfigError(f"[inverse] t0 = {block['T0']:g} must lie in "
                              f"(0, {grid.T:g})")
        if not block["noise"] >= 0:
            raise ConfigError(f"[inverse] noise = {block['noise']:g} must be "
                              f">= 0")
        if not block["c_cap"] > 0:
            raise ConfigError(f"[inverse] c_cap = {block['c_cap']:g} must be "
                              f"> 0")
        return block

    def output_block(self) -> dict:
        return {"dir": self._get("output", "dir", "out")}
