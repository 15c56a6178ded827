"""Batch front-end: four subcommands with deterministic CSV/JSON outputs.

    kslab simulate       --config run.cfg [--out DIR]
    kslab carleman-audit --config run.cfg [--out DIR]
    kslab invert         --config run.cfg [--out DIR]
    kslab stability-scan --config run.cfg [--out DIR]

Exit codes: 0 success, 1 configuration, usage or output error, 2 fixed-point
non-convergence, 3 hypothesis or audit failure (the Carleman weight's
hip4B, the empirical Carleman inequality, the bound M1 on gamma and on the
anchor of invert and on gamma and every gamma_tilde of stability-scan, the
trajectory norm bound M2 of invert and stability-scan, or the stability
scan's c_cap), 4 snapshot-curvature (inf-condition) failure.
Floats are written with 17 significant digits and files are written
atomically (temp file + rename), so a rerun with the same config and seed
produces byte-identical CSVs; report.json carries wall-clock timings and
is reproducible up to its "timings" entry.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import sys
import tempfile
import time

import numpy as np

from .carleman import ensemble_audit, make_default_weight
from .config import RunConfig
from .errors import (ConfigError, HypothesisViolation, InfConditionViolated,
                     KSLabError, NoConvergence)
from .grid import GridSpec, ScalarField1D, extract_traces
from .inverse import (recover_gamma, stability_report,
                      synthesize_measurements)
from .linear_solver import CoefficientField
from .nonlinear_solver import solve_ks

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONVERGENCE = 2
EXIT_HYPOTHESIS = 3
EXIT_INF_CONDITION = 4

# How a failed command reports itself: report.json status and exit code.
_FAILURES = {
    NoConvergence: ("no-convergence", EXIT_NO_CONVERGENCE),
    HypothesisViolation: ("hypothesis-violation", EXIT_HYPOTHESIS),
    InfConditionViolated: ("inf-condition-violated", EXIT_INF_CONDITION),
}


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


def _write_atomic(path: str, text: str):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list, rows: list):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_picard(path: str, report):
    ratios = [None] + list(report.ratios)       # no ratio for the 1st sweep
    rows = [(i, upd, ratios[i - 1] if i <= len(ratios) else None)
            for i, upd in enumerate(report.update_norms, start=1)]
    write_csv(path, ["iter", "update_norm", "ratio"], rows)


def _remove_report(out: str):
    path = os.path.join(out, "report.json")
    if os.path.exists(path):
        os.remove(path)


class Run:
    """One command's output directory, report seed and start time."""

    def __init__(self, cfg: RunConfig, out: str):
        self.cfg, self.out, self.seed = cfg, out, None
        self.t_start = time.perf_counter()

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def report(self, results: dict):
        payload = {"config": self.cfg.to_dict(), "seed": self.seed,
                   "results": results,
                   "timings": {"total_s": time.perf_counter() - self.t_start}}
        _write_atomic(self.path("report.json"),
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_simulate(cfg: RunConfig, grid: GridSpec, coeff: CoefficientField,
                 run: Run) -> int:
    bd = cfg.boundary_data(grid)
    ncfg = cfg.nonlinear_config()
    try:
        y, report = solve_ks(coeff, bd, ncfg)
    except NoConvergence as exc:
        if getattr(exc, "report", None) is not None:
            _write_picard(run.path("picard.csv"), exc.report)
        raise

    rows = [(grid.t[n], grid.x[i], y.values[n, i])
            for n in range(grid.nt + 1) for i in range(grid.nx + 1)]
    write_csv(run.path("trajectory.csv"), ["t", "x", "y"], rows)
    tr2, tr3 = extract_traces(y.values, grid)
    write_csv(run.path("traces.csv"), ["t", "yxx0", "yxxx0"],
              list(zip(grid.t, tr2, tr3)))
    _write_picard(run.path("picard.csv"), report)
    run.report({"status": "ok", "iterations": report.iterations,
                "residual_rel": report.residual_rel,
                "residual_l2": report.residual_l2,
                "max_abs_y": float(np.abs(y.values).max())})
    return EXIT_OK


def cmd_carleman_audit(cfg: RunConfig, grid: GridSpec, coeff: CoefficientField,
                       run: Run) -> int:
    block = cfg.carleman_block(grid)
    run.seed = block["seed"]
    weight = make_default_weight(coeff.sigma, block["T0"])
    try:
        audit = ensemble_audit(weight, block["cfg"],
                               n_members=block["ensemble"],
                               seed=block["seed"], n_modes=block["modes"])
    except ValueError as exc:  # a lambda too large for the weight's window
        raise ConfigError(f"[carleman] lambda: {exc}") from exc

    audit_rows = [(r.lam, r.lhs, r.rhs_interior, r.rhs_boundary0,
                   r.rhs_boundary1, r.c_hat, int(r.passed))
                  for r in audit.rows]
    write_csv(run.path("audit.csv"),
              ["lambda", "lhs", "rhs_interior", "rhs_boundary0",
               "rhs_boundary1", "c_hat", "pass"], audit_rows)

    led = audit.worst_ledger
    ledger_rows = [("direct", led.direct)]
    ledger_rows += sorted(led.items.items())
    ledger_rows += [("boundary_x0", led.ix0), ("boundary_x1", led.ix1),
                    ("itemized_total", led.itemized),
                    ("mismatch_rel", led.mismatch_rel),
                    ("weighted_norm_sq", led.weighted_norm_sq),
                    ("delta_hat", led.delta_hat)]
    write_csv(run.path("ledger.csv"), ["term", "value"], ledger_rows)

    ok = audit.lambda0 is not None and all(
        r.passed for r in audit.rows if r.lam >= audit.lambda0)
    run.report({"status": "ok" if ok else "audit-failed",
                "lambda0": audit.lambda0,
                "delta_min": {str(k): v for k, v in audit.delta_min.items()},
                "r": weight.r, "epsilon_margin": weight.epsilon_margin})
    if not ok:
        print("kslab carleman-audit: empirical inequality failed on the "
              "ensemble", file=sys.stderr)
        return EXIT_HYPOTHESIS
    return EXIT_OK


def cmd_invert(cfg: RunConfig, grid: GridSpec, coeff: CoefficientField,
               run: Run) -> int:
    bd = cfg.boundary_data(grid)
    block = cfg.inverse_block(grid)
    ncfg = cfg.nonlinear_config()
    run.seed = block["seed"]
    coeff_tilde = CoefficientField(coeff.sigma, block["gamma_tilde"])
    meas = synthesize_measurements(coeff, bd, block["T0"], block["noise"],
                                   block["seed"], ncfg)
    gamma_hat, report = recover_gamma(meas, coeff_tilde, bd, block["cfg"],
                                      gamma_true=coeff.gamma, solve_cfg=ncfg)

    write_csv(run.path("gamma_hat.csv"),
              ["x", "gamma_true_if_known", "gamma_tilde", "gamma_hat"],
              list(zip(grid.x, coeff.gamma.values,
                       block["gamma_tilde"].values, gamma_hat.values)))
    write_csv(run.path("recovery.csv"),
              ["iter", "J", "grad_norm", "l2_error_if_known"],
              report.iterations)
    run.report({"status": "ok", "final_j": report.final_j,
                "grad_norm": report.grad_norm,
                "l2_error": report.l2_error,
                "converged": report.converged,
                "max_outer_reached": report.max_outer_reached,
                "forward_solves": report.forward_solves})
    return EXIT_OK


def cmd_stability_scan(cfg: RunConfig, grid: GridSpec, coeff: CoefficientField,
                       run: Run) -> int:
    bd = cfg.boundary_data(grid)
    block = cfg.inverse_block(grid)
    ncfg = cfg.nonlinear_config()
    run.seed = block["seed"]
    pert = block["perturbation"]
    gamma_tildes = [ScalarField1D(coeff.gamma.values + s * pert, grid)
                    for s in block["amplitudes"]]
    reports = stability_report(coeff, gamma_tildes, bd, block["T0"],
                               block["cfg"], ncfg)

    rows, over = [], []
    for s, rep in zip(block["amplitudes"], reports):
        rows.append((s, rep.lhs, rep.middle, rep.far_rhs,
                     rep.c_lower, rep.c_upper))
        if not (rep.degenerate or rep.lhs <= block["c_cap"] * rep.middle):
            over.append(f"{s:g}")

    write_csv(run.path("stability.csv"),
              ["s", "lhs", "middle", "far_rhs", "c_lower", "c_upper"], rows)
    run.report({"status": "cap-exceeded" if over else "ok",
                "rows": len(rows)})
    if over:
        print(f"kslab stability-scan: lhs > c_cap * middle, "
              f"c_cap={block['c_cap']:g}, at s = {', '.join(over)}",
              file=sys.stderr)
        return EXIT_HYPOTHESIS
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "carleman-audit": cmd_carleman_audit,
    "invert": cmd_invert,
    "stability-scan": cmd_stability_scan,
}


# glibc's mallopt parameters and the values main pins them to
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 * 1024 * 1024
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


@functools.cache
def _pin_malloc_thresholds():
    """Keep freed heap pages mapped for the rest of the process (glibc only).

    The Carleman window arrays (rows x nodes, about 200 kB on a 128x256
    grid) lie near glibc's default 128 kB mmap threshold, which moves with
    the sizes of the chunks freed so far, and glibc trims the heap whenever
    its free top passes twice that threshold.  Which temporaries then come
    back from the kernel as fresh pages depends on the heap's layout: a warm
    carleman-audit on carleman_default.cfg took 4.4k-6.6k page faults and
    36-43 ms, varying from one process to the next (2-vCPU Linux host).
    Pinned at glibc's own ceiling for the dynamic threshold, the temporaries
    reuse the heap: 2 faults and 28-31 ms in every process.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="kslab",
        description="Kuramoto-Sivashinsky forward/inverse laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--out", default=None, help="output directory override")
    return parser


def main(argv=None) -> int:
    _pin_malloc_thresholds()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:            # --help exits 0, usage errors 2
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        return _run(args)
    except OSError as exc:               # an output directory or file
        print(f"kslab: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _run(args) -> int:
    """The command of args, its failures reported and mapped to exit codes."""
    try:
        # a run that fails may write no report, so remove an earlier run's
        # as soon as the output directory is known
        if args.out:
            _remove_report(args.out)
        cfg = RunConfig.from_file(args.config)
        run = Run(cfg, args.out or cfg.output_block()["dir"])
        os.makedirs(run.out, exist_ok=True)
        _remove_report(run.out)
        grid = cfg.grid()
        return _COMMANDS[args.command](cfg, grid, cfg.coefficients(grid), run)
    except tuple(_FAILURES) as exc:
        status, code = _FAILURES[type(exc)]
        results = {"status": status, "detail": str(exc)}
        if isinstance(exc, HypothesisViolation):
            results["failed"] = list(exc.failed)
        run.report(results)
        print(f"kslab {args.command}: {exc}", file=sys.stderr)
        return code
    except KSLabError as exc:
        kind = "config error: " if isinstance(exc, ConfigError) else ""
        print(f"kslab: {kind}{exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
