"""The benchmark's workloads: generated configs, CLI invocations and checks.

Every workload is a list of ``kslab`` CLI invocations, each checked against
a reference after it ran.  An invocation is one operation; a failed check
counts as a failed operation and never stops the benchmark.  The
tolerances are the ones the repository already states: acceptance
criteria 1 and 8, the worst-member ledger bound of ``tests/test_carleman.py``
and the error bound in the header of ``configs/simulate_manufactured.cfg``.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np


def write_config(source: str, dest: str, edits: dict, seed: int) -> str:
    """Copy a shipped config with ``{(section, key): value}`` edits applied."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    with open(source) as fh:
        parser.read_file(fh)
    for (section, key), value in edits.items():
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, str(value))
    with open(dest, "w") as fh:
        fh.write(f"# generated from {os.path.basename(source)}, "
                 f"benchmark seed {seed}\n")
        parser.write(fh)
    return dest


@dataclass
class Invocation:
    command: str
    config: str
    nodes: int          # (nx+1)(nt+1) of the solution the invocation produces
    timed: bool = True  # counts towards the operation's wall_s


@dataclass
class Outcome:
    wall_s: float       # time of the timed invocations
    total_s: float      # time of all invocations
    nodes: int          # nodes of the invocations that passed their check
    attempted: int
    failed: int
    outs: list          # output directory of each invocation


class Workload:
    """One operation of a workload, repeated by the runner."""

    invocations: list
    minimal: Invocation  # warm-up on a minimal copy of the input

    def check(self, codes: list, outs: list) -> list:
        raise NotImplementedError

    def run(self, main, work_dir: str) -> Outcome:
        codes, times, outs = [], [], []
        for i, inv in enumerate(self.invocations):
            out = os.path.join(work_dir, f"op{i}")
            shutil.rmtree(out, ignore_errors=True)
            start = time.perf_counter()
            codes.append(main([inv.command, "--config", inv.config,
                               "--out", out]))
            times.append(time.perf_counter() - start)
            outs.append(out)
        passed = self.check(codes, outs)
        return Outcome(
            wall_s=sum(t for t, inv in zip(times, self.invocations) if inv.timed),
            total_s=sum(times),
            nodes=sum(inv.nodes for inv, ok in zip(self.invocations, passed)
                      if ok),
            attempted=len(passed), failed=passed.count(False), outs=outs)


def _nodes(nx: int, nt: int) -> int:
    return (nx + 1) * (nt + 1)


def _report(out: str) -> dict:
    with open(os.path.join(out, "report.json")) as fh:
        return json.load(fh)


class Invert(Workload):
    """``kslab invert`` on ``invert_closed_loop.cfg`` (48x64, 8 modes)."""

    nx, nt = 48, 64

    def __init__(self, configs: str, tmp: str, seed: int):
        src = os.path.join(configs, "invert_closed_loop.cfg")
        cfg = write_config(src, os.path.join(tmp, "invert.cfg"),
                           {("inverse", "seed"): seed}, seed)
        mini = write_config(src, os.path.join(tmp, "invert_minimal.cfg"),
                            {("grid", "nx"): 16, ("grid", "nt"): 16,
                             ("inverse", "modes"): 1,
                             ("inverse", "max_outer"): 1}, seed)
        self.invocations = [Invocation("invert", cfg, _nodes(self.nx, self.nt))]
        self.minimal = Invocation("invert", mini, 0)

    def check(self, codes, outs):
        """Relative L2 error of the recovered gamma deviation <= 5%
        (criterion 8, noiseless)."""
        if codes[0] != 0:
            return [False]
        x, g_true, g_tilde, g_hat = np.loadtxt(
            os.path.join(outs[0], "gamma_hat.csv"), delimiter=",",
            skiprows=1, unpack=True)
        err = math.sqrt(np.trapezoid((g_hat - g_true) ** 2, x))
        pert = math.sqrt(np.trapezoid((g_true - g_tilde) ** 2, x))
        return [err <= 0.05 * pert]


class Audit(Workload):
    """``kslab carleman-audit`` on ``carleman_default.cfg`` (128x256, 50
    members, lambda in {2,4,8,16})."""

    def __init__(self, configs: str, tmp: str, seed: int):
        src = os.path.join(configs, "carleman_default.cfg")
        cfg = write_config(src, os.path.join(tmp, "audit.cfg"),
                           {("carleman", "seed"): seed}, seed)
        mini = write_config(src, os.path.join(tmp, "audit_minimal.cfg"),
                            {("grid", "nx"): 16, ("grid", "nt"): 32,
                             ("carleman", "ensemble"): 1,
                             ("carleman", "lambda"): 2}, seed)
        self.invocations = [Invocation("carleman-audit", cfg,
                                       50 * _nodes(128, 256))]
        self.minimal = Invocation("carleman-audit", mini, 0)

    def check(self, codes, outs):
        """lambda0 exists and the worst member's ledger balances.

        Criterion 5's 1e-4 balance holds on a grid fine in x (nx=1024); at
        nx=128 the integration-by-parts residues leave a mismatch of a few
        1e-3, so the gate is the bound the tests set for the worst-member
        ledger of an ensemble on a coarse grid.
        """
        if codes[0] != 0 or _report(outs[0])["results"]["lambda0"] is None:
            return [False]
        with open(os.path.join(outs[0], "ledger.csv")) as fh:
            ledger = dict(line.strip().split(",") for line in fh)
        return [float(ledger["mismatch_rel"]) < 0.05]


def manufactured_solution(t, x):
    """Exact solution of ``simulate_manufactured.cfg``."""
    return 0.01 * np.exp(-t) * x ** 2 * (1 - x) ** 2


class Refine(Workload):
    """``kslab simulate`` on ``simulate_manufactured.cfg`` over a grid ladder.

    The first three rungs form the convergence study that the order check
    uses and that ``wall_s`` times.  The 1024x256 rung runs the solver at
    nx=1024; at this commit it exits 2 through the Picard roundoff-floor
    defect and counts as a failed operation.
    """

    ladder = ((64, 128), (128, 256), (256, 512), (1024, 256))
    study = 3         # rungs in the convergence study
    max_err = 1e-7    # from the config header
    min_order = 1.7   # criterion 1

    def __init__(self, configs: str, tmp: str, seed: int):
        src = os.path.join(configs, "simulate_manufactured.cfg")
        self.invocations = []
        for i, (nx, nt) in enumerate(self.ladder):
            cfg = write_config(src, os.path.join(tmp, f"refine_{nx}x{nt}.cfg"),
                               {("grid", "nx"): nx, ("grid", "nt"): nt}, seed)
            self.invocations.append(
                Invocation("simulate", cfg, _nodes(nx, nt), i < self.study))
        mini = write_config(src, os.path.join(tmp, "refine_minimal.cfg"),
                            {("grid", "nx"): 16, ("grid", "nt"): 16}, seed)
        self.minimal = Invocation("simulate", mini, 0)

    def check(self, codes, outs):
        errors = []
        for code, out in zip(codes, outs):
            if code != 0:
                errors.append(math.inf)
                continue
            t, x, y = np.loadtxt(os.path.join(out, "trajectory.csv"),
                                 delimiter=",", skiprows=1, unpack=True)
            errors.append(float(np.abs(y - manufactured_solution(t, x)).max()))
        passed = [e <= self.max_err for e in errors]
        study = errors[:self.study]
        if all(passed[:self.study]):
            orders = [math.log2(a / b) for a, b in zip(study, study[1:])]
            if min(orders) < self.min_order:
                passed[:self.study] = [False] * self.study
        return passed


WORKLOADS = {"invert": Invert, "audit": Audit, "refine": Refine}
