"""Per-layer metrics: which kslab functions are traced, and what their spans
add up to for one operation.

The layers are kslab's modules.  ``expressions``, ``grid`` and ``errors``
are leaf helpers called too often and too finely to wrap; their cost shows
in their callers' self time.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict

from spans import summarize


def _solve_ks(args, kwargs, result, exc):
    report = result[1] if exc is None else getattr(exc, "report", None)
    return {"sweeps": report.iterations if report is not None else 0,
            "failed": exc is not None, "coeff": id(args[0])}


def _solve_linear_full(args, kwargs, result, exc):
    return {"steps": len(result.values) - 1 if exc is None else 0}


def _recover_gamma(args, kwargs, result, exc):
    # the anchor coefficient: its own solve is not one of the forward
    # solves the program counts
    return {"coeff": id(args[1])}


def _gamma_basis(args, kwargs, result, exc):
    return {"n_par": int(result.shape[0]) if exc is None else 0}


def _write_csv(args, kwargs, result, exc):
    return {"bytes": os.path.getsize(args[0]) if exc is None else 0}


TARGETS = [
    ("kslab.linear_solver", "solve_linear_full", _solve_linear_full),
    ("kslab.linear_solver", "operator_matrix", None),
    ("kslab.linear_solver", "operator_residual", None),
    ("kslab.nonlinear_solver", "solve_ks", _solve_ks),
    ("kslab.inverse", "recover_gamma", _recover_gamma),
    ("kslab.inverse", "synthesize_measurements", None),
    ("kslab.inverse", "gamma_basis", _gamma_basis),
    ("kslab.carleman", "make_default_weight", None),
    ("kslab.carleman", "carleman_audit", None),
    ("kslab.carleman", "inner_product_ledger", None),
    ("kslab.carleman", "conjugate_decompose", None),
    ("kslab.carleman", "weighted_norm", None),
    ("kslab.cli", "write_csv", _write_csv),
    ("kslab.cli", "main", None),
    ("kslab.config", "RunConfig.from_file", None),
]


def _load_report(out: str) -> dict | None:
    path = os.path.join(out, "report.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def layer_metrics(spans: list, outs: list):
    """Per-layer metrics of one traced operation and its self-check failures.

    ``spans`` are the operation's spans and ``outs`` the output directories
    of its CLI invocations, in order.
    """
    summary = summarize(spans)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def secs(name, key="s"):
        return summary.get(name, {}).get(key, 0.0)

    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def under(span, name):
        """Spans called ``name`` anywhere below ``span``."""
        found, todo = [], list(children[span.id])
        while todo:
            s = todo.pop()
            if s.name == name:
                found.append(s)
            todo.extend(children[s.id])
        return found

    solves = named("solve_ks")
    sweeps = sum(s.attrs["sweeps"] for s in solves)
    cn_steps = sum(s.attrs["steps"] for s in named("solve_linear_full"))
    forward = [s for s in solves if s.parent is not None
               and by_id[s.parent].name == "recover_gamma"
               and by_id[s.parent].attrs["coeff"] != s.attrs["coeff"]]
    problems = []

    # each converged solve_ks makes one linear solve plus one per sweep
    for s in solves:
        linear = [c for c in children[s.id] if c.name == "solve_linear_full"]
        if not s.attrs["failed"] and len(linear) != s.attrs["sweeps"] + 1:
            problems.append(f"solve_ks span {s.id}: {len(linear)} linear "
                            f"solves for {s.attrs['sweeps']} Picard sweeps")

    mains = named("main")
    if len(mains) != len(outs):
        problems.append(f"{len(mains)} main spans for {len(outs)} invocations")
    lm_iterations = jacobian_solves = accepted = trial_solves = 0
    forward_ids = {s.id for s in forward}
    for span, out in zip(mains, outs):
        report = _load_report(out)
        if report is None:
            continue
        nt = int(report["config"]["grid"]["nt"])
        linear = under(span, "solve_linear_full")
        steps = sum(s.attrs["steps"] for s in linear)
        if steps != len(linear) * nt:
            problems.append(f"cn_steps {steps} != {len(linear)} x nt={nt}")
        counted = report["results"].get("forward_solves")
        if counted is None:
            continue
        mine = sum(s.id in forward_ids for s in under(span, "solve_ks"))
        if mine != counted:
            problems.append(f"traced forward solves {mine} != "
                            f"report.json forward_solves {counted}")
        # recovery.csv has one row per LM iteration, each of which builds a
        # forward-difference Jacobian with one solve per parameter; every
        # iteration but the last accepts a step, and the last one does too
        # when the iteration budget ran out.  The other forward solves are
        # the initial residual and the LM trial steps.
        with open(os.path.join(out, "recovery.csv")) as fh:
            rows = sum(1 for _ in fh) - 1
        n_par = sum(s.attrs["n_par"] for s in under(span, "gamma_basis"))
        lm_iterations += rows
        jacobian_solves += rows * n_par
        trial_solves += mine - 1 - rows * n_par
        accepted += rows if report["results"]["max_outer_reached"] else rows - 1

    metrics = {
        "solve_linear_full.calls": calls("solve_linear_full"),
        "solve_linear_full.s": secs("solve_linear_full"),
        "cn_steps": cn_steps,
        "cn_step_us": 1e6 * secs("solve_linear_full") / cn_steps if cn_steps else 0.0,
        "operator_matrix.calls": calls("operator_matrix"),
        "operator_matrix.s": secs("operator_matrix"),
        "operator_residual.calls": calls("operator_residual"),
        "operator_residual.s": secs("operator_residual"),
        "solve_ks.calls": len(solves),
        "solve_ks.s": secs("solve_ks"),
        "solve_ks.self_s": secs("solve_ks", "self_s"),
        "solve_ks.failed": sum(s.attrs["failed"] for s in solves),
        "picard_sweeps": sweeps,
        "sweeps_per_solve": sweeps / len(solves) if solves else 0.0,
        "recover_gamma.s": secs("recover_gamma"),
        "recover_gamma.self_s": secs("recover_gamma", "self_s"),
        "synthesize_measurements.s": secs("synthesize_measurements"),
        "forward_solves": len(forward),
        "lm_iterations": lm_iterations,
        "jacobian_solves": jacobian_solves,
        "accepted_trial_ratio": accepted / trial_solves if trial_solves > 0 else 0.0,
        "make_default_weight.s": secs("make_default_weight"),
        "carleman_audit.calls": calls("carleman_audit"),
        "carleman_audit.s": secs("carleman_audit"),
        "inner_product_ledger.calls": calls("inner_product_ledger"),
        "inner_product_ledger.s": secs("inner_product_ledger"),
        "inner_product_ledger.self_s": secs("inner_product_ledger", "self_s"),
        "conjugate_decompose.calls": calls("conjugate_decompose"),
        "conjugate_decompose.s": secs("conjugate_decompose"),
        "weighted_norm.calls": calls("weighted_norm"),
        "weighted_norm.s": secs("weighted_norm"),
        "write_csv.calls": calls("write_csv"),
        "write_csv.s": secs("write_csv"),
        "bytes_written": sum(s.attrs["bytes"] for s in named("write_csv")),
        "main.s": secs("main"),
        "from_file.s": secs("from_file"),
    }
    return metrics, problems
