"""kslab benchmark: one workload per run, end-to-end or traced.

    python3 benchmark/run.py --workload {invert,audit,refine} --seed N
                             --seconds S --trace {0,1}

``BENCHMARK.json`` lists ``invert`` and ``audit``.  ``refine`` runs the same
way but is left out of it: its run-to-run spread on a shared 2-vCPU host
(IQR/median 0.18-0.35 over ten 30 s runs) is wider than the 0.25 bound
allows, because its time goes almost all to interpreter-bound CSV output.

Run from the root of a kslab checkout.  The program is imported from the
checkout's ``src`` and driven through ``kslab.cli.main`` in this process,
with BLAS held to one thread.  Inputs are generated from ``configs`` with
the seed written in, and outputs go to ``.bench_out/`` in the checkout.

``--trace 0`` times whole operations for S seconds and reports the
``end_to_end`` metrics of ``BENCHMARK.json``; ``--trace 1`` alternates
traced and untraced operations and reports its ``per_layer`` metrics.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")
SETUP_PROBES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def blas_threads():
    """Thread count of each OpenBLAS that numpy and scipy ship."""
    import ctypes
    import numpy
    import scipy
    counts = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                            f"{pkg.__name__}.libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    counts[pkg.__name__] = fn()
                    break
    return counts


def environment() -> dict:
    import numpy
    import scipy
    import sympy
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "sympy": sympy.__version__, "blas_threads": blas_threads()}


def setup_seconds(workload, tmp: str) -> float:
    """Median set-up time over fresh interpreters."""
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    times = []
    for i in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, probe, SRC, workload.invocations[0].config,
             workload.minimal.command, workload.minimal.config,
             os.path.join(tmp, f"setup{i}")],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def end_to_end(workload, main, seconds: float, tmp: str):
    """Whole operations, untraced, for ``seconds``, after the set-up probes.

    ``wall_s`` is the median time of an operation's timed invocations: the
    one CLI run of ``invert`` and ``audit``, and the three-rung convergence
    study of ``refine``.  ``solved_nodes_per_s`` is the median over
    operations of the solution nodes of invocations that passed their check
    per second of all invocations, so a failed invocation adds time but no
    nodes.
    """
    setup_s = setup_seconds(workload, tmp)
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        outcomes.append(workload.run(main, os.path.join(tmp, "op")))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": statistics.median(o.wall_s for o in outcomes),
        "solved_nodes_per_s": statistics.median(o.nodes / o.total_s
                                                for o in outcomes),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return metrics, outcomes, []


def traced(workload, main, seconds: float, tmp: str, spec: dict, trace_path: str):
    """Traced operations, untraced ones in between for the overhead.

    Runs traced, untraced, traced, then further untraced/traced pairs until
    ``seconds`` have passed, so there are always two traced runs of the
    same input whose counts must agree exactly.
    """
    from layers import TARGETS, layer_metrics
    from spans import Tracer

    tracer = Tracer(TARGETS)
    plan = ["traced", "plain", "traced"]
    outcomes, layers, plain_s, traced_s, problems = [], [], [], [], []
    start = time.perf_counter()
    while plan or time.perf_counter() - start < seconds:
        kind = plan.pop(0) if plan else ("plain" if len(outcomes) % 2 else "traced")
        if kind == "plain":
            outcome = workload.run(main, os.path.join(tmp, "op"))
            plain_s.append(outcome.total_s)
        else:
            first = len(tracer.spans)
            with tracer:
                outcome = workload.run(main, os.path.join(tmp, "op"))
            traced_s.append(outcome.total_s)
            metrics, found = layer_metrics(tracer.spans[first:], outcome.outs)
            layers.append(metrics)
            problems += found
        outcomes.append(outcome)
    tracer.dump(trace_path, workload=type(workload).__name__.lower())

    timed_units = {"s", "us"}
    merged = {}
    for name, values in zip(layers[0], zip(*(m.values() for m in layers))):
        if spec[name] in timed_units:
            merged[name] = statistics.median(values)
            continue
        if len(set(values)) != 1:
            problems.append(f"nondeterministic count {name}: {values}")
        merged[name] = values[0]
    attempted = sum(o.attempted for o in outcomes)
    merged["failed_frac"] = sum(o.failed for o in outcomes) / attempted
    merged["trace_overhead_frac"] = (statistics.median(traced_s)
                                     / statistics.median(plain_s) - 1.0)
    return merged, outcomes, problems


def main(argv=None) -> int:
    # one process, no extra threads: set before numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (os.path.isfile(os.path.join(SRC, "kslab", "cli.py"))
            and os.path.isdir(CONFIGS)):
        print(f"benchmark: no kslab source tree at {ROOT}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    spec = {m["name"]: m["unit"] for m in wanted}

    sys.path.insert(0, SRC)
    from kslab import cli
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(SRC)):
        print(f"benchmark: imported kslab from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    out_root = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=out_root)
    os.environ["TMPDIR"] = tempfile.tempdir = tmp
    try:
        workload = WORKLOADS[args.workload](CONFIGS, tmp, args.seed)

        def run_main(argv):
            # looked up at call time, so the tracer's wrapper is used
            return cli.main(argv)

        # finish lazy set-up (sympy generation) before anything is timed
        run_main([workload.minimal.command, "--config", workload.minimal.config,
                  "--out", os.path.join(tmp, "warmup")])
        if args.trace:
            trace_path = os.path.join(
                out_root, f"trace-{args.workload}-seed{args.seed}.json")
            values, outcomes, problems = traced(workload, run_main, args.seconds,
                                                tmp, spec, trace_path)
        else:
            values, outcomes, problems = end_to_end(workload, run_main,
                                                    args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for problem in problems:
        print(f"benchmark self-check: {problem}", file=sys.stderr)
    print(json.dumps({"env": environment(), "workload": args.workload,
                      "seed": args.seed,
                      "operation_s": [o.total_s for o in outcomes]}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in spec.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
