"""Smoke tests of the scripts in scripts/, each run as a subprocess."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name),
                           *args], capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("args, lambda0_line", [
    (("--nx", "32", "--nt", "64", "--members", "3", "--lambdas", "2,8"),
     "empirical lambda0 = 2.0, delta_hat(lambda0) = 0.0372"),
    # no lambda reaches delta_min > 0
    (("--nx", "64", "--nt", "128", "--members", "5", "--lambdas", "0.25"),
     "empirical lambda0 = none, delta_hat(lambda0) = none"),
], ids=["lambda0-found", "no-lambda0"])
def test_carleman_scan_runs(args, lambda0_line):
    proc = run_script("carleman_scan.py", *args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lambda0_line in lines
    # the table's rows, between its header and the lambda0 line, give each
    # lambda as it was passed
    header = next(i for i, line in enumerate(lines)
                  if line.split()[:1] == ["lambda"])
    rows = lines[header + 1:lines.index(lambda0_line)]
    assert [row.split()[0] for row in rows] == args[-1].split(",")


@pytest.mark.parametrize("name, args, header", [
    ("convergence_study.py", ("--levels", "2"),
     "grid linear err order nonlinear err order secs"),
    ("recovery_demo.py", ("--noises", "0"),
     "noise rel L2 err iters solves final J"),
], ids=["convergence_study", "recovery_demo"])
def test_script_prints_its_table(name, args, header):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert header.split() in [line.split() for line in proc.stdout.splitlines()]
