import json
import os
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest

import kslab
from kslab import cli, inverse
from kslab.cli import main
from kslab.config import _TABLE, RunConfig
from kslab.errors import ConfigError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def cfg_path(name):
    return os.path.join(CONFIG_DIR, name)


def edited_config(tmp_path, name, old, new):
    """Path of a copy of the shipped config name with old replaced by new."""
    with open(cfg_path(name)) as fh:
        text = fh.read()
    assert old in text
    path = tmp_path / f"edited_{name}"
    path.write_text(text.replace(old, new))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def test_simulate_zero_data(tmp_path):
    out = str(tmp_path / "o")
    code = main(["simulate", "--config", cfg_path("simulate_zero.cfg"),
                 "--out", out])
    assert code == 0
    header, rows = read_csv(os.path.join(out, "trajectory.csv"))
    assert header == ["t", "x", "y"]
    assert all(float(r[2]) == 0.0 for r in rows)
    # no "-0" from the solver's signed zeros
    assert all(r[2] == "0" for r in rows)
    _, picard = read_csv(os.path.join(out, "picard.csv"))
    assert len(picard) == 1
    _, traces = read_csv(os.path.join(out, "traces.csv"))
    assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in traces)


def test_simulate_writes_to_the_configs_output_dir(tmp_path, monkeypatch):
    # without --out the run goes to [output] dir, relative to the cwd
    config = os.path.abspath(cfg_path("simulate_zero.cfg"))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", config]) == 0
    assert (tmp_path / "out_zero" / "report.json").is_file()


def test_simulate_manufactured_error_bound(tmp_path):
    # the config header documents the expected bound vs the analytic solution
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", cfg_path("simulate_manufactured.cfg"),
                 "--out", out]) == 0
    _, rows = read_csv(os.path.join(out, "trajectory.csv"))
    err = max(abs(float(r[2]) - 0.01 * np.exp(-float(r[0]))
                  * float(r[1]) ** 2 * (1 - float(r[1])) ** 2) for r in rows)
    assert err <= 1e-7


def test_simulate_rerun_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert main(["simulate", "--config",
                     cfg_path("simulate_manufactured.cfg"), "--out", out]) == 0
    for name in ("trajectory.csv", "traces.csv", "picard.csv"):
        with open(os.path.join(out1, name), "rb") as f1, \
                open(os.path.join(out2, name), "rb") as f2:
            assert f1.read() == f2.read()


def test_report_json_config_roundtrip(tmp_path):
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", cfg_path("simulate_zero.cfg"),
                 "--out", out]) == 0
    payload = json.load(open(os.path.join(out, "report.json")))
    assert set(payload) == {"config", "seed", "results", "timings"}
    rc = RunConfig.from_dict(payload["config"])
    assert rc.to_dict() == payload["config"]
    assert rc.grid().nx == 32


def test_invert_closed_loop(tmp_path):
    out = str(tmp_path / "o")
    assert main(["invert", "--config", cfg_path("invert_closed_loop.cfg"),
                 "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "gamma_hat.csv"))
    assert header == ["x", "gamma_true_if_known", "gamma_tilde", "gamma_hat"]
    errs = [abs(float(r[3]) - float(r[1])) for r in rows]
    perts = [abs(float(r[1]) - float(r[2])) for r in rows]
    assert max(errs) <= 0.05 * max(perts)
    header, _ = read_csv(os.path.join(out, "recovery.csv"))
    assert header == ["iter", "J", "grad_norm", "l2_error_if_known"]
    payload = json.load(open(os.path.join(out, "report.json")))
    assert payload["results"]["status"] == "ok"


def test_invert_with_extreme_tikhonov_alpha_returns_gamma_tilde(tmp_path,
                                                                 capsys):
    # every step is rejected until the Marquardt damping overflows; LM then
    # stops as at no descent, on gamma_tilde, the alpha -> inf minimizer.
    # From about 1e305 J^T J itself overflows, which must stay quiet too.
    for alpha in ("1e300", "1e305", "1.7e308"):
        cfgfile = edited_config(tmp_path, "invert_closed_loop.cfg",
                                "tikhonov_alpha = 1e-10",
                                f"tikhonov_alpha = {alpha}")
        out = str(tmp_path / alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["invert", "--config", cfgfile, "--out", out]) == 0
        assert capsys.readouterr().err == ""
        _, rows = read_csv(os.path.join(out, "gamma_hat.csv"))
        values = np.array(rows, dtype=float)
        assert np.all(np.isfinite(values))
        assert np.array_equal(values[:, 3], values[:, 2])


def test_stability_scan(tmp_path):
    out = str(tmp_path / "o")
    assert main(["stability-scan", "--config", cfg_path("stability_scan.cfg"),
                 "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "stability.csv"))
    assert header == ["s", "lhs", "middle", "far_rhs", "c_lower", "c_upper"]
    assert len(rows) == 3
    lhs = np.log([float(r[1]) for r in rows])
    mid = np.log([float(r[2]) for r in rows])
    slope = np.polyfit(mid, lhs, 1)[0]
    assert 0.8 <= slope <= 1.2


def test_exit_code_contract(tmp_path):
    cases = [
        ("simulate", "fail_config.cfg", 1),
        ("simulate", "fail_noconv.cfg", 2),
        ("carleman-audit", "fail_hypothesis.cfg", 3),
        ("invert", "fail_infcond.cfg", 4),
    ]
    for i, (cmd, name, expected) in enumerate(cases):
        out = str(tmp_path / f"o{i}")
        assert main([cmd, "--config", cfg_path(name), "--out", out]) == expected


def test_noconv_writes_partial_diagnostics(tmp_path):
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", cfg_path("fail_noconv.cfg"),
                 "--out", out]) == 2
    assert os.path.exists(os.path.join(out, "picard.csv"))
    payload = json.load(open(os.path.join(out, "report.json")))
    assert payload["results"]["status"] == "no-convergence"


@pytest.mark.parametrize("cmd, name, code, status, seed", [
    ("simulate", "fail_noconv.cfg", 2, "no-convergence", None),
    ("carleman-audit", "fail_hypothesis.cfg", 3, "hypothesis-violation", 1),
    ("invert", "fail_infcond.cfg", 4, "inf-condition-violated", 0),
])
def test_failure_report(tmp_path, capsys, cmd, name, code, status, seed):
    out = str(tmp_path / "o")
    assert main([cmd, "--config", cfg_path(name), "--out", out]) == code
    payload = json.load(open(os.path.join(out, "report.json")))
    results = payload["results"]
    assert results["status"] == status
    assert payload["seed"] == seed
    assert results["detail"]
    assert capsys.readouterr().err == f"kslab {cmd}: {results['detail']}\n"
    expected = {"status", "detail"}
    if status == "hypothesis-violation":
        assert results["failed"] == ["hip4B"]
        expected.add("failed")
    assert set(results) == expected
    assert set(payload["timings"]) == {"total_s"}


def test_stability_scan_m2_violation_is_a_hypothesis_failure(tmp_path, capsys):
    # M2 bounds the reference trajectory's norm surrogate, an admissibility
    # hypothesis of the stability theorem: a report and exit 3, no traceback
    cfgfile = tmp_path / "small_m2.cfg"
    with open(cfg_path("stability_scan.cfg")) as fh:
        cfgfile.write_text(fh.read().replace("[inverse]\n",
                                             "[inverse]\nm2 = 1e-9\n"))
    out = tmp_path / "o"
    assert main(["stability-scan", "--config", str(cfgfile),
                 "--out", str(out)]) == 3
    results = json.load(open(out / "report.json"))["results"]
    assert results["status"] == "hypothesis-violation"
    assert results["failed"] == ["M2"]
    assert "exceeds M2=1e-09" in capsys.readouterr().err


def test_invert_m2_violation_is_a_hypothesis_failure(tmp_path, capsys):
    # recover_gamma checks M2 on its anchor solve, as stability-scan does on
    # its reference: a report and exit 3
    cfgfile = tmp_path / "small_m2.cfg"
    with open(cfg_path("invert_closed_loop.cfg")) as fh:
        cfgfile.write_text(fh.read().replace("[inverse]\n",
                                             "[inverse]\nm2 = 1e-9\n"))
    out = tmp_path / "o"
    assert main(["invert", "--config", str(cfgfile), "--out", str(out)]) == 3
    results = json.load(open(out / "report.json"))["results"]
    assert results["status"] == "hypothesis-violation"
    assert results["failed"] == ["M2"]
    assert "exceeds M2=1e-09" in capsys.readouterr().err


def test_invert_anchor_outside_m1_is_a_hypothesis_failure(tmp_path, capsys):
    # gamma_tilde = 1 lies outside the M1 ball: no iterate could be
    # projected into it, so the recovery stops before its first solve
    cfgfile = edited_config(tmp_path, "invert_closed_loop.cfg", "[inverse]\n",
                            "[inverse]\nm1 = 0.5\n")
    out = tmp_path / "o"
    assert main(["invert", "--config", cfgfile, "--out", str(out)]) == 3
    results = json.load(open(out / "report.json"))["results"]
    assert results["status"] == "hypothesis-violation"
    assert results["failed"] == ["M1"]
    assert capsys.readouterr().err == (
        "kslab invert: anchor |gamma_tilde|_inf = 1.000e+00 exceeds M1=0.5\n")
    assert not (out / "gamma_hat.csv").exists()


def test_invert_projects_iterates_into_the_m1_ball(tmp_path):
    # gamma_true reaches 1.005 > M1 = 1.003, so the projection holds the
    # iterates inside the ball and LM runs out of outer iterations
    cfgfile = edited_config(tmp_path, "invert_closed_loop.cfg", "[inverse]\n",
                            "[inverse]\nm1 = 1.003\n")
    out = tmp_path / "o"
    assert main(["invert", "--config", cfgfile, "--out", str(out)]) == 0
    _, rows = read_csv(out / "gamma_hat.csv")
    gamma_hat = np.array(rows, dtype=float)[:, 3]
    assert 1.0025 < np.abs(gamma_hat).max() <= 1.003
    results = json.load(open(out / "report.json"))["results"]
    assert results["max_outer_reached"] and not results["converged"]


def test_carleman_audit_inequality_failure_exits_3(tmp_path, capsys):
    # the weight hypotheses hold, but c_hat exceeds this cap on the ensemble
    cfgfile = edited_config(tmp_path, "carleman_default.cfg", "c_cap = 1e6",
                            "c_cap = 0.1")
    out = tmp_path / "o"
    assert main(["carleman-audit", "--config", cfgfile,
                 "--out", str(out)]) == 3
    results = json.load(open(out / "report.json"))["results"]
    assert results["status"] == "audit-failed"
    assert capsys.readouterr().err == (
        "kslab carleman-audit: empirical inequality failed on the ensemble\n")
    _, rows = read_csv(out / "audit.csv")
    assert all(r[6] == "0" for r in rows)


def test_picard_budget_exhausted_exits_2(tmp_path, capsys):
    cfgfile = edited_config(tmp_path, "simulate_manufactured.cfg", "[output]",
                            "[solver]\nmax_picard = 1\n\n[output]")
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfgfile, "--out", str(out)]) == 2
    assert "no convergence in 1 sweeps" in capsys.readouterr().err
    _, rows = read_csv(out / "picard.csv")
    assert len(rows) == 1
    assert json.load(open(out / "report.json"))["results"]["status"] \
        == "no-convergence"


@pytest.mark.parametrize("sigma, message", [
    ("0.003", "fixed-point update is not finite"),
    ("0.001", "fixed-point iterate overflowed"),
])
def test_picard_overflow_exits_2_quietly(tmp_path, capsys, sigma, message):
    # the manufactured data leave the small-data regime at small sigma and
    # the Picard iterates overflow; the overflow is the detected failure,
    # so no numpy warning may reach stderr beside kslab's line
    cfgfile = edited_config(tmp_path, "simulate_manufactured.cfg",
                            "sigma = 1\n", f"sigma = {sigma}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["simulate", "--config", cfgfile,
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == f"kslab simulate: {message}\n"


def test_stability_scan_cap_exceeded_says_so_on_stderr(tmp_path, capsys):
    # c_lower is about 0.086 on this scan, so c_cap = 1 fails every amplitude
    cfgfile = tmp_path / "small_cap.cfg"
    with open(cfg_path("stability_scan.cfg")) as fh:
        cfgfile.write_text(fh.read().replace("c_cap = 100", "c_cap = 1"))
    out = tmp_path / "o"
    assert main(["stability-scan", "--config", str(cfgfile),
                 "--out", str(out)]) == 3
    assert json.load(open(out / "report.json"))["results"]["status"] \
        == "cap-exceeded"
    assert capsys.readouterr().err == (
        "kslab stability-scan: lhs > c_cap * middle, c_cap=1, "
        "at s = 0.001, 0.002, 0.004\n")


@pytest.mark.parametrize("old, new, message", [
    ("nx = 32", "nx = 1", "nx must be >= 8"),
    ("[grid]\n", "[grid]\nnz = 4\n", "unknown key 'nz'"),
    ("[grid]\n", "", "malformed config file"),
    ("[coefficients]\nsigma = 1\ngamma = 1\n", "",
     "missing required section [coefficients]"),
    ("gamma = 1\n", "", "missing key 'gamma' in section [coefficients]"),
], ids=["grid-too-coarse", "unknown-key", "malformed", "missing-section",
        "missing-key"])
def test_failed_rerun_leaves_no_stale_report(tmp_path, capsys, old, new,
                                             message):
    # a config error writes no report, so an earlier run's "ok" must not
    # stay behind in the same output directory, whether the error is found
    # on reading the file or after
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg_path("simulate_zero.cfg"),
                 "--out", str(out)]) == 0
    assert (out / "report.json").is_file()
    cfgfile = tmp_path / "broken.cfg"
    with open(cfg_path("simulate_zero.cfg")) as fh:
        cfgfile.write_text(fh.read().replace(old, new))
    assert main(["simulate", "--config", str(cfgfile),
                 "--out", str(out)]) == 1
    assert not (out / "report.json").exists()
    assert message in capsys.readouterr().err


def test_main_builds_its_parser_once(tmp_path):
    cli._parser.cache_clear()
    for _ in range(2):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 1
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_stability_scan_solves_the_reference_once(tmp_path, monkeypatch):
    # one solve of the reference y, then one of each perturbed gamma_tilde
    solved = []
    solve = inverse.solve_ks

    def counted_solve(c, *args):
        solved.append(c.gamma.values.tobytes())
        return solve(c, *args)

    monkeypatch.setattr(inverse, "solve_ks", counted_solve)
    cfg = RunConfig.from_file(cfg_path("stability_scan.cfg"))
    amplitudes = cfg.inverse_block(cfg.grid())["amplitudes"]
    assert main(["stability-scan", "--config", cfg_path("stability_scan.cfg"),
                 "--out", str(tmp_path / "o")]) == 0
    assert len(solved) == len(set(solved)) == 1 + len(amplitudes)


def test_missing_config_file(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 1


@pytest.mark.parametrize("argv", [
    ["simulate"],
    ["nonsense", "--config", cfg_path("simulate_zero.cfg")],
    ["simulate", "--config", cfg_path("simulate_zero.cfg"), "--threads", "2"],
], ids=["missing-config", "unknown-command", "removed-threads-flag"])
def test_usage_errors_exit_config(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    assert "usage: kslab" in capsys.readouterr().err


def test_help_exits_ok(capsys):
    assert main(["--help"]) == 0
    assert "usage: kslab" in capsys.readouterr().out


SMALL_AUDIT = """
[grid]
nx = 64
nt = 128
T = 2.0

[coefficients]
sigma = 1
gamma = 0

[carleman]
T0 = 1.0
lambda = 2,8
ensemble = 4
seed = 5
"""


def test_carleman_audit_small_ensemble(tmp_path):
    cfgfile = tmp_path / "small_audit.cfg"
    cfgfile.write_text(SMALL_AUDIT)
    out = str(tmp_path / "o")
    assert main(["carleman-audit", "--config", str(cfgfile), "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "audit.csv"))
    assert header == ["lambda", "lhs", "rhs_interior", "rhs_boundary0",
                      "rhs_boundary1", "c_hat", "pass"]
    assert [float(r[0]) for r in rows] == [2.0, 8.0]
    assert all(r[6] == "1" for r in rows)
    header, rows = read_csv(os.path.join(out, "ledger.csv"))
    terms = {r[0] for r in rows}
    assert {"direct", "itemized_total", "mismatch_rel", "delta_hat"} <= terms
    payload = json.load(open(os.path.join(out, "report.json")))
    assert payload["results"]["lambda0"] == 2.0


def test_empty_lambda_list_is_config_error(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("""
[grid]
nx = 32
nt = 16
T = 1.0

[coefficients]
sigma = 1
gamma = 0

[carleman]
lambda =
""")
    assert main(["carleman-audit", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("key, value", [
    ("ensemble", "0"), ("modes", "0"), ("T0", "5.0"), ("eta", "1.5"),
    ("lambda", "2,nan"), ("lambda", "2,inf"), ("c_cap", "nan"),
    ("c_cap", "0"), ("seed", "-1")])
def test_bad_carleman_value_is_config_error(tmp_path, capsys, key, value):
    # T = 2: T0 must lie in (0, T) and eta in (0, T/2)
    carleman = {"lambda": "2", "ensemble": "2", key: value}
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("""
[grid]
nx = 16
nt = 32
T = 2.0

[coefficients]
sigma = 1
gamma = 0

[carleman]
""" + "".join(f"{k} = {v}\n" for k, v in carleman.items()))
    assert main(["carleman-audit", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "[carleman]" in err and key.lower() in err.lower()


@pytest.mark.parametrize("cmd, section, key, value", [
    ("simulate", "solver", "max_picard", "0"),
    ("simulate", "solver", "picard_tol", "-1"),
    ("simulate", "solver", "lin_tol", "nan"),
    ("simulate", "solver", "lin_tol", "-1"),
    ("simulate", "solver", "comp_tol", "nan"),
    ("simulate", "solver", "comp_tol", "-1"),
    ("invert", "inverse", "t0", "5.0"),
    ("stability-scan", "inverse", "t0", "0"),
    # inside (0, T), but nearest to the grid times 0 and T (dt = 1/16)
    ("invert", "inverse", "t0", "0.01"),
    ("invert", "inverse", "t0", "0.99"),
    ("stability-scan", "inverse", "t0", "0.03"),
    ("invert", "inverse", "noise", "-1"),
    ("invert", "inverse", "noise", "nan"),
    ("invert", "inverse", "modes", "-2"),
    ("stability-scan", "inverse", "c_cap", "nan"),
    ("stability-scan", "inverse", "c_cap", "0"),
    ("stability-scan", "inverse", "c_cap", "-5"),
    ("invert", "inverse", "m1", "nan"),
    ("invert", "inverse", "m2", "nan"),
    ("invert", "inverse", "r_floor", "nan"),
    ("invert", "inverse", "grad_tol", "nan"),
    ("invert", "inverse", "tikhonov_alpha", "nan"),
    ("invert", "inverse", "noise", "inf"),
    ("stability-scan", "inverse", "amplitudes", "1e-3,nan"),
    ("invert", "inverse", "seed", "-1")])
def test_bad_solver_or_inverse_value_is_config_error(tmp_path, capsys, cmd,
                                                      section, key, value):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"""
[grid]
nx = 32
nt = 16
T = 1.0

[coefficients]
sigma = 1
gamma = 1

[data]
y0 = 0
g = 0

[{section}]
{key} = {value}
""")
    assert main([cmd, "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert f"[{section}]" in err and key.lower() in err.lower()
    assert "unknown key" not in err


@pytest.mark.parametrize("cmd, section, key, value", [
    ("carleman-audit", "carleman", "m", "nan"),
    ("invert", "inverse", "fd_step", "0")])
def test_unknown_key_is_config_error(tmp_path, capsys, cmd, section, key,
                                     value):
    # keys that kslab no longer reads: a config that sets one is rejected,
    # whatever its value, not run as if the key had an effect
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"""
[grid]
nx = 32
nt = 16
T = 1.0

[coefficients]
sigma = 1
gamma = 1

[{section}]
{key} = {value}
""")
    assert main([cmd, "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"kslab: config error: unknown key '{key}' in section [{section}]\n")


def test_nan_r_floor_is_config_error_not_ok(tmp_path, capsys):
    # NaN compares false, so r_floor = nan once passed the inf-condition
    # check and turned this config's exit 4 into 0
    cfgfile = tmp_path / "nan_floor.cfg"
    with open(cfg_path("fail_infcond.cfg")) as fh:
        cfgfile.write_text(fh.read() + "r_floor = nan\n")    # in [inverse]
    assert main(["invert", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")]) == 1
    assert "config error: [inverse] invalid: r_floor" in capsys.readouterr().err


# the command that reads a section's keys; of [inverse], only
# stability-scan reads SCAN_KEYS
COMMAND_OF = {"grid": "simulate", "coefficients": "simulate",
              "data": "simulate", "solver": "simulate",
              "carleman": "carleman-audit", "inverse": "invert"}
SCAN_KEYS = ("perturbation", "amplitudes", "c_cap")


@pytest.mark.parametrize("section, key", [
    (s, k) for s, keys in _TABLE.items() for k in keys if s != "output"])
def test_every_key_is_parsed(tmp_path, capsys, section, key):
    # a value the key's parser rejects is a config error naming the key, so
    # no key is accepted and then ignored ([output] dir takes any string)
    raw = {"grid": {"nx": "16", "nt": "16", "t": "1.0"},
           "coefficients": {"sigma": "1", "gamma": "1"},
           "data": {"y0": "0", "g": "0"}, "solver": {},
           "carleman": {"lambda": "2", "ensemble": "2"}, "inverse": {}}
    numbers = _TABLE[section][key].kind == "number list"
    raw[section][key] = "1,abc" if numbers else "abc"
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("".join(
        f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
        for s, kv in raw.items()))
    cmd = COMMAND_OF[section]
    if section == "inverse" and key in SCAN_KEYS:
        cmd = "stability-scan"
    assert main([cmd, "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"[{section}] {key}" in err


def test_readme_key_table_matches_config_table():
    # README rows: | `[section]` | `key` | type | default | allowed |
    with open(os.path.join(CONFIG_DIR, "..", "README.md")) as fh:
        cells = [[c.strip(" `") for c in line.strip().strip("|").split("|")]
                 for line in fh if line.startswith("| `[")]
    rows = {(c[0][1:-1], c[1]): c[2:] for c in cells}
    assert rows.keys() == {(s, k) for s, keys in _TABLE.items() for k in keys}
    for (section, key), (kind, default, allowed) in rows.items():
        spec = _TABLE[section][key]
        assert kind == spec.kind
        if spec.default:
            assert default == spec.default
        if spec.bounds:
            assert allowed == spec.bounds


@pytest.mark.parametrize("name", sorted(
    n for n in os.listdir(CONFIG_DIR) if n.endswith(".cfg")))
def test_shipped_configs_load(name):
    cfg = RunConfig.from_file(cfg_path(name))
    assert cfg.grid().nx > 0


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"nonsense": {"a": "1"}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"grid": {"nx": "32", "bogus": "1"}})


def run_fresh(code, *args):
    """Run code in a new interpreter that imports kslab from this tree."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(kslab.__file__)))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.parametrize("cmd, name", [
    ("simulate", "simulate_zero.cfg"), ("carleman-audit", None),
    ("invert", "invert_closed_loop.cfg"),
    ("stability-scan", "stability_scan.cfg")])
def test_cli_commands_do_not_import_sympy(tmp_path, cmd, name):
    cfgfile = tmp_path / "small_audit.cfg"
    cfgfile.write_text(SMALL_AUDIT)
    config = str(cfgfile) if name is None else cfg_path(name)
    out = run_fresh("import sys\n"
                    "from kslab.cli import main\n"
                    "code = main(sys.argv[1:])\n"
                    "print(code, 'sympy' in sys.modules)",
                    cmd, "--config", config, "--out", str(tmp_path / "o"))
    assert out == ["0", "False"]


def test_carleman_import_does_not_import_sympy():
    assert run_fresh("import sys, kslab.carleman\n"
                     "print('sympy' in sys.modules)") == ["False"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="pins glibc's malloc thresholds")
def test_warm_carleman_audit_takes_no_page_faults(tmp_path):
    # with glibc's moving thresholds a warm run took 4.4k-6.6k faults
    out = run_fresh("import resource, sys\n"
                    "from kslab.cli import main\n"
                    "faults = []\n"
                    "for _ in range(3):\n"
                    "    before = resource.getrusage(resource.RUSAGE_SELF)\n"
                    "    assert main(sys.argv[1:]) == 0\n"
                    "    after = resource.getrusage(resource.RUSAGE_SELF)\n"
                    "    faults.append(after.ru_minflt - before.ru_minflt)\n"
                    "print(*faults[1:])",
                    "carleman-audit", "--config",
                    cfg_path("carleman_default.cfg"),
                    "--out", str(tmp_path / "o"))
    assert all(int(n) < 500 for n in out), out


@pytest.mark.parametrize("cmd, section, key, value", [
    ("simulate", "coefficients", "gamma", "sqrt(x-2)"),
    ("simulate", "coefficients", "sigma", "1/x"),
    ("simulate", "coefficients", "sigma", "x - 0.5"),
    ("simulate", "data", "y0", "1/x"),
    ("simulate", "data", "g", "1/t"),
    ("simulate", "data", "h1", "1/t"),
    ("simulate", "data", "h1", "1/0"),
    ("simulate", "data", "h2", "exp(1000)*0"),
    ("invert", "inverse", "gamma_tilde", "1/x"),
    ("stability-scan", "inverse", "perturbation", "1/x")])
def test_non_finite_expression_is_config_error(tmp_path, capsys, cmd,
                                               section, key, value):
    raw = {"grid": {"nx": "16", "nt": "16", "T": "1.0"},
           "coefficients": {"sigma": "1", "gamma": "1"},
           "data": {"y0": "0", "g": "0"}, "inverse": {}}
    raw[section][key] = value
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("".join(
        f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
        for s, kv in raw.items()))
    # a numpy warning raises, so it escapes main as a traceback would
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([cmd, "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"[{section}] {key}" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


def test_deeply_nested_expression_is_config_error(tmp_path, capsys):
    cfgfile = tmp_path / "deep.cfg"
    cfgfile.write_text("[grid]\nnx = 16\nnt = 16\nT = 1.0\n"
                       "[coefficients]\nsigma = 1\ngamma = " + "1+" * 2000
                       + "1\n[data]\ny0 = 0\ng = 0\n")
    code = main(["simulate", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "nested too deeply" in err
    assert "Traceback" not in err
