import json
import os

import numpy as np
import pytest

from kslab.cli import main
from kslab.config import RunConfig
from kslab.errors import ConfigError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def cfg_path(name):
    return os.path.join(CONFIG_DIR, name)


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
    _, picard = read_csv(os.path.join(out, "picard.csv"))
    assert len(picard) == 1
    _, traces = read_csv(os.path.join(out, "traces.csv"))
    assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in traces)


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


def test_carleman_audit_small_ensemble(tmp_path):
    cfgfile = tmp_path / "small_audit.cfg"
    cfgfile.write_text("""
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
""")
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
    ("ensemble", "0"), ("modes", "0"), ("T0", "5.0"), ("eta", "1.5")])
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
    assert "config error" in capsys.readouterr().err


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
