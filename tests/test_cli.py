"""Command line front end: config parsing, artifacts, exit codes."""

import numpy as np
import pytest

from deadcore.cli import main, load_config, config_hash
from deadcore import Grid, GridFunction, write_csv


def _write(path, text):
    path.write_text(text)
    return str(path)


BASE_SOLVE = """
[problem]
dim = 1
domain = 0,2
n = 79
gamma = 0
q = 0.5
operator = linear_trace
weight = sinsplit
weight_s = 0.3
weight_scale = 30

[control]
tolerance = 1e-6
init = subsolution
ball = 0.2,0.8
seed = 7

[output]
directory = out
"""


def test_solve_artifacts_and_determinism(tmp_path, monkeypatch):
    cfg = _write(tmp_path / "solve.ini", BASE_SOLVE)
    outputs = []
    for sub in ("run1", "run2"):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.chdir(d)
        assert main(["solve", "--config", cfg]) == 0
        sol = (d / "out" / "solution.csv").read_bytes()
        rpt = (d / "out" / "report.txt").read_text()
        assert b"# config_hash" in sol and b"# seed = 7" in sol
        assert "converged = True" in rpt
        outputs.append(sol)
    # identical config + seed: byte-identical artifacts
    assert outputs[0] == outputs[1]


def test_solve_validation_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path / "bad.ini",
                 BASE_SOLVE.replace("q = 0.5", "q = 1.5"))
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "q < gamma+1" in err


def test_ball_outside_domain_exit_2(tmp_path, monkeypatch, capsys):
    # the ball is checked during dispatch, not by the up-front validation
    cfg = _write(tmp_path / "ball.ini",
                 BASE_SOLVE.replace("ball = 0.2,0.8", "ball = 1.5,2.5"))
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--config", cfg]) == 2
    assert "not inside the domain" in capsys.readouterr().err


def test_missing_config_exit_2(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 2


def test_set_override(tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path / "solve.ini", BASE_SOLVE)
    monkeypatch.chdir(tmp_path)
    # override flips q into the invalid range: validation must still fire
    assert main(["solve", "--config", cfg, "--set", "problem.q=2.0"]) == 2
    assert "q < gamma+1" in capsys.readouterr().err
    # malformed --set
    assert main(["solve", "--config", cfg, "--set", "q=0.5"]) == 2


def test_config_hash_stability(tmp_path):
    cfg = _write(tmp_path / "a.ini", BASE_SOLVE)
    h1 = config_hash(load_config(cfg))
    h2 = config_hash(load_config(cfg))
    assert h1 == h2 and len(h1) == 16
    h3 = config_hash(load_config(cfg, overrides=("control.seed=8",)))
    assert h3 != h1


EIGEN_CFG = """
[problem]
dim = 1
domain = 0,%.17g
n = 401
gamma = 0
operator = linear_trace

[output]
directory = out
""" % np.pi


def test_eigen_summary_and_artifact(tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path / "eigen.ini", EIGEN_CFG)
    monkeypatch.chdir(tmp_path)
    assert main(["eigen", "--config", cfg]) == 0
    out = capsys.readouterr().out
    lam = float(out.split("lambda=")[1].split()[0])
    assert abs(lam - 1.0) <= 1e-3
    text = (tmp_path / "out" / "eigen.csv").read_text()
    assert "lambda_plus" in text


def test_classify_command(tmp_path, monkeypatch, capsys):
    g = Grid.interval(0.0, np.pi, 99)
    u = GridFunction.from_callable(g, np.sin)
    path = tmp_path / "u.csv"
    write_csv(u, path)
    cfg = _write(tmp_path / "cls.ini",
                 "[problem]\ninput = %s\n\n[output]\ndirectory = out\n" % path)
    monkeypatch.chdir(tmp_path)
    assert main(["classify", "--config", cfg]) == 0
    assert "verdict=positivity_cone" in capsys.readouterr().out


def test_sweep_validation(tmp_path, monkeypatch):
    cfg = _write(tmp_path / "sweep.ini", BASE_SOLVE + """
[sweep]
parameter = s
bracket = 1,1
""")
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", cfg]) == 2


def test_sweep_no_threshold_exit_3(tmp_path, monkeypatch):
    cfg = _write(tmp_path / "sweep.ini", BASE_SOLVE + """
[sweep]
parameter = s
bracket = 0,0.1
probes = 2
""")
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", cfg]) == 3
    text = (tmp_path / "out" / "report.txt").read_text()
    assert "status = no_threshold" in text


def test_oracle_check(tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path / "oc.ini", """
[problem]
gamma = 1
q = 0.8

[output]
directory = out
""")
    monkeypatch.chdir(tmp_path)
    assert main(["oracle-check", "--config", cfg]) == 0
    assert "ok=True" in capsys.readouterr().out
    rows = (tmp_path / "out" / "oracle.csv").read_text().splitlines()
    assert rows[2] == "h,residual_sup"
