"""Command line front end: config parsing, artifacts, exit codes."""

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from deadcore.cli import main, load_config, config_hash, _build_operator
from deadcore import (Grid, GridFunction, IterationControl, OperatorSpec,
                      ProblemSpec, WeightField, estimate_threshold,
                      example_instance, solve, write_csv)


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
    assert capsys.readouterr().err == ("error: ball 1.5,2.5 not inside the "
                                       "domain\n")


@pytest.mark.parametrize("ball, message", [
    ("0.2,0.5,0.8", "ball 0.2,0.5,0.8: a 1-D ball is 2 finite numbers, "
                    "lo,hi per axis"),
    ("0.2,nan", "ball 0.2,nan: a 1-D ball is 2 finite numbers, lo,hi per axis"),
    ("0.8,0.2", "ball 0.8,0.2: axis 0 needs lo < hi"),
])
def test_malformed_ball_exit_2(tmp_path, monkeypatch, capsys, ball, message):
    # the message names the ball in plain floats, as the config spells it
    cfg = _write(tmp_path / "ball.ini",
                 BASE_SOLVE.replace("ball = 0.2,0.8", "ball = " + ball))
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--config", cfg]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("command", ["solve", "eigen"])
@pytest.mark.parametrize("gamma", ["nan", "inf", "-1"])
def test_gamma_not_a_finite_number_exit_2(tmp_path, monkeypatch, capsys,
                                          command, gamma):
    # one check, in Scheme, refuses gamma before any step: inf used to run
    # eigen to a non-finite residual (exit 3) and nan to fail as a grid
    # function there, and to be blamed on q by solve
    cfg = _write(tmp_path / "gamma.ini",
                 BASE_SOLVE.replace("gamma = 0", "gamma = " + gamma))
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == \
        "error: gamma must be >= 0 and finite, got %s\n" % gamma
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("domain", ["0,inf", "-inf,1"])
def test_infinite_domain_exit_2(tmp_path, monkeypatch, capsys, domain):
    # the grid refuses it: it used to be blamed on the weight or the ball,
    # after numpy warnings from the NaN node coordinates
    cfg = _write(tmp_path / "domain.ini", BASE_SOLVE)
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", cfg,
                     "--set", "problem.domain=" + domain]) == 2
    lo, hi = (float(t) for t in domain.split(","))
    assert capsys.readouterr().err == \
        "error: grid axis 0 bounds (%r, %r) are not finite\n" % (lo, hi)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("operator, key, message", [
    ("pucci_plus", "problem.lam_upper",
     "require 0 < lam <= Lam < inf, got lam = 1.0, Lam = inf"),
    ("p_laplacian", "problem.p", "p-Laplacian requires a finite p, got p = inf"),
])
def test_infinite_operator_parameter_exit_2(tmp_path, monkeypatch, capsys,
                                            operator, key, message):
    # OperatorSpec refuses it: it used to warn in PolicyMatrix.set_policy
    # and exit 3 with a non-finite residual at step 1
    cfg = _write(tmp_path / "op.ini", BASE_SOLVE)
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", cfg, "--set",
                     "problem.operator=" + operator, "--set", key + "=inf"]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, sets, message", [
    pytest.param("solve", ["problem.weight_scale=1e200"], "the subsolution's "
                 "eps bound overflows a float: the weight is too large "
                 "(max a = 1e+200 on the ball)", id="eps-1e200"),
    pytest.param("solve", ["problem.weight_scale=1e308"], "the subsolution's "
                 "eps bound overflows a float: the weight is too large "
                 "(max a = 1e+308 on the ball)", id="eps-1e308"),
    pytest.param("sweep", ["sweep.bracket=0,1e300"], "the supersolution "
                 "k * psi overflows a float: the weight is too large "
                 "(sup |a| = 1.2e+300)", id="k-psi-1e300"),
    pytest.param("solve", ["problem.weight_scale=1e5", "problem.q=0.99",
                           "control.init=supersolution"], "the supersolution "
                 "k * psi overflows a float: the weight is too large "
                 "(sup |a| = 100000)", id="k-power"),
    pytest.param("sweep", ["sweep.bracket=0,1e308"], "the residual overflows "
                 "a float (sup |a| = 6e+307, sup u = 29.7455)", id="s-1e308"),
    pytest.param("solve", ["problem.weight=example", "problem.weight_s=1e308"],
                 "the weight a+ - s * a- overflows a float at s = 1e+308 "
                 "(sup a- = 6)", id="weight-s-1e308"),
    pytest.param("solve", ["problem.weight_scale=1e155"], "the residual "
                 "overflows a float (sup |a| = 1e+155, sup u = 1.30759e+307)",
                 id="subsolution-residual-1e155")])
def test_overflowing_weight_exit_2(tmp_path, monkeypatch, capsys, command,
                                   sets, message):
    # a finite weight whose bracket ends overflow a float is refused naming
    # the overflowing end: the eps bound's power used to warn and blame a
    # grid function for being non-finite, and k's power to exit 4.  A sweep
    # to s = 1e308 first meets a probe whose weight is finite but whose
    # start's residual a u^q is not (it used to warn and exit 2 blaming a
    # grid function, or exit 4 under warnings as errors), and a weight
    # whose a+ - s * a- overflows is refused naming s.  A finite eps bound
    # whose first candidate's residual overflows is refused by residual's
    # refusal too (it used to warn and exit 2 blaming a grid function; a
    # first rung of the eps ladder taken as it came ran the ladder out)
    cfg = _write(tmp_path / "big.ini", BASE_SOLVE + "\n[sweep]\nparameter = s\n")
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg]
                    + [a for kv in sets for a in ("--set", kv)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sets, message", [
    pytest.param(["problem.operator=p_laplacian", "problem.p=1e308"],
                 "p_laplacian: the stencil weight 1e+308 over |step h|^2 "
                 "overflows a float", id="p-1e308"),
    pytest.param(["problem.lam=1e-320"], "linear_trace: a stencil weight of "
                 "9.99989e-321 is not a positive normal float", id="lam-1e-320")])
def test_extreme_ellipticity_constant_exit_2(tmp_path, monkeypatch, capsys,
                                             sets, message):
    # Scheme refuses a member weight that is subnormal or whose coefficient
    # w / |step h|^2 overflows, naming the operator: both used to warn and
    # exit 3 (4 under warnings as errors)
    cfg = _write(tmp_path / "ell.ini", BASE_SOLVE)
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", cfg]
                    + [a for kv in sets for a in ("--set", kv)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key, value", [
    ("solve", "problem.domain", "0,2x"),
    ("solve", "control.ball", "0.2,x"),
    ("sweep", "sweep.bracket", "0;one")])
def test_list_with_a_word_names_its_key(tmp_path, monkeypatch, capsys,
                                        command, key, value):
    # a word in a number list used to print only float()'s complaint
    cfg = _write(tmp_path / "list.ini", BASE_SOLVE + "\n[sweep]\nparameter = s\n")
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", cfg, "--set", "%s=%s" % (key, value)]) == 2
    assert capsys.readouterr().err == \
        "error: %s must be a list of numbers, got %s\n" % (key, value)


@pytest.mark.parametrize("command, key, extra", [
    pytest.param(command, key, extra, id=key) for command, key, extra in (
        ("eigen", "problem.gamma", ()),
        ("oracle-check", "problem.q", ()),
        ("solve", "problem.lam", ()),
        ("eigen", "problem.lam_upper", ()),
        ("solve", "problem.p", ("problem.operator=p_laplacian",)),
        ("sweep", "problem.weight_scale", ()),
        ("solve", "problem.weight_value", ("problem.weight=constant",)),
        ("solve", "problem.weight_s", ()),
        ("eigen", "control.tolerance", ()),
        ("eigen", "control.eigen_residual", ()))])
def test_number_with_a_word_names_its_key(tmp_path, monkeypatch, capsys,
                                          command, key, extra):
    # a word in a float key used to print only float()'s complaint
    cfg = _write(tmp_path / "number.ini", BASE_SOLVE + "\n[sweep]\nparameter = s\n")
    monkeypatch.chdir(tmp_path)
    sets = [arg for item in extra + (key + "=abc",) for arg in ("--set", item)]
    assert main([command, "--config", cfg] + sets) == 2
    assert capsys.readouterr().err == "error: %s must be a number, got abc\n" % key
    assert not (tmp_path / "out").exists()


def _cli_solution(tmp_path, monkeypatch, sets):
    """The data rows of solution.csv from deadcore solve on BASE_SOLVE at
    n = 59 with the --set items `sets`."""
    cfg = _write(tmp_path / "solve.ini", BASE_SOLVE.replace("n = 79", "n = 59"))
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--config", cfg]
                + [arg for item in sets for arg in ("--set", item)]) == 0
    text = (tmp_path / "out" / "solution.csv").read_text()
    return [line for line in text.splitlines() if not line.startswith("#")]


def _rows(tmp_path, problem, ball):
    """The data rows write_csv gives solve's answer on a hand-built problem,
    from the subsolution at BASE_SOLVE's tolerance."""
    rep = solve(problem, init="subsolution", ball=ball,
                ctl=IterationControl(tolerance=1e-6))
    write_csv(rep.solution, tmp_path / "want.csv")
    return (tmp_path / "want.csv").read_text().splitlines()


@pytest.mark.parametrize("name", ["pucci_plus", "pucci_minus", "hjb_inf", "hjb_sup"])
def test_solve_operator_matches_hand_built(tmp_path, monkeypatch, name):
    # every branch of _build_operator builds the problem solve is given
    g = Grid.interval(0.0, 2.0, 59)
    if name.startswith("pucci"):
        spec = getattr(OperatorSpec, name)(1.0, 2.0)
    else:
        spec = getattr(OperatorSpec, name)((np.eye(1), 2.0 * np.eye(1)), 1.0, 2.0)
    p = ProblemSpec(g, spec, 0.0, 0.5, WeightField.sinsplit(g, 0.3).scaled(30.0))
    got = _cli_solution(tmp_path, monkeypatch,
                        ["problem.operator=" + name, "problem.lam_upper=2"])
    assert got == _rows(tmp_path, p, (0.2, 0.8))


@pytest.mark.parametrize("kind", ["constant", "example", "tabulated"])
def test_solve_weight_matches_hand_built(tmp_path, monkeypatch, kind):
    # every branch of _build_weight samples the weight solve is given; the
    # tabulated weight is the sinsplit samples written out with write_csv
    spec, gamma, q, ball = OperatorSpec.linear_trace(np.eye(1)), 0.0, 0.5, (0.2, 0.8)
    sets = ["problem.weight=" + kind]
    if kind == "constant":
        g = Grid.interval(0.0, 2.0, 59)
        w = WeightField.constant(g, 2.0).scaled(30.0)
        sets.append("problem.weight_value=2")
    elif kind == "example":
        # weight_s = 0.3 scales the negative part, weight_scale = 30 the whole
        gamma, q, ball = 1.0, 0.8, (1.15, 1.95)
        inst = example_instance(gamma, q)
        g = Grid.interval(*inst.domain, 59)
        w = inst.weight_on(g).with_negative_scale(0.3).scaled(30.0)
        sets += ["problem.gamma=1", "problem.q=0.8", "control.ball=1.15,1.95",
                 "problem.domain=%r,%r" % inst.domain]
    else:
        g = Grid.interval(0.0, 2.0, 59)
        write_csv(WeightField.sinsplit(g, 0.3), tmp_path / "weight.csv")
        w = WeightField.sinsplit(g, 0.3).scaled(30.0)
        sets.append("problem.weight_path=%s" % (tmp_path / "weight.csv"))
    got = _cli_solution(tmp_path, monkeypatch, sets)
    assert got == _rows(tmp_path, ProblemSpec(g, spec, gamma, q, w), ball)


def test_sweep_in_q_matches_estimate_threshold(tmp_path, monkeypatch, capsys):
    # the q-family of cmd_sweep: every probe is the base problem at its q.
    # The bracket stays below q = 0.9, where a probe stops unconverged
    cfg = _write(tmp_path / "sweep.ini", BASE_SOLVE.replace("n = 79", "n = 59")
                 + "\n[sweep]\nparameter = q\nbracket = 0.2,0.8\nprobes = 4\n"
                 "bisect_steps = 2\n")
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", cfg, "--set", "problem.weight_s=1"]) == 0
    g = Grid.interval(0.0, 2.0, 59)
    spec, w = OperatorSpec.linear_trace(np.eye(1)), WeightField.sinsplit(g, 1.0).scaled(30.0)
    rep = estimate_threshold(lambda q: ProblemSpec(g, spec, 0.0, q, w), "q",
                             (0.2, 0.8), (0.2, 0.8), IterationControl(tolerance=1e-6),
                             probes=4, bisect_steps=2)
    assert rep.status == "ok" and not rep.anomalies
    text = (tmp_path / "out" / "report.txt").read_text()
    assert "estimate = %.17g\n" % rep.estimate in text
    assert "estimate=%.12g " % rep.estimate in capsys.readouterr().out


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


def test_set_strips_section_and_option(tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path / "solve.ini", BASE_SOLVE)
    monkeypatch.chdir(tmp_path)
    # spaces around the section name: an unknown section stays a validation
    # error, a known one is overridden in place
    assert main(["solve", "--config", cfg, "--set", " foo.q=1"]) == 2
    assert "unknown config section [foo]" in capsys.readouterr().err
    cp = load_config(cfg, overrides=(" problem . q = 2",))
    assert cp.sections() == ["problem", "control", "output"]
    assert cp.get("problem", "q") == "2"
    assert main(["solve", "--config", cfg, "--set", " problem.q=2.0"]) == 2
    assert "q < gamma+1" in capsys.readouterr().err


def test_ellipticity_bounds_keys(tmp_path, monkeypatch, capsys):
    # option names are case-insensitive, so the upper bound is read from
    # lam_upper only: "Lam" is the lower bound "lam"
    def config(lines):
        return _write(tmp_path / "op.ini", BASE_SOLVE.replace(
            "operator = linear_trace", "operator = linear_trace\n" + lines))

    def bounds(lines):
        op = _build_operator(load_config(config(lines)))
        return op.lam, op.Lam

    assert bounds("lam = 0.5") == (0.5, 1.0)
    assert bounds("lam = 0.5\nlam_upper = 2") == (0.5, 2.0)
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--config", config("Lam = 2")]) == 2
    assert "lam <= Lam" in capsys.readouterr().err


def test_dim_outside_1_2_exit_2(tmp_path, monkeypatch, capsys):
    # a valid 2-D problem but for dim, which used to run as dim = 2
    cfg = _write(tmp_path / "dim.ini", BASE_SOLVE.replace(
        "dim = 1\ndomain = 0,2\nn = 79", "dim = 3\ndomain = 0,2;0,1\nn = 15,7")
        .replace("linear_trace", "pucci_plus")
        .replace("ball = 0.2,0.8", "ball = 0.2,0.8;0.2,0.8"))
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--config", cfg]) == 2
    assert "problem.dim must be 1 or 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_surplus_grid_sizes_exit_2(tmp_path, monkeypatch, capsys):
    # n = 39,7 with dim = 1 used to run n = 39
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path / "n.ini", BASE_SOLVE.replace("n = 79", "n = 39,7"))
    assert main(["solve", "--config", cfg]) == 2
    assert "problem.n has 2 values for dim = 1" in capsys.readouterr().err
    cfg = _write(tmp_path / "n2.ini", BASE_SOLVE.replace(
        "dim = 1\ndomain = 0,2\nn = 79", "dim = 2\ndomain = 0,2;0,1\nn = 15,7,3"))
    assert main(["solve", "--config", cfg]) == 2
    assert "problem.n has 3 values for dim = 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_config_keys_exit_2(tmp_path, monkeypatch, capsys):
    # a misspelt or removed key used to run with the default and exit 0
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path / "typo.ini",
                 BASE_SOLVE.replace("seed = 7", "seed = 7\nmethd = explicit"))
    assert main(["solve", "--config", cfg]) == 2
    assert "unknown config key control.methd" in capsys.readouterr().err
    cfg = _write(tmp_path / "solve.ini", BASE_SOLVE)
    for override, named in (("control.method=explicit", "control.method"),
                            ("control.safety=5", "control.safety"),
                            ("solver.tolerance=1", "section [solver]")):
        assert main(["solve", "--config", cfg, "--set", override]) == 2
        assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


INPUT_KEYS = {
    "weight_path": ("solve", "weight = sinsplit",
                    "weight = tabulated\nweight_path = %s", "problem.weight_path"),
    "init_path": ("solve", "init = subsolution", "init = given\ninit_path = %s",
                  "control.init_path"),
    "input": ("classify", "[problem]", "[problem]\ninput = %s", "problem.input"),
}
# file contents: None leaves the file missing; an empty or header-only CSV
# is as unreadable as a missing one
INPUT_FILES = {"": None, "-empty": "", "-header_only": "# seed = 7\nx,value\n"}


@pytest.mark.parametrize("command, old, new, key, content", [
    pytest.param(*INPUT_KEYS[name], content, id=name + shape)
    for shape, content in INPUT_FILES.items() for name in INPUT_KEYS])
def test_missing_input_file_exit_2(tmp_path, monkeypatch, capsys,
                                   command, old, new, key, content):
    # a config-named input that cannot be read is a validation error, not a
    # traceback (weight_path) or an internal error (init_path, input)
    missing = tmp_path / "missing.csv"
    if content is not None:
        missing.write_text(content)
    cfg = _write(tmp_path / "in.ini", BASE_SOLVE.replace(old, new % missing))
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert key in err and str(missing) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "eigen", "sweep", "oracle-check"])
def test_unusable_output_directory_exit_2(tmp_path, monkeypatch, capsys, command):
    # a directory below a file cannot be created: a validation error that
    # names output.directory, not an internal error
    (tmp_path / "afile").write_text("")
    target = tmp_path / "afile" / "sub"
    extra = "\n[sweep]\nparameter = s\nbracket = 0,2\nprobes = 2\nbisect_steps = 0\n"
    cfg = _write(tmp_path / "out.ini", BASE_SOLVE + extra)
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", cfg, "--set",
                 "output.directory=%s" % target]) == 2
    assert capsys.readouterr().err.endswith(
        "error: output.directory: cannot create %r (Not a directory)\n" % str(target))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, extra", [
    ("solve", ""),
    ("sweep", "\n[control]\nball = 0.2,0.8\n\n[sweep]\nparameter = s\n"
              "bracket = 0,2\n"),
], ids=["solve", "sweep"])
def test_missing_problem_section_exit_2(tmp_path, monkeypatch, capsys,
                                        command, extra):
    cfg = _write(tmp_path / "noproblem.ini", "[output]\ndirectory = out\n" + extra)
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", cfg]) == 2
    assert "[problem] section" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_benchmark_sweep_config_is_accepted(tmp_path):
    # the sweep_s workload writes this config; every key must stay known
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cfg = _write(tmp_path / "sweep.ini",
                 workloads.SWEEP_CONFIG % (0.5, 2.5, tmp_path / "out"))
    assert load_config(cfg).getint("sweep", "probes") == 8


def test_2d_p_laplacian_exit_2(tmp_path, monkeypatch, capsys):
    # the solvers refuse the 2-D p-Laplacian at p != 2 before any step
    cfg = _write(tmp_path / "plap.ini", BASE_SOLVE.replace(
        "dim = 1\ndomain = 0,2\nn = 79", "dim = 2\ndomain = 0,2;0,1\nn = 19,9")
        .replace("linear_trace", "p_laplacian\np = 3")
        .replace("ball = 0.2,0.8", "ball = 0.2,0.8;0.2,0.8")
        + "\n[sweep]\nparameter = s\nbracket = 0,2\n")
    monkeypatch.chdir(tmp_path)
    for command in ("solve", "eigen", "sweep"):
        assert main([command, "--config", cfg]) == 2
        assert "p_laplacian has no monotone 2-D scheme" \
            in capsys.readouterr().err


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


@pytest.mark.parametrize("overrides", [
    ("problem.domain=0,1", "problem.n=49"),
    ("problem.dim=2", "problem.domain=0,2;0,1", "problem.n=39,19",
     "problem.operator=pucci_minus", "problem.lam_upper=2")], ids=["1d", "2d"])
def test_eigen_converges_at_positive_gamma(tmp_path, monkeypatch, capsys,
                                           overrides):
    # the default eigen_residual of 1e-6 is met at gamma > 0: it used to
    # stall at an O(h) floor, run 200 steps and exit 3
    cfg = _write(tmp_path / "eigen.ini", EIGEN_CFG.replace("gamma = 0", "gamma = 1"))
    monkeypatch.chdir(tmp_path)
    args = ["eigen", "--config", cfg]
    for item in overrides:
        args += ["--set", item]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert float(out.split("residual=")[1].split()[0]) <= 1e-6
    assert int(out.split("iterations=")[1]) < 200
    assert "lambda_plus" in (tmp_path / "out" / "eigen.csv").read_text()


def test_eigen_tolerances_checked_before_any_step(tmp_path, monkeypatch, capsys):
    # a tolerance that no step can meet is a validation error, as it is
    # for solve, not 200 inverse-power steps and exit 3
    cfg = _write(tmp_path / "eigen.ini", EIGEN_CFG.replace("n = 401", "n = 39"))
    monkeypatch.chdir(tmp_path)
    for override, name in (("control.tolerance=-1", "tol_lambda"),
                           ("control.tolerance=0", "tol_lambda"),
                           ("control.eigen_residual=nan", "tol_residual")):
        assert main(["eigen", "--config", cfg, "--set", override]) == 2
        assert "%s must be positive" % name in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_steps_checked_before_any_step(tmp_path, monkeypatch, capsys, value):
    # a step budget below 1 is a validation error naming the key, not a
    # solve of no steps whose untouched bracket end exits 3
    from deadcore import cli
    calls = []
    monkeypatch.setattr(cli, "solve", lambda *a, **k: calls.append(a))
    cfg = _write(tmp_path / "solve.ini", BASE_SOLVE.replace(
        "n = 79", "n = 99").replace("weight_s = 0.3", "weight_s = 2.5"))
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--config", cfg, "--set",
                 "control.max_steps=" + value]) == 2
    assert "max_steps must be an integer >= 1" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out").exists()


# a sweep that finds its threshold in a few dozen small solves
SWEEP = """
[sweep]
parameter = s
bracket = 0,10
probes = 8
bisect_steps = 4
"""


def _count_run(tmp_path, key, value):
    """Write BASE_SOLVE (and SWEEP for a sweep.* key) and the argv of the
    command that reads key, with key=value set."""
    command = "sweep" if key.startswith("sweep.") else "solve"
    cfg = _write(tmp_path / "run.ini",
                 BASE_SOLVE + (SWEEP if command == "sweep" else ""))
    return [command, "--config", cfg, "--set", "%s=%s" % (key, value)]


@pytest.mark.parametrize("key, value", [
    *(pytest.param("control.max_steps", v, id=v)
      for v in ("2.7", "0.5", "1e-3", "inf", "nan")),
    pytest.param("problem.n", "99.5", id="problem.n-99.5"),
    pytest.param("problem.dim", "1.5", id="problem.dim-1.5"),
    pytest.param("control.seed", "1.5", id="control.seed-1.5"),
    pytest.param("sweep.probes", "2.5", id="sweep.probes-2.5"),
    pytest.param("sweep.bisect_steps", "eight", id="sweep.bisect_steps-eight")])
def test_max_steps_refuses_a_fraction(tmp_path, monkeypatch, capsys, key,
                                      value):
    # a count that is not an integer is refused before any work, naming
    # the key: not truncated (max_steps 2.7 ran 2 steps), and not left to
    # int(), whose message names no key
    from deadcore import cli
    calls = []
    monkeypatch.setattr(cli, "solve", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cli, "estimate_threshold",
                        lambda *a, **k: calls.append(a))
    monkeypatch.chdir(tmp_path)
    assert main(_count_run(tmp_path, key, value)) == 2
    assert ("%s must be an integer, got %s" % (key, value)
            in capsys.readouterr().err)
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, count, code", [
    pytest.param("control.max_steps", "1e6", 1_000_000, 0, id="1e6-1000000-0"),
    pytest.param("control.max_steps", "40.0", 40, 0, id="40.0-40-0"),
    pytest.param("control.max_steps", "7", 7, 3, id="7-7-3"),
    pytest.param("problem.n", "79.0", 79, 0, id="problem.n-79.0"),
    pytest.param("problem.dim", "1e0", 1, 0, id="problem.dim-1e0"),
    pytest.param("control.seed", "7.0", 7, 0, id="control.seed-7.0"),
    pytest.param("sweep.probes", "1e1", 10, 0, id="sweep.probes-1e1"),
    pytest.param("sweep.bisect_steps", "4.0", 4, 0,
                 id="sweep.bisect_steps-4.0")])
def test_max_steps_accepts_integral_spellings(tmp_path, monkeypatch, key,
                                              value, count, code):
    # integral spellings of a count are read as that count
    from deadcore import cli
    read = {}
    real_solve, real_sweep = cli.solve, cli.estimate_threshold

    def solving(p, **kwargs):
        read.update({"control.max_steps": kwargs["ctl"].max_steps,
                     "problem.n": p.grid.n[0], "problem.dim": p.grid.dim})
        return real_solve(p, **kwargs)

    def sweeping(*args, **kwargs):
        read.update({"sweep.probes": kwargs["probes"],
                     "sweep.bisect_steps": kwargs["bisect_steps"]})
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(cli, "solve", solving)
    monkeypatch.setattr(cli, "estimate_threshold", sweeping)
    monkeypatch.chdir(tmp_path)
    assert main(_count_run(tmp_path, key, value)) == code
    report = (tmp_path / "out" / "report.txt").read_text()
    read["control.seed"] = int(report.split("# seed = ")[1].split()[0])
    assert read[key] == count and isinstance(read[key], int)


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


def test_solve_init_file_boundary_checked(tmp_path, monkeypatch, capsys):
    # an init_path file that is nonzero on the boundary is refused with
    # solve()'s message (it used to be zeroed without a word); one that
    # is 0 there solves
    g = Grid.interval(0.0, 2.0, 79)
    for name, dirichlet, code in (("edge", False, 2), ("zero", True, 0)):
        path = tmp_path / (name + ".csv")
        write_csv(GridFunction(g, np.ones(g.shape), dirichlet=dirichlet), path)
        d = tmp_path / name
        d.mkdir()
        monkeypatch.chdir(d)
        cfg = _write(d / "solve.ini", BASE_SOLVE.replace(
            "init = subsolution", "init = given\ninit_path = %s" % path))
        assert main(["solve", "--config", cfg]) == code
        assert (d / "out").exists() == (code == 0)
    assert "initialization must be 0 on the boundary" in capsys.readouterr().err


@pytest.mark.parametrize("name", list(INPUT_KEYS))
def test_input_file_off_the_lattice_exit_2(tmp_path, monkeypatch, capsys, name):
    # weight_path and init_path files sampled on (0, 3) with the problem's
    # node count, and a classify input in y-outer row order, used to be
    # read by position and exit 0
    command, old, new, key = INPUT_KEYS[name]
    path = tmp_path / "in.csv"
    if name == "input":
        X, Y = Grid.rectangle(0.0, 1.0, 0.0, 2.0, 3, 4).coords()
        u = np.sin(np.pi * X) * np.sin(np.pi * Y / 2.0)
        path.write_text("x,y,value\n" + "".join(
            "%.17g,%.17g,%.17g\n" % t for t in zip(X.T.ravel(), Y.T.ravel(), u.T.ravel())))
    else:
        write_csv(GridFunction.from_callable(Grid.interval(0.0, 3.0, 79),
                                             lambda x: 1.0 + x), path)
    cfg = _write(tmp_path / "in.ini", BASE_SOLVE.replace(old, new % path))
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert key in err and str(path) in err
    assert not (tmp_path / "out").exists()


def test_sweep_validation(tmp_path, monkeypatch):
    cfg = _write(tmp_path / "sweep.ini", BASE_SOLVE + """
[sweep]
parameter = s
bracket = 1,1
""")
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", cfg]) == 2


def test_sweep_negative_bisect_steps_exit_2(tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path / "sweep.ini", BASE_SOLVE + """
[sweep]
parameter = s
bracket = 0,2
bisect_steps = -1
""")
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", cfg]) == 2
    assert "bisect_steps" in capsys.readouterr().err


@pytest.mark.parametrize("bracket", ["0.2,1.2", "0,0.5", "-0.5,0.5"])
def test_sweep_q_bracket_checked_before_any_probe(tmp_path, monkeypatch, capsys,
                                                  bracket):
    # at gamma = 0 every probe needs 0 < q < 1: refuse the bracket up front
    from deadcore import analysis
    calls = []
    monkeypatch.setattr(analysis, "solve", lambda *a, **k: calls.append(a))
    cfg = _write(tmp_path / "sweep.ini", BASE_SOLVE + """
[sweep]
parameter = q
bracket = %s
""" % bracket)
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", cfg]) == 2
    assert "0 < lo and hi < gamma+1" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bracket", ["0,inf", "-inf,1"])
def test_sweep_infinite_bracket_exit_2(tmp_path, monkeypatch, capsys, bracket):
    # estimate_threshold refuses it before any probe: np.linspace used to
    # warn, and the probes to blame the weight for being non-finite
    from deadcore import analysis
    calls = []
    monkeypatch.setattr(analysis, "solve", lambda *a, **k: calls.append(a))
    cfg = _write(tmp_path / "sweep.ini", BASE_SOLVE + """
[sweep]
parameter = s
""")
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--config", cfg,
                     "--set", "sweep.bracket=" + bracket]) == 2
    assert capsys.readouterr().err == \
        "error: bracket %s must be finite with lo < hi\n" % bracket
    assert calls == []
    assert not (tmp_path / "out").exists()


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
