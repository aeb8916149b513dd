"""Refusals, and one verdict, that the rest of the suite does not reach.

Each library row names its exception and whole message; each command
line row its exit code and stderr, and that a refusal (exit 2) writes no
artifact.
"""

import re

import numpy as np
import pytest

from deadcore import (Grid, GridFunction, OperatorSpec, ProblemSpec,
                      WeightField, ball_eigenpair, barrier_check, classify,
                      pucci, read_csv, solve_rhs, to_w, w_residual)
from deadcore.cli import main
from deadcore.grids import Scheme
from test_cli import BASE_SOLVE, EIGEN_CFG

SPEC1 = OperatorSpec.linear_trace(np.eye(1))
GRID = Grid.interval(0.0, 2.0, 79)


def _problem(weight=None):
    if weight is None:
        weight = WeightField.sinsplit(GRID, 0.3).scaled(30.0)
    return ProblemSpec(GRID, SPEC1, 0.0, 0.5, weight)


def _sine():
    return GridFunction(GRID, np.sin(np.pi * GRID.axis(0) / 2.0))


def _barrier_theta_at_the_ratio(tmp_path):
    # a0 = 1e4 > lam+, and theta = a0 / lam+ leaves no room below it
    p = _problem(WeightField.constant(GRID, 1e4))
    pair = ball_eigenpair(p, (0.2, 0.8))
    barrier_check(_sine(), (0.2, 0.8), p, 1e4 / pair.lambda_plus)


def _nan_right_hand_side(tmp_path):
    f = GridFunction(GRID, -np.ones(GRID.shape), dirichlet=False)
    f.values[3] = np.nan   # after construction, which checked it
    solve_rhs(_problem().scheme, f)


def _csv_with_another_header(tmp_path):
    (tmp_path / "bad.csv").write_text("t,value\n" + "".join(
        "%r,0\n" % x for x in np.linspace(0.0, 1.0, 7)))
    read_csv(tmp_path / "bad.csv")


def _cli(command, text, *overrides):
    def run(tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        args = [command, "--config", str(cfg)]
        for item in overrides:
            args += ["--set", item]
        return main(args)
    return run


ROWS = [
    ("to_w-qbar", lambda t: to_w(_sine(), 0.0, 1.5), ValueError,
     "transform needs 0 < q/(1+gamma) < 1"),
    ("w_residual-nonpositive",
     lambda t: w_residual(GridFunction(GRID, np.zeros(GRID.shape)), _problem()),
     ValueError, "w-residual needs w > 0 on the interior"),
    ("barrier-theta", _barrier_theta_at_the_ratio, ValueError,
     "theta must satisfy a0/lam+ - theta > 1"),
    ("solve_rhs-nan", _nan_right_hand_side, ValueError,
     "right-hand side must be finite"),
    ("grid-3d", lambda t: Grid(((0.0, 1.0),) * 3, (5, 5, 5)), ValueError,
     "grid must be 1-D or 2-D"),
    ("scheme-coefficient-shape",
     lambda t: Scheme(GRID, OperatorSpec.linear_trace(np.eye(2)), 0.0),
     ValueError, "coefficient matrix dim mismatch"),
    ("csv-header", _csv_with_another_header, ValueError,
     "{tmp}/bad.csv: header 't,value' is neither x,value nor x,y,value"),
    ("pucci-sign", lambda t: pucci(np.eye(2), 1.0, 2.0, "x"), ValueError,
     "sign must be '+' or '-'"),
    ("bellman-empty-family", lambda t: OperatorSpec.hjb_inf((), 1.0, 2.0),
     ValueError, "Bellman variants need a nonempty family"),
    ("trace-callable-without-bounds",
     lambda t: OperatorSpec.linear_trace(lambda x: np.eye(1)), ValueError,
     "lam/Lam required for callable coefficients"),
    ("ball-under-5-nodes", lambda t: ball_eigenpair(_problem(), (0.2, 0.22)),
     ValueError, "ball 0.2,0.22 covers fewer than 5 grid nodes on axis 0"),
    ("cli-2d-domain", _cli("solve", BASE_SOLVE, "problem.dim=2"), 2,
     "2-D domain must be xlo,xhi;ylo,yhi"),
    ("cli-operator", _cli("solve", BASE_SOLVE, "problem.operator=foo"), 2,
     "unknown operator 'foo'"),
    ("cli-weight", _cli("solve", BASE_SOLVE, "problem.weight=foo"), 2,
     "unknown weight family 'foo'"),
    ("cli-weight-path", _cli("solve", BASE_SOLVE, "problem.weight=tabulated"), 2,
     "tabulated weight needs problem.weight_path"),
    ("cli-init-path", _cli("solve", BASE_SOLVE, "control.init=given"), 2,
     "init=given needs control.init_path"),
    ("cli-ball", _cli("solve", BASE_SOLVE, "control.ball="), 2,
     "init=subsolution needs control.ball"),
    ("cli-sweep-section", _cli("sweep", BASE_SOLVE), 2,
     "sweep command needs a [sweep] section"),
    ("cli-sweep-parameter", _cli("sweep", BASE_SOLVE, "sweep.parameter=foo"), 2,
     "sweep parameter must be 's' or 'q'"),
    # on a domain this small sum(u^(2(gamma+1))) underflows to 0, and the
    # fit is refused before lambda = inf is taken
    ("cli-eigen-fit-underflow",
     _cli("eigen", EIGEN_CFG, "problem.n=39", "problem.gamma=2",
          "problem.domain=0,1e-45"), 2,
     "the lambda fit's denominator sum(u^(2(gamma+1))) = 0 is not a positive "
     "normal float (gamma = 2 on ((0.0, 1e-45),))"),
    # no step meets a residual of 1e-300, so all 200 run and the pair is
    # written before the exit (control.tolerance = 1e-300 is met: lambda
    # reaches a floating-point fixed point)
    ("cli-eigen-unconverged",
     _cli("eigen", EIGEN_CFG, "problem.n=39", "control.eigen_residual=1e-300"), 3,
     "eigensolve did not meet its tolerances"),
]


@pytest.mark.parametrize("run, expected, message",
                         [pytest.param(*row[1:], id=row[0]) for row in ROWS])
def test_refusal(tmp_path, monkeypatch, capsys, run, expected, message):
    message = message.format(tmp=tmp_path)
    monkeypatch.chdir(tmp_path)
    if isinstance(expected, int):
        assert run(tmp_path) == expected
        assert capsys.readouterr().err == "error: %s\n" % message
        assert (tmp_path / "out").exists() == (expected == 3)
    else:
        with pytest.raises(expected, match="^%s$" % re.escape(message)):
            run(tmp_path)


def test_positive_interior_verdict():
    # positive but for one interior zero, which no neighbourhood of zeros
    # surrounds: neither a dead core nor a positivity cone
    g = Grid.interval(0.0, 1.0, 9)
    v = np.sin(np.pi * g.axis(0))
    v[5] = 0.0
    rep = classify(GridFunction(g, v))
    assert (rep.verdict, rep.interior_min, int(rep.dead_core_nodes.sum())) == \
        ("positive_interior", 0.0, 0)
    assert rep.hopf_margin > 0
