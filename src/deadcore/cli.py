"""Configuration-driven command line front end.

    deadcore <command> --config path [--set section.key=value ...]

Commands: solve, eigen, classify, sweep, oracle-check.  Configuration is
an INI-style file with [problem], [control], [sweep] and [output]
sections; every artifact embeds the config hash and seed in a comment
header.  Exit codes: 0 success, 2 validation error, 3 solver
non-convergence / no threshold, 4 internal error.  DEADCORE_WORKERS caps
the sweep probe concurrency.
"""

import argparse
import configparser
import hashlib
import os
import sys
from pathlib import Path

import numpy as np

from .grids import Grid, GridFunction, WeightField, read_csv, write_csv
from .dirichlet import IterationControl
from .eigen import EigenControl, principal_eigenpair
from .solver import ProblemSpec, SolveError, solve
from .analysis import classify, estimate_threshold
from .operators import OperatorSpec, check_axioms
from .oracle import example_instance
from .grids import residual_field

COMMANDS = ("solve", "eigen", "classify", "sweep", "oracle-check")


class ValidationError(ValueError):
    pass


class NonConvergence(RuntimeError):
    pass


def _parse_floats(s):
    return tuple(float(t) for t in str(s).replace(";", ",").split(","))


def load_config(path, overrides=()):
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ValidationError("config file %r not found" % path)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ValidationError("--set expects section.key=value, got %r" % item)
        key, value = item.split("=", 1)
        section, option = key.split(".", 1)
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section.strip(), option.strip(), value.strip())
    return cp


def config_hash(cp):
    lines = []
    for section in sorted(cp.sections()):
        for key in sorted(cp[section]):
            lines.append("%s.%s=%s" % (section, key, cp[section][key]))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _build_grid(cp):
    prob = cp["problem"]
    dim = prob.getint("dim", 1)
    domain = _parse_floats(prob.get("domain", "0,1"))
    ns = tuple(int(t) for t in prob.get("n", "100").split(","))
    if dim == 1:
        if len(domain) != 2:
            raise ValidationError("1-D domain must be lo,hi")
        return Grid.interval(domain[0], domain[1], ns[0])
    if len(domain) != 4:
        raise ValidationError("2-D domain must be xlo,xhi;ylo,yhi")
    if len(ns) == 1:
        ns = (ns[0], ns[0])
    return Grid.rectangle(domain[0], domain[1], domain[2], domain[3], *ns)


def _build_operator(cp):
    prob = cp["problem"]
    name = prob.get("operator", "linear_trace")
    lam = prob.getfloat("lam", 1.0)
    Lam = prob.getfloat("lam_upper", prob.getfloat("Lam", 1.0))
    dim = prob.getint("dim", 1)
    if name == "linear_trace":
        return OperatorSpec.linear_trace(np.eye(dim) if lam == Lam == 1.0
                                         else np.diag([lam] + [Lam] * (dim - 1)),
                                         lam=lam, Lam=Lam)
    if name == "pucci_plus":
        return OperatorSpec.pucci_plus(lam, Lam)
    if name == "pucci_minus":
        return OperatorSpec.pucci_minus(lam, Lam)
    if name == "p_laplacian":
        return OperatorSpec.p_laplacian(prob.getfloat("p", 3.0))
    if name in ("hjb_inf", "hjb_sup"):
        fam = (np.eye(dim) * lam, np.eye(dim) * Lam)
        ctor = OperatorSpec.hjb_inf if name == "hjb_inf" else OperatorSpec.hjb_sup
        return ctor(fam, lam, Lam)
    raise ValidationError("unknown operator %r" % name)


def _build_weight(cp, grid, gamma, q):
    prob = cp["problem"]
    kind = prob.get("weight", "constant")
    scale = prob.getfloat("weight_scale", 1.0)
    if kind == "constant":
        w = WeightField.constant(grid, prob.getfloat("weight_value", 1.0))
    elif kind == "sinsplit":
        w = WeightField.sinsplit(grid, prob.getfloat("weight_s", 1.0))
    elif kind == "example":
        inst = example_instance(gamma, q)
        w = inst.weight_on(grid)
        s = prob.getfloat("weight_s", 1.0)
        if s != 1.0:
            w = w.with_negative_scale(s)
    elif kind == "tabulated":
        path = prob.get("weight_path")
        if not path:
            raise ValidationError("tabulated weight needs weight_path")
        gf = read_csv(path, grid=grid, dirichlet=False)
        w = WeightField(grid, gf.values, "tabulated:%s" % path)
    else:
        raise ValidationError("unknown weight family %r" % kind)
    return w.scaled(scale) if scale != 1.0 else w


def _build_problem(cp):
    prob = cp["problem"]
    gamma = prob.getfloat("gamma", 0.0)
    q = prob.getfloat("q", 0.5)
    if gamma < 0:
        raise ValidationError("gamma must satisfy gamma >= 0")
    if not 0 < q < gamma + 1:
        raise ValidationError("q must satisfy 0 < q and q < gamma+1 "
                              "(got q=%g, gamma=%g)" % (q, gamma))
    grid = _build_grid(cp)
    op = _build_operator(cp)
    weight = _build_weight(cp, grid, gamma, q)
    return ProblemSpec(grid, op, gamma, q, weight)


def _control(cp):
    ctl = cp["control"] if cp.has_section("control") else {}
    return IterationControl(
        tolerance=float(ctl.get("tolerance", 1e-8)) if ctl else 1e-8,
        max_steps=int(float(ctl.get("max_steps", 1_000_000))) if ctl else 1_000_000,
        safety=float(ctl.get("safety", 0.9)) if ctl else 0.9)


def _seed(cp):
    if cp.has_section("control"):
        return int(cp["control"].get("seed", 0))
    return 0


def _outdir(cp):
    d = Path(cp["output"].get("directory", "out")
             if cp.has_section("output") else "out")
    d.mkdir(parents=True, exist_ok=True)
    return d


def _headers(cp):
    return ("config_hash = %s" % config_hash(cp), "seed = %d" % _seed(cp))


def _write_report(path, cp, text):
    with open(path, "w") as fh:
        for line in _headers(cp):
            fh.write("# %s\n" % line)
        fh.write(text)


def cmd_solve(cp):
    p = _build_problem(cp)
    ctl = _control(cp)
    init = cp["control"].get("init", "zero") if cp.has_section("control") else "zero"
    ball = None
    u0 = None
    if init == "subsolution":
        raw = cp["control"].get("ball", "")
        if not raw:
            raise ValidationError("init=subsolution needs control.ball")
        ball = _parse_floats(raw)
    elif init == "given":
        path = cp["control"].get("init_path", "")
        if not path:
            raise ValidationError("init=given needs control.init_path")
        u0 = read_csv(path, grid=p.grid)
    rep = solve(p, init=init, ctl=ctl, ball=ball, u0=u0)
    out = _outdir(cp)
    write_csv(rep.solution, out / "solution.csv", _headers(cp))
    cls = classify(rep.solution)
    _write_report(out / "report.txt", cp, rep.to_text() + cls.to_text())
    print("summary command=solve verdict=%s residual=%.3e steps=%d converged=%s"
          % (cls.verdict, rep.residual_sup, rep.steps, rep.converged))
    if not rep.converged:
        raise NonConvergence("solver residual %.3e above tolerance" % rep.residual_sup)


def cmd_eigen(cp):
    # the eigenproblem only needs grid/operator/gamma
    prob = cp["problem"]
    gamma = prob.getfloat("gamma", 0.0)
    if gamma < 0:
        raise ValidationError("gamma must satisfy gamma >= 0")
    grid = _build_grid(cp)
    op = _build_operator(cp)
    ctl = EigenControl()
    if cp.has_section("control"):
        ctl.tol_lambda = float(cp["control"].get("tolerance", ctl.tol_lambda))
        ctl.tol_residual = float(cp["control"].get("eigen_residual", ctl.tol_residual))
    pair = principal_eigenpair(grid, op, gamma, ctl)
    out = _outdir(cp)
    write_csv(pair.phi_plus, out / "eigen.csv",
              _headers(cp) + ("lambda_plus = %.17g" % pair.lambda_plus,))
    _write_report(out / "report.txt", cp,
                  "lambda_plus = %.17g\nresidual = %.6e\niterations = %d\n"
                  % (pair.lambda_plus, pair.residual, pair.iterations))
    print("summary command=eigen lambda=%.12g residual=%.3e iterations=%d"
          % (pair.lambda_plus, pair.residual, pair.iterations))
    if not pair.converged:
        raise NonConvergence("eigensolve did not meet its tolerances")


def cmd_classify(cp):
    path = cp["problem"].get("input", "")
    if not path:
        raise ValidationError("classify needs problem.input (solution CSV)")
    u = read_csv(path)
    cls = classify(u)
    out = _outdir(cp)
    _write_report(out / "report.txt", cp, cls.to_text())
    print("summary command=classify verdict=%s interior_min=%.3e hopf_margin=%.3e"
          % (cls.verdict, cls.interior_min, cls.hopf_margin))


def cmd_sweep(cp):
    if not cp.has_section("sweep"):
        raise ValidationError("sweep command needs a [sweep] section")
    sw = cp["sweep"]
    parameter = sw.get("parameter", "s")
    if parameter not in ("s", "q"):
        raise ValidationError("sweep parameter must be 's' or 'q'")
    bracket = _parse_floats(sw.get("bracket", "0,1"))
    if len(bracket) != 2 or not bracket[1] > bracket[0]:
        raise ValidationError("sweep bracket must be lo,hi with hi > lo")
    probes = int(sw.get("probes", 16))
    bisect_steps = int(sw.get("bisect_steps", 8))
    raw = cp["control"].get("ball", "") if cp.has_section("control") else ""
    if not raw:
        raise ValidationError("sweep needs control.ball for the subsolution seed")
    ball = _parse_floats(raw)
    base = _build_problem(cp)
    ctl = _control(cp)

    if parameter == "s":
        def family(s):
            return ProblemSpec(base.grid, base.operator, base.gamma, base.q,
                               base.weight.with_negative_scale(s))
    else:
        def family(qv):
            return ProblemSpec(base.grid, base.operator, base.gamma, qv,
                               base.weight)

    workers = int(os.environ.get("DEADCORE_WORKERS", "1"))
    rep = estimate_threshold(family, parameter, bracket, ball, ctl=ctl,
                             probes=probes, bisect_steps=bisect_steps,
                             workers=workers)
    out = _outdir(cp)
    with open(out / "sweep.csv", "w") as fh:
        for line in _headers(cp):
            fh.write("# %s\n" % line)
        fh.write(rep.CSV_HEADER + "\n")
        for r in rep.probes:
            fh.write(r.csv_row() + "\n")
    _write_report(out / "report.txt", cp, rep.to_text())
    if rep.status == "no_threshold":
        print("summary command=sweep status=no_threshold")
        raise NonConvergence("no verdict transition inside the bracket")
    print("summary command=sweep parameter=%s estimate=%.12g bracket=%.6g,%.6g"
          % (parameter, rep.estimate, *rep.final_bracket))


def cmd_oracle_check(cp):
    prob = cp["problem"] if cp.has_section("problem") else {}
    gamma = float(prob.get("gamma", 1.0)) if prob else 1.0
    q = float(prob.get("q", 0.8)) if prob else 0.8
    inst = example_instance(gamma, q)
    # pointwise identity
    x = np.linspace(inst.domain[0] + 1e-9, inst.domain[1] - 1e-9, 1000)
    ident = np.abs(np.abs(inst.dv(x)) ** gamma * inst.d2v(x)
                   + inst.a(x) * inst.v(x) ** q)
    ident_ok = float(np.max(ident)) <= 1e-10
    # discrete residual refinement
    op = OperatorSpec.linear_trace(np.eye(1))
    sups = []
    hs = []
    n = 149
    for _ in range(3):
        grid = Grid.interval(inst.domain[0], inst.domain[1], n)
        u = inst.solution_on(grid)
        w = inst.weight_on(grid)
        r = residual_field(u, op, gamma, q, w)
        sups.append(float(np.max(np.abs(grid.interior(r.values)))))
        hs.append(grid.h[0])
        n = 2 * n + 1
    orders = [np.log2(sups[i] / sups[i + 1]) for i in range(2)]
    out = _outdir(cp)
    with open(out / "oracle.csv", "w") as fh:
        for line in _headers(cp):
            fh.write("# %s\n" % line)
        fh.write("h,residual_sup\n")
        for h, s in zip(hs, sups):
            fh.write("%.17g,%.17g\n" % (h, s))
    # the glued profile is only piecewise smooth at 0, so the empirical
    # order approaches 1 from below (0.9995 at n=149); allow that slack
    ok = ident_ok and all(o >= 0.95 for o in orders)
    print("summary command=oracle-check identity_max=%.3e orders=%.3f,%.3f ok=%s"
          % (float(np.max(ident)), orders[0], orders[1], ok))
    if not ok:
        raise NonConvergence("oracle consistency check failed")


DISPATCH = {
    "solve": cmd_solve,
    "eigen": cmd_eigen,
    "classify": cmd_classify,
    "sweep": cmd_sweep,
    "oracle-check": cmd_oracle_check,
}


def main(argv=None):
    ap = argparse.ArgumentParser(prog="deadcore", description=__doc__)
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", required=True)
    ap.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="section.key=value")
    args = ap.parse_args(argv)
    try:
        cp = load_config(args.config, args.overrides)
        if args.command in ("solve", "sweep"):
            _build_problem(cp)   # fail fast on validation before any work
    except (ValidationError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    try:
        DISPATCH[args.command](cp)
    except (ValidationError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (NonConvergence, SolveError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    except Exception as e:  # pragma: no cover - defensive
        print("internal error: %s" % e, file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
