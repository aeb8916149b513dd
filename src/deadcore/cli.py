"""Configuration-driven command line front end.

    deadcore <command> --config path [--set section.key=value ...]

Commands: solve, eigen, classify, sweep, oracle-check.  Configuration is
an INI-style file with [problem], [control], [sweep] and [output]
sections and no other section or key (also from --set); every artifact
embeds the config hash and seed in a comment header.  Option names are
case-insensitive, so the ellipticity bounds are problem.lam and
problem.lam_upper (both default 1); problem.dim is 1 or 2, with at most
dim problem.n values.  The counts (problem.n, problem.dim, control.seed,
control.max_steps, sweep.probes, sweep.bisect_steps) take any integral
spelling, such as 1e6 or 40.0; the other numbers (problem.gamma, q, lam,
lam_upper, p, weight_scale, weight_value, weight_s, control.tolerance,
eigen_residual) any float spelling, nan and inf included, and a word in
any of them is refused naming its key.  control.init defaults to zero,
which returns u = 0 in 0 steps at every gamma.  Exit codes:
0 success, 2 validation error, 3 solver non-convergence / no threshold,
4 internal error.
"""

import argparse
import configparser
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .grids import Grid, WeightField, read_csv, write_csv
from .dirichlet import IterationControl
from .eigen import EigenControl, principal_eigenpair
from .solver import ProblemSpec, SolveError, residual, solve
from .analysis import classify, estimate_threshold
from .operators import OperatorSpec
from .oracle import example_instance

class ValidationError(ValueError):
    pass


class NonConvergence(RuntimeError):
    pass


def _parse_floats(raw, key):
    """The numbers of the comma (or semicolon) list raw, for config key
    `key`; a word is refused."""
    try:
        return tuple(float(t) for t in str(raw).replace(";", ",").split(","))
    except ValueError:
        raise ValidationError("%s must be a list of numbers, got %s" % (key, raw)) from None


def _number(raw, key):
    """The float that raw spells, for config key `key` (nan and inf
    included); a word is refused."""
    try:
        return float(raw)
    except ValueError:
        raise ValidationError("%s must be a number, got %s" % (key, raw)) from None


def _integer(raw, key):
    """The count that raw spells, for config key `key`: a float spelling
    such as 1e6 is a count too; 2.7, inf and words are refused."""
    try:
        value = float(raw)
        if value.is_integer():
            return int(value)
    except ValueError:
        pass
    raise ValidationError("%s must be an integer, got %s" % (key, raw))


def _option(cp, key, fallback, parse=_number):
    """parse of the value of config key `key` ("section.option"), or of
    fallback where it is unset: the one read of a config value, whose
    refusal names its key."""
    section, option = key.split(".")
    return parse(cp.get(section, option, fallback=fallback), key)


# every option a command reads, by section
KNOWN_KEYS = {
    "problem": set("dim domain n gamma q operator lam lam_upper p weight "
                   "weight_scale weight_value weight_s weight_path input".split()),
    "control": set("tolerance max_steps seed init ball init_path "
                   "eigen_residual".split()),
    "sweep": {"parameter", "bracket", "probes", "bisect_steps"},
    "output": {"directory"},
}


def load_config(path, overrides=()):
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ValidationError("config file %r not found" % path)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ValidationError("--set expects section.key=value, got %r" % item)
        key, value = item.split("=", 1)
        section, option = (t.strip() for t in key.split(".", 1))
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, option, value.strip())
    for section in cp.sections():
        if section not in KNOWN_KEYS:
            raise ValidationError("unknown config section [%s]" % section)
        unknown = ["%s.%s" % (section, key)
                   for key in sorted(set(cp[section]) - KNOWN_KEYS[section])]
        if unknown:
            raise ValidationError("unknown config key %s" % ", ".join(unknown))
    return cp


def config_hash(cp):
    lines = []
    for section in sorted(cp.sections()):
        for key in sorted(cp[section]):
            lines.append("%s.%s=%s" % (section, key, cp[section][key]))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _dim(cp):
    dim = _option(cp, "problem.dim", "1", _integer)
    if dim not in (1, 2):
        raise ValidationError("problem.dim must be 1 or 2, got %d" % dim)
    return dim


def _build_grid(cp):
    prob = cp["problem"]
    dim = _dim(cp)
    domain = _option(cp, "problem.domain", "0,1", _parse_floats)
    ns = tuple(_integer(t, "problem.n") for t in prob.get("n", "100").split(","))
    if len(ns) > dim:
        raise ValidationError("problem.n has %d values for dim = %d"
                              % (len(ns), dim))
    if len(domain) != 2 * dim:
        raise ValidationError("%d-D domain must be %s" % (
            dim, "lo,hi" if dim == 1 else "xlo,xhi;ylo,yhi"))
    # one n serves every axis
    return Grid(tuple(zip(domain[::2], domain[1::2])),
                ns * dim if len(ns) == 1 else ns)


def _build_operator(cp):
    prob = cp["problem"]
    name = prob.get("operator", "linear_trace")
    # configparser lowercases option names: "Lam" would read "lam"
    lam = _option(cp, "problem.lam", 1.0)
    Lam = _option(cp, "problem.lam_upper", 1.0)
    dim = _dim(cp)
    if name == "linear_trace":
        return OperatorSpec.linear_trace(np.diag([lam] + [Lam] * (dim - 1)),
                                         lam=lam, Lam=Lam)
    if name in ("pucci_plus", "pucci_minus"):
        return getattr(OperatorSpec, name)(lam, Lam)
    if name == "p_laplacian":
        return OperatorSpec.p_laplacian(_option(cp, "problem.p", 3.0))
    if name in ("hjb_inf", "hjb_sup"):
        return getattr(OperatorSpec, name)((np.eye(dim) * lam, np.eye(dim) * Lam),
                                           lam, Lam)
    raise ValidationError("unknown operator %r" % name)


def _build_weight(cp, grid, gamma, q):
    prob = cp["problem"]
    kind = prob.get("weight", "constant")
    scale = _option(cp, "problem.weight_scale", 1.0)
    s = _option(cp, "problem.weight_s", 1.0)
    if kind == "constant":
        w = WeightField.constant(grid, _option(cp, "problem.weight_value", 1.0))
    elif kind == "sinsplit":
        w = WeightField.sinsplit(grid, s)
    elif kind == "example":
        w = example_instance(gamma, q).weight_on(grid)
        if s != 1.0:
            w = w.with_negative_scale(s)
    elif kind == "tabulated":
        gf = _read_input(cp, "problem", "weight_path", "tabulated weight",
                         grid=grid, dirichlet=False)
        w = WeightField(grid, gf.values)
    else:
        raise ValidationError("unknown weight family %r" % kind)
    return w.scaled(scale) if scale != 1.0 else w


def _read_input(cp, section, key, needed_by, **kw):
    """read_csv of the file named by section.key; a missing key or an
    unreadable file is a validation error."""
    path = cp.get(section, key, fallback="")
    if not path:
        raise ValidationError("%s needs %s.%s" % (needed_by, section, key))
    try:
        return read_csv(path, **kw)
    except (OSError, ValueError) as e:
        raise ValidationError("%s.%s: cannot read %r (%s)"
                              % (section, key, path,
                                 getattr(e, "strerror", None) or e))


def _problem_section(cp, command):
    if not cp.has_section("problem"):
        raise ValidationError("%s needs a [problem] section" % command)
    return cp["problem"]


def _build_problem(cp, command):
    _problem_section(cp, command)
    gamma = _option(cp, "problem.gamma", 0.0)
    q = _option(cp, "problem.q", 0.5)
    grid = _build_grid(cp)
    op = _build_operator(cp)
    weight = _build_weight(cp, grid, gamma, q)
    return ProblemSpec(grid, op, gamma, q, weight)


def _control(cp):
    return IterationControl(
        tolerance=_option(cp, "control.tolerance", 1e-8),
        max_steps=_option(cp, "control.max_steps", "1000000", _integer))


def _ball(cp, needed_by):
    raw = cp.get("control", "ball", fallback="")
    if not raw:
        raise ValidationError("%s needs control.ball" % needed_by)
    return _parse_floats(raw, "control.ball")


def _seed(cp):
    return _option(cp, "control.seed", "0", _integer)


def _outdir(cp):
    """The output directory, created if missing; one that cannot be
    created is a validation error."""
    d = Path(cp.get("output", "directory", fallback="out"))
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ValidationError("output.directory: cannot create %r (%s)"
                              % (str(d), e.strerror or e))
    return d


def _headers(cp):
    return ("config_hash = %s" % config_hash(cp), "seed = %d" % _seed(cp))


def _write_report(path, cp, text):
    """Write text to path below the config hash and seed comment header."""
    with open(path, "w") as fh:
        fh.write("".join("# %s\n" % line for line in _headers(cp)) + text)


def cmd_solve(cp):
    p = _build_problem(cp, "solve")
    ctl = _control(cp)
    init = cp.get("control", "init", fallback="zero")
    ball = u0 = None
    if init == "subsolution":
        ball = _ball(cp, "init=subsolution")
    elif init == "given":
        u0 = _read_input(cp, "control", "init_path", "init=given", grid=p.grid,
                         dirichlet=False)
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
    _problem_section(cp, "eigen")
    gamma = _option(cp, "problem.gamma", 0.0)
    grid = _build_grid(cp)
    op = _build_operator(cp)
    ctl = EigenControl(
        tol_lambda=_option(cp, "control.tolerance", EigenControl.tol_lambda),
        tol_residual=_option(cp, "control.eigen_residual", EigenControl.tol_residual))
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
    u = _read_input(cp, "problem", "input", "classify")
    cls = classify(u)
    out = _outdir(cp)
    _write_report(out / "report.txt", cp, cls.to_text())
    print("summary command=classify verdict=%s interior_min=%.3e hopf_margin=%.3e"
          % (cls.verdict, cls.interior_min, cls.hopf_margin))


def cmd_sweep(cp):
    base = _build_problem(cp, "sweep")
    if not cp.has_section("sweep"):
        raise ValidationError("sweep command needs a [sweep] section")
    sw = cp["sweep"]
    parameter = sw.get("parameter", "s")
    if parameter not in ("s", "q"):
        raise ValidationError("sweep parameter must be 's' or 'q'")
    bracket = _option(cp, "sweep.bracket", "0,1", _parse_floats)
    if len(bracket) != 2 or not bracket[1] > bracket[0]:
        raise ValidationError("sweep bracket must be lo,hi with hi > lo")
    if parameter == "q" and not 0 < bracket[0] < bracket[1] < base.gamma + 1:
        raise ValidationError("sweep bracket for q must satisfy 0 < lo and "
                              "hi < gamma+1 (got %g,%g, gamma=%g)"
                              % (*bracket, base.gamma))
    probes = _option(cp, "sweep.probes", "16", _integer)
    bisect_steps = _option(cp, "sweep.bisect_steps", "8", _integer)
    ball = _ball(cp, "sweep")
    ctl = _control(cp)

    if parameter == "s":
        def family(s):
            return replace(base, weight=base.weight.with_negative_scale(s))
    else:
        def family(qv):
            return replace(base, q=qv)

    rep = estimate_threshold(family, parameter, bracket, ball, ctl=ctl,
                             probes=probes, bisect_steps=bisect_steps)
    out = _outdir(cp)
    rows = [rep.CSV_HEADER] + [r.csv_row() for r in rep.probes]
    _write_report(out / "sweep.csv", cp, "\n".join(rows) + "\n")
    _write_report(out / "report.txt", cp, rep.to_text())
    if rep.status == "no_threshold":
        print("summary command=sweep status=no_threshold")
        raise NonConvergence("no verdict transition inside the bracket")
    print("summary command=sweep parameter=%s estimate=%.12g bracket=%.6g,%.6g"
          % (parameter, rep.estimate, *rep.final_bracket))


def cmd_oracle_check(cp):
    gamma = _option(cp, "problem.gamma", 1.0)
    q = _option(cp, "problem.q", 0.8)
    inst = example_instance(gamma, q)
    # pointwise identity
    x = np.linspace(inst.domain[0] + 1e-9, inst.domain[1] - 1e-9, 1000)
    ident = np.abs(np.abs(inst.dv(x)) ** gamma * inst.d2v(x)
                   + inst.a(x) * inst.v(x) ** q)
    ident_ok = float(np.max(ident)) <= 1e-10
    # discrete residual refinement
    op = OperatorSpec.linear_trace(np.eye(1))
    sups, hs = [], []
    grid = Grid.interval(inst.domain[0], inst.domain[1], 149)
    for _ in range(3):
        u = inst.solution_on(grid)
        w = inst.weight_on(grid)
        r = residual(ProblemSpec(grid, op, gamma, q, w), u)
        sups.append(float(np.max(np.abs(grid.interior(r.values)))))
        hs.append(grid.h[0])
        grid = grid.refine()
    orders = [np.log2(sups[i] / sups[i + 1]) for i in range(2)]
    rows = ["h,residual_sup"] + ["%.17g,%.17g" % row for row in zip(hs, sups)]
    _write_report(_outdir(cp) / "oracle.csv", cp, "\n".join(rows) + "\n")
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
    ap.add_argument("command", choices=DISPATCH)
    ap.add_argument("--config", required=True)
    ap.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="section.key=value")
    args = ap.parse_args(argv)
    try:
        cp = load_config(args.config, args.overrides)
        _seed(cp)   # every artifact header carries it: refuse it before any work
        DISPATCH[args.command](cp)
    except ValueError as e:   # ValidationError included
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
