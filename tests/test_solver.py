"""Sub/supersolution construction and relaxation to steady states."""

import dataclasses
import time

import numpy as np
import pytest

from deadcore import (Grid, GridFunction, WeightField, OperatorSpec,
                      EigenControl, IterationControl, ProblemSpec, SolveError,
                      SubsolutionError, ball_eigenpair, barrier_check,
                      build_subsolution, build_supersolution, classify,
                      example_instance, principal_eigenpair, solve, residual,
                      solve_rhs)
from deadcore import eigen as eigen_mod, solver as solver_mod
from deadcore.dirichlet import PolicyMatrix
from deadcore.grids import Scheme
from deadcore.solver import _implicit_damping
import reference

SPEC1 = OperatorSpec.linear_trace(np.eye(1))


def _problem(grid, weight, gamma=0.0, q=0.5, spec=SPEC1):
    return ProblemSpec(grid, spec, gamma, q, weight)


def _relax_rhs(sch, f, ctl=None, u0=None):
    """solve_rhs by the explicit reference loop alone."""
    return reference._relax_rhs(sch, f, ctl or IterationControl(), u0)


def _explicit_solve(p, init="zero", ctl=None, ball=None, u0=None):
    """solve() with the explicit reference loop, at every gamma; with a
    bracket it runs from the subsolution end."""
    ctl = ctl or IterationControl()
    vals, bracket = solver_mod._start(p, init, ctl, ball, u0)
    super_u = None
    if bracket is not None:
        vals, super_u = bracket[0].values.copy(), bracket[1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return reference._relax_explicit(p, vals, ctl, init, bracket, super_u)


def test_problem_validation():
    g = Grid.interval(0.0, 1.0, 9)
    w = WeightField.constant(g, 1.0)
    with pytest.raises(ValueError):
        ProblemSpec(g, SPEC1, 0.0, 1.0, w)   # q = gamma+1 rejected
    with pytest.raises(ValueError):
        ProblemSpec(g, SPEC1, 0.0, -0.1, w)


def test_problem_spec_is_frozen():
    # the spec owns the Scheme of its (grid, operator, gamma); no field can
    # change under it
    g = Grid.interval(0.0, 1.0, 9)
    p = ProblemSpec(g, SPEC1, 0.0, 0.5, WeightField.constant(g, 1.0))
    assert (p.scheme.grid, p.scheme.spec, p.scheme.gamma) == (g, SPEC1, 0.0)
    for name, value in (("gamma", 1.0), ("q", 0.25), ("scheme", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, value)


def test_subsolution_solve_builds_no_scheme_of_its_own(monkeypatch):
    # a bracketed gamma = 1 solve reads its ProblemSpec's Scheme for the
    # bracket, the loop and every residual; only the ball eigensolve,
    # on its sub-grid, builds one
    inst = example_instance(1.0, 0.8)
    g = Grid.interval(*inst.domain, 79)
    p = ProblemSpec(g, SPEC1, inst.gamma, inst.q, inst.weight_on(g))
    built = []
    init = Scheme.__init__

    def counted(self, grid, spec, gamma):
        built.append(grid)
        init(self, grid, spec, gamma)

    monkeypatch.setattr(Scheme, "__init__", counted)
    solver_mod._ball_pair.cache_clear()
    rep = solve(p, init="subsolution", ball=(1.15, 1.95))
    assert rep.converged
    assert built == [ball_eigenpair(p, (1.15, 1.95)).phi_plus.grid]


def test_weight_on_another_grid_refused():
    # same shape or not, the weight must be sampled on the problem's grid
    g = Grid.interval(0.0, 1.0, 19)
    for other in (Grid.interval(0.0, 2.0, 19), Grid.interval(0.0, 1.0, 39)):
        with pytest.raises(ValueError, match="problem grid"):
            ProblemSpec(g, SPEC1, 0.0, 0.5, WeightField.constant(other, 1.0))


def test_supersolution_past_the_base_floor():
    # n = 3199: the base solve settles at its rounding floor (1.07e-8)
    # above the default tolerance and reports converged=False; the
    # supersolution is still certified by its own inequality, and the
    # bracketed solve runs instead of raising
    g = Grid.interval(0.0, 2.0, 3199)
    p = _problem(g, WeightField.sinsplit(g, 0.3).scaled(30.0))
    rep = solve(p, init="subsolution", ball=(0.2, 0.8))
    sup = rep.bracket[1]
    assert float(np.max(g.interior(residual(p, sup).values))) \
        <= solver_mod.BRACKET_TOL
    assert rep.residual_sup <= 1e-7
    assert rep.converged == (rep.residual_sup <= IterationControl().tolerance)


def test_subsolution_constant_weight_analytic_window():
    # gamma=0, q=1/2, a=2 on (0,pi), lambda+ = 1: the admissibility bound
    # eps^(1/2) phi^(1/2) <= 2 gives eps_max = 4; the discrete search lands
    # inside [2, 4].
    g = Grid.interval(0.0, np.pi, 199)
    p = _problem(g, WeightField.constant(g, 2.0))
    u = build_subsolution(p, (g.h[0], np.pi - g.h[0]))
    eps = u.sup_norm()
    # eps_max = (2/lambda_h)^2 with lambda_h = 1 - O(h^2) slightly below 1
    assert 2.0 <= eps <= 4.0 + 1e-3
    # the discrete subsolution inequality holds by construction
    r = residual(p, u)
    assert float(np.min(g.interior(r.values))) >= -1e-8


def _benchmark_ball_problem(name):
    """(problem, ball) of perfbench's solve1d_q05, solve1d_degenerate and
    both solve2d_wide problems, at fixed draws."""
    if name == "q05":
        g = Grid.interval(0.0, 2.0, 199)
        return _problem(g, WeightField.sinsplit(g, 0.3).scaled(30.0)), (0.2, 0.8)
    if name == "degenerate":
        inst = example_instance(1.0, 0.8)
        g = Grid.interval(*inst.domain, 199)
        return (ProblemSpec(g, SPEC1, inst.gamma, inst.q, inst.weight_on(g)),
                (1.15, 1.95))
    g = Grid.rectangle(0.0, 2.0, 0.0, 1.0, 59, 29)
    op = (OperatorSpec.pucci_minus(1.0, 2.0) if name == "pucci_minus" else
          OperatorSpec.hjb_inf((np.eye(2), 2.0 * np.eye(2)), 1.0, 2.0))
    return (_problem(g, WeightField.sinsplit(g, 0.3).scaled(30.0), spec=op),
            ((0.2, 0.8), (0.2, 0.8)))


@pytest.mark.parametrize("name, iterations", [
    ("q05", 3), ("degenerate", 4), ("pucci_minus", 4), ("hjb_inf", 3)])
def test_ball_pair_is_as_accurate_as_the_eps_search_needs(monkeypatch, name,
                                                          iterations):
    # the ball pair only starts the eps search, whose certificate is the
    # residual: under BALL_EIGEN (lambda settled to 1e-3) the search makes
    # as many residual evaluations as from a pair settled to 1e-10, and
    # lands on the same subsolution to 1e-3, in `iterations` steps
    problem, ball = _benchmark_ball_problem(name)
    evals = []
    counted = solver_mod.residual

    def counting(p, u):
        evals[-1] += 1
        return counted(p, u)

    monkeypatch.setattr(solver_mod, "residual", counting)
    found = []
    for ctl in (solver_mod.BALL_EIGEN,
                EigenControl(tol_lambda=1e-10, tol_residual=np.inf)):
        monkeypatch.setattr(solver_mod, "BALL_EIGEN", ctl)
        solver_mod._ball_pair.cache_clear()
        evals.append(0)
        u = build_subsolution(problem, ball)
        pair = ball_eigenpair(problem, ball)
        assert pair.converged
        found.append((u.sup_norm(), pair.lambda_plus, pair.iterations))
    solver_mod._ball_pair.cache_clear()
    (sup, lam, iters), (tight_sup, tight_lam, _) = found
    assert evals[0] == evals[1]
    assert sup == pytest.approx(tight_sup, rel=1e-3)
    assert lam == pytest.approx(tight_lam, rel=1e-3)
    assert iters == iterations


def test_subsolution_rejects_nonpositive_weight():
    g = Grid.interval(0.0, 2.0, 99)
    p = _problem(g, WeightField.constant(g, 0.0).scaled(1.0))
    with pytest.raises(SubsolutionError):
        build_subsolution(p, (0.5, 1.5))
    # sign-changing weight with the ball over the negative part
    p2 = _problem(g, WeightField.sinsplit(g, 1.0))
    with pytest.raises(SubsolutionError):
        build_subsolution(p2, (1.2, 1.8))


def test_supersolution_inequality_and_homogeneity():
    g = Grid.interval(0.0, 1.0, 99)
    p = _problem(g, WeightField.constant(g, 1.0))
    sup1 = build_supersolution(p)
    r = residual(p, sup1)
    assert float(np.max(g.interior(r.values))) <= 1e-8
    assert np.min(sup1.values) >= 0
    # doubling ||a|| doubles the base psi (gamma = 0 linear case) and the
    # reverified supersolution still satisfies the inequality
    p2 = _problem(g, WeightField.constant(g, 2.0))
    sup2 = build_supersolution(p2)
    r2 = residual(p2, sup2)
    assert float(np.max(g.interior(r2.values))) <= 1e-8


def test_supersolution_zero_weight():
    g = Grid.interval(0.0, 1.0, 19)
    p = _problem(g, WeightField.constant(g, 1.0))
    pz = ProblemSpec(g, SPEC1, 0.0, 0.5, WeightField.constant(g, 0.0))
    assert build_supersolution(pz).sup_norm() == 0.0
    assert build_supersolution(p).sup_norm() > 0.0


@pytest.mark.parametrize("gamma, q, n", [(1.0, 0.8, 5), (2.0, 1.9, 19)])
def test_supersolution_doubles_k_until_certified(monkeypatch, gamma, q, n):
    # on a coarse grid of (0, 8) the first k * psi (sup 15.35 at gamma = 1,
    # n = 5) fails the certificate; k doubled once passes it, and the
    # solve from it converges
    g = Grid.interval(0.0, 8.0, n)
    p = _problem(g, WeightField.sinsplit(g, 0.3), gamma=gamma, q=q)
    certify = solver_mod._is_supersolution
    seen = []

    def recording(problem, u):
        seen.append((u, certify(problem, u)))
        return seen[-1][1]

    monkeypatch.setattr(solver_mod, "_is_supersolution", recording)
    u = build_supersolution(p)
    assert [ok for _, ok in seen] == [False, True]
    first, last = (c.values for c, _ in seen)
    assert np.array_equal(last, 2.0 * first)
    assert np.array_equal(u.values, last) and certify(p, u)
    monkeypatch.undo()
    assert solve(p, init="supersolution").converged


def test_solve_zero_init_is_fixed_point():
    # R(0) = 0, so the loop stops before its first step at every gamma
    g = Grid.interval(0.0, 2.0, 99)
    for gamma in (0.0, 0.5, 1.0):
        p = _problem(g, WeightField.sinsplit(g, 1.0), gamma=gamma)
        rep = solve(p, init="zero")
        assert rep.converged and rep.steps == 0
        assert rep.solution.sup_norm() == 0.0 and rep.residual_sup == 0.0


def test_solve_nonnegative_weight_positive_solution():
    # a >= 0: strong-maximum-principle regime, Hopf margin > 0
    from deadcore import classify
    g = Grid.interval(0.0, 1.0, 99)
    w = WeightField.from_callable(g, lambda x: 20.0 * np.sin(np.pi * x))
    p = _problem(g, w)
    rep = solve(p, init="subsolution", ball=(0.2, 0.8),
                ctl=IterationControl(tolerance=1e-8))
    assert rep.converged
    assert rep.bracket is not None
    sub, sup = rep.bracket
    assert np.all(rep.solution.values >= -1e-15)
    assert np.all(rep.solution.values <= sup.values + 1e-8)
    cls = classify(rep.solution)
    assert cls.verdict == "positivity_cone"
    assert cls.hopf_margin > 0


def test_solve_residual_certificate():
    g = Grid.interval(0.0, 1.0, 99)
    w = WeightField.from_callable(g, lambda x: 20.0 * np.sin(np.pi * x))
    p = _problem(g, w)
    rep = solve(p, init="subsolution", ball=(0.2, 0.8))
    r = residual(p, rep.solution)
    recomputed = float(np.max(np.abs(g.interior(r.values))))
    assert abs(recomputed - rep.residual_sup) <= 1e-14


def test_solve_given_requires_nonnegative():
    g = Grid.interval(0.0, 1.0, 19)
    p = _problem(g, WeightField.constant(g, 1.0))
    vals = np.zeros(g.shape)
    vals[5] = -0.5
    with pytest.raises(ValueError):
        solve(p, init="given", u0=GridFunction(g, vals, dirichlet=False))
    with pytest.raises(ValueError):
        solve(p, init="given")
    with pytest.raises(ValueError):
        solve(p, init="subsolution")   # needs a ball
    with pytest.raises(ValueError):
        solve(p, init="nonsense")


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_solve_given_u0_checked(gamma):
    # u0 must be finite values on the problem grid: a field sampled on
    # another grid of the same shape, an array of another shape and a NaN
    # array are input errors, refused before any step
    g = Grid.interval(0.0, 2.0, 39)
    p = _problem(g, WeightField.sinsplit(g, 0.3).scaled(30.0), gamma=gamma)
    other = GridFunction(Grid.interval(0.0, 3.0, 39), np.ones(g.shape))
    for u0, match in ((other, "problem grid"), (np.ones(20), "shape"),
                      (np.full(g.shape, np.nan), "finite")):
        with pytest.raises(ValueError, match=match):
            solve(p, init="given", u0=u0)


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_solve_given_u0_boundary_checked(gamma):
    # the loops hold the boundary values of the start fixed, so a start
    # that is nonzero there poses another Dirichlet problem: from u0 = 1
    # this problem ended at residual 400 with converged=False at gamma = 0
    # and converged to a solution that is 1 on the boundary at gamma = 1;
    # the same values with the boundary zeroed are a valid start
    g = Grid.interval(0.0, 2.0, 39)
    p = _problem(g, WeightField.sinsplit(g, 0.3).scaled(30.0), gamma=gamma)
    ones = np.ones(g.shape)
    for u0 in (ones, GridFunction(g, ones, dirichlet=False)):
        with pytest.raises(ValueError, match="0 on the boundary"):
            solve(p, init="given", u0=u0)
    assert solve(p, init="given", u0=GridFunction(g, ones)).converged


def test_subsolution_start_is_the_supersolution():
    # a bracketed solve starts from the bracket's supersolution end, and
    # the start is a copy (the report's bracket stays as built)
    g = Grid.interval(0.0, 2.0, 39)
    p = _problem(g, WeightField.sinsplit(g, 0.3).scaled(30.0))
    vals, bracket = solver_mod._start(p, "subsolution", IterationControl(),
                                      (0.2, 0.8), None)
    assert np.array_equal(vals, bracket[1].values)
    assert not np.shares_memory(vals, bracket[1].values)


@pytest.mark.parametrize("init", ["zero", "supersolution"])
def test_solve_refuses_an_unread_u0(monkeypatch, init):
    # 'zero' and 'supersolution' read no u0: one is refused before any
    # work rather than dropped without a word
    g = Grid.interval(0.0, 2.0, 39)
    p = _problem(g, WeightField.sinsplit(g, 0.3).scaled(30.0))
    built = []
    monkeypatch.setattr(solver_mod, "build_supersolution",
                        lambda *a, **k: built.append(a))
    with pytest.raises(ValueError, match="init='%s' reads no u0" % init):
        solve(p, init=init, u0=GridFunction.zeros(g))
    assert built == []


def test_subsolution_u0_checked(monkeypatch):
    # a u0 offered as the upper bracket end gets the checks of
    # init='given', before either bracket end is built
    g = Grid.interval(0.0, 2.0, 39)
    p = _problem(g, WeightField.sinsplit(g, 0.3).scaled(30.0))
    built = []
    monkeypatch.setattr(solver_mod, "build_subsolution",
                        lambda *a, **k: built.append(a))
    other = GridFunction(Grid.interval(0.0, 3.0, 39), np.ones(g.shape))
    negative = np.zeros(g.shape)
    negative[5] = -0.5
    for u0, match in ((other, "problem grid"), (np.ones(20), "shape"),
                      (np.full(g.shape, np.nan), "finite"),
                      (negative, "nonnegative"),
                      (np.ones(g.shape), "0 on the boundary")):
        with pytest.raises(ValueError, match=match):
            solve(p, init="subsolution", ball=(0.2, 0.8), u0=u0)
    assert built == []


def test_subsolution_u0_is_the_upper_end_only_if_certified(monkeypatch):
    # the answer at a smaller negative part is a supersolution and becomes
    # the upper bracket end as given; the answer at a larger one is not,
    # and the supersolution is built as without a u0
    g = Grid.interval(0.0, 2.0, 79)
    w = WeightField.sinsplit(g, 1.0).scaled(30.0)
    ball, ctl = (0.2, 0.8), IterationControl()
    below, here, above = (_problem(g, w.with_negative_scale(s))
                          for s in (0.6, 0.9, 1.2))
    u_below = solve(below, init="subsolution", ball=ball).solution
    u_above = solve(above, init="subsolution", ball=ball).solution
    cold = solve(here, init="subsolution", ball=ball, ctl=ctl)
    assert solver_mod._is_supersolution(here, u_below)
    assert not solver_mod._is_supersolution(here, u_above)
    built = []
    real = solver_mod.build_supersolution
    monkeypatch.setattr(solver_mod, "build_supersolution",
                        lambda *a, **k: built.append(a) or real(*a, **k))
    warm = solve(here, init="subsolution", ball=ball, ctl=ctl, u0=u_below)
    assert built == []
    assert np.array_equal(warm.bracket[1].values, u_below.values)
    assert warm.converged and warm.steps < cold.steps
    assert np.max(np.abs(warm.solution.values - cold.solution.values)) \
        <= 2 * ctl.tolerance
    _assert_in_bracket(warm)
    again = solve(here, init="subsolution", ball=ball, ctl=ctl, u0=u_above)
    assert len(built) == 1
    assert np.array_equal(again.solution.values, cold.solution.values)
    assert again.steps == cold.steps


def _assert_in_bracket(rep):
    sub, sup = rep.bracket
    u = rep.solution.values
    assert np.all(u >= sub.values - 1e-12) and np.all(u <= sup.values + 1e-12)


def test_solve_bracket_ordering():
    # the answer from the supersolution lies in the bracket at every gamma
    # (the solve itself refuses one outside it by more than BRACKET_TOL)
    g = Grid.interval(0.0, 2.0, 79)
    w = WeightField.sinsplit(g, 0.3).scaled(30.0)
    p = _problem(g, w)
    rep = solve(p, init="subsolution", ball=(0.2, 0.8),
                ctl=IterationControl(tolerance=1e-6))
    assert rep.converged
    _assert_in_bracket(rep)
    # 2-D wide stencil
    g = Grid.rectangle(0.0, 2.0, 0.0, 1.0, 19, 9)
    p = _problem(g, WeightField.sinsplit(g, 0.3).scaled(30.0),
                 spec=OperatorSpec.pucci_plus(1.0, 2.0))
    rep = solve(p, init="subsolution", ball=((0.2, 0.8), (0.2, 0.8)),
                ctl=IterationControl(tolerance=1e-6))
    assert rep.converged
    _assert_in_bracket(rep)
    # gamma = 1
    p = _problem(g, WeightField.sinsplit(g, 0.3).scaled(30.0), gamma=1.0,
                 q=0.8, spec=OperatorSpec.pucci_plus(1.0, 2.0))
    rep = solve(p, init="subsolution", ball=((0.2, 0.8), (0.2, 0.8)),
                ctl=IterationControl(tolerance=1e-6))
    assert rep.converged
    _assert_in_bracket(rep)


def test_subsolution_start_checks_the_bracket(monkeypatch):
    # gamma > 0 starts from the supersolution; an answer below the
    # subsolution is refused with the node named
    inst = example_instance(1.0, 0.8)
    g = Grid.interval(*inst.domain, 79)
    p = ProblemSpec(g, SPEC1, inst.gamma, inst.q, inst.weight_on(g))
    above = GridFunction(g, 2.0 * build_supersolution(p).values)
    monkeypatch.setattr(solver_mod, "build_subsolution",
                        lambda problem, ball: above)
    with pytest.raises(SolveError, match="below the subsolution at interior "
                                         "node"):
        solve(p, init="subsolution", ball=(1.15, 1.95))


def test_supersolution_start_checks_the_bracket(monkeypatch):
    # a supersolution end below the answer: the solve starts from the
    # subsolution, rises above the upper end of the bracket and is
    # refused with the node named
    inst = example_instance(1.0, 0.8)
    g = Grid.interval(*inst.domain, 79)
    p = ProblemSpec(g, SPEC1, inst.gamma, inst.q, inst.weight_on(g))
    sub = build_subsolution(p, (1.15, 1.95))
    monkeypatch.setattr(solver_mod, "build_supersolution",
                        lambda problem, ctl=None: sub)
    with pytest.raises(SolveError, match="above the supersolution at "
                                         "interior node"):
        solve(p, init="subsolution", ball=(1.15, 1.95))


def test_solve_generic_q_newton_damping():
    # q != 1/2 exercises the Newton branch of the implicit damping substep
    from deadcore import classify
    g = Grid.interval(0.0, 2.0, 79)
    w = WeightField.sinsplit(g, 1.0).scaled(30.0)
    p = _problem(g, w, q=0.75)
    rep = solve(p, init="subsolution", ball=(0.2, 0.8),
                ctl=IterationControl(tolerance=1e-7))
    assert rep.converged
    assert np.all(rep.solution.values >= 0.0)
    r = residual(p, rep.solution)
    assert float(np.max(np.abs(g.interior(r.values)))) <= 1e-7


# --- policy-matrix paths for gamma = 0: PTC from above and from below

def _parity(p, ball, tol=1e-8):
    """Both gamma = 0 starts against the explicit reference loop: the
    bracketed solve (pseudo-transient Newton from the supersolution) and
    the from-below solve (pseudo-transient Newton from the subsolution,
    init='given')."""
    ctl = IterationControl(tolerance=tol)
    ref = _explicit_solve(p, init="subsolution", ball=ball, ctl=ctl)
    reps = [solve(p, init="subsolution", ball=ball, ctl=ctl),
            solve(p, init="given", u0=build_subsolution(p, ball), ctl=ctl)]
    verdict = classify(ref.solution).verdict
    assert ref.converged
    for rep in reps:
        assert rep.converged
        assert classify(rep.solution).verdict == verdict
        diff = np.max(np.abs(rep.solution.values - ref.solution.values))
        assert diff <= 2 * tol
        # the explicit loop needs O(n^2) steps, the policy paths a few dozen
        assert rep.steps < 100 < ref.steps
    return verdict


def _policy_specs(dim):
    fam = (np.eye(dim), 2.0 * np.eye(dim))
    return (OperatorSpec.pucci_plus(1.0, 2.0), OperatorSpec.pucci_minus(1.0, 2.0),
            OperatorSpec.hjb_inf(fam, 1.0, 2.0), OperatorSpec.hjb_sup(fam, 1.0, 2.0))


@pytest.mark.parametrize("index", range(4))
def test_howard_parity_1d(index):
    spec = _policy_specs(1)[index]
    g = Grid.interval(0.0, 2.0, 39)
    s = (0.3, 2.5)[index % 2]
    _parity(_problem(g, WeightField.sinsplit(g, s).scaled(30.0), spec=spec),
            (0.2, 0.8))


@pytest.mark.parametrize("index", range(4))
def test_howard_parity_2d(index):
    spec = _policy_specs(2)[index]
    g = Grid.rectangle(0.0, 2.0, 0.0, 1.0, 19, 9)
    s = (2.5, 0.3)[index % 2]
    _parity(_problem(g, WeightField.sinsplit(g, s).scaled(30.0), spec=spec),
            ((0.2, 0.8), (0.2, 0.8)))


def test_monotone_parity_1d_positive():
    g = Grid.interval(0.0, 2.0, 79)
    p = _problem(g, WeightField.sinsplit(g, 0.3).scaled(30.0))
    assert _parity(p, (0.2, 0.8)) == "positivity_cone"


def test_monotone_parity_1d_dead_core():
    g = Grid.interval(0.0, 2.0, 79)
    p = _problem(g, WeightField.sinsplit(g, 2.5).scaled(30.0))
    assert _parity(p, (0.2, 0.8)) == "dead_core"


def test_monotone_parity_2d_rectangle():
    g = Grid.rectangle(0.0, 2.0, 0.0, 1.0, 39, 19)
    p = _problem(g, WeightField.sinsplit(g, 0.3).scaled(30.0),
                 spec=OperatorSpec.linear_trace(np.eye(2)))
    _parity(p, ((0.2, 0.8), (0.2, 0.8)))


@pytest.mark.parametrize("s,verdict", [(0.3, "positivity_cone"),
                                       (2.5, "dead_core")])
def test_p_laplacian_1d_monotone_parity(s, verdict):
    # in 1-D the p-Laplacian is the trace (p - 1) u'' and takes the
    # policy-matrix paths; the explicit loop it used to run is the reference
    g = Grid.interval(0.0, 2.0, 79)
    p = _problem(g, WeightField.sinsplit(g, s).scaled(30.0),
                 spec=OperatorSpec.p_laplacian(3.0))
    assert _parity(p, (0.2, 0.8)) == verdict


def test_p_laplacian_1d_degenerate_matches_explicit(monkeypatch):
    # gamma = 1: the supersolution and the ball eigenpair of the 1-D
    # p-Laplacian are Newton solves now; against the explicit reference at
    # every layer the reaction answer must not move
    g = Grid.interval(0.0, 2.0, 79)
    p = _problem(g, WeightField.sinsplit(g, 2.5).scaled(30.0), gamma=1.0, q=0.8,
                 spec=OperatorSpec.p_laplacian(3.0))
    tol = 1e-8
    reps = [solve(p, init="subsolution", ball=(0.2, 0.8),
                  ctl=IterationControl(tolerance=tol))]
    with monkeypatch.context() as m:
        m.setattr(solver_mod, "solve_rhs", _relax_rhs)
        m.setattr(eigen_mod, "solve_rhs", _relax_rhs)
        solver_mod._ball_pair.cache_clear()
        reps.append(_explicit_solve(p, init="subsolution", ball=(0.2, 0.8),
                                    ctl=IterationControl(tolerance=tol)))
    assert all(r.converged for r in reps)
    assert classify(reps[0].solution).verdict == \
        classify(reps[1].solution).verdict
    assert np.max(np.abs(reps[0].solution.values
                         - reps[1].solution.values)) <= 2 * tol


def test_p_laplacian_2d_refused_before_any_step(monkeypatch):
    # the 2-D scheme is monotone only at p = 2: every solver entry point
    # refuses other p before it evaluates F or factors a matrix
    def no_step(*args, **kwargs):
        raise AssertionError("a solver step ran")

    monkeypatch.setattr(Scheme, "F", no_step)
    monkeypatch.setattr(PolicyMatrix, "solve", no_step)
    g = Grid.rectangle(0.0, 2.0, 0.0, 1.0, 19, 9)
    starts = (("zero", {}), ("supersolution", {}),
              ("subsolution", {"ball": ((0.2, 0.8), (0.2, 0.8))}),
              ("given", {"u0": np.zeros(g.shape)}))
    f = GridFunction(g, -np.ones(g.shape), dirichlet=False)
    for pval in (1.5, 3.0):
        spec = OperatorSpec.p_laplacian(pval)
        for gamma in (0.0, 1.0):
            p = _problem(g, WeightField.sinsplit(g, 0.3).scaled(30.0),
                         gamma=gamma, spec=spec)
            for init, kwargs in starts:
                with pytest.raises(ValueError, match="p-Laplacian"):
                    solve(p, init=init, **kwargs)
            with pytest.raises(ValueError, match="p-Laplacian"):
                solve_rhs(p.scheme, f)
            with pytest.raises(ValueError, match="p-Laplacian"):
                principal_eigenpair(g, spec, gamma)


def test_subsolution_is_an_injection_of_phi_plus():
    # ball edges off the host nodes: eps phi+ lands on the snapped nodes,
    # and everything else is 0
    cases = ((Grid.interval(0.0, 2.0, 79), (0.23, 0.81)),
             (Grid.rectangle(0.0, 2.0, 0.0, 1.0, 39, 19),
              ((0.21, 0.79), (0.17, 0.83))))
    for g, ball in cases:
        p = _problem(g, WeightField.constant(g, 1.0),
                     spec=OperatorSpec.linear_trace(np.eye(g.dim)))
        pair = ball_eigenpair(p, ball)
        nodes = solver_mod._ball_nodes(g, ball)
        u = build_subsolution(p, ball).values
        phi = np.maximum(pair.phi_plus.values, 0.0)
        sub = pair.phi_plus.grid
        idx = []
        for k in range(g.dim):
            x = g.axis(k)
            lo, hi = sub.bounds[k]
            idx.append(np.nonzero((x >= lo - 1e-12) & (x <= hi + 1e-12))[0])
            assert (idx[k][0], idx[k][-1] + 1) == nodes[k]
        on = np.ix_(*idx)
        k = np.argmax(phi)
        eps = u[on].flat[k] / phi.flat[k]
        assert eps > 0.0
        assert np.array_equal(u[on] > 0.0, phi > 0.0)
        assert np.max(np.abs(u[on] - eps * phi)) <= 4.0 * np.spacing(u.max())
        rest = np.ones(g.shape, dtype=bool)
        rest[on] = False
        assert np.all(u[rest] == 0.0)


@pytest.mark.parametrize("s", [0.2, 2.5])
def test_from_below_meets_bracketed_under_refinement(s):
    # pseudo-transient Newton from the subsolution converges at every n
    # and meets the bracketed answer (one component of {a > 0}); its
    # step count still grows with the grid: 22/26/34 solves at s = 0.2,
    # 31/43/61 at s = 2.5
    tol = IterationControl().tolerance
    for n in (99, 199, 399):
        g = Grid.interval(0.0, 2.0, n)
        p = _problem(g, WeightField.sinsplit(g, s).scaled(30.0))
        lo = solve(p, init="given", u0=build_subsolution(p, (0.1, 0.9)))
        hi = solve(p, init="subsolution", ball=(0.1, 0.9))
        assert lo.converged and hi.converged
        assert np.max(np.abs(lo.solution.values - hi.solution.values)) \
            <= 2 * tol


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("method, gamma, scale, step", [
    pytest.param("auto", 0.0, 1e200, "0", id="auto"),
    pytest.param("explicit", 0.0, 1.0, "", id="explicit"),
    pytest.param("auto", 1.0, 1e200, "0", id="auto-gamma1")])
def test_solve_non_finite_residual_raises(method, gamma, scale, step):
    # a weight near the float range overflows u^q within a few steps of
    # the explicit loop; the backward pseudo-time step from u0 = 1 lands
    # on the zero solution instead, so there the start overflows u^q (and
    # at gamma = 1 the gradient factor) before the first step
    g = Grid.interval(0.0, 1.0, 19)
    p = _problem(g, WeightField.constant(g, 1e300), gamma=gamma)
    run = solve if method == "auto" else _explicit_solve
    with pytest.raises(SolveError, match="non-finite residual at step " + step):
        run(p, init="given", u0=GridFunction(g, scale * np.ones(g.shape)),
            ctl=IterationControl(max_steps=20_000))


def test_from_below_one_solve_per_step(monkeypatch):
    # n = 799 puts the floating-point floor of L u near the tolerance;
    # from the subsolution every sparse solve is one pseudo-transient
    # Newton step, in 1-D and through the policy switches of 2-D HJB
    calls = []
    linear_solve = PolicyMatrix.solve

    def counting(*args):
        calls.append(1)
        return linear_solve(*args)

    monkeypatch.setattr(PolicyMatrix, "solve", counting)
    g = Grid.interval(0.0, 2.0, 799)
    p = _problem(g, WeightField.sinsplit(g, 0.2).scaled(30.0))
    sub = build_subsolution(p, (0.1, 0.9))
    calls.clear()
    rep = solve(p, init="given", u0=sub)
    assert rep.converged
    assert 0 < len(calls) == rep.steps
    g = Grid.rectangle(0.0, 2.0, 0.0, 1.0, 39, 19)
    p = _problem(g, WeightField.sinsplit(g, 0.3).scaled(30.0),
                 spec=_policy_specs(2)[2])
    sub = build_subsolution(p, ((0.2, 0.8), (0.2, 0.8)))
    calls.clear()
    rep = solve(p, init="given", u0=sub)
    assert rep.converged
    assert 0 < len(calls) == rep.steps


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_one_envelope_evaluation_per_newton_step(monkeypatch, gamma):
    # each iterate is linearized once (Scheme.linearize): its g F_h, its
    # policy and its Jacobian data come from one evaluation of the
    # members' candidates, so k steps evaluate them at most k + 1 times
    # (the start and each new iterate), in solve_rhs and inside pseudo-
    # transient Newton, whose certificate (_certified) is its own
    # evaluation; on 2-D Pucci, where F_h has eight members
    evaluations, in_loop = [], []
    candidates, certified = Scheme._candidates, solver_mod._certified

    def counting(self, k):
        evaluations.append(1)
        return candidates(self, k)

    def certifying(*args):
        in_loop.append(len(evaluations))
        return certified(*args)

    monkeypatch.setattr(Scheme, "_candidates", counting)
    monkeypatch.setattr(solver_mod, "_certified", certifying)
    g = Grid.rectangle(0.0, 2.0, 0.0, 1.0, 39, 19)
    p = _problem(g, WeightField.sinsplit(g, 0.3).scaled(30.0), gamma=gamma,
                 q=0.5 * (1.0 + gamma), spec=_policy_specs(2)[1])
    evaluations.clear()
    rep = solve_rhs(p.scheme, GridFunction(g, np.full(g.shape, -30.0),
                                           dirichlet=False))
    assert rep.converged and rep.steps > 1
    assert len(evaluations) <= rep.steps + 1
    start = build_supersolution(p)
    evaluations.clear()
    rep = solve(p, init="given", u0=start)
    assert rep.converged and rep.steps > 1
    assert len(in_loop) == 1 and in_loop[0] <= rep.steps + 1


def test_gamma0_ptc_stands_alone():
    # gamma = 0 from the supersolution: pseudo-transient Newton runs alone.
    # It crosses a small-q dead core by itself (q = 0.2, n = 99) and
    # converges at q = 0.5, n = 1599.  Where it stops at the residual's
    # rounding floor it returns its own iterate: 1.3e-7 after 30 steps at
    # q = 0.8, n = 1599 (sup u = 878), and 3.2e-8 at n = 3199 on
    # sinsplit x 60
    g = Grid.interval(0.0, 2.0, 99)
    p = _problem(g, WeightField.sinsplit(g, 2.5).scaled(30.0), q=0.2)
    rep = solve(p, init="subsolution", ball=(0.2, 0.8))
    assert rep.converged and rep.steps <= 60
    assert classify(rep.solution).verdict == "dead_core"
    g = Grid.interval(0.0, 2.0, 1599)
    p = _problem(g, WeightField.sinsplit(g, 2.5).scaled(30.0), q=0.5)
    rep = solve(p, init="subsolution", ball=(0.2, 0.8))
    assert rep.converged and rep.steps < 100
    p = _problem(g, WeightField.sinsplit(g, 2.5).scaled(30.0), q=0.8)
    rep = solve(p, init="subsolution", ball=(0.2, 0.8))
    assert not rep.converged and rep.residual_sup < 2e-7
    assert rep.steps <= 40
    g = Grid.interval(0.0, 2.0, 3199)
    p = _problem(g, WeightField.sinsplit(g, 2.5).scaled(60.0), q=0.5)
    rep = solve(p, init="subsolution", ball=(0.2, 0.8))
    assert rep.residual_sup <= 1e-7


def test_ptc_new_residual_low_is_not_quiet():
    # the last Newton steps of a converging run move u by less than
    # PTC_SETTLED sup u while max|R| still falls (4.6e-4, 1.7e-5, 1.8e-7);
    # counted as quiet, they stopped PTC at 1.5e-7 at n = 3199
    g = Grid.interval(0.0, 2.0, 3199)
    p = _problem(g, WeightField.sinsplit(g, 2.5).scaled(30.0), q=0.5)
    rep = solve(p, init="subsolution", ball=(0.2, 0.8))
    assert rep.converged and rep.steps < 100
    assert classify(rep.solution).verdict == "dead_core"


@pytest.mark.parametrize("gamma, q, s, n, ball", [
    (0.5, 0.2, 0.2, 399, (0.2, 0.8)), (1.0, 0.5, 0.2, 799, (0.2, 0.8)),
    (0.0, 0.2, 0.3, 1599, (0.1, 0.9))], ids=["gamma0.5", "gamma1", "gamma0"])
def test_from_below_advancing_front_is_progress(gamma, q, s, n, ball):
    # from the subsolution a small-q front lights one node after another
    # for hundreds of steps while max|R| stays high (219, 455 and 401
    # solves); counted as a cycle, the first two stopped after 151 and
    # 247 steps at residual 5.8e2 and 1.5e3 with the verdict dead_core
    g = Grid.interval(0.0, 2.0, n)
    p = _problem(g, WeightField.sinsplit(g, s).scaled(30.0), gamma=gamma, q=q)
    lo = solve(p, init="given", u0=build_subsolution(p, ball))
    hi = solve(p, init="subsolution", ball=ball)
    assert lo.converged and hi.converged
    assert classify(lo.solution).verdict == "positivity_cone"
    assert np.max(np.abs(lo.solution.values - hi.solution.values)) <= 1e-9


def test_ptc_cycle_stop_returns_its_iterate(monkeypatch):
    # no run of the suite ends at PTC_STALL, the loop's only bound short
    # of max_steps.  A front from below on a small ball (gamma 0.5, q 0.2)
    # sets neither a new low of max|R| nor a new count of lit nodes on two
    # accepted steps in a row after 7 solves: with PTC_STALL = 2, and the
    # quiet window out of reach, the run stops there and comes back
    # unconverged with its iterate; under the default it converges
    g = Grid.interval(0.0, 2.0, 99)
    p = _problem(g, WeightField.sinsplit(g, 0.2).scaled(30.0), gamma=0.5,
                 q=0.2)
    u0 = build_subsolution(p, (0.3, 0.6))
    full = solve(p, init="given", u0=u0)
    assert full.converged
    assert classify(full.solution).verdict == "positivity_cone"
    monkeypatch.setattr(solver_mod, "PTC_WINDOW", 10 ** 9)
    monkeypatch.setattr(solver_mod, "PTC_STALL", 2)
    rep = solve(p, init="given", u0=u0)
    assert not rep.converged and rep.steps == 7
    assert rep.residual_sup > 1.0
    assert rep.residual_sup == float(np.max(np.abs(
        g.interior(residual(p, rep.solution).values))))
    assert np.max(rep.solution.values - u0.values) > 0.1
    assert np.min(rep.solution.values) >= 0.0
    assert classify(rep.solution).verdict == "dead_core"


def test_monotone_stops_on_cycle():
    # n = 1599: the floating-point floor of the residual (about 1.5e-7 at
    # sup u = 878) lies above tol; from the subsolution and from the
    # supersolution pseudo-transient Newton stops there by its own rules
    # instead of running to max_steps (1,000,000 steps at about 1 ms
    # each)
    g = Grid.interval(0.0, 2.0, 1599)
    p = _problem(g, WeightField.sinsplit(g, 2.5).scaled(30.0), q=0.8)
    t0 = time.perf_counter()
    lo = solve(p, init="given", u0=build_subsolution(p, (0.2, 0.8)))
    hi = solve(p, init="subsolution", ball=(0.2, 0.8))
    assert time.perf_counter() - t0 < 5.0
    tol = IterationControl().tolerance
    for rep in (lo, hi):
        assert not rep.converged and tol < rep.residual_sup < 1e-6
        assert rep.steps < 1_000


def test_degenerate_example_auto_matches_explicit(monkeypatch):
    # gamma = 1: the reaction solve is pseudo-transient Newton from the
    # supersolution, and the supersolution and the ball eigenpair come from
    # Newton solves; the answer must not move against the explicit
    # reference, whose supersolution is relaxed explicitly too.  Newton
    # ends far below tol (5e-11) while the explicit loop stops just under
    # it, so the reference runs at tol / 10 to keep its own error out of
    # the 2 * tol comparison
    inst = example_instance(1.0, 0.8)
    g = Grid.interval(*inst.domain, 79)
    p = ProblemSpec(g, SPEC1, inst.gamma, inst.q, inst.weight_on(g))
    tol = 1e-8
    reps = [solve(p, init="subsolution", ball=(1.15, 1.95),
                  ctl=IterationControl(tolerance=tol))]
    with monkeypatch.context() as m:
        m.setattr(solver_mod, "solve_rhs", _relax_rhs)
        reps.append(_explicit_solve(p, init="subsolution", ball=(1.15, 1.95),
                                    ctl=IterationControl(tolerance=tol / 10)))
    assert all(r.converged for r in reps)
    assert classify(reps[0].solution).verdict == \
        classify(reps[1].solution).verdict == "dead_core"
    assert np.max(np.abs(reps[0].solution.values
                         - reps[1].solution.values)) <= 2 * tol
    # the ball eigenpair itself, Newton against explicit inner solves
    sub = Grid.interval(1.15, 1.95, 19)
    ctl = EigenControl(tol_lambda=1e-7, tol_residual=np.inf,
                       inner=IterationControl(tolerance=1e-8, max_steps=400_000))
    pairs = [principal_eigenpair(sub, SPEC1, inst.gamma, ctl)]
    with monkeypatch.context() as m:
        m.setattr(eigen_mod, "solve_rhs", _relax_rhs)
        pairs.append(principal_eigenpair(sub, SPEC1, inst.gamma, ctl))
    assert pairs[0].lambda_plus == pytest.approx(pairs[1].lambda_plus, rel=1e-7)
    assert np.max(np.abs(pairs[0].phi_plus.values
                         - pairs[1].phi_plus.values)) <= 1e-7


def test_degenerate_floor_stop():
    # a tolerance below the floating-point floor of the residual: the
    # pseudo-transient Newton loop stops by itself within a few dozen
    # solves, close to the floor; a tolerance just above it is met
    inst = example_instance(1.0, 0.8)
    g = Grid.interval(*inst.domain, 79)
    p = ProblemSpec(g, SPEC1, inst.gamma, inst.q, inst.weight_on(g))
    u0 = 1.1 * inst.solution_on(g).values
    rep = solve(p, init="given", u0=u0, ctl=IterationControl(tolerance=1e-15))
    assert not rep.converged and rep.residual_sup <= 1e-13
    assert rep.steps <= 60
    rep = solve(p, init="given", u0=u0, ctl=IterationControl(tolerance=1e-12))
    assert rep.converged and rep.steps <= 40


def _two_components(case, n, s):
    """(problem, ball, the nodes of the component of {a > 0} the ball
    leaves out) on a weight whose {a > 0} has two components."""
    if case == "example":
        inst = example_instance(1.0, 0.8)
        g = Grid.interval(*inst.domain, n)
        p = ProblemSpec(g, SPEC1, inst.gamma, inst.q, inst.weight_on(g))
        return p, (1.15, 1.95), g.coords()[0] < -0.886
    # +30 on |x - 1.6| < 0.02 adds a component of {a > 0} that holds one
    # node of (0, 2) at n = 99, too small for a ball
    if case == "one-node":
        g = Grid.interval(0.0, 2.0, n)
        a = WeightField.sinsplit(g, s).scaled(30.0).values.copy()
        node = np.abs(g.coords()[0] - 1.6) < 0.02
        a[node] = 30.0
        return _problem(g, WeightField(g, a), q=0.2), (0.2, 0.8), node
    # gamma = 0, q = 0.2: sinsplit on (0, 4) is positive on (0, 1) and
    # (2, 3), and the dead core between them splits the two
    if case == "sinsplit":
        g, spec, ball = Grid.interval(0.0, 4.0, n), SPEC1, (0.2, 0.8)
    else:
        g = Grid.rectangle(0.0, 4.0, 0.0, 1.0, n, 19)
        spec, ball = OperatorSpec.linear_trace(np.eye(2)), ((0.2, 0.8),) * 2
    p = _problem(g, WeightField.sinsplit(g, s).scaled(30.0), q=0.2,
                 spec=spec)
    return p, ball, g.coords()[0] > 2.0


@pytest.mark.parametrize("case, n, s, lit", [
    pytest.param("example", 79, None, 2.5e-2, id="79-0.025"),
    pytest.param("example", 199, None, 4.5e-2, id="199-0.045"),
    pytest.param("sinsplit", 199, 1.0, 11.8, id="gamma0-1d"),
    pytest.param("sinsplit2d", 79, 1.0, 2.36, id="gamma0-2d"),
    pytest.param("sinsplit", 99, 5.0, 6.68, id="gamma0-1d-s5-99"),
    pytest.param("sinsplit", 399, 5.0, 6.66, id="gamma0-1d-s5-399"),
    pytest.param("one-node", 99, 5.0, 1.67e-3, id="one-node")])
def test_minimal_below_maximal_on_two_components(case, n, s, lit):
    # {a > 0} has two components.  From the subsolution (seeded in one)
    # pseudo-transient Newton returns the minimal solution, which leaves
    # the other one dark; from the supersolution it returns the maximal
    # one, which lights it.  At s = 5 a Newton step from the
    # supersolution used to jump below the maximal solution, to u = 0
    # ('supersolution', verdict trivial) or below the subsolution
    # ('subsolution', SolveError); a step that darkens a lit node of
    # {a > 0} is now rejected.  That keeps the one-node component lit
    # too, at its one-node balance 2 u / h^2 = 30 u^q,
    # u = (15 h^2)^(1/(1-q)) = 1.67e-3
    p, ball, other = _two_components(case, n, s)
    sub = build_subsolution(p, ball)
    lo = solve(p, init="given", u0=sub)
    hi = solve(p, init="subsolution", ball=ball)
    for rep in (lo, hi):
        assert rep.converged and rep.steps <= 100
        assert classify(rep.solution).verdict == "dead_core"
    assert np.all(sub.values <= lo.solution.values + 1e-12)
    assert np.all(lo.solution.values <= hi.solution.values + 1e-12)
    assert np.max(lo.solution.values[other]) <= 1e-12
    assert np.max(hi.solution.values[other]) == pytest.approx(lit, rel=0.05)
    assert np.array_equal(solve(p, init="supersolution").solution.values,
                          hi.solution.values)


def _front_case(case, n):
    if case == "sinsplit":
        g = Grid.interval(0.0, 2.0, n)
        return _problem(g, WeightField.sinsplit(g, 10.0).scaled(30.0),
                        gamma=0.5, q=0.3), (0.2, 0.8)
    inst = example_instance(0.5, 0.3)
    g = Grid.interval(*inst.domain, n)
    return ProblemSpec(g, SPEC1, inst.gamma, inst.q, inst.weight_on(g)), \
        (1.15, 1.95)


@pytest.mark.parametrize("case", ["sinsplit", "example"])
@pytest.mark.parametrize("n", [79, 199])
def test_small_q_fronts_certify(case, n):
    # gamma = 0.5, q = 0.3: Newton's reaction slope at the zero set used
    # to pin the fronts of these dead cores, and an explicit finish took
    # 1,488 to 9,834 steps; the zero-set rules certify them in a few dozen
    # solves.  The example's two components of {a > 0} let the explicit
    # reference from the subsolution end at another solution, so only
    # sinsplit is compared with it
    p, ball = _front_case(case, n)
    tol = IterationControl().tolerance
    rep = solve(p, init="subsolution", ball=ball)
    assert rep.converged and rep.steps <= 60
    assert classify(rep.solution).verdict == "dead_core"
    if case == "sinsplit" and n == 79:
        ref = _explicit_solve(p, init="subsolution", ball=ball)
        assert ref.converged
        assert np.max(np.abs(rep.solution.values - ref.solution.values)) \
            <= 2 * tol


@pytest.mark.parametrize("gamma, q, s", [(1.0, 0.3, 2.5), (0.5, 0.5, 10.0)])
def test_small_q_dead_core_certifies(gamma, q, s):
    # small q and a large a-, where dead cores exist: the edge of the dead
    # core, next to nodes with u of 1e-12 or less, is the zero set of
    # pseudo-transient Newton, whose rules carry it to the tolerance
    # (without them it stalled at 1.1e-2 after 34 solves and at 1.7e-7
    # after 54, and an explicit finish took over)
    g = Grid.interval(0.0, 2.0, 79)
    p = _problem(g, WeightField.sinsplit(g, s).scaled(30.0), gamma=gamma, q=q)
    tol = IterationControl().tolerance
    rep = solve(p, init="subsolution", ball=(0.2, 0.8))
    assert rep.converged and rep.residual_sup <= tol
    assert classify(rep.solution).verdict == "dead_core"
    ref = _explicit_solve(p, init="subsolution", ball=(0.2, 0.8))
    assert ref.converged
    assert np.max(np.abs(rep.solution.values - ref.solution.values)) <= 2 * tol


def test_small_q_ptc_stops():
    # a rounding-level new low of max|R| every three steps at dt ~ 1e-17
    # must not keep pseudo-transient Newton going: every accepted step that
    # barely moves u counts towards PTC_WINDOW.  With the zero-set rules
    # the solve converges before any such cycle
    g = Grid.interval(0.0, 2.0, 79)
    p = _problem(g, WeightField.sinsplit(g, 2.5).scaled(30.0), gamma=0.25,
                 q=0.2)
    t0 = time.perf_counter()
    rep = solve(p, init="subsolution", ball=(0.2, 0.8),
                ctl=IterationControl(max_steps=5_000))
    assert time.perf_counter() - t0 < 2.0
    assert rep.converged and rep.steps <= 200
    assert classify(rep.solution).verdict == "dead_core"


def _damping_reference(w, c, q):
    # the formula _implicit_damping had before its per-call overhead was
    # trimmed and before underflowed starts were settled up front, with
    # its stop rule: each node within max(1e-16, 2 ulp) of its own w, a
    # NaN node holding nothing
    z = np.maximum(w, 0.0)
    active = (z > 0.0) & (c > 0.0)
    if not np.any(active):
        return z
    za, ca, wa = z[active], np.asarray(c, dtype=float), w[active]
    if np.ndim(c):
        ca = ca[active]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        beta = ca * za ** (q - 1.0)
        za = za * (1.0 + beta) ** (-1.0 / q)
        tol = np.maximum(1e-16, 2.0 * np.spacing(wa))
        for _ in range(30):
            zq = za ** q
            f = za + ca * zq - wa
            za = za - f / (1.0 + ca * q * zq / za)
            if not np.any(np.abs(f) > tol):
                break
    z[active] = np.maximum(np.nan_to_num(za), 0.0)
    return z


def _underflowed_starts(w, c, q):
    # active nodes whose Newton start w (1 + c w^(q-1))^(-1/q) is not > 0
    c = np.broadcast_to(np.asarray(c, dtype=float), w.shape)
    active = (w > 0.0) & (c > 0.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z0 = w * (1.0 + c * w ** (q - 1.0)) ** (-1.0 / q)
    return active & ~(z0 > 0.0)


def test_implicit_damping_matches_reference():
    # bit for bit, underflowed starts included: such a start is 0, as the
    # reference's 0/0 = NaN iterate comes out, and a NaN node holds
    # neither loop
    rng = np.random.default_rng(61)
    odd = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, 1e300])
    underflows = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for trial in range(200):
            shape = (37,) if trial % 2 else (9, 7)
            w = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8)
            c = np.abs(rng.standard_normal(shape)) * 10.0 ** rng.integers(-8, 8)
            if trial % 3 == 0:
                w.flat[rng.integers(0, w.size, 4)] = rng.choice(odd, 4)
                c.flat[rng.integers(0, c.size, 4)] = rng.choice(odd, 4)
            q = rng.choice([0.3, 0.5, 0.8, 0.95])
            cc = c if trial % 5 else np.full(shape, c.flat[0])
            got = _implicit_damping(w, cc, q)
            assert got.tobytes() == _damping_reference(w, cc, q).tobytes()
            low = _underflowed_starts(w, cc, q)
            underflows += bool(low.any())
            assert np.all(got[low] == 0.0)
    assert underflows > 0


def test_implicit_damping_stops_at_the_rounding_of_w(monkeypatch):
    # nodes of three bracketed 1-D solves (trace, sinsplit weights, ball
    # (0.2, 0.8)) that held their call for all DAMPING_ITERS steps under a
    # stop test of 1e-16 max(1, max w) on max|f|, f = z + c z^q - w:
    # - w = 2.354 flips between two floats whose |f| is one ulp of w
    #   (4.4e-16), above that test;
    # - w = 9.4e-167 and 1.1e-98 have roots below the smallest subnormal:
    #   a step rounds z to 0, the next one's c q z^q / z is 0/0, and the
    #   NaN f of that node never passed the test
    steps = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def abs(self, x):   # one call per Newton step
            steps.append(1)
            return np.abs(x)

    monkeypatch.setattr(solver_mod, "np", CountingNumpy())
    cases = [(2.3540153657940155, 0.18492317826618943, 0.5),
             (9.426723576629248e-167, 5.7519461356980915e-05, 0.5),
             (1.060658066141122e-98, 0.1266491888253023, 0.3)]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for w, c, q in cases:
            # a well-scaled node beside it, as in the solves
            w2, c2 = np.array([w, 1.0]), np.array([c, 1.0])
            steps.clear()
            z = _implicit_damping(w2, c2, q)
            assert 0 < len(steps) < solver_mod.DAMPING_ITERS
            f = z + c2 * z ** q - w2
            assert abs(f[1]) <= 2.0 * np.spacing(1.0)
            if w > 1.0:
                assert abs(f[0]) <= 2.0 * np.spacing(w)
            else:
                # the root lies between 0 and the smallest subnormal
                tiny = np.nextafter(0.0, 1.0)
                assert z[0] == 0.0 and tiny + c * tiny ** q > w


def test_degenerate_example_reference_damping(monkeypatch):
    # the underflow settle of _implicit_damping leaves the gamma = 1
    # explicit reference trajectory unchanged: the same steps and answer
    # with the reference damping (no settle)
    inst = example_instance(1.0, 0.8)
    g = Grid.interval(*inst.domain, 79)
    p = ProblemSpec(g, SPEC1, inst.gamma, inst.q, inst.weight_on(g))
    new = _explicit_solve(p, init="subsolution", ball=(1.15, 1.95))
    monkeypatch.setattr(solver_mod, "_implicit_damping",
                        _damping_reference)
    old = _explicit_solve(p, init="subsolution", ball=(1.15, 1.95))
    assert new.converged and old.converged
    assert new.steps == old.steps
    assert np.max(np.abs(new.solution.values - old.solution.values)) \
        <= 1e-12 * old.solution.sup_norm()


def test_explicit_stops_on_cycle():
    # tolerance below the floating-point floor of the residual (sup u is
    # about 6e6): the explicit map settles into an exact 16-step cycle
    g = Grid.interval(0.0, 2.0, 199)
    p = _problem(g, WeightField.sinsplit(g, 0.3).scaled(30.0), q=0.9)
    auto = solve(p, init="subsolution", ball=(0.2, 0.8))
    explicit = IterationControl()
    rep = _explicit_solve(p, init="given", u0=auto.solution, ctl=explicit)
    assert not rep.converged and rep.residual_sup > explicit.tolerance
    assert rep.steps % 16 == 0 and rep.steps <= 64
    again = _explicit_solve(p, init="given", u0=rep.solution, ctl=explicit)
    assert again.steps == 16 and not again.converged
    assert again.solution.values.tobytes() == rep.solution.values.tobytes()
    # the state 16 steps earlier is the same, so any max_steps that is a
    # multiple of 16 would have returned this answer
    earlier = _explicit_solve(p, init="given", u0=auto.solution,
                              ctl=IterationControl(max_steps=rep.steps - 16))
    assert earlier.steps == rep.steps - 16
    assert earlier.solution.values.tobytes() == rep.solution.values.tobytes()


@pytest.mark.parametrize("n", [9, 19])
def test_ball_is_one_node_set(n):
    # the ball (0.3, 0.7) snaps to the node x = 0.7000000000000001 on
    # these grids, where the weight 0.7 - x is -1.1e-16: that node is in
    # the eigenpair's sub-grid, so the weight check sees it too
    g = Grid.interval(0.0, 1.0, n)
    ball = (0.3, 0.7)
    x = g.axis(0)
    p = _problem(g, WeightField.from_callable(g, lambda x: 0.7 - x))
    edge = ball_eigenpair(p, ball).phi_plus.grid.bounds[0][1]
    assert edge == x[np.argmin(np.abs(x - 0.7))] > 0.7
    with pytest.raises(SubsolutionError, match="positive set of the weight"):
        build_subsolution(p, ball)
    # barrier_check's a0 is the weight's minimum over the same nodes:
    # 1e4 (2 - x) is least at the sub-grid's last node
    p = _problem(g, WeightField.from_callable(g, lambda x: 1e4 * (2.0 - x)))
    pair = ball_eigenpair(p, ball)
    rep = barrier_check(GridFunction.zeros(g), ball, pair, p, 1.0)
    a0 = 1e4 * (2.0 - edge)
    assert rep.status == "checked"
    assert rep.eps_theta == (a0 / pair.lambda_plus - 1.0) ** (1.0 / 0.5)


def test_ball_eigenpair_memo_holds_one_entry(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return principal_eigenpair(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "principal_eigenpair", counting)
    solver_mod._ball_pair.cache_clear()
    g = Grid.interval(0.0, 1.0, 41)
    p = _problem(g, WeightField.constant(g, 1.0))
    a = ball_eigenpair(p, (0.1, 0.9))
    assert ball_eigenpair(p, (0.1, 0.9)) is a
    assert len(calls) == 1
    b = ball_eigenpair(p, (0.2, 0.8))
    assert b is not a and len(calls) == 2
    # key B replaced key A, so A is computed again
    again = ball_eigenpair(p, (0.1, 0.9))
    assert again is not a and len(calls) == 3
    assert again.lambda_plus == a.lambda_plus
