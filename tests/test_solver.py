"""Sub/supersolution construction and relaxation to steady states."""

import time

import numpy as np
import pytest

from deadcore import (Grid, GridFunction, WeightField, OperatorSpec,
                      EigenControl, IterationControl, ProblemSpec, SolveError,
                      SubsolutionError, ball_eigenpair, build_subsolution,
                      build_supersolution, classify, example_instance,
                      principal_eigenpair, solve, residual, sup_norm,
                      RhsProblem, solve_rhs)
from deadcore import eigen as eigen_mod, solver as solver_mod
from deadcore.dirichlet import PolicyMatrix
from deadcore.grids import Scheme
from deadcore.solver import _implicit_damping, extend_ball_function
import reference

SPEC1 = OperatorSpec.linear_trace(np.eye(1))


def _problem(grid, weight, gamma=0.0, q=0.5, spec=SPEC1):
    return ProblemSpec(grid, spec, gamma, q, weight)


def _relax_rhs(p, ctl=None, u0=None):
    """solve_rhs by the explicit reference loop alone."""
    return reference._relax_rhs(p, ctl or IterationControl(), u0)


def _explicit_solve(p, init="zero", ctl=None, ball=None, u0=None):
    """solve() with the explicit reference loop, at every gamma."""
    ctl = ctl or IterationControl()
    vals, bracket, super_u = solver_mod._start(p, init, ctl, ball, u0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return reference._relax_explicit(p, Scheme(p.grid, p.operator, p.gamma),
                                         vals, ctl, init, bracket, super_u)


def test_problem_validation():
    g = Grid.interval(0.0, 1.0, 9)
    w = WeightField.constant(g, 1.0)
    with pytest.raises(ValueError):
        ProblemSpec(g, SPEC1, 0.0, 1.0, w)   # q = gamma+1 rejected
    with pytest.raises(ValueError):
        ProblemSpec(g, SPEC1, 0.0, -0.1, w)


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
    eps = sup_norm(u)
    # eps_max = (2/lambda_h)^2 with lambda_h = 1 - O(h^2) slightly below 1
    assert 2.0 <= eps <= 4.0 + 1e-3
    # the discrete subsolution inequality holds by construction
    r = residual(p, u)
    assert float(np.min(g.interior(r.values))) >= -1e-8


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
    assert sup_norm(build_supersolution(pz)) == 0.0
    assert sup_norm(build_supersolution(p)) > 0.0


def test_solve_zero_init_is_fixed_point():
    g = Grid.interval(0.0, 2.0, 99)
    p = _problem(g, WeightField.sinsplit(g, 1.0))
    rep = solve(p, init="zero")
    assert rep.converged and rep.steps == 1
    assert sup_norm(rep.solution) == 0.0 and rep.residual_sup == 0.0


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


# --- policy-matrix paths for gamma = 0: PTC from above, monotone from below

def _parity(p, ball, tol=1e-8):
    """Both gamma = 0 paths against the explicit reference loop: the
    bracketed solve (pseudo-transient Newton from the supersolution) and
    the from-below monotone solve (init='given' from the subsolution)."""
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
        m.setattr(solver_mod, "_eig_memo", (None, None))
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
                solve_rhs(RhsProblem(g, spec, gamma, f))
            with pytest.raises(ValueError, match="p-Laplacian"):
                principal_eigenpair(g, spec, gamma)


def test_extend_ball_function_is_injection():
    # ball edges off the host nodes: phi+ lands on the snapped nodes
    # unchanged, and everything else is 0
    cases = ((Grid.interval(0.0, 2.0, 79), (0.23, 0.81)),
             (Grid.rectangle(0.0, 2.0, 0.0, 1.0, 39, 19),
              ((0.21, 0.79), (0.17, 0.83))))
    for g, ball in cases:
        p = _problem(g, WeightField.constant(g, 1.0),
                     spec=OperatorSpec.linear_trace(np.eye(g.dim)))
        pair = ball_eigenpair(p, ball)
        phi = extend_ball_function(g, pair, ball).values
        sub = pair.phi_plus.grid
        idx = []
        for k in range(g.dim):
            x = g.axis(k)
            lo, hi = sub.bounds[k]
            idx.append(np.nonzero((x >= lo - 1e-12) & (x <= hi + 1e-12))[0])
        on = np.ix_(*idx)
        assert np.array_equal(phi[on], pair.phi_plus.values)
        rest = np.ones(g.shape, dtype=bool)
        rest[on] = False
        assert np.all(phi[rest] == 0.0)


@pytest.mark.parametrize("s", [0.2, 2.5])
def test_monotone_steps_mesh_independent(s):
    # the from-below monotone iteration; pseudo-transient Newton from above
    # takes 61/72/41 sparse solves at s = 2.5 (its first dt ignores h)
    steps = []
    for n in (99, 199, 399):
        g = Grid.interval(0.0, 2.0, n)
        p = _problem(g, WeightField.sinsplit(g, s).scaled(30.0))
        rep = solve(p, init="given", u0=build_subsolution(p, (0.1, 0.9)))
        assert rep.converged
        steps.append(rep.steps)
    assert max(steps) - min(steps) <= 3


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("method, gamma, scale", [
    pytest.param("auto", 0.0, 1.0, id="auto"),
    pytest.param("explicit", 0.0, 1.0, id="explicit"),
    pytest.param("auto", 1.0, 1e200, id="auto-gamma1")])
def test_solve_non_finite_residual_raises(method, gamma, scale):
    # a weight near the float range overflows u^q within a few steps; at
    # gamma = 1 the backward pseudo-time step from u0 = 1 lands on the zero
    # solution instead, so there the start overflows the gradient factor
    g = Grid.interval(0.0, 1.0, 19)
    p = _problem(g, WeightField.constant(g, 1e300), gamma=gamma)
    run = solve if method == "auto" else _explicit_solve
    with pytest.raises(SolveError, match="non-finite residual at step"):
        run(p, init="given", u0=scale * np.ones(g.shape),
            ctl=IterationControl(max_steps=20_000))


def test_monotone_inner_work_is_capped(monkeypatch):
    # n = 799 puts the floating-point floor of L u near the tolerance; the
    # inner Newton must not spin there
    calls = []
    linear_solve = PolicyMatrix.solve

    def counting(*args):
        calls.append(1)
        return linear_solve(*args)

    monkeypatch.setattr(PolicyMatrix, "solve", counting)
    g = Grid.interval(0.0, 2.0, 799)
    p = _problem(g, WeightField.sinsplit(g, 0.2).scaled(30.0))
    sub = build_subsolution(p, (0.1, 0.9))
    rep = solve(p, init="given", u0=sub)
    assert rep.converged
    assert 0 < len(calls) <= solver_mod.INNER_CAP * rep.steps
    # Howard rounds share the same budget
    g = Grid.rectangle(0.0, 2.0, 0.0, 1.0, 39, 19)
    p = _problem(g, WeightField.sinsplit(g, 0.3).scaled(30.0),
                 spec=OperatorSpec.pucci_plus(1.0, 2.0))
    sub = build_subsolution(p, ((0.2, 0.8), (0.2, 0.8)))
    calls.clear()
    rep = solve(p, init="given", u0=sub)
    assert rep.converged
    assert 0 < len(calls) <= solver_mod.INNER_CAP * rep.steps


def test_gamma0_stall_finishes_monotone(monkeypatch):
    # gamma = 0 from the supersolution: pseudo-transient Newton crosses a
    # small-q dead core by itself (q = 0.2, n = 99), and where it stalls at
    # the residual's rounding floor (q = 0.5, n = 1599) it hands its
    # iterate to the monotone iteration, on its own policy matrix
    made, ops = [], []
    matrix, monotone = solver_mod.PolicyMatrix, solver_mod._relax_monotone

    def recording(scheme):
        made.append(matrix(scheme))
        return made[-1]

    def counting(problem, scheme, vals, ctl, init, op=None):
        ops.append(op)
        return monotone(problem, scheme, vals, ctl, init, op)

    monkeypatch.setattr(solver_mod, "PolicyMatrix", recording)
    monkeypatch.setattr(solver_mod, "_relax_monotone", counting)
    g = Grid.interval(0.0, 2.0, 99)
    p = _problem(g, WeightField.sinsplit(g, 2.5).scaled(30.0), q=0.2)
    rep = solve(p, init="subsolution", ball=(0.2, 0.8))
    assert rep.converged and rep.steps <= 60
    assert classify(rep.solution).verdict == "dead_core"
    assert ops == []
    g = Grid.interval(0.0, 2.0, 1599)
    p = _problem(g, WeightField.sinsplit(g, 2.5).scaled(30.0), q=0.5)
    made.clear()
    rep = solve(p, init="subsolution", ball=(0.2, 0.8))
    assert rep.converged and rep.steps < 100
    assert len(made) == 1 and len(ops) == 1 and ops[0] is made[0]


def test_monotone_stops_on_cycle():
    # n = 1599: the floating-point floor of the residual (about 1.5e-7 at
    # sup u = 878) lies above tol, and from the subsolution the monotone
    # map ends in a 2-cycle there; it stops on it instead of running to
    # max_steps (1,000,000 steps at about 1 ms each), and so does the
    # bracketed solve, whose stalled Newton run hands over to it
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
    assert np.max(np.abs(lo.solution.values - hi.solution.values)) <= 1e-9


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


@pytest.mark.parametrize("n, lit", [(79, 2.5e-2), (199, 4.5e-2)])
def test_minimal_below_maximal_on_two_components(n, lit):
    # the example weight has two components of {a > 0}.  From the
    # subsolution (seeded in the right one) pseudo-transient Newton
    # returns the minimal solution, which leaves the left one dark; from
    # the supersolution it returns the maximal one, which lights it
    inst = example_instance(1.0, 0.8)
    g = Grid.interval(*inst.domain, n)
    p = ProblemSpec(g, SPEC1, inst.gamma, inst.q, inst.weight_on(g))
    sub = build_subsolution(p, (1.15, 1.95))
    lo = solve(p, init="given", u0=sub)
    hi = solve(p, init="subsolution", ball=(1.15, 1.95))
    for rep in (lo, hi):
        assert rep.converged and rep.steps <= 100
        assert classify(rep.solution).verdict == "dead_core"
    assert np.all(sub.values <= lo.solution.values + 1e-12)
    assert np.all(lo.solution.values <= hi.solution.values + 1e-12)
    left = g.axis(0) < -0.886
    assert np.max(lo.solution.values[left]) <= 1e-12
    assert np.max(hi.solution.values[left]) == pytest.approx(lit, rel=0.05)


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
def test_small_q_fronts_need_no_finisher(monkeypatch, case, n):
    # gamma = 0.5, q = 0.3: Newton's reaction slope at the zero set used
    # to pin the fronts of these dead cores, and an explicit finish took
    # 1,488 to 9,834 steps; the zero-set rules certify them in a few dozen
    # solves.  The example's two components of {a > 0} let the explicit
    # reference from the subsolution end at another solution, so only
    # sinsplit is compared with it
    def no_finisher(*args, **kwargs):
        raise AssertionError("a finisher ran")

    monkeypatch.setattr(solver_mod, "_relax_monotone", no_finisher)
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
    # trimmed and before underflowed starts were settled up front
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
        scale = 1e-16 * max(1.0, float(np.max(wa)))
        for _ in range(30):
            zq = za ** q
            f = za + ca * zq - wa
            za = za - f / (1.0 + ca * q * zq / za)
            if np.max(np.abs(f)) <= scale:
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
    # bit for bit where no start underflows; an underflowed start is 0, as
    # the reference's 0/0 = NaN iterate came out, and the other nodes of
    # that call stop with the convergence test instead of at the cap
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
            cc = c if trial % 5 else float(c.flat[0])
            got = _implicit_damping(w, cc, q)
            ref = _damping_reference(w, cc, q)
            low = _underflowed_starts(w, cc, q)
            if not low.any():
                assert got.tobytes() == ref.tobytes()
                continue
            underflows += 1
            assert np.all(got[low] == 0.0)
            # NaN entries of w are not active; the convergence test scales
            # with the largest of the others
            np.testing.assert_allclose(
                got[~low], ref[~low], rtol=0.0,
                atol=2e-16 * max(1.0, float(np.nanmax(w))))
    assert underflows > 0


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
        <= 1e-12 * sup_norm(old.solution)


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


def test_ball_eigenpair_memo_holds_one_entry(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return principal_eigenpair(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "principal_eigenpair", counting)
    monkeypatch.setattr(solver_mod, "_eig_memo", (None, None))
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
