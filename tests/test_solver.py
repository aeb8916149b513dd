"""Sub/supersolution construction and relaxation to steady states."""

import numpy as np
import pytest

from deadcore import (Grid, GridFunction, WeightField, OperatorSpec,
                      IterationControl, ProblemSpec, SolveError,
                      SubsolutionError, ball_eigenpair, build_subsolution,
                      build_supersolution, solve, residual, sup_norm)
from deadcore.solver import extend_ball_function

SPEC1 = OperatorSpec.linear_trace(np.eye(1))


def _problem(grid, weight, gamma=0.0, q=0.5, spec=SPEC1):
    return ProblemSpec(grid, spec, gamma, q, weight)


def test_problem_validation():
    g = Grid.interval(0.0, 1.0, 9)
    w = WeightField.constant(g, 1.0)
    with pytest.raises(ValueError):
        ProblemSpec(g, SPEC1, 0.0, 1.0, w)   # q = gamma+1 rejected
    with pytest.raises(ValueError):
        ProblemSpec(g, SPEC1, 0.0, -0.1, w)


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


def test_solve_bracket_ordering_debug_mode():
    g = Grid.interval(0.0, 2.0, 79)
    w = WeightField.sinsplit(g, 0.3).scaled(30.0)
    p = _problem(g, w)
    rep = solve(p, init="subsolution", ball=(0.2, 0.8),
                ctl=IterationControl(tolerance=1e-6, debug=True))
    assert rep.converged
    # the Howard path keeps the order too (2-D wide stencil)
    g = Grid.rectangle(0.0, 2.0, 0.0, 1.0, 19, 9)
    p = _problem(g, WeightField.sinsplit(g, 0.3).scaled(30.0),
                 spec=OperatorSpec.pucci_plus(1.0, 2.0))
    rep = solve(p, init="subsolution", ball=((0.2, 0.8), (0.2, 0.8)),
                ctl=IterationControl(tolerance=1e-6, debug=True))
    assert rep.converged


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


# --- monotone (Sattinger-Newton) path for gamma = 0, linear trace ----------

def _parity(p, ball, tol=1e-8):
    """The monotone path against the explicit reference loop."""
    from deadcore import classify
    reps = [solve(p, init="subsolution", ball=ball,
                  ctl=IterationControl(tolerance=tol, method=m))
            for m in ("auto", "explicit")]
    assert all(r.converged for r in reps)
    verdicts = [classify(r.solution).verdict for r in reps]
    assert verdicts[0] == verdicts[1]
    diff = np.max(np.abs(reps[0].solution.values - reps[1].solution.values))
    assert diff <= 2 * tol
    # the explicit loop needs O(n^2) steps, the monotone one a few dozen
    assert reps[0].steps < 100 < reps[1].steps
    return verdicts[0]


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
    steps = []
    for n in (99, 199, 399):
        g = Grid.interval(0.0, 2.0, n)
        rep = solve(_problem(g, WeightField.sinsplit(g, s).scaled(30.0)),
                    init="subsolution", ball=(0.1, 0.9))
        assert rep.converged
        steps.append(rep.steps)
    assert max(steps) - min(steps) <= 3


def test_direct_method_outside_linear_class_raises():
    g = Grid.interval(0.0, 2.0, 39)
    w = WeightField.sinsplit(g, 0.3).scaled(30.0)
    direct = IterationControl(method="direct")
    with pytest.raises(ValueError, match="direct method"):
        solve(_problem(g, w, spec=OperatorSpec.pucci_minus(1.0, 2.0)),
              init="subsolution", ball=(0.2, 0.8), ctl=direct)
    with pytest.raises(ValueError, match="direct method"):
        solve(_problem(g, w, gamma=1.0), init="zero", ctl=direct)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("method", ["auto", "explicit"])
def test_solve_non_finite_residual_raises(method):
    # a weight near the float range overflows u^q within a few steps
    g = Grid.interval(0.0, 1.0, 19)
    p = _problem(g, WeightField.constant(g, 1e300))
    with pytest.raises(SolveError, match="non-finite residual at step"):
        solve(p, init="given", u0=np.ones(g.shape),
              ctl=IterationControl(method=method, max_steps=20_000))


def test_monotone_inner_work_is_capped(monkeypatch):
    # n = 799 puts the floating-point floor of L u near the tolerance; the
    # inner Newton must not spin there
    import deadcore.solver as solver_mod
    calls = []
    spsolve = solver_mod.spla.spsolve

    def counting(*args, **kwargs):
        calls.append(1)
        return spsolve(*args, **kwargs)

    monkeypatch.setattr(solver_mod.spla, "spsolve", counting)
    g = Grid.interval(0.0, 2.0, 799)
    p = _problem(g, WeightField.sinsplit(g, 0.2).scaled(30.0))
    sub = build_subsolution(p, (0.1, 0.9))
    rep = solve(p, init="given", u0=sub)
    assert rep.converged
    assert len(calls) <= solver_mod.INNER_CAP * rep.steps
    # Howard rounds share the same budget
    g = Grid.rectangle(0.0, 2.0, 0.0, 1.0, 39, 19)
    p = _problem(g, WeightField.sinsplit(g, 0.3).scaled(30.0),
                 spec=OperatorSpec.pucci_plus(1.0, 2.0))
    sub = build_subsolution(p, ((0.2, 0.8), (0.2, 0.8)))
    calls.clear()
    rep = solve(p, init="given", u0=sub)
    assert rep.converged
    assert len(calls) <= solver_mod.INNER_CAP * rep.steps
