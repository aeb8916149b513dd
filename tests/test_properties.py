"""Property tests (Hypothesis) of the reaction solve and the 2-D Dirichlet
solve."""

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from deadcore import (Grid, GridFunction, IterationControl, OperatorSpec,
                      ProblemSpec, Scheme, SubsolutionError, WeightField,
                      build_subsolution, classify, evaluate_operator, solve,
                      solve_rhs)
from deadcore.analysis import POSITIVE_VERDICTS
from deadcore.solver import _is_supersolution

GRID = Grid.interval(0.0, 2.0, 79)
BALL = (0.2, 0.8)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(s=st.floats(0.0, 3.0), q=st.floats(0.2, 0.8),
       scale=st.floats(5.0, 40.0))
def test_gamma0_from_above_meets_from_below(s, q, scale):
    # sinsplit's {a > 0} has one component, so the maximal solution (the
    # bracketed solve, pseudo-transient Newton from the supersolution) and
    # the minimal one (pseudo-transient Newton from the subsolution) agree.
    # The tolerance is absolute; these ranges keep sup u between 0.1 and
    # 2e4, where it sits above the residual's rounding floor
    p = ProblemSpec(GRID, OperatorSpec.linear_trace(np.eye(1)), 0.0, q,
                    WeightField.sinsplit(GRID, s).scaled(scale))
    tol = IterationControl().tolerance
    hi = solve(p, init="subsolution", ball=BALL)
    sub, sup = hi.bracket
    lo = solve(p, init="given", u0=sub)
    assert hi.converged and lo.converged
    assert np.max(np.abs(hi.solution.values - lo.solution.values)) <= 2 * tol
    assert classify(hi.solution).verdict == classify(lo.solution).verdict
    assert np.all(hi.solution.values >= sub.values - 1e-12)
    assert np.all(hi.solution.values <= sup.values + 1e-12)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gamma=st.sampled_from([0.5, 1.0, 2.0]), q=st.floats(0.2, 0.95),
       s=st.floats(0.0, 10.0), scale=st.floats(5.0, 40.0))
def test_degenerate_from_above_meets_from_below(gamma, q, s, scale):
    # gamma > 0: pseudo-transient Newton from the supersolution (the
    # maximal solution) and from the subsolution (the minimal one) agree
    # on sinsplit, whose {a > 0} has one component, within a few hundred
    # sparse solves each.  q > 1 is left out: there sup u reaches 6e13 and
    # the absolute tolerance certifies nothing
    p = ProblemSpec(GRID, OperatorSpec.linear_trace(np.eye(1)), gamma, q,
                    WeightField.sinsplit(GRID, s).scaled(scale))
    try:
        sub = build_subsolution(p, BALL)
    except SubsolutionError:
        assume(False)
    ctl = IterationControl(max_steps=300)
    hi = solve(p, init="subsolution", ball=BALL, ctl=ctl)
    lo = solve(p, init="given", u0=sub, ctl=ctl)
    assert hi.converged and lo.converged
    assert np.max(np.abs(hi.solution.values - lo.solution.values)) \
        <= 2 * ctl.tolerance
    assert classify(hi.solution).verdict == classify(lo.solution).verdict
    assert np.all(lo.solution.values >= sub.values - 1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gamma=st.sampled_from([0.0, 1.0]), s1=st.floats(0.0, 3.0),
       ds=st.floats(0.01, 1.5), q=st.floats(0.2, 0.8),
       scale=st.floats(5.0, 40.0))
def test_maximal_solution_falls_with_the_negative_part(gamma, s1, ds, q,
                                                       scale):
    # a = a+ - s a-: the solution at s1 < s2 has the residual
    # -(s2 - s1) a- u^q <= 0 at s2, up to its own, so it is a
    # supersolution there (the certificate that estimate_threshold's
    # probes start from) and lies above the maximal solution at s2; the
    # positive verdicts therefore come first in s
    base = WeightField.sinsplit(GRID, 1.0).scaled(scale)
    p1, p2 = (ProblemSpec(GRID, OperatorSpec.linear_trace(np.eye(1)), gamma,
                          q, base.with_negative_scale(s))
              for s in (s1, s1 + ds))
    tol = IterationControl().tolerance
    u1, u2 = (solve(p, init="subsolution", ball=BALL) for p in (p1, p2))
    assert u1.converged and u2.converged
    assert _is_supersolution(p2, u1.solution)
    assert np.all(u2.solution.values <= u1.solution.values + 2 * tol)
    positive = [classify(u.solution).verdict in POSITIVE_VERDICTS
                for u in (u1, u2)]
    assert positive[0] or not positive[1]


FAM2 = (np.eye(2), 2.0 * np.eye(2))
SPECS2 = {"trace": OperatorSpec.linear_trace(np.eye(2)),
          "pucci_plus": OperatorSpec.pucci_plus(1.0, 2.0),
          "pucci_minus": OperatorSpec.pucci_minus(1.0, 2.0),
          "hjb_inf": OperatorSpec.hjb_inf(FAM2, 1.0, 2.0),
          "hjb_sup": OperatorSpec.hjb_sup(FAM2, 1.0, 2.0)}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(op=st.sampled_from(sorted(SPECS2)),
       gamma=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
       ny=st.integers(4, 40), c=st.floats(0.1, 50.0),
       seed=st.none() | st.integers(0, 2 ** 32 - 1))
@example(op="pucci_plus", gamma=0.5, ny=19, c=10.0, seed=None)
def test_rhs_2d_converges_and_compares(op, gamma, ny, c, seed):
    # f1 = -c (0.1 + U) <= f2 = min(f1 + c U', 0) with U, U' uniform on
    # [0, 1) (0 when seed is None): both Newton-Howard solves converge in a
    # few dozen sparse solves, policy switches included, and u1 >= u2.
    # nx = 2 ny + 1 keeps the cells of (0, 2) x (0, 1) square, which the
    # wide Pucci stencil needs.  The @example (f = -1 on 39x19) has a step
    # that raises the residual on the way down
    g = Grid.rectangle(0.0, 2.0, 0.0, 1.0, 2 * ny + 1, ny)
    if seed is None:
        U = V = np.zeros(g.shape)
    else:
        U, V = np.random.default_rng(seed).random((2,) + g.shape)
    f1 = -c * (0.1 + U)
    f2 = np.minimum(f1 + c * V, 0.0)
    ctl = IterationControl(tolerance=1e-9)
    sch = Scheme(g, SPECS2[op], gamma)
    reps = [solve_rhs(sch, GridFunction(g, f, dirichlet=False), ctl)
            for f in (f1, f2)]
    for rep in reps:
        assert rep.converged and rep.steps <= 60
    assert np.all(reps[0].solution.values >= reps[1].solution.values - 2e-9)


GRID4 = Grid.interval(0.0, 4.0, 79)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(gamma=st.sampled_from([0.0, 0.5]), frac=st.floats(0.05, 0.75),
       s=st.floats(0.2, 10.0), scale=st.floats(5.0, 40.0))
def test_from_above_stays_above_the_minimal_solution(gamma, frac, s, scale):
    # sinsplit over (0, 4): {a > 0} has two components and the ball lies
    # in the first.  Its subsolution eps phi lies below the maximal
    # solution, so no step from the supersolution may end below it, and
    # the answer from above lies above the minimal solution (the answer
    # from the subsolution).  q stays at or below 3/4 of gamma + 1: above
    # it sup u passes 1e5 on (0, 4), and an absolute 1e-8 lies below the
    # rounding of u itself (gamma 0, q 0.84: both answers stop unconverged
    # at their floor and differ by 1.5e-8 where u = 2e5)
    q = frac * (gamma + 1.0)
    p = ProblemSpec(GRID4, OperatorSpec.linear_trace(np.eye(1)), gamma, q,
                    WeightField.sinsplit(GRID4, s).scaled(scale))
    try:
        sub = build_subsolution(p, BALL)
    except SubsolutionError:
        assume(False)
    hi = solve(p, init="subsolution", ball=BALL)
    lo = solve(p, init="given", u0=sub)
    assert np.all(hi.solution.values >= lo.solution.values - 1e-8)


QUADRATIC_GRIDS = {1: Grid.interval(0.0, 1.0, 15),
                   2: Grid.rectangle(0.0, 2.0, 0.0, 1.0, 31, 15)}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(dim=st.sampled_from([1, 2]),
       variant=st.sampled_from(["linear_trace", "hjb_inf", "hjb_sup",
                                "pucci_plus", "pucci_minus"]),
       lam=st.floats(0.1, 2.0), ratio=st.floats(1.0, 5.0),
       hess=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
       slope=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
       t=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
def test_scheme_F_is_the_continuum_operator_on_quadratics(dim, variant, lam,
                                                          ratio, hess, slope, t):
    # on u = sum_k (hess_k x_k^2 / 2 + slope_k x_k), D^2 u = diag(hess) at
    # every node and the monotone scheme is exact up to rounding: Scheme.F
    # equals evaluate_operator there, for a diagonal trace, HJB over three
    # diagonal coefficients and Pucci, whose diagonal frame never beats the
    # axis frame on a diagonal Hessian (the corners' sign rule is convex,
    # resp. concave, in the curvature).  The 2-D cells are square
    Lam = lam * ratio
    coeffs = [np.diag(lam + (Lam - lam) * np.array(t[j:j + dim]))
              for j in (0, 2, 4)]
    if variant == "linear_trace":
        spec = OperatorSpec.linear_trace(coeffs[0], lam, Lam)
    elif variant.startswith("hjb"):
        spec = getattr(OperatorSpec, variant)(coeffs, lam, Lam)
    else:
        spec = getattr(OperatorSpec, variant)(lam, Lam)
    g = QUADRATIC_GRIDS[dim]
    u = GridFunction.from_callable(
        g, lambda *x: sum(0.5 * c * xk ** 2 + b * xk
                          for c, b, xk in zip(hess, slope, x)), dirichlet=False)
    nodes = g.interior_nodes()
    want = evaluate_operator(spec, nodes, np.broadcast_to(
        np.diag(hess[:dim]), nodes.shape[:-1] + (dim, dim)))
    # the second differences' rounding: a few ulps of max|u| per h^2
    tol = 64 * np.finfo(float).eps * Lam * np.abs(u.values).max() / min(g.h) ** 2
    np.testing.assert_allclose(Scheme(g, spec, 0.0).F(u.values), want,
                               rtol=0, atol=tol)
