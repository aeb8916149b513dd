"""Closed-form dead-core profile and analytic eigenpair oracles."""

import numpy as np
import pytest

from deadcore import (Grid, WeightField, OperatorSpec, ProblemSpec, classify,
                      example_instance, laplace_eigenpair_1d, solve)


def test_instance_arithmetic():
    inst = example_instance(1.0, 0.8)
    assert inst.r == pytest.approx(2.5)
    assert inst.v(np.pi / 2) == pytest.approx(0.4)
    # |a(0)| = r^q (r - 1)
    assert inst.negative_sup == pytest.approx(2.5 ** 0.8 * 1.5)
    assert abs(inst.a(0.0)) == pytest.approx(inst.negative_sup)


def test_pointwise_pde_identity():
    inst = example_instance(1.0, 0.8)
    x = np.linspace(-np.pi / 2 + 1e-9, np.pi - 1e-9, 1000)
    res = np.abs(np.abs(inst.dv(x)) ** inst.gamma * inst.d2v(x)
                 + inst.a(x) * inst.v(x) ** inst.q)
    assert float(np.max(res)) <= 1e-12


def test_validity_window_errors():
    with pytest.raises(ValueError, match="gamma"):
        example_instance(1.0, 0.4)     # needs gamma < 2q
    with pytest.raises(ValueError, match="q"):
        example_instance(0.5, 1.6)     # needs q < gamma+1


def test_weight_sign_pattern():
    inst = example_instance(1.0, 0.8)
    x = np.linspace(-np.pi / 2 + 1e-6, np.pi - 1e-6, 500)
    a = inst.a(x)
    neg = np.cos(x) ** 2 > 1.0 / inst.r
    pos = np.cos(x) ** 2 < 1.0 / inst.r
    assert np.all(a[neg] < 0)
    assert np.all(a[pos] > 0)
    assert np.any(neg) and np.any(pos)


def test_c1_gluing_at_zero():
    inst = example_instance(1.0, 0.8)
    hs = np.array([1e-2, 1e-3, 1e-4])
    # one-sided quotients of v and v' vanish as h -> 0 (r > 2)
    quot_v = inst.v(hs) / hs
    quot_dv = inst.dv(hs) / hs
    assert np.all(np.diff(quot_v) < 0) and quot_v[-1] < 1e-5
    assert np.all(np.diff(quot_dv) < 0) and quot_dv[-1] < 2e-2
    assert inst.v(0.0) == 0.0 and inst.dv(0.0) == 0.0 and inst.d2v(0.0) == 0.0


def test_laplace_eigenpair_values():
    assert laplace_eigenpair_1d((0.0, np.pi)).lambda_plus == pytest.approx(1.0)
    assert laplace_eigenpair_1d((0.0, 1.0)).lambda_plus == pytest.approx(np.pi ** 2)
    pair = laplace_eigenpair_1d((1.0, 3.0))
    assert pair.phi(2.0) == pytest.approx(1.0)
    assert pair.phi(1.0) == pytest.approx(0.0, abs=1e-15)


def _manufactured_2d(grid, bellman, gamma, q):
    """u = v(x) sin(pi y) and its weight.

    v is the 1-D profile of example_instance(gamma, q) (r = 4 at gamma = 0,
    q = 1/2; r = 2.5 at gamma = 1, q = 0.8).  The weight is
    a = -|Du|^gamma F(D^2 u) / u^q where u > 0, and its limit
    -r^q (r - 1) sin(pi y)^(1 + gamma - q) for x <= 0.  F is the Laplacian
    L of u, or min(L, 2L) for the Bellman operator.
    """
    inst = example_instance(gamma, q)
    X, Y = grid.coords()
    sy, cy = np.sin(np.pi * Y), np.cos(np.pi * Y)
    v, dv = inst.v(X), inst.dv(X)
    u = v * sy
    lap = (inst.d2v(X) - np.pi ** 2 * v) * sy
    F = np.minimum(lap, 2.0 * lap) if bellman else lap
    grad = np.hypot(dv * sy, np.pi * v * cy)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(u > 0, -grad ** gamma * F / u ** q,
                     -inst.negative_sup * sy ** (1.0 + gamma - q))
    return u, WeightField(grid, a)


@pytest.mark.parametrize("bellman, gamma, q, bound", [
    pytest.param(False, 0.0, 0.5, 2e-3, id="trace"),             # 1.22e-3
    pytest.param(True, 0.0, 0.5, 2e-3, id="hjb_inf"),            # 1.22e-3
    pytest.param(False, 1.0, 0.8, 2e-2, id="trace-gamma1"),      # 1.55e-2
    pytest.param(True, 1.0, 0.8, 2e-2, id="hjb_inf-gamma1")])    # 1.55e-2
def test_2d_manufactured_dead_core(bellman, gamma, q, bound):
    # a 2-D dead core with a closed form: the solve from the subsolution
    # recovers it, and the error falls by about the second-order factor 4
    # when h halves (3.04e-4 at 119x39 for gamma = 0, 4.60e-3 for gamma = 1)
    spec = OperatorSpec.hjb_inf((np.eye(2), 2.0 * np.eye(2)), 1.0, 2.0) \
        if bellman else OperatorSpec.linear_trace(np.eye(2))
    errs = []
    for n in ((59, 19), (119, 39)):
        g = Grid.rectangle(-np.pi / 2, np.pi, 0.0, 1.0, *n)
        exact, weight = _manufactured_2d(g, bellman, gamma, q)
        rep = solve(ProblemSpec(g, spec, gamma, q, weight), init="subsolution",
                    ball=((1.2, 1.9), (0.3, 0.7)))
        assert rep.converged
        assert classify(rep.solution).verdict == "dead_core"
        errs.append(float(np.max(np.abs(rep.solution.values - exact))))
    assert errs[0] <= bound
    assert errs[0] / errs[1] >= 3.0


# the ball of the 1-D example's subsolution, inside (0.886, 2.256)
EXAMPLE_BALL = (1.15, 1.95)


def _example_from_above(inst, grid, weight):
    """solve from the subsolution (the maximal solution) on the example's
    problem with the weight given."""
    p = ProblemSpec(grid, OperatorSpec.linear_trace(np.eye(1)), inst.gamma,
                    inst.q, weight)
    rep = solve(p, init="subsolution", ball=EXAMPLE_BALL)
    assert rep.converged
    return rep.solution


def test_one_component_weight():
    # a for x > 0 and its x = 0 value for x <= 0: continuous, with one
    # positive interval, and the closed form still solves the equation
    inst = example_instance(1.0, 0.8)
    g = Grid.interval(*inst.domain, 999)
    x, w = g.axis(0), inst.one_component_weight_on(g).values
    assert np.array_equal(w[x > 0], inst.a(x[x > 0]))
    assert np.all(w[x <= 0] == inst.a(0.0)) and inst.a(0.0) == -inst.negative_sup
    lit = np.flatnonzero(w > 0)
    assert lit.size and np.all(np.diff(lit) == 1)
    res = np.abs(np.abs(inst.dv(x)) ** inst.gamma * inst.d2v(x) + w * inst.v(x) ** inst.q)
    assert float(np.max(res)) <= 1e-12


@pytest.mark.parametrize("gamma, q, errors, rate", [
    pytest.param(0.0, 0.5, (1.40e-4, 3.49e-5), 1.9, id="gamma0"),     # 2.00
    pytest.param(0.5, 0.6, (1.12e-2, 4.36e-3), 1.3, id="gamma0.5"),   # 1.36
    pytest.param(1.0, 0.8, (8.81e-3, 2.78e-3), 1.6, id="gamma1")])    # 1.66
def test_one_component_weight_error_falls(gamma, q, errors, rate):
    # on the one-component weight the closed form v is the maximal
    # solution, so the answer from above converges to it: the sup error
    # falls from n = 199 to n = 399 at the observed order log2(e199 / e399)
    # (about h^2 at gamma = 0, h^1.4-1.7 at gamma = 0.5 and 1)
    inst = example_instance(gamma, q)
    g = Grid.interval(*inst.domain, 199)
    errs = []
    for grid in (g, g.refine()):
        u = _example_from_above(inst, grid, inst.one_component_weight_on(grid))
        assert classify(u).verdict == "dead_core"
        errs.append(float(np.max(np.abs(u.values - inst.solution_on(grid).values))))
    assert errs == pytest.approx(errors, rel=0.01)
    assert np.log2(errs[0] / errs[1]) >= rate


def test_example_weight_lights_its_left_component():
    # the example weight is positive on (-pi/2, -0.886) too, where v = 0:
    # the maximal solution is positive there (0.0446 at n = 199; 0.051 at
    # n = 1599), so the error against v does not fall with h
    inst = example_instance(1.0, 0.8)
    g = Grid.interval(*inst.domain, 199)
    u = _example_from_above(inst, g, inst.weight_on(g))
    left = g.axis(0) < -np.arccos(inst.r ** -0.5)   # where cos^2 x < 1 / r
    assert float(u.values[left].max()) == pytest.approx(0.045, abs=0.002)
