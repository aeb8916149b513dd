"""Classification, Hopf margins, the w-transform, barriers, thresholds."""

import numpy as np
import pytest

from deadcore import (Grid, GridFunction, WeightField, OperatorSpec,
                      IterationControl, ProblemSpec, classify, hopf_bound,
                      to_w, from_w, w_residual, barrier_check,
                      estimate_threshold, example_instance, solve,
                      ball_eigenpair)

SPEC1 = OperatorSpec.linear_trace(np.eye(1))


# --- classification --------------------------------------------------------

def test_classify_trivial():
    g = Grid.interval(0.0, 1.0, 19)
    cls = classify(GridFunction.zeros(g))
    assert cls.verdict == "trivial"


def test_classify_sin_positivity_cone():
    g = Grid.interval(0.0, np.pi, 199)
    cls = classify(GridFunction.from_callable(g, np.sin))
    assert cls.verdict == "positivity_cone"
    # boundary slope of sin is 1; first-order quotient converges to it
    assert cls.hopf_margin == pytest.approx(1.0, abs=0.05)


def test_classify_oracle_dead_core():
    inst = example_instance(1.0, 0.8)
    g = Grid.interval(*inst.domain, 399)
    cls = classify(inst.solution_on(g))
    assert cls.verdict == "dead_core"
    x = g.axis(0)
    core = cls.dead_core_nodes
    want = (x >= -np.pi / 2 + 0.1) & (x <= -0.05)
    assert np.all(core[want])


def test_classify_scale_invariance():
    inst = example_instance(1.0, 0.8)
    g = Grid.interval(*inst.domain, 199)
    u = inst.solution_on(g)
    # any scale with sup above the absolute trivial cutoff tol_zero
    for t in (0.1, 1.0, 1e6):
        cls = classify(GridFunction(g, t * u.values))
        assert cls.verdict == "dead_core"


def test_classify_rejects_negative():
    g = Grid.interval(0.0, 1.0, 9)
    vals = np.zeros(g.shape)
    vals[4] = -1.0
    with pytest.raises(ValueError):
        classify(GridFunction(g, vals, dirichlet=False))


# --- Hopf bound --------------------------------------------------------------

def test_hopf_bound_distance_itself():
    g = Grid.interval(0.0, 1.0, 49)
    d = GridFunction(g, g.distance_to_boundary(), dirichlet=False)
    assert hopf_bound(d) == pytest.approx(1.0, abs=1e-14)


def test_hopf_bound_sin():
    g = Grid.interval(0.0, np.pi, 199)
    u = GridFunction.from_callable(g, np.sin)
    # min over (0,pi) of sin(x)/min(x, pi-x) is attained at the center: 2/pi
    assert hopf_bound(u) == pytest.approx(2.0 / np.pi, abs=1e-4)


def test_hopf_bound_homogeneity_and_dead_core():
    g = Grid.interval(0.0, np.pi, 99)
    u = GridFunction.from_callable(g, np.sin)
    assert hopf_bound(GridFunction(g, 3.0 * u.values)) \
        == pytest.approx(3.0 * hopf_bound(u), rel=1e-14)
    inst = example_instance(1.0, 0.8)
    gd = Grid.interval(*inst.domain, 199)
    assert hopf_bound(inst.solution_on(gd)) == 0.0


# --- w-transform -------------------------------------------------------------

def test_to_w_arithmetic():
    g = Grid.interval(0.0, 1.0, 3)
    u = GridFunction(g, np.array([0.0, 4.0, 4.0, 4.0, 0.0]), dirichlet=False)
    w = to_w(u, 0.0, 0.5)     # qbar = 1/2: w = 2 sqrt(u) = 4
    assert np.allclose(g.interior(w.values), 4.0, atol=1e-14)
    u9 = GridFunction(g, np.array([0.0, 9.0, 9.0, 9.0, 0.0]), dirichlet=False)
    w9 = to_w(u9, 1.0, 1.0)   # qbar = 1/2: w = 2 sqrt(9) = 6
    assert np.allclose(g.interior(w9.values), 6.0, atol=1e-14)


def test_w_roundtrip():
    rng = np.random.default_rng(41)
    g = Grid.interval(0.0, 1.0, 49)
    vals = np.zeros(g.shape)
    g.interior(vals)[...] = 0.1 + rng.random(49)
    u = GridFunction(g, vals, dirichlet=False)
    for gamma, q in ((0.0, 0.5), (1.0, 0.8), (2.0, 1.5)):
        back = from_w(to_w(u, gamma, q), gamma, q)
        assert np.allclose(back.values, u.values, rtol=1e-13)


def test_to_w_rejects_dead_core():
    g = Grid.interval(0.0, 1.0, 9)
    with pytest.raises(ValueError):
        to_w(GridFunction.zeros(g), 0.0, 0.5)


def test_w_residual_constant_perturbation_bound():
    # shifting w by a constant only moves the grad w (x) grad w / w term
    g = Grid.interval(0.0, 1.0, 99)
    w0 = GridFunction.from_callable(g, lambda x: 1.0 + np.sin(np.pi * x),
                                    dirichlet=False)
    p = ProblemSpec(g, SPEC1, 0.0, 0.5, WeightField.constant(g, 1.0))
    r0 = w_residual(w0, p)
    eps = 0.01
    w1 = GridFunction(g, w0.values + eps, dirichlet=False)
    r1 = w_residual(w1, p)
    c = p.q / (1.0 + p.gamma - p.q)
    wi = g.interior(w0.values)
    gw = (w0.values[2:] - w0.values[:-2]) / (2 * g.h[0])
    bound = eps * c * np.max(gw ** 2 / wi ** 2) + 1e-12
    diff = np.max(np.abs(g.interior(r1.values) - g.interior(r0.values)))
    assert diff <= bound


# --- barrier ---------------------------------------------------------------

def test_barrier_eps_theta_values():
    # closed formula eps_theta = (a0/lam+ - theta)^(1/(gamma+1-q))
    g = Grid.interval(0.0, 2.0, 199)
    ball = (0.1, 0.9)
    w = WeightField.sinsplit(g, 0.3).scaled(100.0)
    p = ProblemSpec(g, SPEC1, 0.0, 0.5, w)
    pair = ball_eigenpair(p, ball)
    x = g.axis(0)
    a0 = float(np.min(w.samples[(x >= 0.1 - 1e-12) & (x <= 0.9 + 1e-12)]))
    ratio = a0 / pair.lambda_plus
    tall = GridFunction(g, np.full(g.shape, 10.0), dirichlet=False)
    res = barrier_check(tall, ball, pair, p, theta=0.5)
    assert res.status == "checked"
    assert res.eps_theta == pytest.approx((ratio - 0.5) ** 2.0, rel=1e-12)
    assert res.ok   # u = 10 dominates eps_theta * phi (phi <= 1)
    # unit base: ratio - theta = 1 gives eps_theta = 1 for every (gamma, q)
    res_unit = barrier_check(tall, ball, pair, p, theta=ratio - 1.0 - 1e-9)
    assert res_unit.eps_theta == pytest.approx(1.0, abs=1e-8)
    # derived arithmetic of the formula at ratio 2, theta 1/2, gamma=1, q=0.5
    assert (2.0 - 0.5) ** (1.0 / (1.0 + 1.0 - 0.5)) \
        == pytest.approx(1.5 ** (2.0 / 3.0))


def test_barrier_inapplicable():
    g = Grid.interval(0.0, 2.0, 99)
    ball = (0.1, 0.9)
    w = WeightField.sinsplit(g, 0.3)   # sup 1, well below lambda+ ~ 15
    p = ProblemSpec(g, SPEC1, 0.0, 0.5, w)
    pair = ball_eigenpair(p, ball)
    res = barrier_check(GridFunction.zeros(g), ball, pair, p, theta=0.1)
    assert res.status == "inapplicable"


# --- threshold harness ------------------------------------------------------

def test_threshold_validation():
    g = Grid.interval(0.0, 2.0, 49)
    w = WeightField.sinsplit(g, 1.0)

    def family(s):
        return ProblemSpec(g, SPEC1, 0.0, 0.5, w.with_negative_scale(s))

    with pytest.raises(ValueError):
        estimate_threshold(family, "s", (1.0, 1.0), (0.2, 0.8))
    with pytest.raises(ValueError):
        estimate_threshold(family, "s", (0.0, 1.0), (0.2, 0.8), probes=1)


def test_threshold_no_flip_report():
    g = Grid.interval(0.0, 2.0, 79)
    w = WeightField.sinsplit(g, 1.0).scaled(30.0)

    def family(s):
        return ProblemSpec(g, SPEC1, 0.0, 0.5, w.with_negative_scale(s))

    rep = estimate_threshold(family, "s", (0.0, 0.1), (0.2, 0.8),
                             ctl=IterationControl(tolerance=1e-6), probes=2)
    assert rep.status == "no_threshold"
    assert rep.estimate is None
    assert all(r.verdict in ("positive_interior", "positivity_cone")
               for r in rep.probes)


def test_threshold_subsolution_error_is_an_anomaly():
    # a constant weight c has no subsolution for c <= 0: those probes
    # stay 'trivial' and each one is named in the anomalies
    g = Grid.interval(0.0, 1.0, 39)

    def family(c):
        return ProblemSpec(g, SPEC1, 0.0, 0.5, WeightField.constant(g, c))

    rep = estimate_threshold(family, "c", (-1.0, 1.0), (0.2, 0.8),
                             ctl=IterationControl(tolerance=1e-6), probes=4,
                             bisect_steps=1)
    failed = [r for r in rep.probes if r.value <= 0]
    assert failed and all(r.verdict == "trivial" for r in failed)
    errors = [a for a in rep.anomalies if "SubsolutionError" in a]
    assert len(errors) == len(failed)
    for r, a in zip(failed, errors):
        assert a.startswith("c = %.17g: " % r.value)
        assert "positive set of the weight" in a
