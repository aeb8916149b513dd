"""Classification, Hopf margins, the w-transform, barriers, thresholds."""

import numpy as np
import pytest

from deadcore import (Grid, GridFunction, WeightField, OperatorSpec,
                      IterationControl, ProblemSpec, classify,
                      hopf_bound, to_w, w_residual, barrier_check,
                      estimate_threshold, evaluate_operator, example_instance,
                      solve, ball_eigenpair, ThresholdReport)

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


def test_to_w_rejects_dead_core():
    g = Grid.interval(0.0, 1.0, 9)
    with pytest.raises(ValueError):
        to_w(GridFunction.zeros(g), 0.0, 0.5)


def test_w_residual_constant_perturbation_bound():
    # shifting w by a constant only moves the grad w (x) grad w / w term
    g = Grid.interval(0.0, 1.0, 99)
    w0 = GridFunction(g, 1.0 + np.sin(np.pi * g.axis(0)), dirichlet=False)
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


def _w_operators(dim):
    fam = (np.eye(dim), 2.0 * np.eye(dim))
    return [OperatorSpec.linear_trace(np.diag([1.0, 1.7][:dim]), lam=1.0, Lam=2.0),
            OperatorSpec.pucci_plus(1.0, 2.0), OperatorSpec.pucci_minus(0.5, 3.0),
            OperatorSpec.hjb_inf(fam, 1.0, 2.0), OperatorSpec.hjb_sup(fam, 1.0, 2.0),
            OperatorSpec.p_laplacian(3.0),
            # a coefficient field is read at the interior nodes
            OperatorSpec.linear_trace(lambda x: np.diag([1.0 + 0.3 * x[0], 1.5][:dim]),
                                      lam=1.0, Lam=2.0)]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("index", range(7))
def test_w_residual_is_the_pointwise_operator(dim, index):
    # gamma = 0 and a = 0: the w-residual is F(x, M) at every interior node,
    # M = D^2 w + c grad w (x) grad w / w from centred differences
    spec = _w_operators(dim)[index]
    if dim == 1:
        g = Grid.interval(0.0, 2.0, 31)
        w = GridFunction(g, 2.0 + np.sin(3.0 * g.axis(0)), dirichlet=False)
    else:
        g = Grid.rectangle(0.0, 2.0, 0.0, 1.0, 15, 7)
        x, y = g.coords()
        w = GridFunction(g, 2.0 + np.sin(3.0 * x) * np.cos(2.0 * y),
                         dirichlet=False)
    p = ProblemSpec(g, spec, 0.0, 0.5, WeightField.constant(g, 0.0))
    r = g.interior(w_residual(w, p).values)
    c = p.q / (1.0 + p.gamma - p.q)
    v, h = w.values, g.h
    ref = np.empty(r.shape)
    for node in np.ndindex(*r.shape):
        i = tuple(k + 1 for k in node)
        grad, M = np.empty(dim), np.empty((dim, dim))
        for a in range(dim):
            e = np.eye(dim, dtype=int)[a]
            up, dn = tuple(np.add(i, e)), tuple(np.subtract(i, e))
            grad[a] = (v[up] - v[dn]) / (2 * h[a])
            M[a, a] = (v[up] - 2 * v[i] + v[dn]) / h[a] ** 2
        if dim == 2:
            M[0, 1] = M[1, 0] = (v[i[0] + 1, i[1] + 1] + v[i[0] - 1, i[1] - 1]
                                 - v[i[0] + 1, i[1] - 1] - v[i[0] - 1, i[1] + 1]) \
                / (4 * h[0] * h[1])
        M += c * np.outer(grad, grad) / v[i]
        x = [g.axis(a)[i[a]] for a in range(dim)]
        ref[node] = evaluate_operator(spec, x, M, grad)
    assert np.max(np.abs(r - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_w_residual_1d_p_laplacian_at_a_zero_gradient():
    # in 1-D the p-Laplacian is (p - 1) w'' at every gradient, also at the
    # node where the centred gradient of a symmetric w is exactly 0
    g = Grid.interval(0.0, 2.0, 31)
    x = g.axis(0)
    w = GridFunction(g, 2.0 + x * (2.0 - x), dirichlet=False)
    p = ProblemSpec(g, OperatorSpec.p_laplacian(3.0), 0.0, 0.5,
                    WeightField.constant(g, 0.0))
    grad, = p.scheme.grad(w.values)
    assert np.count_nonzero(grad == 0.0) == 1
    c = p.q / (1.0 + p.gamma - p.q)
    M = p.scheme.second_differences(w.values)["x"] + c * grad ** 2 / g.interior(w.values)
    np.testing.assert_allclose(g.interior(w_residual(w, p).values), 2.0 * M,
                               rtol=1e-15, atol=0)


# --- barrier ---------------------------------------------------------------

def test_barrier_eps_theta_values():
    # closed formula eps_theta = (a0/lam+ - theta)^(1/(gamma+1-q))
    g = Grid.interval(0.0, 2.0, 199)
    ball = (0.1, 0.9)
    w = WeightField.sinsplit(g, 0.3).scaled(100.0)
    p = ProblemSpec(g, SPEC1, 0.0, 0.5, w)
    pair = ball_eigenpair(p, ball)
    x = g.axis(0)
    a0 = float(np.min(w.values[(x >= 0.1 - 1e-12) & (x <= 0.9 + 1e-12)]))
    ratio = a0 / pair.lambda_plus
    tall = GridFunction(g, np.full(g.shape, 10.0), dirichlet=False)
    res = barrier_check(tall, ball, p, theta=0.5)
    assert res.status == "checked"
    assert res.eps_theta == pytest.approx((ratio - 0.5) ** 2.0, rel=1e-12)
    assert res.ok   # u = 10 dominates eps_theta * phi (phi <= 1)
    # unit base: ratio - theta = 1 gives eps_theta = 1 for every (gamma, q)
    res_unit = barrier_check(tall, ball, p, theta=ratio - 1.0 - 1e-9)
    assert res_unit.eps_theta == pytest.approx(1.0, abs=1e-8)
    # derived arithmetic of the formula at ratio 2, theta 1/2, gamma=1, q=0.5
    assert (2.0 - 0.5) ** (1.0 / (1.0 + 1.0 - 0.5)) \
        == pytest.approx(1.5 ** (2.0 / 3.0))


def test_barrier_inapplicable():
    g = Grid.interval(0.0, 2.0, 99)
    ball = (0.1, 0.9)
    w = WeightField.sinsplit(g, 0.3)   # sup 1, well below lambda+ ~ 15
    p = ProblemSpec(g, SPEC1, 0.0, 0.5, w)
    res = barrier_check(GridFunction.zeros(g), ball, p, theta=0.1)
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
    for bracket in ((0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan)):
        with pytest.raises(ValueError, match="^bracket .* must be finite"):
            estimate_threshold(family, "s", bracket, (0.2, 0.8))


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
        assert "np." not in a   # plain floats, whatever numpy prints
    # report.txt carries one line per anomaly, after the fixed fields
    lines = rep.to_text().splitlines()
    assert lines[-len(rep.anomalies):] == ["anomaly = %s" % a
                                           for a in rep.anomalies]
    clean = ThresholdReport("s", (0.0, 1.0), (0.25, 0.5), 0.375)
    assert clean.to_text() == ("parameter = s\nbracket = 0,1\nstatus = ok\n"
                               "monotone = True\nfinal_bracket = 0.25,0.5\n"
                               "estimate = 0.375\n")


def test_threshold_unconverged_probe_is_an_anomaly():
    # a q-sweep whose last probe (q = 0.9, sup u about 6e3) stops above the
    # tolerance: its verdict stands, and the anomalies name its value, its
    # residual and its steps; the converged probes add none
    g = Grid.interval(0.0, 2.0, 99)
    w = WeightField.sinsplit(g, 1.3).scaled(30.0)

    def family(q):
        return ProblemSpec(g, SPEC1, 0.0, q, w)

    rep = estimate_threshold(family, "q", (0.2, 0.9), (0.2, 0.8), probes=4,
                             bisect_steps=0)
    assert rep.status == "ok"
    tol = IterationControl().tolerance
    late = [r for r in rep.probes if r.residual > tol]
    assert [r.value for r in late] == [0.9]
    assert late[0].verdict == "positivity_cone"
    assert len(rep.anomalies) == 1
    a = rep.anomalies[0]
    assert a.startswith("q = %.17g: not converged: residual %.6e after "
                        % (0.9, late[0].residual))
    assert a.endswith(" steps")
    assert "anomaly = %s" % a in rep.to_text().splitlines()


def test_threshold_bisect_steps_exact():
    # bisect_steps bisections exactly, no hidden minimum; negative raises
    g = Grid.interval(0.0, 1.0, 39)

    def family(c):
        return ProblemSpec(g, SPEC1, 0.0, 0.5, WeightField.constant(g, c))

    rep = estimate_threshold(family, "c", (-1.0, 1.0), (0.2, 0.8),
                             ctl=IterationControl(tolerance=1e-6), probes=4,
                             bisect_steps=3)
    assert len(rep.probes) == 4 + 3
    lo, hi = rep.final_bracket
    assert hi - lo == pytest.approx((2.0 / 3.0) / 2 ** 3)
    assert -1.0 / 3.0 <= lo < hi <= 1.0 / 3.0   # inside the flip interval
    with pytest.raises(ValueError, match="bisect_steps"):
        estimate_threshold(family, "c", (-1.0, 1.0), (0.2, 0.8), probes=4,
                           bisect_steps=-1)


def test_threshold_flipping_family_is_not_monotone():
    # the probe value picks s = 0.5 (positive) or s = 2.5 (dead core) out of
    # order, so the scan's verdicts flip three times; the bisection takes
    # the last flip, as the first verdict is positive
    g = Grid.interval(0.0, 2.0, 39)
    base = WeightField.sinsplit(g, 1.0).scaled(30.0)

    def family(v):
        s = 0.5 if v < 0.1 or 0.4 < v < 0.6 else 2.5
        return ProblemSpec(g, SPEC1, 0.0, 0.5, base.with_negative_scale(s))

    rep = estimate_threshold(family, "v", (0.0, 1.0), (0.2, 0.8), probes=5,
                             bisect_steps=1)
    P, D = "positivity_cone", "dead_core"
    assert [r.verdict for r in rep.probes] == [P, D, P, D, D, D]
    assert rep.status == "ok" and rep.monotone is False
    assert rep.anomalies == ["verdict flips at probe indices [0, 1, 2]"]
    assert rep.final_bracket == (0.5, 0.625)
    assert "monotone = False" in rep.to_text().splitlines()


def test_threshold_family_changing_grid_probes_cold(monkeypatch):
    # a probe on another grid than its neighbour's answer starts cold:
    # solve would refuse that answer as its u0
    import deadcore.analysis as analysis_mod
    grids = [Grid.interval(0.0, 2.0, n) for n in (39, 41)]
    bases = [WeightField.sinsplit(g, 1.0).scaled(30.0) for g in grids]

    def family(s):
        k = int(s > 1.5)
        return ProblemSpec(grids[k], SPEC1, 0.0, 0.5,
                           bases[k].with_negative_scale(s))

    starts = []

    def run(problem, **kwargs):
        starts.append((problem.grid, kwargs["u0"]))
        return solve(problem, **kwargs)

    monkeypatch.setattr(analysis_mod, "solve", run)
    rep = estimate_threshold(family, "s", (0.5, 2.5), (0.2, 0.8), probes=4,
                             bisect_steps=2)
    assert rep.status == "ok" and rep.anomalies == []
    assert [g.n for g, _ in starts] == [(39,), (39,), (41,), (41,), (39,),
                                        (39,)]
    assert [u0 is None for _, u0 in starts] == [True, False, True, False,
                                                False, False]
    assert all(u0 is None or u0.grid == g for g, u0 in starts)


def test_threshold_sweep_computes_one_eigenpair(monkeypatch):
    import deadcore.solver as solver_mod
    calls = []
    eigensolve = solver_mod.principal_eigenpair

    def counting(*args, **kwargs):
        calls.append(1)
        return eigensolve(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "principal_eigenpair", counting)
    solver_mod._ball_pair.cache_clear()
    g = Grid.interval(0.0, 2.0, 39)
    base = WeightField.sinsplit(g, 1.0).scaled(30.0)

    def family(s):
        return ProblemSpec(g, SPEC1, 0.0, 0.5, base.with_negative_scale(s))

    rep = estimate_threshold(family, "s", (0.5, 2.5), (0.2, 0.8), probes=4,
                             bisect_steps=2)
    assert len(rep.probes) == 6
    assert len(calls) == 1


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper; returns the list it appends to."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _recording_solve(monkeypatch, reports, warm):
    """estimate_threshold's solve, recording each report; with warm=False
    the probes are cold: the neighbour's answer is not offered."""
    import deadcore.analysis as analysis_mod

    def run(problem, **kwargs):
        if not warm:
            kwargs["u0"] = None
        rep = solve(problem, **kwargs)
        reports.append(rep)
        return rep

    monkeypatch.setattr(analysis_mod, "solve", run)


def test_threshold_sweep_builds_one_supersolution(monkeypatch):
    # in s every probe after the first starts from its solved neighbour
    # below, a certified supersolution
    import deadcore.solver as solver_mod
    built = _counting(monkeypatch, solver_mod, "build_supersolution")
    g = Grid.interval(0.0, 2.0, 39)
    base = WeightField.sinsplit(g, 1.0).scaled(30.0)

    def family(s):
        return ProblemSpec(g, SPEC1, 0.0, 0.5, base.with_negative_scale(s))

    rep = estimate_threshold(family, "s", (0.5, 2.5), (0.2, 0.8), probes=4,
                             bisect_steps=2)
    assert rep.status == "ok" and len(rep.probes) == 6
    assert len(built) == 1


def test_threshold_unordered_family_builds_every_supersolution(monkeypatch):
    # a constant weight c: u grows with c, so the neighbour below is a
    # subsolution and fails the certificate; each probe whose subsolution
    # exists (c > 0) builds the supersolution, and the records are those
    # of cold probes
    import deadcore.solver as solver_mod
    built = _counting(monkeypatch, solver_mod, "build_supersolution")
    g = Grid.interval(0.0, 1.0, 39)

    def family(c):
        return ProblemSpec(g, SPEC1, 0.0, 0.5, WeightField.constant(g, c))

    def sweep():
        return estimate_threshold(family, "c", (-1.0, 1.0), (0.2, 0.8),
                                  ctl=IterationControl(tolerance=1e-6),
                                  probes=6, bisect_steps=3)

    warm = sweep()
    solved = [r for r in warm.probes if r.value > 0]
    assert len(solved) >= 4 and len(built) == len(solved)
    _recording_solve(monkeypatch, [], warm=False)
    cold = sweep()
    assert [r.csv_row() for r in warm.probes] == \
        [r.csv_row() for r in cold.probes]
    assert warm.to_text() == cold.to_text()


def test_warm_sweep_matches_cold_probes(monkeypatch):
    # the sweep_s problem: 8 probes and 8 bisections over s in [0.5, 2.5]
    # give the values, verdicts and estimate of cold probes, each answer
    # within the tolerance of the cold one, in fewer PTC steps
    g = Grid.interval(0.0, 2.0, 99)
    base = WeightField.sinsplit(g, 1.0).scaled(30.0)
    ctl = IterationControl(tolerance=1e-8)

    def family(s):
        return ProblemSpec(g, SPEC1, 0.0, 0.5, base.with_negative_scale(s))

    reports, sweeps = {}, {}
    for warm in (True, False):
        reports[warm] = []
        _recording_solve(monkeypatch, reports[warm], warm)
        sweeps[warm] = estimate_threshold(family, "s", (0.5, 2.5), (0.2, 0.8),
                                          ctl=ctl, probes=8, bisect_steps=8)
    warm, cold = sweeps[True], sweeps[False]
    assert [(r.value, r.verdict) for r in warm.probes] == \
        [(r.value, r.verdict) for r in cold.probes]
    assert warm.final_bracket == cold.final_bracket
    assert warm.estimate == cold.estimate == 1.3219866071428572
    assert len(reports[True]) == len(reports[False]) == 16
    for a, b in zip(reports[True], reports[False]):
        assert a.converged and b.converged
        assert np.max(np.abs(a.solution.values - b.solution.values)) \
            <= 2 * ctl.tolerance
    assert sum(r.steps for r in reports[True]) < \
        sum(r.steps for r in reports[False])
    # a warm probe's first pseudo-time step is sized from its start's
    # residual: 141 solves in all, where a climb from dt = 1e-3 took 16-17
    # per probe (265)
    P, D = "positivity_cone", "dead_core"
    assert [r.verdict for r in warm.probes] == [P] * 3 + [D] * 5 + [P] * 3 \
        + [D] * 5
    assert sum(r.steps for r in reports[True]) <= 150


def test_example_threshold_probe_rows():
    # criterion 9's sweep (gamma = 1, q = 0.8, n = 199): every probe row and
    # the estimate are pinned to the ones the explicit reference loop gives
    # (about 130 s of explicit steps, so that sweep is not rerun here)
    inst = example_instance(1.0, 0.8)
    g = Grid.interval(*inst.domain, 199)
    w = inst.weight_on(g)
    rep = estimate_threshold(
        lambda s: ProblemSpec(g, SPEC1, inst.gamma, inst.q,
                              w.with_negative_scale(s)),
        "s", (0.0, 1.25), (1.0, 1.5), ctl=IterationControl(tolerance=1e-7),
        probes=6, bisect_steps=8)
    P, D = "positivity_cone", "dead_core"
    assert [(r.value, r.verdict) for r in rep.probes] == [
        (0.0, P), (0.25, P), (0.5, P), (0.75, D), (1.0, D), (1.25, D),
        (0.625, D), (0.5625, P), (0.59375, D), (0.578125, P), (0.5859375, P),
        (0.58984375, P), (0.591796875, P), (0.5927734375, P)]
    assert all(r.residual <= 1e-7 for r in rep.probes)
    assert rep.estimate == 0.59326171875 and not rep.anomalies
