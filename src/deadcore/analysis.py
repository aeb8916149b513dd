"""Solution classification and the positivity-threshold machinery.

Verdicts: trivial, dead_core (an interior stencil-ball of near-zero
nodes), positive_interior, or positivity_cone (positive interior minimum
plus a strictly positive boundary slope, the discrete Hopf margin).
Dead-core detection uses tol_zero = h^2 relative to the sup norm: below
scheme truncation error, above solver tolerance.

Also here: the w = u^(1 - q/(1+gamma)) / (1 - q/(1+gamma)) change of
variables and its residual equation, the lower barrier eps_theta * phi+
on balls where the weight dominates the ball eigenvalue, and bisection on
the solver verdict to locate positivity thresholds in the negative-part
scale s or the exponent q.
"""

from dataclasses import dataclass, field
import numpy as np

from .grids import GridFunction, _stencil_all_below
from .operators import evaluate_operator
from .solver import BRACKET_TOL, _ball_nodes, ball_eigenpair, solve, SubsolutionError

__all__ = [
    "ClassificationReport", "ThresholdReport", "BarrierResult", "ProbeRecord",
    "classify", "hopf_bound", "to_w", "w_residual", "w_residual_sup",
    "barrier_check", "estimate_threshold",
]

POSITIVE_VERDICTS = ("positive_interior", "positivity_cone")


@dataclass
class ClassificationReport:
    verdict: str
    dead_core_nodes: np.ndarray   # boolean mask over all nodes
    interior_min: float
    hopf_margin: float

    def to_text(self):
        return ("verdict = %s\ndead_core_count = %d\ninterior_min = %.6e\n"
                "hopf_margin = %.6e\n" % (self.verdict,
                                          int(np.sum(self.dead_core_nodes)),
                                          self.interior_min, self.hopf_margin))


def _boundary_margin(u):
    """Smallest inward difference quotient of u over the boundary faces."""
    st, v, h = u.grid.stencil, u.values, u.grid.h
    # a face without its ends on the other axes
    inner = st.interior[1:]
    return float(min(((v[inward] - v[face])[inner] / h[k]).min()
                     for k, face, inward in st.faces))


def classify(u):
    """Taxonomy of a nonnegative field (verdict scale-invariant).

    The near-zero test runs on u normalized by its sup norm, with
    tol_zero = max(h)^2.
    """
    if np.min(u.values) < 0:
        raise ValueError("classification requires a nonnegative field")
    g = u.grid
    tolz = max(g.h) ** 2
    sup = u.sup_norm()
    if sup <= tolz:
        return ClassificationReport("trivial", np.zeros(g.shape, dtype=bool),
                                    0.0, 0.0)
    v = u.values / sup
    near = v < tolz
    core = _stencil_all_below(near)
    interior_min = float(np.min(g.interior(u.values)))
    margin = _boundary_margin(u)
    if np.any(core):
        return ClassificationReport("dead_core", core, interior_min, margin)
    if interior_min > 0 and margin > 0:
        return ClassificationReport("positivity_cone", core, interior_min, margin)
    return ClassificationReport("positive_interior", core, interior_min, margin)


def hopf_bound(u):
    """Largest M with u >= M * dist(., boundary) at every interior node."""
    g = u.grid
    d = g.interior(g.distance_to_boundary())
    return float(np.min(g.interior(u.values) / d))


def to_w(u, gamma, q):
    """w = u^(1 - qbar) / (1 - qbar), qbar = q / (1 + gamma); u > 0 inside."""
    qbar = q / (1.0 + gamma)
    if not 0 < qbar < 1:
        raise ValueError("transform needs 0 < q/(1+gamma) < 1")
    ui = u.grid.interior(u.values)
    if np.min(ui) <= 0:
        raise ValueError("transform undefined at dead cores (u <= 0 inside)")
    w = np.zeros(u.grid.shape)
    u.grid.interior(w)[...] = ui ** (1.0 - qbar) / (1.0 - qbar)
    return GridFunction(u.grid, w)


def w_residual(w, problem):
    """Residual of the transformed equation at w (interior nodes).

    Evaluates |grad w|^gamma_delta * F(x, D^2 w + c grad w (x) grad w / w) + a
    with c = q / (1 + gamma - q), F the continuum operator
    (evaluate_operator) on the matrix field of centred differences: the
    axis curvatures on the diagonal and, in 2-D, the cross difference off
    it.  w must be positive inside.
    """
    g, scheme = problem.grid, problem.scheme
    q = problem.q
    c = q / (1.0 + problem.gamma - q)
    wi = g.interior(w.values)
    if np.min(wi) <= 0:
        raise ValueError("w-residual needs w > 0 on the interior")

    k = scheme.second_differences(w.values)
    grads = scheme.grad(w.values)
    X = np.empty((g.dim, g.dim) + wi.shape)
    for i, (name, gi) in enumerate(zip(scheme.stencil.axes, grads)):
        X[i, i] = k[name] + c * gi ** 2 / wi
    if g.dim == 2:
        X[0, 1] = X[1, 0] = scheme.cross_difference(w.values) \
            + c * grads[0] * grads[1] / wi
    Fv = evaluate_operator(problem.operator, g.interior_nodes(),
                           np.moveaxis(X, (0, 1), (-2, -1)), np.stack(grads, -1))
    out = np.zeros(g.shape)
    g.interior(out)[...] = scheme.grad_factor(w.values) * Fv \
        + g.interior(problem.weight.values)
    return GridFunction(g, out, dirichlet=False)


def w_residual_sup(w, problem, margin):
    """Sup of the w-residual away from the 1/w singularity: over the
    fixed compact subset of nodes at distance >= margin from the boundary
    (grid-independent, for refinement studies).
    """
    r = w_residual(w, problem)
    g = problem.grid
    mask = g.interior(g.distance_to_boundary()) >= margin
    return float(np.max(np.abs(g.interior(r.values)[mask])))


@dataclass
class BarrierResult:
    status: str          # 'checked' or 'inapplicable'
    eps_theta: float = None
    ok: bool = None
    worst_slack: float = None


def barrier_check(u, ball, problem, theta):
    """Check u >= eps_theta * phi+(ball) - 2 BRACKET_TOL on the ball.

    (lam+, phi+) is the problem's ball eigenpair (solver.ball_eigenpair,
    the pair its subsolution reads).  eps_theta =
    (a0 / lam+ - theta)^(1/(gamma+1-q)) with a0 the weight minimum over
    the ball's host nodes (solver._ball_nodes, the nodes of the pair's
    sub-grid), where the slack is taken too, against max(phi+, 0) on
    that sub-grid.  Returns an 'inapplicable' status when a0 <= lam+
    (the weight can be rescaled upstream to restore it).
    """
    box = tuple(slice(i, j) for i, j in _ball_nodes(problem.grid, ball))
    a0 = float(np.min(problem.weight.values[box]))
    pair = ball_eigenpair(problem, ball)
    if a0 <= pair.lambda_plus:
        return BarrierResult("inapplicable")
    ratio = a0 / pair.lambda_plus
    if not ratio - theta > 1:
        raise ValueError("theta must satisfy a0/lam+ - theta > 1")
    eps = (ratio - theta) ** (1.0 / (problem.gamma + 1.0 - problem.q))
    phi = np.maximum(pair.phi_plus.values, 0.0)
    worst = float(np.min(u.values[box] - (eps * phi - 2.0 * BRACKET_TOL)))
    return BarrierResult("checked", eps, worst >= 0, worst)


@dataclass
class ProbeRecord:
    value: float
    verdict: str
    residual: float
    interior_min: float
    hopf_margin: float

    def csv_row(self):
        return "%.17g,%s,%.6e,%.6e,%.6e" % (
            self.value, self.verdict, self.residual, self.interior_min,
            self.hopf_margin)


@dataclass
class ThresholdReport:
    parameter: str
    bracket: tuple
    final_bracket: tuple = None
    estimate: float = None
    probes: list = field(default_factory=list)
    monotone: bool = True
    anomalies: list = field(default_factory=list)
    status: str = "ok"

    CSV_HEADER = "value,verdict,residual,interior_min,hopf_margin"

    def to_text(self):
        lines = ["parameter = %s" % self.parameter,
                 "bracket = %.17g,%.17g" % self.bracket,
                 "status = %s" % self.status,
                 "monotone = %s" % self.monotone]
        if self.final_bracket is not None:
            lines.append("final_bracket = %.17g,%.17g" % self.final_bracket)
            lines.append("estimate = %.17g" % self.estimate)
        lines += ["anomaly = %s" % a for a in self.anomalies]
        return "\n".join(lines) + "\n"


def estimate_threshold(family, parameter, bracket, ball, ctl=None,
                       probes=16, bisect_steps=8):
    """Bisection on the solver verdict across a monotone parameter family.

    `family(value) -> ProblemSpec`; each probe solves from the subsolution
    seeded on `ball` and classifies the result.  The initial `probes`
    equispaced verdicts are recorded (and checked for monotonicity), then
    the flip interval is bisected `bisect_steps` times.  A bracket that is
    not finite with lo < hi is refused before any probe.  If the endpoint
    verdicts agree a 'no_threshold' report is returned.  A probe whose
    subsolution cannot be built counts as 'trivial', one whose solve does
    not converge keeps its verdict; each adds an `anomalies` entry naming
    the value and the error (the residual and the steps).

    Probes run one after another, and a family with one grid, operator and
    gamma shares one ball eigenpair (see ball_eigenpair).  Each probe
    offers solve the answer of its nearest solved probe below (the
    previous one in the scan, the one at the lower end in the bisection)
    as the upper end of its bracket, which solve takes only if it passes
    the supersolution certificate; a probe whose problem lies on another
    grid starts cold.  With a = a+ - s a-, the answer at
    s' < s has the residual -(s - s') a- u^q <= 0 at s, so an s-sweep
    builds a supersolution only for its first probe; a family without
    this order (a sweep in q) builds one for every probe.  The solve's
    first pseudo-time step is sized from its start's residual, so a
    probe started from its neighbour takes 4-11 solves (n = 99), not the
    16-17 of a climb from dt = 1e-3.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not -np.inf < lo < hi < np.inf:
        raise ValueError("bracket %g,%g must be finite with lo < hi" % (lo, hi))
    if probes < 2:
        raise ValueError("need at least 2 probes")
    if bisect_steps < 0:
        raise ValueError("bisect_steps must be >= 0")
    report = ThresholdReport(parameter, (lo, hi))

    def probe(val, below):
        """(record, the answer at val, or `below` if it has none)."""
        p = family(val)
        if below is not None and below.grid != p.grid:
            below = None
        try:
            rep = solve(p, init="subsolution", ball=ball, ctl=ctl, u0=below)
        except SubsolutionError as exc:
            report.anomalies.append("%s = %.17g: SubsolutionError: %s"
                                    % (parameter, val, exc))
            return ProbeRecord(val, "trivial", np.nan, 0.0, 0.0), below
        if not rep.converged:
            report.anomalies.append(
                "%s = %.17g: not converged: residual %.6e after %d steps"
                % (parameter, val, rep.residual_sup, rep.steps))
        cls = classify(rep.solution)
        return (ProbeRecord(val, cls.verdict, rep.residual_sup,
                            cls.interior_min, cls.hopf_margin), rep.solution)

    values = np.linspace(lo, hi, probes)
    # answers[k]: the answer probe k offers its successor, and the
    # bisection's start if probe k becomes blo
    flags, answers, below = [], [], None
    for v in values:
        rec, below = probe(v, below)
        report.probes.append(rec)
        flags.append(rec.verdict in POSITIVE_VERDICTS)
        answers.append(below)

    if flags[0] == flags[-1]:
        report.status = "no_threshold"
        return report
    flips = [i for i in range(len(flags) - 1) if flags[i] != flags[i + 1]]
    if len(flips) > 1:
        report.monotone = False
        report.anomalies.append("verdict flips at probe indices %r" % flips)
    i = flips[-1] if flags[0] else flips[0]
    blo, bhi = float(values[i]), float(values[i + 1])
    flo, low = flags[i], answers[i]

    for _ in range(bisect_steps):
        mid = 0.5 * (blo + bhi)
        rec, u = probe(mid, low)
        report.probes.append(rec)
        if (rec.verdict in POSITIVE_VERDICTS) == flo:
            blo, low = mid, u
        else:
            bhi = mid
    report.final_bracket = (blo, bhi)
    report.estimate = 0.5 * (blo + bhi)
    return report
