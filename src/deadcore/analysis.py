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
from concurrent.futures import ThreadPoolExecutor
import numpy as np

from .grids import GridFunction, Scheme
from .dirichlet import sup_norm
from .solver import (ProblemSpec, ball_eigenpair, build_subsolution,
                     extend_ball_function, _ball_mask, _norm_ball, solve,
                     SubsolutionError)
from .operators import SymMatrix, evaluate_operator

__all__ = [
    "ClassificationReport", "ThresholdReport", "BarrierResult", "ProbeRecord",
    "classify", "hopf_bound", "to_w", "from_w", "w_residual", "w_residual_sup",
    "barrier_check", "estimate_threshold",
]

POSITIVE_VERDICTS = ("positive_interior", "positivity_cone")


@dataclass
class ClassificationReport:
    verdict: str
    dead_core_nodes: np.ndarray   # boolean mask over all nodes
    interior_min: float
    hopf_margin: float
    barrier_checked: bool = None

    def to_text(self):
        return ("verdict = %s\ndead_core_count = %d\ninterior_min = %.6e\n"
                "hopf_margin = %.6e\n" % (self.verdict,
                                          int(np.sum(self.dead_core_nodes)),
                                          self.interior_min, self.hopf_margin))


def _stencil_all_below(near):
    """Interior nodes whose full stencil (self + neighbors) is near zero."""
    if near.ndim == 1:
        ok = near[1:-1] & near[:-2] & near[2:]
        out = np.zeros_like(near)
        out[1:-1] = ok
        return out
    c = near[1:-1, 1:-1]
    ok = (c & near[:-2, 1:-1] & near[2:, 1:-1]
          & near[1:-1, :-2] & near[1:-1, 2:]
          & near[:-2, :-2] & near[2:, 2:] & near[:-2, 2:] & near[2:, :-2])
    out = np.zeros_like(near)
    out[1:-1, 1:-1] = ok
    return out


def _boundary_margin(u):
    """Smallest inward difference quotient of u over the boundary faces."""
    g = u.grid
    v = u.values
    h = g.h
    if g.dim == 1:
        return float(min((v[1] - v[0]) / h[0], (v[-2] - v[-1]) / h[0]))
    quots = [
        (v[1, 1:-1] - v[0, 1:-1]) / h[0], (v[-2, 1:-1] - v[-1, 1:-1]) / h[0],
        (v[1:-1, 1] - v[1:-1, 0]) / h[1], (v[1:-1, -2] - v[1:-1, -1]) / h[1],
    ]
    return float(min(np.min(q) for q in quots))


def classify(u, tol_zero=None):
    """Taxonomy of a nonnegative field (verdict scale-invariant).

    The near-zero test runs on u normalized by its sup norm, with
    tol_zero defaulting to max(h)^2.
    """
    if np.min(u.values) < 0:
        raise ValueError("classification requires a nonnegative field")
    g = u.grid
    tolz = max(g.h) ** 2 if tol_zero is None else float(tol_zero)
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


def from_w(w, gamma, q):
    """Inverse of to_w."""
    qbar = q / (1.0 + gamma)
    wi = w.grid.interior(w.values)
    u = np.zeros(w.grid.shape)
    w.grid.interior(u)[...] = ((1.0 - qbar) * wi) ** (1.0 / (1.0 - qbar))
    return GridFunction(w.grid, u)


def w_residual(w, problem):
    """Residual of the transformed equation at w (interior nodes).

    Evaluates |grad w|^gamma_delta * F(x, D^2 w + c grad w (x) grad w / w) + a
    with c = q / (1 + gamma - q).  w must be positive inside.
    """
    g = problem.grid
    spec = problem.operator
    gamma, q = problem.gamma, problem.q
    c = q / (1.0 + gamma - q)
    scheme = Scheme(g, spec, gamma)
    wi = g.interior(w.values)
    if np.min(wi) <= 0:
        raise ValueError("w-residual needs w > 0 on the interior")

    k = scheme.second_differences(w.values)
    grads = scheme.grad(w.values)
    gfac = scheme.grad_factor(w.values)
    a_int = g.interior(problem.weight.samples)

    if g.dim == 1:
        M = k["x"] + c * grads[0] ** 2 / wi
        Fv = _F_on_matrix_1d(spec, g, M)
    else:
        Mxx = k["x"] + c * grads[0] ** 2 / wi
        Myy = k["y"] + c * grads[1] ** 2 / wi
        Mxy = scheme.cross_difference(w.values) + c * grads[0] * grads[1] / wi
        Fv = _F_on_matrix_2d(spec, g, Mxx, Myy, Mxy, grads)
    out = np.zeros(g.shape)
    g.interior(out)[...] = gfac * Fv + a_int
    return GridFunction(g, out, dirichlet=False)


def _F_on_matrix_1d(spec, g, M):
    v = spec.variant
    if v == "linear_trace":
        return Scheme(g, spec, 0.0)._tables[0][0] * M
    if v == "pucci_plus":
        return spec.Lam * np.maximum(M, 0) - spec.lam * np.maximum(-M, 0)
    if v == "pucci_minus":
        return spec.lam * np.maximum(M, 0) - spec.Lam * np.maximum(-M, 0)
    if v == "p_laplacian":
        return (spec.p - 1.0) * M
    # generic pointwise fallback
    x = g.axis(0)[1:-1]
    return np.array([evaluate_operator(spec, xi, SymMatrix([[m]]))
                     for xi, m in zip(x, M)])


def _F_on_matrix_2d(spec, g, Mxx, Myy, Mxy, grads):
    v = spec.variant
    if v in ("linear_trace", "hjb_inf", "hjb_sup"):
        tabs = Scheme(g, spec, 0.0)._tables
        vals = [d[0] * Mxx + d[1] * Myy for d in tabs]
        if v == "linear_trace":
            return vals[0]
        red = np.minimum.reduce if v == "hjb_inf" else np.maximum.reduce
        return red(vals)
    if v in ("pucci_plus", "pucci_minus"):
        mean = 0.5 * (Mxx + Myy)
        rad = np.sqrt((0.5 * (Mxx - Myy)) ** 2 + Mxy ** 2)
        e1, e2 = mean - rad, mean + rad
        lam, Lam = spec.lam, spec.Lam
        if v == "pucci_plus":
            return (Lam * (np.maximum(e1, 0) + np.maximum(e2, 0))
                    - lam * (np.maximum(-e1, 0) + np.maximum(-e2, 0)))
        return (lam * (np.maximum(e1, 0) + np.maximum(e2, 0))
                - Lam * (np.maximum(-e1, 0) + np.maximum(-e2, 0)))
    if v == "p_laplacian":
        gx, gy = grads
        n2 = gx ** 2 + gy ** 2
        quad = Mxx * gx ** 2 + 2 * Mxy * gx * gy + Myy * gy ** 2
        tr = Mxx + Myy
        return np.where(n2 > 0, tr + (spec.p - 2.0) * quad / np.where(n2 > 0, n2, 1.0), tr)
    raise TypeError("unsupported operator for w-residual: %r" % v)


def w_residual_sup(w, problem, margin=None):
    """Sup of the w-residual away from the 1/w singularity.

    By default restricted to nodes with w >= sqrt(max h); with `margin`
    restricted instead to the fixed compact subset of nodes at distance
    >= margin from the boundary (grid-independent, for refinement
    studies).
    """
    r = w_residual(w, problem)
    g = problem.grid
    if margin is None:
        mask = g.interior(w.values) >= np.sqrt(max(g.h))
    else:
        mask = g.interior(g.distance_to_boundary()) >= margin
    return float(np.max(np.abs(g.interior(r.values)[mask])))


@dataclass
class BarrierResult:
    status: str          # 'checked' or 'inapplicable'
    eps_theta: float = None
    ok: bool = None
    worst_slack: float = None


def barrier_check(u, ball, pair, problem, theta, tol=1e-8):
    """Check u >= eps_theta * phi+(ball) - 2 tol on the ball.

    eps_theta = (a0 / lam+ - theta)^(1/(gamma+1-q)) with a0 the weight
    minimum over the closed ball.  Returns an 'inapplicable' status when
    a0 <= lam+ (the weight can be rescaled upstream to restore it).
    """
    g = problem.grid
    ball = _norm_ball(g, ball)
    mask = _ball_mask(g, ball)
    a0 = float(np.min(problem.weight.samples[mask]))
    lamp = pair.lambda_plus
    if a0 <= lamp:
        return BarrierResult("inapplicable")
    ratio = a0 / lamp
    if not ratio - theta > 1:
        raise ValueError("theta must satisfy a0/lam+ - theta > 1")
    eps = (ratio - theta) ** (1.0 / (problem.gamma + 1.0 - problem.q))
    phi = extend_ball_function(g, pair, ball)
    slack = u.values[mask] - (eps * phi.values[mask] - 2.0 * tol)
    return BarrierResult("checked", eps, bool(np.min(slack) >= 0),
                         float(np.min(slack)))


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
        return "\n".join(lines) + "\n"


def estimate_threshold(family, parameter, bracket, ball, ctl=None,
                       probes=16, bisect_steps=8, workers=1, tol_zero=None):
    """Bisection on the solver verdict across a monotone parameter family.

    `family(value) -> ProblemSpec`; each probe solves from the subsolution
    seeded on `ball` and classifies the result.  The initial `probes`
    equispaced verdicts are recorded (and checked for monotonicity), then
    the flip interval is bisected at least `bisect_steps` times.  If the
    endpoint verdicts agree a 'no_threshold' report is returned.  A probe
    whose subsolution cannot be built counts as 'trivial' and adds an
    `anomalies` entry naming the value and the error.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValueError("degenerate bracket")
    if probes < 2:
        raise ValueError("need at least 2 probes")
    report = ThresholdReport(parameter, (lo, hi))

    def probe(val):
        p = family(val)
        try:
            rep = solve(p, init="subsolution", ball=ball, ctl=ctl)
            cls = classify(rep.solution, tol_zero=tol_zero)
            return ProbeRecord(val, cls.verdict, rep.residual_sup,
                               cls.interior_min, cls.hopf_margin)
        except SubsolutionError as exc:
            report.anomalies.append("%s = %.17g: SubsolutionError: %s"
                                    % (parameter, val, exc))
            return ProbeRecord(val, "trivial", np.nan, 0.0, 0.0)

    values = np.linspace(lo, hi, probes)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            records = list(ex.map(probe, values))
    else:
        records = [probe(v) for v in values]
    report.probes.extend(records)

    flags = [r.verdict in POSITIVE_VERDICTS for r in records]
    if flags[0] == flags[-1]:
        report.status = "no_threshold"
        return report
    flips = [i for i in range(len(flags) - 1) if flags[i] != flags[i + 1]]
    if len(flips) > 1:
        report.monotone = False
        report.anomalies.append("verdict flips at probe indices %r" % flips)
    i = flips[-1] if flags[0] else flips[0]
    blo, bhi = float(values[i]), float(values[i + 1])
    flo = flags[i]

    for _ in range(max(bisect_steps, 8)):
        mid = 0.5 * (blo + bhi)
        rec = probe(mid)
        report.probes.append(rec)
        if (rec.verdict in POSITIVE_VERDICTS) == flo:
            blo = mid
        else:
            bhi = mid
    report.final_bracket = (blo, bhi)
    report.estimate = 0.5 * (blo + bhi)
    return report
