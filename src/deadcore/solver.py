"""Nonnegative solutions of |Du|^gamma F(x, D^2 u) + a(x) u^q = 0.

The existence construction is mirrored discretely: a subsolution
eps * phi+(ball) supported on a ball inside {a > 0}, a supersolution
k * psi built from the Dirichlet problem with right-hand side -||a||_inf,
and an iteration in between.  The reaction is split a = a+ - a-.  For
gamma = 0 and a linear trace, Pucci or Bellman F the discrete operator is
F_h(u) = L_alpha(u) u over sparse policy matrices, and `solve` runs
Sattinger's monotone iteration -F_h(u_{k+1}) + a- u_{k+1}^q = a+ u_k^q
with Howard policy iteration around Newton inner solves; its step count
does not grow with the grid.  Otherwise (gamma > 0, the p-Laplacian, or
IterationControl(method='explicit')) it runs pseudo-time relaxation, with
the damping part a- u^q treated implicitly (the q - 1 power makes the
explicit form stiff near u = 0).  Iterates are clamped at 0, which is
itself a solution.
"""

from dataclasses import dataclass
import threading
import numpy as np
import scipy.sparse.linalg as spla

from .grids import Grid, GridFunction, WeightField, Scheme, residual_field
from .dirichlet import (IterationControl, RhsProblem, RhsReport, SolveError,
                        PolicyMatrix, PERMC, solve_rhs, sup_norm,
                        _same_policy, _use_matrix_path)
from .eigen import EigenControl, principal_eigenpair

__all__ = [
    "ProblemSpec", "SolveReport", "SolveError", "SubsolutionError",
    "build_subsolution", "build_supersolution", "solve", "residual",
    "ball_eigenpair",
]


class SubsolutionError(SolveError):
    pass


@dataclass(eq=False)
class ProblemSpec:
    """Full data of the reaction problem on one grid."""
    grid: Grid
    operator: object
    gamma: float
    q: float
    weight: WeightField

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if not 0 < self.q < self.gamma + 1:
            raise ValueError("q < gamma+1 (strict) and q > 0 required, got q=%g"
                             % self.q)
        if self.weight.grid.shape != self.grid.shape:
            raise ValueError("weight sampled on a different grid")


@dataclass
class SolveReport:
    solution: GridFunction
    residual_sup: float
    steps: int
    converged: bool
    init_tag: str
    bracket: tuple = None   # (subsolution, supersolution) when seeded that way

    def to_text(self):
        lines = [
            "residual_sup = %.6e" % self.residual_sup,
            "steps = %d" % self.steps,
            "converged = %s" % self.converged,
            "init = %s" % self.init_tag,
            "sup_norm = %.6e" % self.solution.sup_norm(),
        ]
        return "\n".join(lines) + "\n"


def residual(problem, u):
    """Pointwise residual field of the problem at u (boundary defect r = u)."""
    return residual_field(u, problem.operator, problem.gamma, problem.q,
                          problem.weight)


# --- eigenpair cache for repeated subsolution builds ---------------------

_eig_cache = {}
_eig_lock = threading.Lock()


def _ball_grid(grid, ball):
    """Sub-grid on the ball, snapped to host nodes.

    Snapping makes the eigenfunction transfer exact (pure injection, no
    interpolation error), which keeps second differences of the extended
    function consistent on the host grid.
    """
    axes = []
    for k, (lo, hi) in enumerate(ball):
        x = grid.axis(k)
        idx = np.nonzero((x >= lo - 1e-12) & (x <= hi + 1e-12))[0]
        if len(idx) < 5:
            raise ValueError("ball %r covers fewer than 5 grid nodes on axis %d"
                             % (ball, k))
        axes.append((float(x[idx[0]]), float(x[idx[-1]]), len(idx) - 2))
    if grid.dim == 1:
        return Grid.interval(*axes[0])
    (xlo, xhi, nx), (ylo, yhi, ny) = axes
    return Grid.rectangle(xlo, xhi, ylo, yhi, nx, ny)


def ball_eigenpair(problem, ball, eigen_ctl=None):
    """Principal eigenpair of the problem's operator on a sub-ball (cached)."""
    ball = _norm_ball(problem.grid, ball)
    key = (problem.grid.bounds, problem.grid.n, ball, problem.gamma,
           problem.operator.key())
    with _eig_lock:
        hit = _eig_cache.get(key)
    if hit is not None:
        return hit
    sub = _ball_grid(problem.grid, ball)
    if eigen_ctl is None:
        eigen_ctl = EigenControl(tol_lambda=1e-7, tol_residual=np.inf,
                                 inner=IterationControl(tolerance=1e-8,
                                                        max_steps=400_000))
    pair = principal_eigenpair(sub, problem.operator, problem.gamma, eigen_ctl)
    with _eig_lock:
        _eig_cache[key] = pair
    return pair


def _norm_ball(grid, ball):
    b = np.asarray(ball, dtype=float)
    if grid.dim == 1 and b.ndim == 1:
        b = b.reshape(1, 2)
    b = tuple(tuple(ax) for ax in b.reshape(grid.dim, 2))
    for (lo, hi), (glo, ghi) in zip(b, grid.bounds):
        if not (glo <= lo < hi <= ghi):
            raise ValueError("ball %r not inside the domain" % (ball,))
    return b


def _ball_mask(grid, ball):
    if grid.dim == 1:
        x = grid.axis(0)
        (lo, hi), = ball
        return (x >= lo) & (x <= hi)
    X, Y = grid.coords()
    (xlo, xhi), (ylo, yhi) = ball
    return (X >= xlo) & (X <= xhi) & (Y >= ylo) & (Y <= yhi)


def extend_ball_function(grid, ball_pair, ball):
    """Inject a ball eigenfunction into the host grid, 0 outside.

    The ball sub-grid is snapped to host nodes (_ball_grid), so the
    transfer is a slice copy of the sub-grid values, clamped at 0.
    """
    _norm_ball(grid, ball)
    sub = ball_pair.phi_plus.grid
    start = [int(round((lo - glo) / hk)) for (lo, _), (glo, _), hk
             in zip(sub.bounds, grid.bounds, grid.h)]
    vals = np.zeros(grid.shape)
    vals[tuple(slice(i, i + m) for i, m in zip(start, sub.shape))] = \
        np.maximum(ball_pair.phi_plus.values, 0.0)
    return GridFunction(grid, vals)


def build_subsolution(problem, ball, tol=1e-8, eigen_ctl=None):
    """eps * phi+(ball) extended by zero, with eps fixed by dyadic search.

    eps starts at the analytic admissibility bound from
    lam+ eps^(1+gamma-q) phi^(1-q) <= a and halves until the discrete
    subsolution inequality (residual >= -tol) holds at every interior
    node.  Raises SubsolutionError naming the violated node when no
    admissible eps exists.
    """
    ball = _norm_ball(problem.grid, ball)
    grid = problem.grid
    mask = _ball_mask(grid, ball)
    a = problem.weight.samples
    if np.min(a[mask]) <= 0:
        raise SubsolutionError(
            "ball %r is not contained in the positive set of the weight" % (ball,))

    pair = ball_eigenpair(problem, ball, eigen_ctl)
    phi = extend_ball_function(grid, pair, ball)
    gamma, q = problem.gamma, problem.q

    pos = mask & (phi.values > 1e-8)
    bound = (a[pos] / (pair.lambda_plus * phi.values[pos] ** (1.0 - q)))
    eps_max = float(np.min(bound) ** (1.0 / (1.0 + gamma - q)))

    # the analytic bound is tight at the worst node, so the discrete
    # eigen-defect always violates it by a hair; start just below
    eps = 0.98 * eps_max
    last_bad = None
    for _ in range(48):
        u = GridFunction(grid, eps * phi.values)
        r = residual(problem, u)
        rint = grid.interior(r.values)
        worst = float(np.min(rint))
        if worst >= -tol:
            return u
        last_bad = (eps, np.unravel_index(np.argmin(rint), rint.shape), worst)
        eps *= 0.5
    raise SubsolutionError(
        "no admissible eps <= %g; last violation %.3e at interior node %r (eps=%g)"
        % (eps_max, last_bad[2], last_bad[1], last_bad[0]))


def build_supersolution(problem, ctl=None, margin=0.05, tol=1e-8):
    """k * psi with psi solving the -||a||_inf Dirichlet problem.

    k = (||psi||_inf^q + 1)^(1/(1+gamma-q)) * (1+margin), doubled while the
    discrete supersolution inequality (residual <= tol) fails; the
    inequality only improves with k since q < gamma+1.
    """
    grid = problem.grid
    anorm = problem.weight.sup_norm()
    if anorm == 0.0:
        return GridFunction.zeros(grid)
    f = GridFunction(grid, np.full(grid.shape, -anorm), dirichlet=False)
    rep = solve_rhs(RhsProblem(grid, problem.operator, problem.gamma, f),
                    ctl or IterationControl())
    if not rep.converged:
        raise SolveError("supersolution base problem did not converge "
                         "(residual %.3e)" % rep.residual_sup)
    psi = rep.solution
    gamma, q = problem.gamma, problem.q
    k = (sup_norm(psi) ** q + 1.0) ** (1.0 / (1.0 + gamma - q)) * (1.0 + margin)
    for _ in range(12):
        u = GridFunction(grid, np.maximum(k * psi.values, 0.0))
        r = residual(problem, u)
        if float(np.max(grid.interior(r.values))) <= tol:
            return u
        k *= 2.0
    raise SolveError("could not verify the supersolution inequality")


def _deep_zeros(near):
    """Nodes whose whole neighborhood (incl. diagonals) is below the floor.

    Missing neighbors at the interior edge are boundary nodes (value 0),
    which count as below-floor, hence the unconstrained edges.
    """
    m = near.copy()
    if near.ndim == 1:
        m[1:] &= near[:-1]
        m[:-1] &= near[1:]
        return m
    m[1:, :] &= near[:-1, :]
    m[:-1, :] &= near[1:, :]
    m[:, 1:] &= near[:, :-1]
    m[:, :-1] &= near[:, 1:]
    m[1:, 1:] &= near[:-1, :-1]
    m[:-1, :-1] &= near[1:, 1:]
    m[1:, :-1] &= near[:-1, 1:]
    m[:-1, 1:] &= near[1:, :-1]
    return m


def _implicit_damping(w, c, q):
    """Solve z + c z^q = w (z >= 0) nodewise; the damping a- u^q backward step.

    Exact implicitness makes the time map's fixed point coincide with the
    zero-residual state (a semi-implicit factor evaluated at the old
    iterate limit-cycles at extinction fronts).  Newton from
    z0 = w (1 + c w^(q-1))^(-1/q), which provably starts on the concave
    under side, so the iteration increases monotonically to the root.
    """
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


# sparse solves allowed per outer step of the monotone iteration
INNER_CAP = 30


def _newton_inner(op, a_minus, b, z, q, tol, cap):
    """Solve A z + a- z^q = b (A = op.A = -L_alpha, an M-matrix) for z >= 0.

    Newton's method: the map is concave in z, so its tangent at any anchor
    t > 0 lies above it, and the linear solve of
    A y + a- (t^q + q t^(q-1) (y - t)) = b gives, clamped at 0, a
    subsolution.  Once the iterate is a subsolution (within 10 * tol), so
    is its nodewise (Jacobi) update, and the next iterate is the pointwise
    max of the two and the linear solve: it stays a subsolution and never
    decreases.  The anchor is the Jacobi value there (the current value
    before that); where it is 0 the anchor is zeta, the value at which the
    slope of a- z^q is a tenth of diag(A), so the zero set ahead of a
    front can turn positive in one step rather than one layer per step.
    Stops at tol, when the residual stops decreasing (the floating-point
    floor of A z), or after cap sparse solves.  Returns (z, solves).
    """
    A, Ad = op.A, op.diagonal()
    zeta = (10.0 * q * a_minus / Ad) ** (1.0 / (1.0 - q))
    prev = np.inf
    solves = 0
    while solves < cap:
        Az = A @ z
        g = Az + a_minus * z ** q - b
        rho = float(np.max(np.abs(g)))
        if rho <= tol or rho >= prev:
            break
        prev = rho
        if np.max(g) <= 10.0 * tol:
            low = np.maximum(_implicit_damping(
                np.maximum(b - Az + Ad * z, 0.0) / Ad, a_minus / Ad, q), z)
            t = low
        else:
            low, t = 0.0, z
        t = np.maximum(np.where(t > 0.0, t, zeta), 1e-300)
        d = a_minus * q * t ** (q - 1.0)
        y = spla.spsolve(op.shifted(d), b - a_minus * (1.0 - q) * t ** q,
                         permc_spec=PERMC)
        solves += 1
        z = np.maximum(y, low)
    return z, solves


def _howard_inner(op, scheme, a_minus, b, v, q, tol):
    """Solve -F_h(z) + a- z^q = b by policy iteration, z in v's interior.

    The policy is fixed at the active one of the current z (F_h(z) =
    L_alpha z exactly there) and -L_alpha z + a- z^q = b is solved by
    _newton_inner; this repeats until the policy repeats, Newton has
    nothing left to do at the new policy (the residual there is the true
    one), or INNER_CAP sparse solves in all.  A linear trace has one
    policy, so it takes a single round.  Updates v in place.
    """
    z_int = scheme.grid.interior(v)
    budget = INNER_CAP
    w = scheme.policy(v)
    while budget > 0:
        op.set_policy(w)
        z, solves = _newton_inner(op, a_minus, b, z_int.ravel(), q, tol, budget)
        if solves == 0:
            break
        budget -= solves
        z_int[...] = z.reshape(z_int.shape)
        w_next = scheme.policy(v)
        if _same_policy(w_next, w):
            break
        w = w_next


def _relax_monotone(problem, scheme, vals, ctl, bracket):
    """Sattinger's monotone iteration for gamma = 0 and a policy-form F.

    Outer step k solves  -F_h(u_{k+1}) + a- u_{k+1}^q = a+ u_k^q  by
    _howard_inner (Howard's policy iteration around Newton), warm-started
    from u_k, to 0.1 * tolerance; it stops once the interior residual
    F_h(u) + a u^q is at most ctl.tolerance, or at a floating-point fixed
    point.  Every policy matrix is an M-matrix, so the inner map stays
    strictly monotone and, from the subsolution, the outer iterates
    increase inside the (subsolution, supersolution) bracket.  At most
    INNER_CAP = 30 sparse solves per outer step.
    Updates vals in place; returns the number of outer steps.
    """
    grid, q = problem.grid, problem.q
    op = PolicyMatrix(scheme)
    a_int = grid.interior(problem.weight.samples)
    a_plus = grid.interior(problem.weight.a_plus).ravel()
    a_minus = grid.interior(problem.weight.a_minus).ravel()
    u_int = grid.interior(vals)
    work = vals.copy()

    steps = 0
    for steps in range(1, ctl.max_steps + 1):
        rsup = float(np.max(np.abs(scheme.residual_interior(vals, a_int, q))))
        if not np.isfinite(rsup):
            raise SolveError("non-finite residual at step %d" % steps)
        if rsup <= ctl.tolerance:
            break
        work[...] = vals
        _howard_inner(op, scheme, a_minus, a_plus * u_int.ravel() ** q, work,
                      q, 0.1 * ctl.tolerance)
        if np.array_equal(work, vals):
            break
        vals[...] = work
        if ctl.debug and bracket is not None:
            assert np.all(vals >= bracket[0].values - 1e-12)
            assert np.all(vals <= bracket[1].values + 1e-12)
    return steps


def _relax_explicit(problem, scheme, vals, ctl, bracket, blow_up):
    """Explicit pseudo-time relaxation under the per-node CFL bound.

    The damping part a- u^q takes an exact backward substep.  Updates vals
    in place; returns (steps, residual of the last step, blew_up).
    """
    grid, q, gamma = problem.grid, problem.q, problem.gamma
    a_plus = grid.interior(problem.weight.a_plus)
    a_minus = grid.interior(problem.weight.a_minus)
    u_int = grid.interior(vals)
    dim, Lam = grid.dim, problem.operator.Lam
    hmin = min(grid.h)
    h2 = hmin ** 2
    dfloor = scheme.delta ** gamma
    d2 = scheme.delta ** 2
    dt_const = ctl.safety * h2 / (2.0 * dim * Lam) if gamma == 0.0 else None

    a_int = a_plus - a_minus
    closed_form = (q == 0.5)
    c_const = dt_const * a_minus if dt_const is not None else None
    ap_const = dt_const * a_plus if dt_const is not None else None

    steps = 0
    rsup = 0.0
    for steps in range(1, ctl.max_steps + 1):
        if dt_const is not None:
            gF = scheme.F(vals)
        else:
            m2 = scheme.upwind_mag2(vals)
            n2 = m2[0]
            for mk in m2[1:]:
                n2 = n2 + mk
            s2 = n2 + d2
            g = s2 ** (gamma / 2.0)
            Fv = scheme.F(vals)
            gF = g * Fv
        uq = np.sqrt(u_int) if closed_form else u_int ** q
        r = gF + a_int * uq
        rsup = float(np.abs(r).max())
        if not np.isfinite(rsup):
            raise SolveError("non-finite residual at step %d" % steps)
        if rsup <= ctl.tolerance:
            break
        if dt_const is not None:
            w = u_int + dt_const * gF + ap_const * uq
            c = c_const
        else:
            # diffusion stiffness plus the gradient factor's own
            # sensitivity |F| d g / d u (see solve_rhs)
            stiff = 2.0 * dim * Lam * np.maximum(g, dfloor) / h2 \
                + 2.0 * gamma * np.abs(Fv) * s2 ** ((gamma - 1.0) / 2.0) / hmin
            dt = ctl.safety / stiff
            w = u_int + dt * (gF + a_plus * uq)
            c = dt * a_minus
        if closed_form:
            # z + c sqrt(z) = w: quadratic in sqrt(z) (exact for w <= 0 too)
            s = 0.5 * (np.sqrt(c * c + 4.0 * np.maximum(w, 0.0)) - c)
            u_new = s * s
        else:
            u_new = _implicit_damping(w, c, q)
        # flush round-off-scale values to exact zero: u = 0 is an unstable
        # solution wherever a > 0, and sub-floor seepage across a dead band
        # would re-seed it from values far below scheme accuracy.  Only
        # deep zeros (whole neighborhood sub-floor) are flushed, so a
        # legitimate extinction-front balance node is left alone; a 16-step
        # cadence is enough since fronts advance one node per step.
        if steps % 16 == 0:
            sup = float(u_new.max())
            if ctl.zero_floor > 0.0:
                near = u_new < ctl.zero_floor * sup
                u_new[_deep_zeros(near)] = 0.0
            if sup > blow_up:
                u_int[...] = u_new
                return steps, rsup, True
        u_int[...] = u_new
        if ctl.debug and bracket is not None:
            assert np.all(vals >= bracket[0].values - 1e-12)
            assert np.all(vals <= bracket[1].values + 1e-12)
    return steps, rsup, False


def solve(problem, init="zero", ctl=None, ball=None, u0=None,
          sub_tol=1e-8):
    """Solve the reaction problem for a nonnegative steady state.

    init is one of 'zero', 'subsolution' (requires ball), 'given'
    (requires u0 with 0 <= u0), or 'supersolution'.  Iterates are clamped
    at zero; with init='subsolution' the report carries the
    (subsolution, supersolution) bracket and, in debug mode, ordering is
    asserted every step.  ctl.method picks the iteration: for gamma = 0
    and a linear trace, Pucci or Bellman F, 'auto' runs the monotone
    Sattinger-Howard-Newton iteration of _relax_monotone, whose step count
    does not grow with the grid ('direct' does so for a linear trace
    only); 'explicit', and every other problem, runs explicit pseudo-time
    relaxation.  A non-finite residual raises SolveError naming the step.
    """
    ctl = ctl or IterationControl()
    grid = problem.grid
    monotone = _use_matrix_path(ctl.method, problem.gamma, problem.operator)
    scheme = Scheme(grid, problem.operator, problem.gamma)

    bracket = None
    super_u = None
    if init == "zero":
        vals = np.zeros(grid.shape)
    elif init == "subsolution":
        if ball is None:
            raise ValueError("init='subsolution' needs a ball")
        sub = build_subsolution(problem, ball, tol=sub_tol)
        super_u = build_supersolution(problem, ctl)
        bracket = (sub, super_u)
        vals = sub.values.copy()
    elif init == "supersolution":
        super_u = build_supersolution(problem, ctl)
        vals = super_u.values.copy()
    elif init == "given":
        if u0 is None:
            raise ValueError("init='given' needs u0")
        vals = np.array(u0.values if isinstance(u0, GridFunction) else u0,
                        dtype=float)
        if np.min(vals) < -1e-15:
            raise ValueError("initialization must be nonnegative")
        vals = np.maximum(vals, 0.0)
    else:
        raise ValueError("unknown init %r" % init)

    if monotone:
        steps = _relax_monotone(problem, scheme, vals, ctl, bracket)
    else:
        blow_up = 10.0 * sup_norm(super_u) if super_u is not None else \
            100.0 * max(1.0, float(np.max(vals)))
        steps, rsup, blew_up = _relax_explicit(problem, scheme, vals, ctl,
                                               bracket, blow_up)
        if blew_up:
            return SolveReport(GridFunction(grid, vals, dirichlet=False),
                               rsup, steps, False, init)

    u = GridFunction(grid, vals, dirichlet=False)
    rfield = residual(problem, u)
    rsup = float(np.max(np.abs(grid.interior(rfield.values))))
    return SolveReport(u, rsup, steps, rsup <= ctl.tolerance, init, bracket)
