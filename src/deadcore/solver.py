"""Nonnegative solutions of |Du|^gamma F(x, D^2 u) + a(x) u^q = 0.

The existence construction is mirrored discretely: a subsolution
eps * phi+(ball) supported on a ball inside {a > 0}, a supersolution
k * psi built from the Dirichlet problem with right-hand side -||a||_inf,
and an iteration in between.  The reaction is split a = a+ - a-.  Every
accepted F has a policy form F_h(u) = L_alpha(u) u over sparse policy
matrices (Scheme.require_policy).  The start picks the loop.  From above
(the supersolution, also the start of a bracketed solve) `solve` runs
pseudo-transient Newton (_relax_ptc) on the policy matrices at every
gamma and returns the maximal solution; its zero-set rules carry it
across the dead cores.  At gamma > 0 it also runs from a given start.
From below at gamma = 0 it runs Sattinger's monotone iteration
-F_h(u_{k+1}) + a- u_{k+1}^q = a+ u_k^q with Howard policy iteration
around Newton inner solves, whose step count does not grow with the
grid; from the subsolution it returns the minimal solution.  The
monotone iteration also finishes a gamma = 0 Newton run that stalls
above the tolerance.  Iterates are clamped at 0, which is itself a
solution.  The supersolution's Dirichlet problem and the ball eigenpair
go through solve_rhs, which is Newton-Howard at every gamma.
"""

from dataclasses import dataclass, replace
import math
import numpy as np

from .grids import (Grid, GridFunction, WeightField, Scheme, residual_field,
                    _stencil_all_below)
from .dirichlet import (IterationControl, RhsProblem, SolveError, PolicyMatrix,
                        solve_rhs, sup_norm, _same_policy)
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
        if self.weight.grid != self.grid:
            raise ValueError("weight sampled on %r, not on the problem grid %r"
                             % (self.weight.grid, self.grid))


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


# the last ball eigenpair as (key, pair): every probe of a parameter sweep
# asks for the same one, so one entry serves the whole sweep
_eig_memo = (None, None)
# the ball eigenpair's control: tol_residual = inf, so its converged flag
# checks only the inner solves
BALL_EIGEN = EigenControl(tol_lambda=1e-7, tol_residual=np.inf,
                          inner=IterationControl(tolerance=1e-8))


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


def ball_eigenpair(problem, ball):
    """Principal eigenpair of the problem's operator on a sub-ball, by
    principal_eigenpair under BALL_EIGEN.

    The last pair is kept, keyed by grid, ball, gamma and operator; a call
    with any other key computes its own pair and replaces it.
    """
    global _eig_memo
    ball = _norm_ball(problem.grid, ball)
    key = (problem.grid.bounds, problem.grid.n, ball, problem.gamma,
           problem.operator.key())
    last_key, last_pair = _eig_memo   # one read: key and pair match
    if last_key == key:
        return last_pair
    sub = _ball_grid(problem.grid, ball)
    pair = principal_eigenpair(sub, problem.operator, problem.gamma, BALL_EIGEN)
    _eig_memo = (key, pair)
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


# slack of the discrete sub- and supersolution inequalities
BRACKET_TOL = 1e-8


def build_subsolution(problem, ball):
    """eps * phi+(ball) extended by zero, with eps fixed by dyadic search.

    eps starts at the analytic admissibility bound from
    lam+ eps^(1+gamma-q) phi^(1-q) <= a and halves until the discrete
    subsolution inequality (residual >= -BRACKET_TOL) holds at every
    interior node.  Raises SubsolutionError naming the violated node when
    no admissible eps exists.
    """
    ball = _norm_ball(problem.grid, ball)
    grid = problem.grid
    mask = _ball_mask(grid, ball)
    a = problem.weight.samples
    if np.min(a[mask]) <= 0:
        raise SubsolutionError(
            "ball %r is not contained in the positive set of the weight" % (ball,))

    pair = ball_eigenpair(problem, ball)
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
        if worst >= -BRACKET_TOL:
            return u
        last_bad = (eps, np.unravel_index(np.argmin(rint), rint.shape), worst)
        eps *= 0.5
    raise SubsolutionError(
        "no admissible eps <= %g; last violation %.3e at interior node %r (eps=%g)"
        % (eps_max, last_bad[2], last_bad[1], last_bad[0]))


def build_supersolution(problem, ctl=None):
    """k * psi with psi solving the -||a||_inf Dirichlet problem.

    k = (||psi||_inf^q + 1)^(1/(1+gamma-q)) * 1.05, doubled while the
    discrete supersolution inequality (residual <= BRACKET_TOL) fails; the
    inequality only improves with k since q < gamma+1.  That inequality at
    every interior node is the certificate, so psi is taken also where its
    solve stopped at the residual's rounding floor above the tolerance.
    """
    grid = problem.grid
    anorm = problem.weight.sup_norm()
    if anorm == 0.0:
        return GridFunction.zeros(grid)
    f = GridFunction(grid, np.full(grid.shape, -anorm), dirichlet=False)
    psi = solve_rhs(RhsProblem(grid, problem.operator, problem.gamma, f),
                    ctl or IterationControl()).solution
    gamma, q = problem.gamma, problem.q
    k = (sup_norm(psi) ** q + 1.0) ** (1.0 / (1.0 + gamma - q)) * 1.05
    for _ in range(12):
        u = GridFunction(grid, np.maximum(k * psi.values, 0.0))
        r = residual(problem, u)
        if float(np.max(grid.interior(r.values))) <= BRACKET_TOL:
            return u
        k *= 2.0
    raise SolveError("could not verify the supersolution inequality")


_FLOAT_MAX = np.finfo(float).max
# Newton steps per _implicit_damping call
DAMPING_ITERS = 30


def _implicit_damping(w, c, q):
    """Solve z + c z^q = w (z >= 0) nodewise; the damping a- u^q backward step.

    Exact implicitness makes the time map's fixed point coincide with the
    zero-residual state (a semi-implicit factor evaluated at the old
    iterate limit-cycles at extinction fronts).  Newton from
    z0 = w (1 + c w^(q-1))^(-1/q), which for q < 1 provably starts on the
    concave under side, so the iteration increases monotonically to the
    root.  Where z0 underflows to 0 (a subnormal w next to a front) the
    root is at the underflow threshold too, and the node is set to 0 up
    front (Newton would turn 0/0 into NaN there).  Stops once
    max|z + c z^q - w| <= 1e-16 max(1, w) or after DAMPING_ITERS steps.
    The callers (_newton_inner, _relax_ptc) run with divide, overflow
    and invalid floating-point errors ignored; non-finite roots come out
    as 0 (NaN) or the largest float (+inf).
    """
    z = np.maximum(w, 0.0)
    idx = np.flatnonzero((z > 0.0) & (c > 0.0))
    if not idx.size:
        return z
    zf = z.reshape(-1)
    za, wa = zf[idx], w.reshape(-1)[idx]
    ca = np.asarray(c, dtype=float)
    if ca.ndim:
        ca = ca.reshape(-1)[idx]
    beta = ca * za ** (q - 1.0)
    za = za * (1.0 + beta) ** (-1.0 / q)
    live = za > 0.0
    if not live.all():
        zf[idx[~live]] = 0.0
        idx, za, wa = idx[live], za[live], wa[live]
        if ca.ndim:
            ca = ca[live]
        if not idx.size:
            return z
    caq = ca * q
    scale = 1e-16 * max(1.0, float(wa.max()))
    for _ in range(DAMPING_ITERS):
        zq = za ** q
        f = za + ca * zq - wa
        za = za - f / (1.0 + caq * zq / za)
        if np.abs(f).max() <= scale:
            break
    # fmax drops NaN; + 0.0 turns -0.0 into +0.0, as np.maximum does
    zf[idx] = np.minimum(np.fmax(za, 0.0), _FLOAT_MAX) + 0.0
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
        y = op.solve(op.shifted(d), b - a_minus * (1.0 - q) * t ** q)
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


def _relax_monotone(problem, scheme, vals, ctl, init, op=None):
    """Sattinger's monotone iteration for gamma = 0 and a policy-form F.

    Outer step k solves  -F_h(u_{k+1}) + a- u_{k+1}^q = a+ u_k^q  by
    _howard_inner (Howard's policy iteration around Newton), warm-started
    from u_k, to 0.1 * tolerance; it stops once the interior residual
    F_h(u) + a u^q is at most ctl.tolerance, or when an outer step returns
    its own input or the iterate of the last snapshot, taken every 16
    steps: a cycle of period up to 16 stops within 32 steps of its start.
    At the floating-point floor of the residual the map settles into such
    a cycle (a 2-cycle at residual 1.5e-7 on sinsplit x 30, n = 1599, from
    the subsolution), which no later step leaves.  Every policy matrix is
    an M-matrix, so the inner map stays strictly monotone and, from a
    subsolution, the outer iterates increase inside the (subsolution,
    supersolution) bracket.  At most INNER_CAP = 30 sparse solves per
    outer step.  `op` is the PolicyMatrix to reuse
    (_relax_ptc's, when it finishes a stalled solve).  `steps` of the
    report counts outer steps.
    """
    grid, q = problem.grid, problem.q
    op = op or PolicyMatrix(scheme)
    a_int = grid.interior(problem.weight.samples)
    a_plus = grid.interior(problem.weight.a_plus).ravel()
    a_minus = grid.interior(problem.weight.a_minus).ravel()
    u_int = grid.interior(vals)
    work = vals.copy()
    snapshot = vals.copy()

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
        if np.array_equal(work, vals) or np.array_equal(work, snapshot):
            break
        vals[...] = work
        if steps % 16 == 0:
            snapshot[...] = vals
    return _certified(problem, vals, steps, ctl, init, None)


# pseudo-transient continuation (_relax_ptc): the first pseudo-time step,
# its growth on an accepted step and its cut on a rejected one
PTC_DT0 = 1e-3
PTC_GROW = 2.0
PTC_CUT = 4.0
# a trial step is rejected when it multiplies max|R| by more than this
PTC_REJECT = 2.0
# the loop gives up after PTC_WINDOW accepted steps in a row that each
# moved u by at most PTC_SETTLED * sup u (the floating-point floor), or
# after PTC_STALL accepted steps without a new lowest max|R| (a cycle)
PTC_WINDOW = 8
PTC_SETTLED = 1e-6
PTC_STALL = 128
# the zero set of a step: the nodes at or below PTC_FLOOR * sup u, where
# the slope of a u^q is taken at that floor (see _relax_ptc)
PTC_FLOOR = 1e-12


def _ptc_residual(scheme, vals, a_int, q):
    """R(u) = g F_h(u) + a u^q at interior nodes, with the (g, c F_h,
    slopes) that PolicyMatrix.newton takes for its Jacobian."""
    g, c, slopes = scheme.grad_factor_parts(vals)
    F = scheme.F(vals)
    return g * F + a_int * scheme.grid.interior(vals) ** q, (g, c * F, slopes)


def _outside(grid, diff, what):
    """SolveError naming the first interior node where diff < -BRACKET_TOL."""
    bad = grid.interior(diff) < -BRACKET_TOL
    if bad.any():
        node = tuple(int(i) for i in np.argwhere(bad)[0])
        raise SolveError("the solution from the supersolution %s at interior "
                         "node %r" % (what, node))


def _relax_ptc(problem, scheme, vals, ctl, init, bracket):
    """Pseudo-transient Newton (Kelley & Keyes, SIAM J. Numer. Anal. 35,
    1998).

    A step solves (I/dt + M - diag(a q max(u, PTC_FLOOR sup u)^(q-1))) du
    = R(u), with R(u) = g F_h(u) + a u^q and M = -d(g F_h)/du at the active
    policy (PolicyMatrix.newton), then sets u <- max(u + du, 0): backward
    Euler on u_t = R(u), linearized at u, which becomes Newton's method as
    dt grows.  The nodes at or below PTC_FLOOR sup u are the zero set,
    where dead cores lie and where that slope would pin the iterate:
    - where a > 0 the reaction slope is 0 (the floor slope makes the
      diagonal hugely negative and holds a node at 0 next to positive
      neighbours);
    - where a < 0 the new value is the exact nodewise root of
      g (N - D z) - |a| z^q = 0, with D the diagonal of the step's policy
      matrix A, N = D u - A u at the new neighbours and g at the
      linearization point (_implicit_damping);
    - a new value where a > 0 whose whole neighbourhood lies in the new
      zero set is 0.  u = 0 is an unstable solution there, and the linear
      solve's seepage would re-seed it: a dark component lit to 1e-13
      holds max|R| at a u^q (the example at gamma = 1, q = 0.8, n = 79
      stopped anywhere from 1e-13 to 3e-10 from 1.05 to 1.5 times its
      closed form).
    dt starts at PTC_DT0 and doubles on each accepted step; a step whose
    max|R| is not finite or more than doubles is rejected and divides dt
    by 4.  Stops at ctl.tolerance, at an exact fixed point, after
    PTC_WINDOW accepted steps in a row that each moved u by at most
    PTC_SETTLED sup u, or after PTC_STALL accepted steps without a new low
    of max|R| (a cycle; far from the answer max|R| can rise and fall for
    71 steps at n = 3200 while u moves by O(1)).  At gamma = 0 a run
    stopped above the tolerance with steps left hands its iterate and the
    rest of ctl.max_steps to _relax_monotone with the same PolicyMatrix
    (sinsplit x 30, q = 0.5, s = 2.5, n = 1599 needs it); `steps` counts
    the sparse solves and the finisher's steps.  At gamma = 0, g = 1 and
    c = 0, so the Newton matrix is the policy matrix A itself.  With a
    bracket (init='subsolution', started from the supersolution) the
    answer must lie in it within BRACKET_TOL, else SolveError names the
    node.
    """
    grid, q = problem.grid, problem.q
    op = PolicyMatrix(scheme)
    a_int = grid.interior(problem.weight.samples)
    a = a_int.ravel()
    aq, positive = q * a, a_int > 0.0
    source, sink = positive.ravel(), a < 0.0
    u_int = grid.interior(vals)
    trial = vals.copy()
    t_int = grid.interior(trial)

    R, parts = _ptc_residual(scheme, vals, a_int, q)
    rsup = float(np.abs(R).max())
    dt, best, stale, quiet, steps = PTC_DT0, np.inf, 0, 0, 0
    while steps < ctl.max_steps:
        if not math.isfinite(rsup):
            raise SolveError("non-finite residual at step %d" % steps)
        if rsup <= ctl.tolerance or quiet >= PTC_WINDOW or stale >= PTC_STALL:
            break
        u = u_int.ravel()
        floor = PTC_FLOOR * u.max()
        zero = u <= floor
        slope = aq * np.maximum(u, floor) ** (q - 1.0)
        slope[zero & source] = 0.0
        op.set_policy(scheme.policy(vals))
        du = op.solve(op.newton(*parts, shift=1.0 / dt - slope), R.ravel())
        steps += 1
        np.maximum(u_int + du.reshape(u_int.shape), 0.0, out=t_int)
        dead = zero & sink
        if dead.any():
            t = t_int.ravel()
            D = op.diagonal()
            N = (D * t - op.A @ t)[dead]
            gD = parts[0].ravel()[dead] * D[dead]
            t_int[dead.reshape(t_int.shape)] = _implicit_damping(
                N / D[dead], -a[dead] / gD, q)
        dark = t_int <= PTC_FLOOR * t_int.max()
        if (dark & positive).any():
            near = np.pad(dark, 1, constant_values=True)
            t_int[grid.interior(_stencil_all_below(near)) & positive] = 0.0
        if np.array_equal(trial, vals):
            break
        R_t, parts_t = _ptc_residual(scheme, trial, a_int, q)
        r_t = float(np.abs(R_t).max())
        if not r_t <= PTC_REJECT * rsup:
            dt /= PTC_CUT
            continue
        moved = float(np.abs(t_int - u_int).max()) > PTC_SETTLED * u.max()
        vals[...] = trial
        R, parts, rsup = R_t, parts_t, r_t
        dt *= PTC_GROW
        quiet = 0 if moved else quiet + 1
        if rsup < best:
            best, stale = rsup, 0
        else:
            stale += 1
    if problem.gamma == 0.0 and rsup > ctl.tolerance and steps < ctl.max_steps:
        rest = replace(ctl, max_steps=ctl.max_steps - steps)
        steps += _relax_monotone(problem, scheme, vals, rest, init, op).steps
    if bracket is not None:
        _outside(grid, vals - bracket[0].values, "falls below the subsolution")
        _outside(grid, bracket[1].values - vals, "lies above the supersolution")
    return _certified(problem, vals, steps, ctl, init, bracket)


def _certified(problem, vals, steps, ctl, init, bracket):
    """The report of a finished loop, certified by the recomputed residual."""
    u = GridFunction(problem.grid, vals, dirichlet=False)
    rsup = float(np.max(np.abs(problem.grid.interior(residual(problem, u).values))))
    return SolveReport(u, rsup, steps, rsup <= ctl.tolerance, init, bracket)


def _start(problem, init, ctl, ball, u0):
    """Initial values of solve: (vals, bracket, supersolution or None)."""
    grid = problem.grid
    bracket = super_u = None
    if init == "zero":
        vals = np.zeros(grid.shape)
    elif init == "subsolution":
        if ball is None:
            raise ValueError("init='subsolution' needs a ball")
        sub = build_subsolution(problem, ball)
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
    return vals, bracket, super_u


def solve(problem, init="zero", ctl=None, ball=None, u0=None):
    """Solve the reaction problem for a nonnegative steady state.

    init is one of 'zero', 'subsolution' (requires ball), 'given'
    (requires u0 with 0 <= u0), or 'supersolution'.  Iterates are clamped
    at zero; with init='subsolution' the report carries the
    (subsolution, supersolution) bracket.  The start picks the iteration:
    - from above, 'supersolution' and 'subsolution' (which builds both
      bracket ends and starts from the supersolution): pseudo-transient
      Newton (_relax_ptc) at every gamma, finished by the monotone loop
      where it stalls above the tolerance at gamma = 0.  It returns the
      maximal solution; 'subsolution' raises SolveError unless the answer
      lies in the bracket.
    - from below at gamma = 0, 'zero' and 'given': the monotone
      Sattinger-Howard-Newton iteration of _relax_monotone, whose step
      count does not grow with the grid.
    - 'zero' and 'given' at gamma > 0: pseudo-transient Newton from u0.
      'zero' returns 0 (R(0) = 0) with steps = 0.
    At every gamma, init='given' with u0=build_subsolution(problem, ball)
    returns the minimal solution.  On sinsplit weights, whose {a > 0} has
    one component, the minimal and the maximal solution agree within the
    tolerance; the example weight, with two components, lights only the
    seeded one from below (see tests/test_properties.py and
    tests/test_solver.py).  Scheme.require_policy is checked before any
    work; a non-finite residual raises SolveError naming the step.
    """
    ctl = ctl or IterationControl()
    scheme = Scheme(problem.grid, problem.operator, problem.gamma)
    scheme.require_policy()
    vals, bracket, super_u = _start(problem, init, ctl, ball, u0)
    # one error state for the whole loop (_implicit_damping relies on it)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if super_u is None and problem.gamma == 0.0:
            return _relax_monotone(problem, scheme, vals, ctl, init)
        if bracket is not None:
            vals = super_u.values.copy()
        return _relax_ptc(problem, scheme, vals, ctl, init, bracket)
