"""Nonnegative solutions of |Du|^gamma F(x, D^2 u) + a(x) u^q = 0.

The existence construction is mirrored discretely: a subsolution
eps * phi+(ball) supported on a ball inside {a > 0}, a supersolution
k * psi built from the Dirichlet problem with right-hand side -||a||_inf,
and an iteration in between.  The reaction is split a = a+ - a-.  Every
accepted F has a policy form F_h(u) = L_alpha(u) u over banded policy
matrices (Scheme.require_policy).  `solve` runs one loop from every
start at every gamma: pseudo-transient Newton (_relax_ptc) on the policy
matrices, whose zero-set rules carry it across the dead cores.  From the
supersolution (also the start of a bracketed solve) it returns the
maximal solution, from the subsolution the minimal one.  Iterates are
clamped at 0, which is itself a solution.  The supersolution's Dirichlet
problem and the ball eigenpair go through solve_rhs, which is
Newton-Howard at every gamma.  All of them, the loop and every residual
read the one Scheme a ProblemSpec builds, `problem.scheme`.
"""

from dataclasses import dataclass, field
import functools
import math
import numpy as np

from .grids import (Grid, GridFunction, WeightField, Scheme, residual_field,
                    _on_grid, _stencil_all_below, _values_on)
from .dirichlet import IterationControl, SolveError, PolicyMatrix, solve_rhs
from .eigen import EigenControl, principal_eigenpair

__all__ = [
    "ProblemSpec", "SolveReport", "SolveError", "SubsolutionError",
    "build_subsolution", "build_supersolution", "solve", "residual",
    "ball_eigenpair",
]


class SubsolutionError(SolveError):
    pass


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Full data of the reaction problem on one grid.

    `scheme` is the Scheme of (grid, operator, gamma), built once here:
    every residual, bracket end and loop of the problem reads it.  The
    spec is frozen, so the scheme cannot go stale.
    """
    grid: Grid
    operator: object
    gamma: float
    q: float
    weight: WeightField
    scheme: Scheme = field(init=False, repr=False)

    def __post_init__(self):
        # the Scheme checks gamma, before q is checked against it
        scheme = Scheme(self.grid, self.operator, self.gamma)
        if not 0 < self.q < self.gamma + 1:
            raise ValueError("q < gamma+1 (strict) and q > 0 required, got q=%g"
                             % self.q)
        _on_grid(self.grid, self.weight, "weight")
        object.__setattr__(self, "scheme", scheme)


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
    return residual_field(u, problem.scheme, problem.q, problem.weight)


# the ball eigenpair's control: tol_residual = inf, so its converged flag
# checks only the inner solves.  The pair only starts build_subsolution's
# eps search, whose certificate is the discrete residual at every node, so
# lambda needs to settle to 1e-3: the search starts 2% below the analytic
# bound, and a pair good to about 1e-3 still passes at the first candidate
# (at 1e-2 some balls need one more halving)
BALL_EIGEN = EigenControl(tol_lambda=1e-3, tol_residual=np.inf,
                          inner=IterationControl(tolerance=1e-8))


def _ball_nodes(grid, ball):
    """The host nodes of a ball: per axis the index range (start, stop)
    of the grid nodes within 1e-12 of [lo, hi].

    The one place a ball is checked: 2 * dim finite numbers, lo, hi per
    axis, with lo < hi inside the domain, covering at least 5 nodes per
    axis.  The eigenpair's sub-grid, the weight on the ball and the
    injection of phi+ all read this range, so they see the same nodes.
    """
    flat = [float(v) for v in np.ravel(ball)]
    text = "ball " + ",".join(map(repr, flat))
    if len(flat) != 2 * grid.dim or not all(map(math.isfinite, flat)):
        raise ValueError("%s: a %d-D ball is %d finite numbers, lo,hi per axis"
                         % (text, grid.dim, 2 * grid.dim))
    nodes = []
    for k, (glo, ghi) in enumerate(grid.bounds):
        lo, hi = flat[2 * k:2 * k + 2]
        if not glo <= lo < hi <= ghi:
            raise ValueError("%s not inside the domain" % text if lo < hi
                             else "%s: axis %d needs lo < hi" % (text, k))
        x = grid.axis(k)
        idx = np.flatnonzero((x >= lo - 1e-12) & (x <= hi + 1e-12))
        if len(idx) < 5:
            raise ValueError("%s covers fewer than 5 grid nodes on axis %d"
                             % (text, k))
        nodes.append((int(idx[0]), int(idx[-1]) + 1))
    return tuple(nodes)


@functools.lru_cache(maxsize=1)
def _ball_pair(grid, nodes, gamma, operator):
    """The eigenpair on the sub-grid of the host nodes `nodes`.

    Snapping to host nodes makes the eigenfunction transfer exact (pure
    injection, no interpolation error), which keeps second differences of
    the extended function consistent on the host grid.  One entry: every
    probe of a parameter sweep asks for the same pair.  OperatorSpec
    compares by identity, and the entry holds it alive.
    """
    axes = [grid.axis(k)[i:j] for k, (i, j) in enumerate(nodes)]
    sub = Grid(tuple((float(x[0]), float(x[-1])) for x in axes),
               tuple(len(x) - 2 for x in axes))
    return principal_eigenpair(sub, operator, gamma, BALL_EIGEN)


def ball_eigenpair(problem, ball):
    """Principal eigenpair of the problem's operator on a sub-ball, by
    principal_eigenpair under BALL_EIGEN on the ball's host nodes
    (_ball_nodes).

    The last pair is kept, keyed by grid, nodes, gamma and the operator
    object; a call with any other key computes its own pair and replaces
    it.  A sweep shares one pair only if its problems share one operator.

    lambda_plus is good to about BALL_EIGEN.tol_lambda (1e-3 relative),
    the accuracy build_subsolution's eps search needs; a caller that
    needs an accurate eigenvalue calls principal_eigenpair with its own
    EigenControl.
    """
    return _ball_pair(problem.grid, _ball_nodes(problem.grid, ball),
                      problem.gamma, problem.operator)


# slack of the discrete sub- and supersolution inequalities
BRACKET_TOL = 1e-8


def _lowest(grid, field):
    """The least interior value of field and its interior node: the one
    test of every bracket inequality (field >= -BRACKET_TOL inside)."""
    f = grid.interior(field)
    k = int(np.argmin(f))
    return float(f.flat[k]), tuple(int(i) for i in np.unravel_index(k, f.shape))


def build_subsolution(problem, ball):
    """eps * phi+(ball) extended by zero, with eps fixed by dyadic search.

    The weight is checked and eps bounded on the ball's host nodes
    (_ball_nodes), the nodes of its eigenpair's sub-grid, and max(phi+, 0)
    is written into those nodes of a zero field: the pair's sub-grid lies
    on them, so the transfer is a slice copy.  eps starts at
    the analytic admissibility bound from
    lam+ eps^(1+gamma-q) phi^(1-q) <= a and halves until the discrete
    subsolution inequality (residual >= -BRACKET_TOL) holds at every
    interior node.  Raises SubsolutionError when the weight is not
    positive on the ball, and naming the violated node when no admissible
    eps exists.
    """
    grid = problem.grid
    nodes = _ball_nodes(grid, ball)
    box = tuple(slice(i, j) for i, j in nodes)
    a = problem.weight.values[box]
    if np.min(a) <= 0:
        raise SubsolutionError("ball is not contained in the positive set "
                               "of the weight (min a = %.6g)" % np.min(a))

    pair = ball_eigenpair(problem, ball)
    phi = np.zeros(grid.shape)
    phi[box] = np.maximum(pair.phi_plus.values, 0.0)
    gamma, q = problem.gamma, problem.q

    pos = phi[box] > 1e-8
    bound = a[pos] / (pair.lambda_plus * phi[box][pos] ** (1.0 - q))
    eps_max = float(np.min(bound) ** (1.0 / (1.0 + gamma - q)))

    # the analytic bound is tight at the worst node, so the discrete
    # eigen-defect always violates it by a hair; start just below
    eps = 0.98 * eps_max
    last_bad = None
    for _ in range(48):
        u = GridFunction(grid, eps * phi)
        worst, node = _lowest(grid, residual(problem, u).values)
        if worst >= -BRACKET_TOL:
            return u
        last_bad = (eps, node, worst)
        eps *= 0.5
    raise SubsolutionError(
        "no admissible eps <= %g; last violation %.3e at interior node %r (eps=%g)"
        % (eps_max, last_bad[2], last_bad[1], last_bad[0]))


def build_supersolution(problem, ctl=None):
    """k * psi with psi solving the -||a||_inf Dirichlet problem.

    k = (||psi||_inf^q + 1)^(1/(1+gamma-q)) * 1.05, doubled while the
    discrete supersolution inequality (residual <= BRACKET_TOL) fails; the
    inequality only improves with k since q < gamma+1.  That inequality at
    every interior node is the certificate (_is_supersolution, which also
    admits a given upper end in solve), so psi is taken also where its
    solve stopped at the residual's rounding floor above the tolerance.
    """
    grid = problem.grid
    anorm = problem.weight.sup_norm()
    if anorm == 0.0:
        return GridFunction.zeros(grid)
    f = GridFunction(grid, np.full(grid.shape, -anorm), dirichlet=False)
    psi = solve_rhs(problem.scheme, f, ctl or IterationControl()).solution
    gamma, q = problem.gamma, problem.q
    k = (psi.sup_norm() ** q + 1.0) ** (1.0 / (1.0 + gamma - q)) * 1.05
    for _ in range(12):
        u = GridFunction(grid, np.maximum(k * psi.values, 0.0))
        if _is_supersolution(problem, u):
            return u
        k *= 2.0
    raise SolveError("could not verify the supersolution inequality")


def _is_supersolution(problem, u):
    """The certificate of an upper bracket end: the discrete supersolution
    inequality, residual <= BRACKET_TOL at every interior node."""
    return _lowest(problem.grid, -residual(problem, u).values)[0] >= -BRACKET_TOL


_FLOAT_MAX = np.finfo(float).max
# Newton steps per _implicit_damping call
DAMPING_ITERS = 30


def _implicit_damping(w, c, q):
    """Solve z + c z^q = w (z >= 0) nodewise, c an array shaped like w;
    the damping a- u^q backward step.

    Exact implicitness makes the time map's fixed point coincide with the
    zero-residual state (a semi-implicit factor evaluated at the old
    iterate limit-cycles at extinction fronts).  Newton from
    z0 = w (1 + c w^(q-1))^(-1/q), which for q < 1 provably starts on the
    concave under side, so the iteration increases monotonically to the
    root.  Where z0 underflows to 0 (a subnormal w next to a front) the
    root is at the underflow threshold too, and the node is set to 0 up
    front (Newton would turn 0/0 into NaN there).  Stops once every node
    has |z + c z^q - w| <= max(1e-16, 2 ulp(w)), the rounding floor of a
    difference of two floats near its own w (a node can flip between two
    floats whose residuals are +-1 ulp of w), or after DAMPING_ITERS
    steps.  A node whose residual is NaN does not hold the loop: a step
    that rounds z to exactly 0, where the root lies below the smallest
    subnormal, makes the next step's c q z^q / z a 0/0, and the node
    comes out as 0, its root to within that subnormal.  The caller
    (_relax_ptc) runs with divide, overflow and invalid floating-point
    errors ignored; non-finite roots come out as 0 (NaN) or the largest
    float (+inf).
    """
    z = np.maximum(w, 0.0)
    idx = np.flatnonzero((z > 0.0) & (c > 0.0))
    if not idx.size:
        return z
    zf = z.reshape(-1)
    za, wa, ca = zf[idx], w.reshape(-1)[idx], c.reshape(-1)[idx]
    beta = ca * za ** (q - 1.0)
    za = za * (1.0 + beta) ** (-1.0 / q)
    live = za > 0.0
    if not live.all():
        zf[idx[~live]] = 0.0
        idx, za, wa, ca = idx[live], za[live], wa[live], ca[live]
        if not idx.size:
            return z
    caq = ca * q
    tol = np.maximum(1e-16, 2.0 * np.spacing(wa))
    for _ in range(DAMPING_ITERS):
        zq = za ** q
        f = za + ca * zq - wa
        za = za - f / (1.0 + caq * zq / za)
        if not (np.abs(f) > tol).any():   # NaN compares False
            break
    # fmax drops NaN; + 0.0 turns -0.0 into +0.0, as np.maximum does
    zf[idx] = np.minimum(np.fmax(za, 0.0), _FLOAT_MAX) + 0.0
    return z


# pseudo-transient continuation (_relax_ptc): the floor of the first
# pseudo-time step, the share of sup u0 its explicit move dt max|R(u0)|
# takes, and the step's growth on an accepted step and its cut on a
# rejected one
PTC_DT0 = 1e-3
PTC_MOVE = 0.05
PTC_GROW = 2.0
PTC_CUT = 4.0
# a trial step is rejected when it multiplies max|R| by more than this
PTC_REJECT = 2.0
# the loop gives up after PTC_WINDOW accepted steps in a row that each
# moved u by at most PTC_SETTLED * sup u and set no new lowest max|R| (the
# floating-point floor), or after PTC_STALL steps that set neither a new
# low nor a new largest count of lit nodes (a cycle)
PTC_WINDOW = 8
PTC_SETTLED = 1e-6
PTC_STALL = 128
# the zero set of a step: the nodes at or below PTC_FLOOR * sup u, where
# the slope of a u^q is taken at that floor (see _relax_ptc)
PTC_FLOOR = 1e-12


def _relax_ptc(problem, vals, ctl, above):
    """Pseudo-transient Newton (Kelley & Keyes, SIAM J. Numer. Anal. 35,
    1998).

    A step solves (I/dt + M - diag(a q max(u, PTC_FLOOR sup u)^(q-1))) du
    = R(u), with R(u) = g F_h(u) + a u^q and M = -d(g F_h)/du at the active
    policy (PolicyMatrix.newton), then sets u <- max(u + du, 0): backward
    Euler on u_t = R(u), linearized at u, which becomes Newton's method as
    dt grows.  Each trial that reaches the residual test is linearized
    once (Scheme.linearize), and an accepted one's record gives R, g and
    the Jacobian of every step taken from it.  The nodes at or below
    PTC_FLOOR sup u are the zero set, where dead cores lie and where that
    slope would pin the iterate:
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
    The first dt is max(PTC_DT0, PTC_MOVE sup u0 / max|R(u0)|): its
    explicit move dt max|R| is 5% of the start's size, so a start near
    its answer (a sweep's solved neighbour) does not climb a ramp of
    doublings from PTC_DT0 before Newton's steps take over.  dt doubles
    on each accepted step; a step whose max|R| is not finite or more than
    doubles is rejected and divides dt by 4.  From above (`above`, init
    'supersolution' or 'subsolution') a step that darkens a lit node of
    {a > 0} is rejected the same way: lit at the linearization point, at
    or below PTC_FLOOR sup u in the trial.  The ball's eps phi lies below
    the maximal solution, so that solution is positive on every component
    of {a > 0} that holds a ball, and such a step has jumped below it (at
    gamma = 0, q = 0.2 over (0, 4) it used to land on u = 0).  A component
    too small for build_subsolution's ball is kept lit as well: since
    q < gamma + 1, eps times its indicator is a subsolution for small
    eps, even on one node.  Stops at ctl.tolerance, after PTC_WINDOW
    accepted steps in a row that each moved u by at most PTC_SETTLED
    sup u and set no new low of max|R| (a converging run's last Newton
    steps move u that little while max|R| still falls by orders; a step
    that lands exactly on its start moves u by nothing and sets no new
    low, so a run that keeps doing so ends within PTC_WINDOW solves), or
    after PTC_STALL accepted steps that set neither a new low of max|R|
    nor a new largest count of lit nodes, those above PTC_FLOOR sup u (a
    cycle).  Far from the answer max|R| can rise and
    fall for 71 steps at n = 3200 while u moves by O(1), and from below a
    front that lights one node after another holds max|R| high for
    hundreds of steps (q = 0.2, n = 1599): an advancing front is
    progress.  The count is bounded by the number of nodes, so every
    cycle still stops, and the cycle stop is the loop's only bound short
    of ctl.max_steps.  It is the only reaction loop: it iterates `vals`
    in place and returns the number of sparse solves it took; a run
    stopped above the tolerance leaves its iterate as it is, and solve
    reports it unconverged.  At gamma = 0, g = 1 and c = 0, so the
    Newton matrix is the policy matrix A itself.
    """
    grid, q, scheme = problem.grid, problem.q, problem.scheme
    op = PolicyMatrix(scheme)
    a_int = grid.interior(problem.weight.values)
    a = a_int.ravel()
    aq, positive = q * a, a_int > 0.0
    source, sink = positive.ravel(), a < 0.0
    u_int = grid.interior(vals)
    trial = vals.copy()
    t_int = grid.interior(trial)

    lin = scheme.linearize(vals)
    R = lin.gF + a_int * u_int ** q
    rsup = float(np.abs(R).max())
    dt = PTC_DT0
    if rsup > 0.0:
        dt = max(dt, PTC_MOVE * float(u_int.max()) / rsup)
    best, stale, quiet, steps = np.inf, 0, 0, 0
    most = np.count_nonzero(u_int > PTC_FLOOR * u_int.max())
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
        du = op.solve(op.newton(lin, shift=1.0 / dt - slope), R.ravel())
        steps += 1
        np.maximum(u_int + du.reshape(u_int.shape), 0.0, out=t_int)
        dead = zero & sink
        if dead.any():
            t = t_int.ravel()
            D = op.diagonal()
            N = (D * t - op.apply(t))[dead]
            gD = lin.g.ravel()[dead] * D[dead]
            t_int[dead.reshape(t_int.shape)] = _implicit_damping(
                N / D[dead], -a[dead] / gD, q)
        dark = t_int <= PTC_FLOOR * t_int.max()
        if above and (dark.ravel() & source & ~zero).any():
            dt /= PTC_CUT
            continue
        if (dark & positive).any():
            near = np.pad(dark, 1, constant_values=True)
            t_int[grid.interior(_stencil_all_below(near)) & positive] = 0.0
        lin_t = scheme.linearize(trial)
        R_t = lin_t.gF + a_int * t_int ** q
        r_t = float(np.abs(R_t).max())
        if not r_t <= PTC_REJECT * rsup:
            dt /= PTC_CUT
            continue
        moved = float(np.abs(t_int - u_int).max()) > PTC_SETTLED * u.max()
        vals[...] = trial
        R, lin, rsup = R_t, lin_t, r_t
        dt *= PTC_GROW
        lit = np.count_nonzero(~dark)
        if rsup < best:
            best, stale, quiet = rsup, 0, 0
        else:
            stale = 0 if lit > most else stale + 1
            quiet = 0 if moved else quiet + 1
        most = max(most, lit)
    return steps


def _certified(problem, vals, steps, ctl, init, bracket):
    """The report of a finished loop, certified by the recomputed residual."""
    u = GridFunction(problem.grid, vals, dirichlet=False)
    rsup = float(np.max(np.abs(problem.grid.interior(residual(problem, u).values))))
    return SolveReport(u, rsup, steps, rsup <= ctl.tolerance, init, bracket)


def _given(grid, u0):
    """u0 as the values of a start on grid: finite, >= 0 and 0 on the
    boundary (the loops hold boundary values fixed as Dirichlet data)."""
    vals = _values_on(grid, u0, "initial values")
    if not np.all(np.isfinite(vals)):
        raise ValueError("initialization must be finite")
    if np.min(vals) < -1e-15:
        raise ValueError("initialization must be nonnegative")
    vals = np.maximum(vals, 0.0)
    edge = vals.copy()
    grid.interior(edge)[...] = 0.0
    if np.any(edge):
        raise ValueError("initialization must be 0 on the boundary "
                         "(max there %.3g)" % np.max(edge))
    return vals


def _start(problem, init, ctl, ball, u0):
    """The start of solve: (vals, the bracket or None)."""
    grid = problem.grid
    if init not in ("zero", "subsolution", "supersolution", "given"):
        raise ValueError("unknown init %r" % init)
    if u0 is not None and init not in ("subsolution", "given"):
        raise ValueError("init=%r reads no u0" % init)
    bracket = None
    if init == "zero":
        vals = np.zeros(grid.shape)
    elif init == "subsolution":
        if ball is None:
            raise ValueError("init='subsolution' needs a ball")
        upper = None if u0 is None else GridFunction(grid, _given(grid, u0))
        sub = build_subsolution(problem, ball)
        if upper is None or not _is_supersolution(problem, upper):
            upper = build_supersolution(problem, ctl)
        bracket = (sub, upper)
        vals = upper.values.copy()
    elif init == "supersolution":
        vals = build_supersolution(problem, ctl).values
    else:
        if u0 is None:
            raise ValueError("init='given' needs u0")
        vals = _given(grid, u0)
    return vals, bracket


def solve(problem, init="zero", ctl=None, ball=None, u0=None):
    """Solve the reaction problem for a nonnegative steady state.

    init is one of 'zero', 'subsolution' (requires ball), 'given'
    (requires u0), or 'supersolution'.  A u0 is finite, >= 0 and 0 on the
    boundary, a GridFunction on the problem grid or an array of its shape;
    'zero' and 'supersolution' read none and refuse one with ValueError.
    Iterates are clamped at zero; with init='subsolution' the report
    carries the (subsolution, supersolution) bracket.  Every start at
    every gamma runs pseudo-transient Newton (_relax_ptc) from its values,
    and a run that stalls above the tolerance comes back unconverged:
    - from above, 'supersolution' and 'subsolution' (which builds both
      bracket ends and starts from the supersolution) return the maximal
      solution; 'subsolution' raises SolveError, naming the worst
      interior node, unless the answer lies in the bracket within
      BRACKET_TOL.  With a u0, 'subsolution' takes u0 as the upper
      end if it passes build_supersolution's certificate, and builds the
      supersolution otherwise; the answer is the maximal solution when
      u0 lies above it, as the answer at a smaller negative part does
      (see estimate_threshold).  The first pseudo-time step is sized
      from the start's residual, so a start near its answer takes a
      few Newton steps, not a ramp from PTC_DT0, and a step from above
      that darkens a lit node of {a > 0} is rejected (_relax_ptc).
    - 'zero' returns u = 0 (R(0) = 0) in 0 steps.
    At every gamma, init='given' with u0=build_subsolution(problem, ball)
    returns the minimal solution.  On sinsplit weights, whose {a > 0} has
    one component, the minimal and the maximal solution agree within the
    tolerance; the example weight, with two components, lights only the
    seeded one from below (see tests/test_properties.py and
    tests/test_solver.py).  Scheme.require_policy is checked before any
    work; a non-finite residual raises SolveError naming the step.
    """
    ctl = ctl or IterationControl()
    problem.scheme.require_policy()
    vals, bracket = _start(problem, init, ctl, ball, u0)
    # one error state for the loop (_implicit_damping relies on it) and
    # the bracket's check
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        steps = _relax_ptc(problem, vals, ctl,
                           init in ("supersolution", "subsolution"))
        if bracket is not None:
            sub, upper = (end.values for end in bracket)
            for lo, hi, what in ((sub, vals, "falls below the subsolution"),
                                 (vals, upper, "lies above the supersolution")):
                worst, node = _lowest(problem.grid, hi - lo)
                if worst < -BRACKET_TOL:
                    raise SolveError("the solution from the supersolution %s at "
                                     "interior node %r" % (what, node))
        return _certified(problem, vals, steps, ctl, init, bracket)
