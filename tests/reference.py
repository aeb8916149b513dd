"""Explicit pseudo-time relaxation, kept as the tests' parity reference.

The library solves the auxiliary Dirichlet problem by Newton-Howard
iteration and the reaction problem by pseudo-transient Newton.  The
loops here relax the same equations with the per-node monotone step of
explicit_step: _relax_rhs for solve_rhs and _relax_explicit for solve, at
every gamma.  They need O(n^2) steps.

_relax_ptc is the pseudo-transient Newton loop as it was before it kept
per-iterate work out of its trials, on the Newton matrix that
newton_rebuild writes in full at every step: solver._relax_ptc must take
the same steps to the same bits.  build_subsolution is the eps search
with one residual evaluation per candidate, solve_rhs the Newton-Howard
loop on newton_rebuild's matrix, and principal_eigenpair the
inverse-power loop on that solve_rhs, fitting lambda from a recomputed
grad_factor * F: the library's build_subsolution, solve_rhs and
principal_eigenpair must return the same bits.  They are the loops as
they were, but for the RhsReport field gF, which solve_rhs reports.
"""

import math

import numpy as np

from deadcore import solver
from deadcore.dirichlet import (NEWTON_STALL, IterationControl, PolicyMatrix,
                                RhsReport, SolveError)
from deadcore.eigen import MAX_OUTER, EigenControl, EigenPair
from deadcore.grids import (GridFunction, Scheme, _on_grid, _stencil_all_below,
                            _values_on)
from deadcore.solver import (BRACKET_TOL, PTC_CUT, PTC_DT0, PTC_FLOOR, PTC_GROW,
                             PTC_MOVE, PTC_REJECT, PTC_SETTLED, PTC_STALL,
                             PTC_WINDOW, SubsolutionError, _ball_nodes,
                             ball_eigenpair, residual)

# fraction of the explicit stability bound each relaxation step takes
SAFETY = 0.9
# the explicit reaction loop flushes u below ZERO_FLOOR * sup(u) to 0
ZERO_FLOOR = 1e-16


def explicit_step(scheme, v):
    """(g F_h(v), dt): the direction and per-node pseudo-time step of
    explicit relaxation, u <- u + dt (g F_h(u) + source terms).

    dt = SAFETY / stiffness keeps the map monotone (Oberman, SIAM J.
    Numer. Anal. 44, 2006).  The stiffness is the diffusion bound
    2 N Lam max(g, delta^gamma) / h^2 plus the sensitivity of the
    gradient factor itself, 2 gamma |F_h| s2^((gamma-1)/2) / h, with h
    the smallest spacing.  At gamma = 0 it is g F_h = F_h and the scalar
    dt = SAFETY h^2 / (2 N Lam).
    """
    hmin = min(scheme.h)
    diffusion = 2.0 * scheme.dim * scheme.spec.Lam
    if scheme.gamma == 0.0:
        return scheme.F(v), SAFETY * hmin ** 2 / diffusion
    s2 = scheme._s2(scheme.upwind_mag2(v))
    g = s2 ** (scheme.gamma / 2.0)
    F = scheme.F(v)
    stiff = diffusion * np.maximum(g, scheme.delta ** scheme.gamma) / hmin ** 2 \
        + 2.0 * scheme.gamma * np.abs(F) * s2 ** ((scheme.gamma - 1.0) / 2.0) / hmin
    return g * F, SAFETY / stiff


def _relax_rhs(scheme, f, ctl, u0):
    """Explicit pseudo-time relaxation of solve_rhs from u0 (or 0); it
    does not clamp at 0, since f may be positive."""
    grid = scheme.grid
    vals = np.zeros(grid.shape) if u0 is None else np.array(
        u0.values if isinstance(u0, GridFunction) else u0, dtype=float)
    u_int = grid.interior(vals)
    f_int = grid.interior(f.values)

    steps = 0
    rsup = np.inf
    for steps in range(1, ctl.max_steps + 1):
        gF, dt = explicit_step(scheme, vals)
        r = gF - f_int
        rsup = float(np.max(np.abs(r)))
        if not np.isfinite(rsup):
            raise SolveError("non-finite residual at step %d" % steps)
        if rsup <= ctl.tolerance:
            return RhsReport(GridFunction(grid, vals, dirichlet=False),
                             rsup, steps, True, gF)
        u_int += dt * r
    return RhsReport(GridFunction(grid, vals, dirichlet=False),
                     rsup, steps, False, explicit_step(scheme, vals)[0])


def _relax_explicit(problem, vals, ctl, init, bracket, super_u):
    """Explicit pseudo-time relaxation of solve by the step of explicit_step.

    The damping part a- u^q takes an exact backward substep
    (solver._implicit_damping, or its closed form at q = 1/2).  Every 16
    steps round-off-scale deep zeros are flushed to 0 and the iterate is
    compared with the one 16 steps before: if they are equal the map has
    entered a cycle, no later step can meet the tolerance (it is below the
    floating-point floor of the residual), and the loop stops there with
    the state max_steps would give for any multiple of 16.  Past
    10 sup(super_u) (or 100 max(1, sup u0)) it reports a blow-up, with
    the residual of its last step.  Runs under the caller's np.errstate.
    """
    grid, q, scheme = problem.grid, problem.q, problem.scheme
    a_plus = grid.interior(problem.weight.a_plus)
    a_minus = grid.interior(problem.weight.a_minus)
    u_int = grid.interior(vals)
    blow_up = 10.0 * super_u.sup_norm() if super_u is not None else \
        100.0 * max(1.0, float(np.max(vals)))

    a_int = a_plus - a_minus
    closed_form = (q == 0.5)

    steps = 0
    snapshot = u_int.tobytes()
    for steps in range(1, ctl.max_steps + 1):
        gF, dt = explicit_step(scheme, vals)
        uq = np.sqrt(u_int) if closed_form else u_int ** q
        r = gF + a_int * uq
        rsup = float(np.abs(r).max())
        if not math.isfinite(rsup):
            raise SolveError("non-finite residual at step %d" % steps)
        if rsup <= ctl.tolerance:
            break
        w = u_int + dt * (gF + a_plus * uq)
        c = dt * a_minus
        if closed_form:
            # z + c sqrt(z) = w: quadratic in sqrt(z) (exact for w <= 0 too)
            s = 0.5 * (np.sqrt(c * c + 4.0 * np.maximum(w, 0.0)) - c)
            u_new = s * s
        else:
            u_new = solver._implicit_damping(w, c, q)
        # flush round-off-scale values to exact zero: u = 0 is an unstable
        # solution wherever a > 0, and sub-floor seepage across a dead band
        # would re-seed it from values far below scheme accuracy.  Only
        # deep zeros (whole neighborhood sub-floor) are flushed, so a
        # legitimate extinction-front balance node is left alone; a 16-step
        # cadence is enough since fronts advance one node per step.
        if steps % 16 == 0:
            sup = float(u_new.max())
            near = np.pad(u_new < ZERO_FLOOR * sup, 1, constant_values=True)
            u_new[grid.interior(_stencil_all_below(near))] = 0.0
            if sup > blow_up:
                u_int[...] = u_new
                return solver.SolveReport(
                    GridFunction(grid, vals, dirichlet=False), rsup, steps,
                    False, init)
            if u_new.tobytes() == snapshot:
                u_int[...] = u_new
                break
            snapshot = u_new.tobytes()
        u_int[...] = u_new
    return solver._certified(problem, vals, steps, ctl, init, bracket)


def eigen_residual(lam, phi, spec, gamma):
    """Sup norm of |D phi|^gamma F_h(phi) + lambda phi^(gamma+1) with the
    unregularized gradient factor (delta = 0), so the defect is exactly
    (gamma+1)-homogeneous in phi.  principal_eigenpair's own residual
    regularizes g by the scheme's delta = max(h)."""
    scheme, v = Scheme(phi.grid, spec, gamma), phi.values
    g = 1.0 if gamma == 0.0 else sum(scheme.upwind_mag2(v)) ** (gamma / 2.0)
    r = g * scheme.F(v) + lam * phi.grid.interior(v) ** (gamma + 1.0)
    return float(np.max(np.abs(r)))


def pucci_sign_rule(scheme, k):
    """(F_h, policy) of a Pucci scheme at curvatures k by the sign rule,
    the spelling Scheme had before its corner members.

    Per direction the slope of the envelope on the sign of k_d (k_d <= 0
    gets the slope of the negative side: lam for Pucci+, Lam for Pucci-),
    summed per frame (the axes, in 2-D also the diagonals); F_h is the
    envelope over the frames, and the policy carries the weights of the
    attaining frame (the axes on ties) and 0 along the other directions.
    """
    spec, st = scheme.spec, scheme.stencil
    plus = spec.variant == "pucci_plus"
    up, down = (spec.Lam, spec.lam) if plus else (spec.lam, spec.Lam)
    w = {name: np.where(k[name] > 0.0, up, down) for name in st.names}
    frames = [{name: w[name] for name in group}
              for group in (st.axes, st.diagonals) if group]
    values = []
    for frame in frames:
        (a, wa), *rest = frame.items()
        value = wa * k[a]
        for b, wb in rest:
            value = value + wb * k[b]
        values.append(value)
    if len(values) == 1:
        return values[0], frames[0]
    reduce, arg = (np.maximum, np.argmax) if plus else (np.minimum, np.argmin)
    pick = arg(values, axis=0)
    return reduce.reduce(values), {
        name: np.choose(pick, [f.get(name, 0.0) for f in frames])
        for name in st.names}


def newton_rebuild(op, lin, shift=None):
    """The Newton matrix of PolicyMatrix.newton, rebuilt in full into a new
    array: A at lin's policy times g, the gradient-factor terms
    subtracted, the outside entries zeroed and the shift added."""
    W = op.set_policy(lin.policy) * lin.g.ravel()
    cF = lin.cF.ravel()
    centre = 0.0
    for (jp, jm, hk), (f, b) in zip(op._axes, lin.slopes):
        up = cF * f.ravel() / hk
        down = cF * b.ravel() / hk
        W[jp] -= up
        W[jm] += down
        centre = centre + (down - up)
    W[op.outside] = 0.0
    W[op._centre] -= centre
    if shift is not None:
        W[op._centre] += shift
    return W


def _relax_ptc(problem, vals, ctl, above):
    """solver._relax_ptc as it was, every per-iterate quantity recomputed
    for each trial, on newton_rebuild's matrix; runs under the caller's
    np.errstate."""
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
        du = op.solve(newton_rebuild(op, lin, shift=1.0 / dt - slope), R.ravel())
        steps += 1
        np.maximum(u_int + du.reshape(u_int.shape), 0.0, out=t_int)
        dead = zero & sink
        if dead.any():
            t = t_int.ravel()
            D = op.diagonal()
            N = (D * t - op.apply(t))[dead]
            gD = lin.g.ravel()[dead] * D[dead]
            t_int[dead.reshape(t_int.shape)] = solver._implicit_damping(
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


def _lowest(grid, field):
    """The least interior value of field and its interior node."""
    f = grid.interior(field)
    k = int(np.argmin(f))
    return float(f.flat[k]), tuple(int(i) for i in np.unravel_index(k, f.shape))


def build_subsolution(problem, ball):
    """solver.build_subsolution as it was: one residual evaluation of
    eps * phi per candidate eps of the dyadic search."""
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
    with np.errstate(over="ignore"):
        bound = a[pos] / (pair.lambda_plus * phi[box][pos] ** (1.0 - q))
        eps_max = float(np.min(bound) ** (1.0 / (1.0 + gamma - q)))
    if not math.isfinite(eps_max):
        raise ValueError("the subsolution's eps bound overflows a float: the "
                         "weight is too large (max a = %g on the ball)" % np.max(a))

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


def solve_rhs(scheme, f, ctl=None, u0=None):
    """dirichlet.solve_rhs as it was, on newton_rebuild's matrix."""
    ctl = ctl or IterationControl()
    grid = scheme.grid
    _on_grid(grid, f, "right-hand side")
    if not np.all(np.isfinite(f.values)):
        raise ValueError("right-hand side must be finite")
    scheme.require_policy()
    op = PolicyMatrix(scheme)
    vals = np.zeros(grid.shape)
    u_int = grid.interior(vals)
    if u0 is not None:
        u_int[...] = grid.interior(_values_on(grid, u0, "start values u0"))
    f_int = grid.interior(f.values)
    steps, best, stall = 0, np.inf, 0
    while True:
        lin = scheme.linearize(vals)
        rsup = float(np.abs(lin.gF - f_int).max())
        if steps:
            if not np.isfinite(rsup):
                raise SolveError("non-finite residual at step %d" % steps)
            if rsup <= 0.5 * best:
                best, stall = rsup, 0
            else:
                stall += 1
            if rsup <= ctl.tolerance or stall == NEWTON_STALL \
                    or steps == ctl.max_steps:
                break
        steps += 1
        dgu = sum(f * f + b * b for f, b in lin.slopes)   # (Dg u_k) / c
        new = op.solve(newton_rebuild(op, lin), -(f_int + lin.cF * dgu).ravel()) \
            .reshape(u_int.shape)
        if np.array_equal(new, u_int):
            break
        u_int[...] = new
    return RhsReport(GridFunction(grid, vals, dirichlet=False),
                     rsup, steps, rsup <= ctl.tolerance, lin.gF)


def principal_eigenpair(grid, spec, gamma, ctl=None):
    """eigen.principal_eigenpair as it was, on this module's solve_rhs,
    with lambda fitted from a recomputed grad_factor * F."""
    ctl = ctl or EigenControl()
    scheme = Scheme(grid, spec, gamma)
    scheme.require_policy()

    d = grid.distance_to_boundary()
    phi = d / np.max(d)
    lam_prev = None
    u_prev = None
    lam = None
    power = gamma + 1.0
    inner_ok = True

    for it in range(1, MAX_OUTER + 1):
        f = GridFunction(grid, -(phi ** power), dirichlet=False)
        rep = solve_rhs(scheme, f, ctl.inner, u0=u_prev)
        inner_ok = inner_ok and rep.converged
        u = rep.solution.values
        usup = float(np.max(u))
        if not usup > 0:
            raise RuntimeError("inverse iteration collapsed to the zero field")
        u_prev = rep.solution

        lhs = -(scheme.grad_factor(u) * scheme.F(u))
        rhs = grid.interior(u) ** power
        denom = float(rhs @ rhs.ravel() if rhs.ndim == 1 else np.sum(rhs * rhs))
        lam = float(np.sum(lhs * rhs) / denom)
        phi = u / usup

        lam_ok = (lam_prev is not None
                  and abs(lam - lam_prev) <= ctl.tol_lambda * abs(lam))
        # the eigen-residual once lambda is stationary, and at the last
        # step: the loop's last res is the pair's
        if lam_ok or it == MAX_OUTER:
            res = float(np.abs(scheme.residual_interior(phi, lam, power)).max())
            if lam_ok and res <= ctl.tol_residual:
                break
        lam_prev = lam

    pair_phi = GridFunction(grid, phi, dirichlet=False)
    converged = bool(inner_ok and lam_ok and res <= ctl.tol_residual)
    if lam <= 0:
        raise RuntimeError("principal eigenvalue came out nonpositive")
    return EigenPair(lam, pair_phi, res, it, converged)
