"""Explicit pseudo-time relaxation, kept as the tests' parity reference.

The library solves the auxiliary Dirichlet problem by Newton-Howard
iteration and the reaction problem by pseudo-transient Newton.  The
loops here relax the same equations with the per-node monotone step of
explicit_step: _relax_rhs for solve_rhs and _relax_explicit for solve, at
every gamma.  They need O(n^2) steps.

_relax_ptc is the pseudo-transient Newton loop as it was before it kept
per-iterate work out of its trials, on the Newton matrix that
newton_rebuild writes in full at every step: solver._relax_ptc must take
the same steps to the same bits.
"""

import math

import numpy as np

from deadcore import solver
from deadcore.dirichlet import PolicyMatrix, RhsReport, SolveError
from deadcore.grids import GridFunction, Scheme, _stencil_all_below
from deadcore.solver import (PTC_CUT, PTC_DT0, PTC_FLOOR, PTC_GROW, PTC_MOVE,
                             PTC_REJECT, PTC_SETTLED, PTC_STALL, PTC_WINDOW)

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
                             rsup, steps, True)
        u_int += dt * r
    return RhsReport(GridFunction(grid, vals, dirichlet=False),
                     rsup, steps, False)


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
