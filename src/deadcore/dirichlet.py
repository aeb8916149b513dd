"""Auxiliary Dirichlet problems |Du|^gamma F(x, D^2 u) = f, u = 0 on the boundary.

The baseline solver is explicit pseudo-time relaxation under the CFL bound

    dt <= safety * h^2 / (2 N Lam * max(g, h^gamma)),   g = |grad_h u|_delta^gamma,

applied per node, which is unconditionally monotone and robust in the
degenerate regime.  For gamma = 0 with a trace-form operator the discrete
system is linear and is solved directly (sparse factorization) behind the
same contract.  Convergence is declared on the equation residual, not on
the update size.
"""

from dataclasses import dataclass, field
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grids import GridFunction, Scheme

__all__ = ["IterationControl", "RhsProblem", "RhsReport", "SolveError",
           "solve_rhs", "sup_norm"]

class SolveError(RuntimeError):
    pass


@dataclass
class IterationControl:
    """Knobs for the relaxation loop."""
    tolerance: float = 1e-8
    max_steps: int = 1_000_000
    safety: float = 0.9
    method: str = "auto"     # auto | explicit | direct; selects the path in
                             # solve_rhs and solve: the sparse-matrix path
                             # (gamma = 0, linear trace) or relaxation
    zero_floor: float = 1e-16   # relative; reaction solves flush u below
                                # zero_floor * sup(u) to exact zero
    debug: bool = False

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not 0 < self.safety <= 1:
            raise ValueError("safety factor must lie in (0, 1]")
        if self.method not in ("auto", "explicit", "direct"):
            raise ValueError("unknown method %r" % self.method)


@dataclass
class RhsProblem:
    grid: object
    spec: object
    gamma: float
    f: GridFunction

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if not np.all(np.isfinite(self.f.values)):
            raise ValueError("right-hand side must be finite")


@dataclass
class RhsReport:
    solution: GridFunction
    residual_sup: float
    steps: int
    converged: bool


def sup_norm(u):
    """Sup norm of a GridFunction or plain array."""
    v = u.values if isinstance(u, GridFunction) else np.asarray(u)
    return float(np.max(np.abs(v)))


def _use_matrix_path(method, gamma, spec):
    """Whether a solve takes the sparse-matrix path for this operator.

    The discrete operator is the linear matrix of _interior_trace_matrix
    exactly when gamma = 0 and F is a linear trace.  method='direct'
    outside that class raises ValueError.
    """
    linear = gamma == 0.0 and spec.variant == "linear_trace"
    if method == "direct" and not linear:
        raise ValueError("direct method needs gamma = 0 and a trace operator")
    return method == "direct" or (method == "auto" and linear)


def _interior_trace_matrix(scheme):
    """Sparse interior matrix of Tr(A(x) D^2_h) with Dirichlet rows removed."""
    g = scheme.grid
    d = scheme._tables[0]
    if g.dim == 1:
        n = g.n[0]
        h2 = g.h[0] ** 2
        main = -2.0 * d[0] / h2
        off_up = d[0][:-1] / h2
        off_dn = d[0][1:] / h2
        return sp.diags([off_dn, main, off_up], offsets=[-1, 0, 1], format="csc")
    nx, ny = g.n
    hx2, hy2 = g.h[0] ** 2, g.h[1] ** 2
    Tx = sp.diags([np.ones(nx - 1), -2 * np.ones(nx), np.ones(nx - 1)],
                  offsets=[-1, 0, 1]) / hx2
    Ty = sp.diags([np.ones(ny - 1), -2 * np.ones(ny), np.ones(ny - 1)],
                  offsets=[-1, 0, 1]) / hy2
    Ix, Iy = sp.identity(nx), sp.identity(ny)
    L = sp.diags(d[0].ravel()) @ sp.kron(Tx, Iy) + \
        sp.diags(d[1].ravel()) @ sp.kron(Ix, Ty)
    return L.tocsc()


def _solve_direct(p, ctl):
    scheme = Scheme(p.grid, p.spec, 0.0)
    L = _interior_trace_matrix(scheme)
    f_int = p.grid.interior(p.f.values).ravel()
    u_int = spla.spsolve(L, f_int)
    vals = np.zeros(p.grid.shape)
    p.grid.interior(vals)[...] = u_int.reshape(tuple(p.grid.n))
    u = GridFunction(p.grid, vals)
    r = scheme.F(u.values) - p.grid.interior(p.f.values)
    return RhsReport(u, float(np.max(np.abs(r))), 1, True)


def solve_rhs(p, ctl=None, u0=None):
    """Solve |Du|^gamma F(x, D^2 u) = f with zero Dirichlet data.

    `u0` seeds the relaxation (warm starts for nested iterations).  On
    step exhaustion the partial solution is returned with converged=False;
    a non-finite residual raises SolveError naming the step.
    """
    ctl = ctl or IterationControl()
    if _use_matrix_path(ctl.method, p.gamma, p.spec):
        return _solve_direct(p, ctl)

    grid = p.grid
    scheme = Scheme(grid, p.spec, p.gamma)
    vals = np.zeros(grid.shape) if u0 is None else np.array(
        u0.values if isinstance(u0, GridFunction) else u0, dtype=float)
    u_int = grid.interior(vals)
    f_int = grid.interior(p.f.values)
    dim, Lam = grid.dim, p.spec.Lam
    hmin = min(grid.h)
    h2 = hmin ** 2
    dt_const = None
    if p.gamma == 0.0:
        dt_const = ctl.safety * h2 / (2.0 * dim * Lam)
    dfloor = scheme.delta ** p.gamma
    d2 = scheme.delta ** 2

    steps = 0
    rsup = np.inf
    for steps in range(1, ctl.max_steps + 1):
        if dt_const is not None:
            r = scheme.F(vals) - f_int
        else:
            m2 = scheme.upwind_mag2(vals)
            n2 = m2[0]
            for mk in m2[1:]:
                n2 = n2 + mk
            s2 = n2 + d2
            g = s2 ** (p.gamma / 2.0)
            Fv = scheme.F(vals)
            r = g * Fv - f_int
        rsup = float(np.max(np.abs(r)))
        if not np.isfinite(rsup):
            raise SolveError("non-finite residual at step %d" % steps)
        if rsup <= ctl.tolerance:
            return RhsReport(GridFunction(grid, vals, dirichlet=False),
                             rsup, steps, True)
        if dt_const is not None:
            u_int += dt_const * r
        else:
            # per-node stiffness: the usual diffusion bound plus the
            # sensitivity of the gradient factor itself, |F| d g / d u
            stiff = 2.0 * dim * Lam * np.maximum(g, dfloor) / h2 \
                + 2.0 * p.gamma * np.abs(Fv) * s2 ** ((p.gamma - 1.0) / 2.0) / hmin
            u_int += (ctl.safety / stiff) * r
    return RhsReport(GridFunction(grid, vals, dirichlet=False),
                     rsup, steps, False)
