"""Principal eigenpair of |D phi|^gamma F(x, D^2 phi) = -lambda phi^(gamma+1).

Normalized inverse-power iteration: given phi_k with sup norm 1, solve the
Dirichlet problem with right-hand side -(phi_k)^(gamma+1) (solve_rhs,
warm-started from the last solution: Newton-Howard at every gamma, a few
sparse solves each), fit lambda by least squares of -|grad u|^gamma F_h(u)
(the inner solve's last linearization) against u^(gamma+1) over interior
nodes (robust where u^(gamma+1) is tiny), and renormalize.  Iteration
stops when lambda is relatively stationary and the eigen-residual meets
the declared tolerance.  The eigen-residual is read off the same record
at the same scale: max |g F_h(u) + lambda u^(gamma+1)| / (sup u)^(gamma+1).
At gamma = 0 F_h is linear, so this is the stencil residual at phi =
u / sup u up to rounding; at gamma > 0 the regularized gradient factor
(|Du|^2 + delta^2)^(gamma/2) is not gamma-homogeneous, and the residual at
phi would keep an O(h) floor that no tolerance below it can pass.  One
Scheme serves every inner solve_rhs; a step evaluates the operator only
inside it.
"""

from dataclasses import dataclass, field
import numpy as np

from .grids import _FLOAT_TINY, GridFunction, Scheme
from .dirichlet import IterationControl, solve_rhs

__all__ = ["EigenControl", "EigenPair", "principal_eigenpair"]


# inverse-power steps per eigensolve
MAX_OUTER = 200


@dataclass
class EigenControl:
    """Tolerances of an eigensolve: the relative change of lambda, the
    eigen-residual at sup norm 1 (inf checks only lambda and the inner
    solves), and the inner Dirichlet solves' control."""
    tol_lambda: float = 1e-8
    tol_residual: float = 1e-6
    inner: IterationControl = field(
        default_factory=lambda: IterationControl(tolerance=1e-10))

    def __post_init__(self):
        for name in ("tol_lambda", "tol_residual"):
            if not getattr(self, name) > 0:
                raise ValueError("%s must be positive" % name)


@dataclass
class EigenPair:
    lambda_plus: float
    phi_plus: GridFunction
    residual: float
    iterations: int
    converged: bool = True


def principal_eigenpair(grid, spec, gamma, ctl=None):
    """First eigenpair (lambda+, phi+) with phi+ > 0 and sup norm 1.

    Initialization is the normalized distance-to-boundary function
    (positive and boundary compatible).  Each step fits lambda from the
    inner solve's g F_h (RhsReport.gF): solve_rhs linearizes its last
    iterate, which is the solution it returns, so its g F_h is the
    solution's grad_factor * F bit for bit, with no stencil pass of its
    own.  The step's eigen-residual is the defect g F_h(u) + lambda
    u^(gamma+1) of that fit, over (sup u)^(gamma+1), so every step has
    one and the pair's is its last step's.  Raises RuntimeError if the
    iterate collapses to zero, and ValueError naming the lambda fit when
    its denominator sum(u^(2(gamma+1))) is not a positive normal float
    (it underflows on tiny domains); returns converged=False on
    exhaustion and when any inner Dirichlet solve reported
    converged=False.  Checks Scheme.require_policy before the first
    step.
    """
    ctl = ctl or EigenControl()
    scheme = Scheme(grid, spec, gamma)
    scheme.require_policy()

    d = grid.distance_to_boundary()
    phi = d / np.max(d)
    lam_prev = u_prev = None
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

        lhs = -rep.gF
        rhs = grid.interior(u) ** power
        denom = float(rhs @ rhs.ravel() if rhs.ndim == 1 else np.sum(rhs * rhs))
        if not _FLOAT_TINY <= denom < np.inf:
            raise ValueError("the lambda fit's denominator sum(u^(2(gamma+1))) = %g "
                             "is not a positive normal float (gamma = %g on %r)"
                             % (denom, gamma, grid.bounds))
        lam = float(np.sum(lhs * rhs) / denom)
        phi = u / usup
        # the eigen-residual g F_h(u) + lambda u^(gamma+1) at u's own scale,
        # where lambda is fitted, rescaled to sup norm 1
        res = float(np.abs(lam * rhs - lhs).max()) / usup ** power

        lam_ok = (lam_prev is not None
                  and abs(lam - lam_prev) <= ctl.tol_lambda * abs(lam))
        if lam_ok and res <= ctl.tol_residual:
            break
        lam_prev = lam

    pair_phi = GridFunction(grid, phi, dirichlet=False)
    converged = bool(inner_ok and lam_ok and res <= ctl.tol_residual)
    if lam <= 0:
        raise RuntimeError("principal eigenvalue came out nonpositive")
    return EigenPair(lam, pair_phi, res, it, converged)
