"""Principal eigenpair of |D phi|^gamma F(x, D^2 phi) = -lambda phi^(gamma+1).

Normalized inverse-power iteration: given phi_k with sup norm 1, solve the
Dirichlet problem with right-hand side -(phi_k)^(gamma+1) (solve_rhs,
warm-started from the last solution: Newton-Howard at every gamma, a few
sparse solves each), fit lambda by least squares of -|grad u|^gamma F_h(u)
(the inner solve's last linearization) against u^(gamma+1) over interior
nodes (robust where u^(gamma+1) is tiny), and renormalize.  Iteration
stops when lambda is relatively stationary and the eigen-residual meets
the declared tolerance.  One
Scheme serves every inner solve_rhs and the eigen-residual, which is its
residual_interior with the weight lambda and the exponent gamma + 1.
"""

from dataclasses import dataclass, field
import numpy as np

from .grids import GridFunction, Scheme
from .dirichlet import IterationControl, solve_rhs

__all__ = ["EigenControl", "EigenPair", "principal_eigenpair"]


# inverse-power steps per eigensolve
MAX_OUTER = 200


@dataclass
class EigenControl:
    """Tolerances of an eigensolve: the relative change of lambda, the
    eigen-residual (inf checks only lambda and the inner solves), and the
    inner Dirichlet solves' control."""
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
    own.  Raises RuntimeError if the
    iterate collapses to zero; returns converged=False on exhaustion and
    when any inner Dirichlet solve reported converged=False.  Checks
    Scheme.require_policy before the first step.
    """
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

        lhs = -rep.gF
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
