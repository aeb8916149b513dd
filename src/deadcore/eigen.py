"""Principal eigenpair of |D phi|^gamma F(x, D^2 phi) = -lambda phi^(gamma+1).

Normalized inverse-power iteration: given phi_k with sup norm 1, solve the
Dirichlet problem with right-hand side -(phi_k)^(gamma+1), fit lambda by
least squares of -|grad u|^gamma F_h(u) against u^(gamma+1) over interior
nodes (robust where u^(gamma+1) is tiny), and renormalize.  Iteration
stops when lambda is relatively stationary and the eigen-residual meets
the declared tolerance.
"""

from dataclasses import dataclass, field
import numpy as np

from .grids import GridFunction, Scheme
from .dirichlet import IterationControl, RhsProblem, solve_rhs, sup_norm

__all__ = ["EigenControl", "EigenPair", "principal_eigenpair", "eigen_residual"]


@dataclass
class EigenControl:
    tol_lambda: float = 1e-8
    tol_residual: float = 1e-6
    max_outer: int = 200
    inner: IterationControl = field(
        default_factory=lambda: IterationControl(tolerance=1e-10))


@dataclass
class EigenPair:
    lambda_plus: float
    phi_plus: GridFunction
    residual: float
    iterations: int
    converged: bool = True


def eigen_residual(lam, phi, spec, gamma, delta=0.0):
    """Sup norm of |D phi|^gamma_delta F_h(phi) + lambda phi^(gamma+1).

    With delta = 0 (default) the defect is exactly (gamma+1)-homogeneous
    in phi; pass delta = max(h) to match the regularized solver operator.
    """
    if isinstance(lam, EigenPair):
        lam, phi = lam.lambda_plus, lam.phi_plus
    grid = phi.grid
    scheme = Scheme(grid, spec, gamma)
    if gamma == 0.0:
        g = 1.0
    elif delta == 0.0:
        n2 = sum(scheme.upwind_mag2(phi.values))
        g = n2 ** (gamma / 2.0)
    else:
        g = scheme.grad_factor(phi.values, delta=delta)
    r = g * scheme.F(phi.values) + lam * grid.interior(phi.values) ** (gamma + 1.0)
    return float(np.max(np.abs(r)))


def principal_eigenpair(grid, spec, gamma, ctl=None):
    """First eigenpair (lambda+, phi+) with phi+ > 0 and sup norm 1.

    Initialization is the normalized distance-to-boundary function
    (positive and boundary compatible).  Raises RuntimeError if the
    iterate collapses to zero; returns converged=False on exhaustion and
    when any inner Dirichlet solve reported converged=False.
    """
    ctl = ctl or EigenControl()
    scheme = Scheme(grid, spec, gamma)

    d = grid.distance_to_boundary()
    phi = d / np.max(d)
    lam_prev = None
    u_prev = None
    lam = None
    power = gamma + 1.0
    inner_ok = True

    for it in range(1, ctl.max_outer + 1):
        f = GridFunction(grid, -(phi ** power), dirichlet=False)
        rep = solve_rhs(RhsProblem(grid, spec, gamma, f), ctl.inner, u0=u_prev)
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
        if lam_ok:
            res = eigen_residual(lam, GridFunction(grid, phi, dirichlet=False),
                                 spec, gamma, delta=scheme.delta)
            if res <= ctl.tol_residual:
                break
        lam_prev = lam

    pair_phi = GridFunction(grid, phi, dirichlet=False)
    res = eigen_residual(lam, pair_phi, spec, gamma, delta=scheme.delta)
    converged = bool(inner_ok and lam_ok and res <= ctl.tol_residual)
    if lam <= 0:
        raise RuntimeError("principal eigenvalue came out nonpositive")
    return EigenPair(lam, pair_phi, res, it, converged)
