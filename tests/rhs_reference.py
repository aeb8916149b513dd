"""Explicit pseudo-time relaxation of solve_rhs, kept as a test reference.

The library solves the auxiliary Dirichlet problem by Newton-Howard
iteration alone; this loop relaxes the same equation with the per-node
monotone step of Scheme.explicit_step and is what the parity tests check
solve_rhs against.
"""

import numpy as np

from deadcore.dirichlet import RhsReport, SolveError
from deadcore.grids import GridFunction, Scheme


def _relax_rhs(p, ctl, u0):
    """Explicit pseudo-time relaxation of solve_rhs from u0 (or 0)."""
    grid = p.grid
    scheme = Scheme(grid, p.spec, p.gamma)
    vals = np.zeros(grid.shape) if u0 is None else np.array(
        u0.values if isinstance(u0, GridFunction) else u0, dtype=float)
    u_int = grid.interior(vals)
    f_int = grid.interior(p.f.values)

    steps = 0
    rsup = np.inf
    for steps in range(1, ctl.max_steps + 1):
        gF, dt = scheme.explicit_step(vals)
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
