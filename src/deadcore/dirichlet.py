"""Auxiliary Dirichlet problems |Du|^gamma F(x, D^2 u) = f, u = 0 on the boundary.

For gamma = 0 and a linear trace, Pucci or Bellman F the scheme is a min
or max over linear stencils, F_h(u) = L_alpha(u) u with the active policy
alpha(u) of Scheme.policy, and every L_alpha is minus an M-matrix
(PolicyMatrix).  solve_rhs runs Howard's policy iteration on it: solve
L_alpha u = f by a sparse factorization, update the policy, repeat.  A
linear trace is the one-policy case and takes one solve.  Every other
problem (gamma > 0, the p-Laplacian, or IterationControl(method=
'explicit')) is relaxed in explicit pseudo time under the CFL bound

    dt <= safety * h^2 / (2 N Lam * max(g, h^gamma)),   g = |grad_h u|_delta^gamma,

applied per node, which is unconditionally monotone and robust in the
degenerate regime.  Convergence is declared on the equation residual, not
on the update size.
"""

from dataclasses import dataclass, field
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grids import ENVELOPES, GridFunction, Scheme, _direction_set

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
                             # solve_rhs and solve: auto takes the policy-
                             # matrix path (gamma = 0; trace, Pucci or
                             # Bellman F) where it applies, direct demands
                             # it for a linear trace only, explicit forces
                             # relaxation
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


# operators whose gamma = 0 scheme is a min or max over linear stencils
POLICY_VARIANTS = ("linear_trace",) + tuple(ENVELOPES)

# column ordering of every sparse solve: minimum degree on A^T + A suits
# the structurally symmetric stencil patterns (about 4 ms against 7 ms for
# the default COLAMD on a 59x29 nine-point matrix)
PERMC = "MMD_AT_PLUS_A"


def _use_matrix_path(method, gamma, spec):
    """Whether a solve takes the policy-matrix path for this operator.

    For gamma = 0 and a trace, Pucci or Bellman F the discrete operator is
    F_h(u) = L_alpha(u) u, the matrix of PolicyMatrix at the active policy
    (one policy for a linear trace).  method='direct' keeps its meaning,
    a linear trace only, and raises ValueError outside that class.
    """
    if method == "direct" and not (gamma == 0.0
                                   and spec.variant == "linear_trace"):
        raise ValueError("direct method needs gamma = 0 and a trace operator")
    return method == "direct" or (method == "auto" and gamma == 0.0
                                  and spec.variant in POLICY_VARIANTS)


class PolicyMatrix:
    """A = -L_alpha = -sum_d diag(w_d) D_d on one fixed CSR pattern.

    D_d is the interior second difference along stencil direction d of
    the scheme, with the Dirichlet columns removed; the pattern is the 3-,
    5- or 9-point union of the scheme's directions.  The structure and the
    D_d coefficient of every stored entry are computed once; a policy
    (set_policy) or a Newton diagonal (shifted) then rewrites the `data`
    of the same two matrices in place.  A is an M-matrix for every policy.
    """

    def __init__(self, scheme):
        g = scheme.grid
        n = np.array(g.n)
        size = int(np.prod(n))
        strides = np.array((n[1], 1) if g.dim == 2 else (1,))
        steps = {name: np.array(step) for name, step in _direction_set(g.dim)
                 if name in scheme.directions}
        offs = [np.zeros(g.dim, dtype=int)]
        for step in steps.values():
            offs += [step, -step]
        offs.sort(key=lambda o: int(o @ strides))   # ascending CSR columns
        node = np.indices(tuple(n)).reshape(g.dim, size)
        inside = np.empty((size, len(offs)), dtype=bool)
        cols = np.empty((size, len(offs)), dtype=np.intc)
        for j, o in enumerate(offs):
            nb = node + o[:, None]
            inside[:, j] = np.all((nb >= 0) & (nb < n[:, None]), axis=0)
            cols[:, j] = nb.T @ strides
        # stored entries in CSR order: their row and stencil offset
        self._rows, slot = np.nonzero(inside)
        center = next(j for j, o in enumerate(offs) if not o.any())
        self._diag = np.nonzero(slot == center)[0]
        self._coef = {}
        for name, step in steps.items():
            he2 = float(sum((s * hk) ** 2 for s, hk in zip(step, g.h)))
            pair = (step.tolist(), (-step).tolist())
            c = np.array([1.0 / he2 if o.tolist() in pair else 0.0
                          for o in offs])
            c[center] = -2.0 / he2
            self._coef[name] = c[slot]
        indptr = np.concatenate(([0], np.cumsum(inside.sum(axis=1))))
        pattern = (cols[inside], indptr.astype(np.intc))
        self.A = sp.csr_matrix((np.zeros(len(slot)),) + pattern,
                               shape=(size, size))
        self._shifted = sp.csr_matrix((np.zeros(len(slot)),) + pattern,
                                      shape=(size, size))
        self._w = None

    def set_policy(self, w):
        """Write -L_w into A (free when w is the policy already set)."""
        if w is not self._w:
            acc = 0.0
            for name, c in self._coef.items():
                acc = acc - w[name].ravel()[self._rows] * c
            self.A.data[...] = acc
            self._w = w
        return self.A

    def diagonal(self):
        return self.A.data[self._diag]

    def shifted(self, d):
        """A + diag(d), written into a second matrix (A is kept)."""
        self._shifted.data[...] = self.A.data
        self._shifted.data[self._diag] += d
        return self._shifted


def _same_policy(w1, w2):
    return w1 is w2 or all(np.array_equal(w1[k], w2[k]) for k in w1)


def _solve_howard(p, ctl, u0):
    """Howard's policy iteration for F_h(u) = f, gamma = 0.

    Each step solves L_alpha u = f at the policy alpha active at the last
    iterate (at u0 first, or at 0).  It stops once the residual F_h(u) - f
    is at most ctl.tolerance; tied policies may still flip there, so the
    policy repeating is not the test.  A repeated policy above the
    tolerance is a floating-point fixed point: converged=False.
    """
    grid = p.grid
    scheme = Scheme(grid, p.spec, 0.0)
    op = PolicyMatrix(scheme)
    vals = np.zeros(grid.shape)
    u_int = grid.interior(vals)
    if u0 is not None:
        u_int[...] = grid.interior(u0.values if isinstance(u0, GridFunction)
                                   else np.asarray(u0, dtype=float))
    f_int = grid.interior(p.f.values)
    w = scheme.policy(vals)
    steps, rsup = 0, np.inf
    for steps in range(1, ctl.max_steps + 1):
        u_int[...] = spla.spsolve(op.set_policy(w), -f_int.ravel(),
                                  permc_spec=PERMC).reshape(u_int.shape)
        rsup = float(np.max(np.abs(scheme.F(vals) - f_int)))
        if not np.isfinite(rsup):
            raise SolveError("non-finite residual at step %d" % steps)
        if rsup <= ctl.tolerance:
            return RhsReport(GridFunction(grid, vals, dirichlet=False),
                             rsup, steps, True)
        w_next = scheme.policy(vals)
        if _same_policy(w_next, w):
            break
        w = w_next
    return RhsReport(GridFunction(grid, vals, dirichlet=False),
                     rsup, steps, False)


def solve_rhs(p, ctl=None, u0=None):
    """Solve |Du|^gamma F(x, D^2 u) = f with zero Dirichlet data.

    `u0` seeds the relaxation, or on the policy path the first policy
    (warm starts for nested iterations).  `steps` counts relaxation steps
    or policy evaluations.  On step exhaustion the partial solution is
    returned with converged=False; a non-finite residual raises
    SolveError naming the step.
    """
    ctl = ctl or IterationControl()
    if _use_matrix_path(ctl.method, p.gamma, p.spec):
        return _solve_howard(p, ctl, u0)

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
