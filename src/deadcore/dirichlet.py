"""Auxiliary Dirichlet problems |Du|^gamma F(x, D^2 u) = f, u = 0 on the boundary.

Every scheme the solvers accept (Scheme.require_policy) is a min or max
over linear stencils, F_h(u) = L_alpha(u) u with the active policy alpha(u)
of Scheme.policy, and every L_alpha is minus an M-matrix (PolicyMatrix):
a linear trace, the p-Laplacian where it is linear, Pucci or Bellman F.
solve_rhs runs Newton's method with Howard's policy step on
g(u) F_h(u) = f, g the gradient factor, for every gamma >= 0: linearize
at the policy active at the last iterate, solve the Jacobian system
(PolicyMatrix.solve: LAPACK's tridiagonal gtsv in 1-D, a SuperLU sparse
factorization in 2-D), repeat.  At gamma = 0 (g = 1) this is Howard's
policy iteration, and a linear F takes one solve.  A policy switch can
raise the residual for a step, so the loop gives up only after
NEWTON_STALL solves in a row that do not halve the last low it kept.
Convergence is declared on the equation residual, not on the update size.
"""

from dataclasses import dataclass
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgtsv

from .grids import GridFunction, Scheme, _direction_set

__all__ = ["IterationControl", "RhsProblem", "RhsReport", "SolveError",
           "solve_rhs", "sup_norm"]

class SolveError(RuntimeError):
    pass


@dataclass
class IterationControl:
    """Tolerance and step budget of an iterative solve."""
    tolerance: float = 1e-8
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


@dataclass
class RhsProblem:
    grid: object
    spec: object
    gamma: float
    f: GridFunction

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.f.grid != self.grid:
            raise ValueError("right-hand side sampled on %r, not on the "
                             "problem grid %r" % (self.f.grid, self.grid))
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


# column ordering of the 2-D sparse solves: minimum degree on A^T + A
# suits the structurally symmetric stencil patterns (about 4 ms against
# 7 ms for the default COLAMD on a 59x29 nine-point matrix)
PERMC = "MMD_AT_PLUS_A"


class PolicyMatrix:
    """A = -L_alpha = -sum_d diag(w_d) D_d on one fixed CSR pattern.

    D_d is the interior second difference along stencil direction d of
    the scheme, with the Dirichlet columns removed; the pattern is the 3-,
    5- or 9-point union of the scheme's directions.  The structure and the
    D_d coefficient of every stored entry are computed once; a policy
    (set_policy) or a Newton diagonal (shifted) then rewrites the `data`
    of the same two matrices in place.  A is an M-matrix for every policy.
    Every linear system on the pattern goes through `solve`.
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
        offs_list = [o.tolist() for o in offs]
        center = offs_list.index([0] * g.dim)
        self._diag = np.nonzero(slot == center)[0]
        self._coef = {}
        for name, step in steps.items():
            he2 = float(sum((s * hk) ** 2 for s, hk in zip(step, g.h)))
            pair = (step.tolist(), (-step).tolist())
            c = np.array([1.0 / he2 if o in pair else 0.0 for o in offs_list])
            c[center] = -2.0 / he2
            self._coef[name] = c[slot]
        indptr = np.concatenate(([0], np.cumsum(inside.sum(axis=1))))
        pattern = (cols[inside], indptr.astype(np.intc))
        self.A = sp.csr_matrix((np.zeros(len(slot)),) + pattern,
                               shape=(size, size))
        self._work = sp.csr_matrix((np.zeros(len(slot)),) + pattern,
                                   shape=(size, size))
        # per axis: the stored entries at the +e_k and -e_k slots, their
        # rows, and h_k (the derivative of the gradient factor lives there)
        self._axes = []
        for k, hk in enumerate(g.h):
            e = np.eye(g.dim, dtype=int)[k].tolist()
            plus = np.nonzero(slot == offs_list.index(e))[0]
            minus = np.nonzero(slot == offs_list.index([-i for i in e]))[0]
            self._axes.append((plus, self._rows[plus], minus,
                               self._rows[minus], hk))
        # 1-D: the -1, 0 and +1 slots in row order are the sub-, main and
        # super-diagonal of a tridiagonal matrix
        plus, _, minus, _, _ = self._axes[0]
        self._tri = (minus, self._diag, plus) if g.dim == 1 else None
        self._w = None

    def solve(self, M, b):
        """x with M x = b, M = A or the matrix shifted/newton wrote.

        In 1-D LAPACK gtsv (Gaussian elimination with partial pivoting,
        O(n)) takes the three diagonals of M.data; in 2-D SuperLU
        factorizes M with the PERMC ordering.  An exactly singular M (a
        zero pivot) gives an all-NaN x, as spsolve does.  b is not
        overwritten.
        """
        if self._tri is None:
            return spla.spsolve(M, b, permc_spec=PERMC)
        dl, d, du = (M.data[s] for s in self._tri)
        x, info = dgtsv(dl, d, du, b, overwrite_dl=True,
                         overwrite_d=True, overwrite_du=True)[3:]
        return x if info == 0 else np.full(len(b), np.nan)

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
        self._work.data[...] = self.A.data
        self._work.data[self._diag] += d
        return self._work

    def newton(self, g, cF, slopes, shift=None):
        """-J = diag(g) A - diag(cF) D, written into the second matrix.

        J is the Jacobian of g(u) F_h(u) at the policy set in A, where
        F_h(u) = -A u and g = grad_factor(u); (g, c, slopes) come from
        Scheme.grad_factor_parts, cF = c * F_h(u), and D is the derivative
        of the summed squared one-sided slopes: f_k / h_k at the +e_k slot,
        -b_k / h_k at the -e_k slot and sum_k (b_k - f_k) / h_k at the
        centre.  When g = 1 and cF = 0 the result is A bit for bit.  A
        `shift` array is added to the diagonal afterwards.
        """
        data = self._work.data
        np.multiply(self.A.data, g.ravel()[self._rows], out=data)
        cF = cF.ravel()
        centre = 0.0
        for (plus, prow, minus, mrow, hk), (f, b) in zip(self._axes, slopes):
            up = cF * f.ravel() / hk
            down = cF * b.ravel() / hk
            data[plus] -= up[prow]
            data[minus] += down[mrow]
            centre = centre + (down - up)
        data[self._diag] -= centre
        if shift is not None:
            data[self._diag] += shift
        return self._work


# Newton-Howard solves in a row that do not halve the kept low of max|G|
# before solve_rhs stops; a converging solve has been seen to take 5
# (239x119 Pucci-, gamma = 2, f = -30)
NEWTON_STALL = 8


def _same_policy(w1, w2):
    return w1 is w2 or all(np.array_equal(w1[k], w2[k]) for k in w1)


def solve_rhs(p, ctl=None, u0=None):
    """Solve |Du|^gamma F(x, D^2 u) = f with zero Dirichlet data.

    Newton-Howard iteration for G(u) = g(u) F_h(u) - f = 0, any gamma >= 0.
    Each step linearizes G at the last iterate u_k (u0 first, or 0; u0
    warm-starts nested iterations): the active policy alpha fixes
    F_h = L_alpha exactly there, and with Dg = d grad_factor / du the
    Jacobian is J = diag(g) L_alpha + diag(F_h) Dg (PolicyMatrix.newton).
    The step solves J u_{k+1} = f + F_h(u_k) (Dg u_k).  For gamma = 0
    (g = 1, Dg = 0) this is Howard's policy iteration, L_alpha u_{k+1} = f.
    The loop stops once |G(u)| <= ctl.tolerance, at a floating-point fixed
    point (the step returns u_k itself), or after NEWTON_STALL solves in a
    row that do not halve the kept low of max|G|: the first residual, then
    each one at or below half the low before it (a residual settled at its
    rounding floor above the tolerance, where any smaller new low would be
    a matter of rounding); converged then says whether the last iterate
    meets the tolerance.  The first step from 0 overshoots by about
    delta^-gamma and always sets the first low.  `steps` counts linear
    solves.  On step exhaustion the partial solution is returned
    with converged=False; a non-finite residual raises SolveError naming
    the step.  Checks Scheme.require_policy before the first step.
    """
    ctl = ctl or IterationControl()
    grid = p.grid
    scheme = Scheme(grid, p.spec, p.gamma)
    scheme.require_policy()
    op = PolicyMatrix(scheme)
    vals = np.zeros(grid.shape)
    u_int = grid.interior(vals)
    if u0 is not None:
        u_int[...] = grid.interior(u0.values if isinstance(u0, GridFunction)
                                   else np.asarray(u0, dtype=float))
    f_int = grid.interior(p.f.values)
    g, c, slopes = scheme.grad_factor_parts(vals)
    F = scheme.F(vals)
    rsup = float(np.abs(g * F - f_int).max())
    steps, best, stall = 0, np.inf, 0
    for steps in range(1, ctl.max_steps + 1):
        cF = c * F
        dgu = sum(f * f + b * b for f, b in slopes)   # (Dg u_k) / c
        op.set_policy(scheme.policy(vals))
        new = op.solve(op.newton(g, cF, slopes),
                       -(f_int + cF * dgu).ravel()).reshape(u_int.shape)
        if np.array_equal(new, u_int):
            break
        u_int[...] = new
        g, c, slopes = scheme.grad_factor_parts(vals)
        F = scheme.F(vals)
        rsup = float(np.abs(g * F - f_int).max())
        if not np.isfinite(rsup):
            raise SolveError("non-finite residual at step %d" % steps)
        if rsup <= ctl.tolerance:
            return RhsReport(GridFunction(grid, vals, dirichlet=False),
                             rsup, steps, True)
        if rsup <= 0.5 * best:
            best, stall = rsup, 0
        else:
            stall += 1
            if stall == NEWTON_STALL:
                break
    return RhsReport(GridFunction(grid, vals, dirichlet=False),
                     rsup, steps, rsup <= ctl.tolerance)

