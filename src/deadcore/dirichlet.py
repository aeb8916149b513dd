"""Auxiliary Dirichlet problems |Du|^gamma F(x, D^2 u) = f, u = 0 on the boundary.

Every scheme the solvers accept (Scheme.require_policy) is a min or max
over linear stencils, F_h(u) = L_alpha(u) u with the active policy alpha(u),
and every L_alpha is minus an M-matrix (PolicyMatrix): a linear trace,
the p-Laplacian where it is linear, Pucci or Bellman F.  Both Newton
loops of the package, solve_rhs here and the reaction's pseudo-transient
Newton (solver._relax_ptc), read one linearization of g F_h per iterate,
Scheme.linearize: g F_h(u) with the policy alpha(u), g, c F_h and the
one-sided slopes, from which PolicyMatrix.newton writes the Jacobian.
solve_rhs(scheme, f) runs Newton's method with Howard's policy step on
g(u) F_h(u) = f, g the gradient factor, for every gamma >= 0, on the
Scheme its caller already holds (a ProblemSpec's, or the one
principal_eigenpair passes to each inner solve): linearize the last
iterate, solve the Jacobian system (PolicyMatrix.solve: LAPACK's
tridiagonal gtsv in 1-D, its banded LU gbsv in 2-D), repeat.  At
gamma = 0 (g = 1) this is Howard's policy iteration, and a linear F
takes one solve.  A policy switch can raise the residual for a step, so
the loop gives up only after NEWTON_STALL solves in a row that do not
halve the last low it kept.
Convergence is declared on the equation residual, not on the update size.

gtsv and gbsv are the wrappers of scipy's compiled f2py module
scipy.linalg._flapack, the module scipy.linalg.lapack re-exports; they
are the same objects whichever of the two is imported first.  The module
is loaded straight from scipy's linalg directory (_load_flapack), after
`import scipy` alone, because scipy/linalg/__init__ pulls in scipy's
array-API layer, which imports numpy.f2py, numpy.testing, numpy.ma and
numpy.polynomial: about 0.3 s and 290 modules of a 0.45 s package
import, where the extension itself loads in 5-9 ms.
"""

from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
import os

import numpy as np
import scipy

from .grids import GridFunction, _on_grid, _values_on

__all__ = ["IterationControl", "RhsReport", "SolveError", "solve_rhs"]

class SolveError(RuntimeError):
    pass


def _load_flapack(directory):
    """The extension module scipy.linalg._flapack found in directory,
    without importing its package; ImportError naming directory if the
    directory holds none.  The extension's single-phase init enters it
    in sys.modules, where a later import of scipy.linalg finds it."""
    finder = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError("no scipy.linalg._flapack extension in %s" % directory,
                          name="scipy.linalg._flapack")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack(os.path.join(scipy.__path__[0], "linalg"))
dgbsv, dgtsv = _flapack.dgbsv, _flapack.dgtsv


@dataclass
class IterationControl:
    """Tolerance and step budget of an iterative solve."""
    tolerance: float = 1e-8
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not (isinstance(self.max_steps, (int, np.integer)) and self.max_steps >= 1):
            raise ValueError("max_steps must be an integer >= 1, got %r"
                             % (self.max_steps,))


@dataclass
class RhsReport:
    solution: GridFunction
    residual_sup: float
    steps: int
    converged: bool


class PolicyMatrix:
    """A = -L_alpha = -sum_d diag(w_d) D_d, one array row per stencil offset.

    D_d is the interior second difference along stencil direction d of
    the scheme, with the Dirichlet columns removed.  `offsets` are the
    flat column offsets of the 3-, 5- or 9-point union of the scheme's
    directions, ascending, and A[j, i] is the entry (i, i + offsets[j]);
    it is 0 where that neighbour is a boundary node (`outside`: the
    boundary nodes seen through the interior block moved by the offset's
    step), which in 2-D includes the couplings that would wrap from one
    grid row to the next.  A policy (set_policy) rewrites the rows of A in
    place, a Newton matrix (newton) those of a second array of the same
    shape.
    A is an M-matrix for every policy.  Every product with A goes through
    `apply`, every linear system through `solve`.
    """

    def __init__(self, scheme):
        g, st = scheme.grid, scheme.stencil
        size = int(np.prod(g.n))
        # C-order strides of the interior node numbering
        strides = [int(np.prod(g.n[k + 1:])) for k in range(g.dim)]
        edge = np.ones(g.shape, dtype=bool)
        edge[st.interior] = False
        # per stencil offset: (flat offset, the interior block moved by its
        # step)
        rows = [(0, st.interior)]
        steps = []
        for (name, step), (fwd, bwd), he2 in zip(st.directions, st.shifted,
                                                 scheme.he2):
            if name in scheme.directions:
                off = sum(s * k for s, k in zip(step, strides))
                rows += [(off, fwd), (-off, bwd)]
                steps.append((name, off, he2))
        rows.sort(key=lambda r: r[0])
        self.offsets = [off for off, _ in rows]
        self.outside = np.array([edge[block].ravel() for _, block in rows])
        self._centre = self.offsets.index(0)
        # per direction: the rows of A that hold its +step and -step
        # neighbours, with their coefficient 1 / |step h|^2 (0 where the
        # neighbour is outside), and the centre's -2 / |step h|^2
        self._coef = []
        for name, off, he2 in steps:
            jp, jm = self.offsets.index(off), self.offsets.index(-off)
            self._coef.append((name, jp, ~self.outside[jp] / he2,
                               jm, ~self.outside[jm] / he2, -2.0 / he2))
        # per axis: the rows of A that hold the +e_k and -e_k neighbours,
        # and h_k (the derivative of the gradient factor lives there)
        self._axes = [(self.offsets.index(s), self.offsets.index(-s), hk)
                      for s, hk in zip(strides, g.h)]
        # per offset: the rows i whose column i + offset is in the matrix,
        # and those columns
        self._spans = [(slice(max(0, -o), min(size, size - o)),
                        slice(max(0, o), min(size, size + o)))
                       for o in self.offsets]
        self.A = np.zeros((len(rows), size))
        self._work = np.empty_like(self.A)
        self._w = None

    def solve(self, M, b):
        """x with M x = b, M = A or the array newton wrote.

        Two LAPACK solvers, one per dimension: in 1-D gtsv (Gaussian
        elimination with partial pivoting, O(n)) takes copies of the three
        rows of M as the sub-, main and super-diagonal.  In 2-D gbsv
        (banded LU with partial pivoting) takes M in LAPACK's band storage
        with half-bandwidth bw = offsets[-1] (n[1] + 1 for the 9-point
        stencil): entry (i, i + o) goes to row 2 bw - o of column i + o,
        so each row of M is one strided slice.  A band LU rather than
        SuperLU: on the Newton matrices of solve_rhs (Pucci-, f = -30,
        gamma 0-2) it took 0.3-0.5 of SuperLU's time up to 119x59 and
        0.7-0.9 at 179x89-299x149.  Its price is memory, 3 bw + 2 doubles
        per unknown: a solve grows the peak RSS by 86 MB at 239x119, where
        SuperLU under a minimum-degree ordering grew it by 32 MB.  An
        exactly singular M (a zero pivot) gives an all-NaN x.  b is not
        overwritten.
        """
        if len(self.offsets) == 3:
            x, info = dgtsv(M[0, 1:], M[1], M[2, :-1], b)[3:]
        else:
            bw = self.offsets[-1]
            ab = np.zeros((len(b), 3 * bw + 1))   # ab.T: Fortran order
            for row, off, (rows, cols) in zip(M, self.offsets, self._spans):
                ab[cols, 2 * bw - off] = row[rows]
            x, info = dgbsv(bw, bw, ab.T, b, overwrite_ab=True)[2:]
        return x if info == 0 else np.full(len(b), np.nan)

    def apply(self, z):
        """A z, summed from +0.0 over the offsets in ascending order: the
        order, and so the rounding, of a row-by-row sparse product over the
        interior entries (the 0 of an outside entry adds nothing)."""
        y = np.zeros(len(z))
        for row, (rows, cols) in zip(self.A, self._spans):
            y[rows] += row[rows] * z[cols]
        return y

    def set_policy(self, w):
        """Write -L_w into A (free when w is the policy already set)."""
        if w is not self._w:
            A, c = self.A, self._centre
            A[c] = 0.0
            for name, jp, cp, jm, cm, cc in self._coef:
                wd = w[name].ravel()
                np.subtract(0.0, wd * cp, out=A[jp])
                np.subtract(0.0, wd * cm, out=A[jm])
                A[c] -= wd * cc
            self._w = w
        return self.A

    def diagonal(self):
        """The diagonal of A, a view of its centre row."""
        return self.A[self._centre]

    def newton(self, lin, shift=None):
        """-J = diag(g) A - diag(cF) D, written into the second array.

        lin is the Linearization of u (Scheme.linearize): newton sets its
        policy in A (set_policy), and J is the Jacobian of g(u) F_h(u) at
        that policy, where F_h(u) = -A u, with (g, cF, slopes) read from
        lin and D the derivative of the summed squared one-sided slopes:
        f_k / h_k at the +e_k neighbour, -b_k / h_k at the -e_k one and
        sum_k (b_k - f_k) / h_k at the centre.  The entries of outside
        neighbours are then set back to 0.  When g = 1 and cF = 0 (gamma
        = 0) the result is A bit for bit.  A `shift` array is added to
        the diagonal afterwards.
        """
        W = np.multiply(self.set_policy(lin.policy), lin.g.ravel(),
                        out=self._work)
        cF = lin.cF.ravel()
        centre = 0.0
        for (jp, jm, hk), (f, b) in zip(self._axes, lin.slopes):
            up = cF * f.ravel() / hk
            down = cF * b.ravel() / hk
            W[jp] -= up
            W[jm] += down
            centre = centre + (down - up)
        W[self.outside] = 0.0
        W[self._centre] -= centre
        if shift is not None:
            W[self._centre] += shift
        return W


# Newton-Howard solves in a row that do not halve the kept low of max|G|
# before solve_rhs stops; a converging solve has been seen to take 5
# (239x119 Pucci-, gamma = 2, f = -30)
NEWTON_STALL = 8


def solve_rhs(scheme, f, ctl=None, u0=None):
    """Solve |Du|^gamma F(x, D^2 u) = f with zero Dirichlet data, on the
    Scheme of (grid, F, gamma); f is a finite GridFunction on its grid.

    Newton-Howard iteration for G(u) = g(u) F_h(u) - f = 0, any gamma >= 0.
    Each iterate u_k (u0 first, or 0; u0 warm-starts nested iterations)
    is linearized once (Scheme.linearize), which gives max|G(u_k)| and
    the step: the active policy alpha fixes F_h = L_alpha exactly there,
    and with Dg = d grad_factor / du the Jacobian is
    J = diag(g) L_alpha + diag(F_h) Dg (PolicyMatrix.newton).  The step
    solves J u_{k+1} = f + F_h(u_k) (Dg u_k).  For gamma = 0
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
        new = op.solve(op.newton(lin), -(f_int + lin.cF * dgu).ravel()) \
            .reshape(u_int.shape)
        if np.array_equal(new, u_int):
            break
        u_int[...] = new
    return RhsReport(GridFunction(grid, vals, dirichlet=False),
                     rsup, steps, rsup <= ctl.tolerance)
