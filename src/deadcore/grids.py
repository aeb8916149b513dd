"""Structured grids, grid functions, weights, and the discrete equation.

Grids are 1-D intervals or 2-D rectangles with homogeneous Dirichlet
boundary nodes.  Every neighbour access of a node array goes through the
index tuples of one `Stencil` per dimension (STENCILS), built at import
from the lattice directions of `_direction_set`.  `Scheme` is the
vectorized monotone realization of |Du|^gamma F(x, D^2 u): F_h is the
min or max of its members, constant-weight linear stencils built once
in Scheme.__init__; Scheme.linearize hands both Newton loops g F_h with
its active member and the derivative data of the gradient factor, in one
pass.  The pointwise residual of the reaction problem is

    r = (|grad_h u|^2 + delta^2)^(gamma/2) * F_h(u) + a(x) u^q,

with the gradient regularization delta = max(h); boundary nodes carry the
Dirichlet defect r = u.
"""

from collections import namedtuple
from dataclasses import dataclass
from itertools import product
import csv
import math
import numbers
import numpy as np

from .operators import coeff_at

__all__ = [
    "Grid", "GridFunction", "WeightField", "Scheme", "residual_field",
    "write_csv", "read_csv",
]


# --- the stencil table ---------------------------------------------------

def _direction_set(dim):
    """The lattice directions of the scheme (Bonnans, Ottenwaelter &
    Zidani, M2AN 38, 2004): the axes, then in 2-D the two diagonals of the
    wide stencil.  A step moves each axis by -1, 0 or +1."""
    if dim == 1:
        return (("x", (1,)),)
    return (("x", (1, 0)), ("y", (0, 1)), ("d1", (1, 1)), ("d2", (1, -1)))


def _block(offset):
    """Index tuple of the interior block of a node array moved by offset."""
    return tuple(slice(1 + o, o - 1 or None) for o in offset)


class Stencil:
    """Index tuples of the neighbour blocks of a dim-D node array.

    `directions` is _direction_set(dim), `names` their names (the `axes`,
    then the `diagonals`).  `interior` is the interior block, `shifted`
    holds per direction that block moved by +step and by -step, and `hood`
    the 3^dim blocks of its neighbourhood.  `faces` holds (k, face, inward)
    per axis k and side: index 0 and 1 (or -1 and -2) on axis k, every
    index on the others.  `off_diagonal` masks the coefficient matrix
    entries that no axis direction carries.
    """

    def __init__(self, dim):
        self.directions = _direction_set(dim)
        self.names = tuple(name for name, _ in self.directions)
        self.axes, self.diagonals = self.names[:dim], self.names[dim:]
        self.interior = _block((0,) * dim)
        self.shifted = tuple((_block(step), _block(tuple(-s for s in step)))
                             for _, step in self.directions)
        self.hood = tuple(_block(o) for o in product((-1, 0, 1), repeat=dim))
        self.faces = tuple((k, (slice(None),) * k + (i,), (slice(None),) * k + (j,))
                           for k in range(dim) for i, j in ((0, 1), (-1, -2)))
        self.off_diagonal = ~np.eye(dim, dtype=bool)


STENCILS = {dim: Stencil(dim) for dim in (1, 2)}


@dataclass(frozen=True)
class Grid:
    """Uniform grid with n interior points per axis plus boundary nodes."""
    bounds: tuple   # ((lo, hi), ...) per axis
    n: tuple        # interior point count per axis

    def __post_init__(self):
        if len(self.bounds) != len(self.n) or len(self.n) not in STENCILS:
            raise ValueError("grid must be 1-D or 2-D")
        for k, ((lo, hi), ni) in enumerate(zip(self.bounds, self.n)):
            # inf - lo would make h infinite and the nodes NaN
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("grid axis %d bounds (%r, %r) are not finite"
                                 % (k, lo, hi))
            if not hi > lo:
                raise ValueError("grid axis %d bounds (%r, %r) are empty"
                                 % (k, lo, hi))
            if not (isinstance(ni, numbers.Real) and float(ni).is_integer()):
                raise ValueError("grid axis %d point count %r is not an integer"
                                 % (k, ni))
            if ni < 3:
                raise ValueError("need at least 3 interior points per axis")
        # an integral float such as 9.0 counts as the int 9
        object.__setattr__(self, "n", tuple(int(ni) for ni in self.n))

    @classmethod
    def interval(cls, lo, hi, n):
        return cls(((float(lo), float(hi)),), (n,))

    @classmethod
    def rectangle(cls, xlo, xhi, ylo, yhi, nx, ny):
        return cls(((float(xlo), float(xhi)), (float(ylo), float(yhi))),
                   (nx, ny))

    @property
    def dim(self):
        return len(self.n)

    @property
    def stencil(self):
        return STENCILS[len(self.n)]

    @property
    def h(self):
        return tuple((hi - lo) / (ni + 1) for (lo, hi), ni in zip(self.bounds, self.n))

    @property
    def shape(self):
        return tuple(ni + 2 for ni in self.n)

    def axis(self, k):
        lo, hi = self.bounds[k]
        return np.linspace(lo, hi, self.n[k] + 2)

    def coords(self):
        """Node coordinates, one array per axis ('ij' meshgrid)."""
        return tuple(np.meshgrid(*(self.axis(k) for k in range(self.dim)),
                                 indexing="ij"))

    def interior(self, a):
        return a[self.stencil.interior]

    def interior_nodes(self):
        """Interior node coordinates as an (n..., dim) stack."""
        return np.stack([self.interior(x) for x in self.coords()], -1)

    def refine(self):
        """Grid with halved spacing (n -> 2n + 1)."""
        return Grid(self.bounds, tuple(2 * ni + 1 for ni in self.n))

    def distance_to_boundary(self):
        sides = [(x - lo, hi - x) for x, (lo, hi) in zip(self.coords(), self.bounds)]
        return np.minimum.reduce(sum(sides, ()))


class GridFunction:
    """Scalar field on all grid nodes; Dirichlet trace zeroed on request.
    `noun` names the field in its refusals."""

    __slots__ = ("grid", "values")
    noun = "grid function"

    def __init__(self, grid, values, dirichlet=True):
        v = np.array(values, dtype=float)
        if v.shape != grid.shape:
            raise ValueError("%s values shape %r does not match grid %r"
                             % (self.noun, v.shape, grid.shape))
        if not np.all(np.isfinite(v)):
            raise ValueError("%s must be finite" % self.noun)
        if dirichlet:
            _zero_boundary(v)
        self.grid = grid
        self.values = v

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_callable(cls, grid, f):
        return cls(grid, _sample(grid, f))

    def sup_norm(self):
        return float(np.max(np.abs(self.values)))


def _on_grid(grid, u, what):
    """u, a field; ValueError naming `what` unless it lies on grid.  The
    one check that a field is sampled on the problem's grid."""
    if u.grid != grid:
        raise ValueError("%s sampled on %r, not on the problem grid %r"
                         % (what, u.grid, grid))
    return u


def _values_on(grid, u, what):
    """A copy of the node values of u, a GridFunction or an array, as
    floats; ValueError naming `what` unless they lie on grid."""
    if isinstance(u, GridFunction):
        u = _on_grid(grid, u, what).values
    vals = np.array(u, dtype=float)
    if vals.shape != grid.shape:
        raise ValueError("%s of shape %s do not match the grid's %s"
                         % (what, vals.shape, grid.shape))
    return vals


def _sample(grid, f):
    """f at every node, f(x) in 1-D and f(X, Y) on the 'ij' mesh in 2-D."""
    return np.broadcast_to(np.asarray(f(*grid.coords()), dtype=float),
                           grid.shape).copy()


def _zero_boundary(v):
    for _, face, _ in STENCILS[v.ndim].faces:
        v[face] = 0.0


class WeightField(GridFunction):
    """Sign-changing reaction weight a(x), a GridFunction whose boundary
    values are kept (from_callable samples every node).

    Records the decomposition a = a+ - a- used by the negative-part
    sweeps.
    """

    __slots__ = ()
    noun = "weight"

    def __init__(self, grid, values):
        super().__init__(grid, values, dirichlet=False)

    @classmethod
    def constant(cls, grid, c):
        return cls(grid, np.full(grid.shape, float(c)))

    @classmethod
    def sinsplit(cls, grid, s):
        """sin(pi x)+ - s * sin(pi x)- on the grid's first axis."""
        def f(x, y=None):
            w = np.sin(np.pi * x)
            return np.maximum(w, 0.0) - s * np.maximum(-w, 0.0)
        return cls.from_callable(grid, f)

    @property
    def a_plus(self):
        return np.maximum(self.values, 0.0)

    @property
    def a_minus(self):
        return np.maximum(-self.values, 0.0)

    def scaled(self, c):
        return WeightField(self.grid, c * self.values)

    def with_negative_scale(self, s):
        """a+ - s * a-, the family swept by the positivity threshold;
        ValueError naming the weight and s when s * a- overflows a float."""
        with np.errstate(over="ignore"):
            sa = s * self.a_minus
        if not np.all(np.isfinite(sa)):
            raise ValueError("the weight a+ - s * a- overflows a float at "
                             "s = %g (sup a- = %g)" % (s, np.max(self.a_minus)))
        return WeightField(self.grid, self.a_plus - sa)


# --- discrete calculus ---------------------------------------------------

_FLOAT_TINY = np.finfo(float).tiny

def _mean_squares(slopes):
    """Per-axis 0.5 (f^2 + b^2) of one-sided quotient pairs (f, b)."""
    return tuple(0.5 * (f * f + b * b) for f, b in slopes)


def _weighted(w, k):
    """sum_d w_d k_d over the directions of w, in their order."""
    items = iter(w.items())
    name, wd = next(items)
    total = wd * k[name]
    for name, wd in items:
        total = total + wd * k[name]
    return total


def _stack(members, name, dim):
    """The members' weights along direction name on a leading axis (0
    where a member lacks it), broadcastable against interior arrays (a
    scalar becomes 1 x ... x 1).  An array weight of a member becomes a
    view of its row, so it is stored once."""
    weights = [m.get(name, 0.0) for m in members]
    shape = np.broadcast_shapes((1,) * dim, *map(np.shape, weights))
    stack = np.stack([np.broadcast_to(w, shape) for w in weights])
    for m, row in zip(members, stack):
        if np.ndim(m.get(name)):
            m[name] = row
    return stack


# envelope operators: how F reduces its members' values, and how the
# active member is picked (the first on ties)
ENVELOPES = {
    "hjb_inf": (np.minimum, np.argmin), "pucci_minus": (np.minimum, np.argmin),
    "hjb_sup": (np.maximum, np.argmax), "pucci_plus": (np.maximum, np.argmax),
}


# what Scheme.linearize(v) returns: gF = g F_h(v) at interior nodes, and
# the Newton data of v that PolicyMatrix.newton takes: the active policy,
# g, cF = c F_h(v) and the one-sided slopes
Linearization = namedtuple("Linearization", "gF policy g cF slopes")


class Scheme:
    """Vectorized interior-node evaluation of the monotone discretization.

    Builds the members of F_h once; all methods take the full node-value
    array and return interior-shaped arrays.  `stencil` is the grid's
    Stencil, `he2` holds |step h|^2 per direction of it, and `directions`
    the directions the members weigh.
    """

    def __init__(self, grid, spec, gamma):
        if not 0.0 <= gamma < np.inf:
            raise ValueError("gamma must be >= 0 and finite, got %g" % gamma)
        self.grid = grid
        self.spec = spec
        self.gamma = float(gamma)
        self.h = h = grid.h
        self.delta = max(h)
        self.dim = grid.dim
        self.stencil = st = grid.stencil
        self.he2 = tuple([sum([(s * hk) ** 2 for s, hk in zip(step, h)])
                          for _, step in st.directions])
        # the members: the constant-weight stencils whose envelope is F_h,
        # each a dict of interior weights by stencil direction: one per
        # coefficient of a Bellman family, and a trace is the family of its
        # one coefficient, as evaluate_operator reads it.  The p-Laplacian
        # in 1-D and at p = 2 is one, (p - 1) times the Laplacian; the 2-D
        # p-Laplacian at p != 2 has none.
        v, axes = spec.variant, st.axes
        if v in ("linear_trace", "hjb_inf", "hjb_sup"):
            members = [dict(zip(axes, self._sample_diag(c)))
                       for c in spec.family or (spec.coeff,)]
        elif v == "p_laplacian" and (grid.dim == 1 or spec.p == 2.0):
            members = [dict.fromkeys(axes, np.full(tuple(grid.n), spec.p - 1.0))]
        elif v in ("pucci_plus", "pucci_minus"):
            if max(h) - min(h) > 1e-12 * max(h):
                raise ValueError("2-D Pucci wide stencil needs square cells")
            # a corner of {lam, Lam}^frame per member, in the axis frame and
            # (2-D) the diagonal frame; per direction the slope of k <= 0
            # comes first, so an exact zero curvature keeps it
            slopes = (spec.lam, spec.Lam) if v == "pucci_plus" else \
                (spec.Lam, spec.lam)
            members = [dict(zip(frame, corner))
                       for frame in (axes, st.diagonals) if frame
                       for corner in product(slopes, repeat=len(frame))]
        else:
            members = []
        # a subnormal weight loses its digits in every product, and a
        # coefficient w / |step h|^2 that overflows is no stencil at all
        for m in members:
            for name, w in m.items():
                low, high = (w.min(), w.max()) if np.ndim(w) else (w, w)
                if not low >= _FLOAT_TINY:
                    raise ValueError("%s: a stencil weight of %g is not a "
                                     "positive normal float" % (v, low))
                # a float quotient overflows to inf without a warning
                if not float(high) / self.he2[st.names.index(name)] < math.inf:
                    raise ValueError("%s: the stencil weight %g over |step h|^2 "
                                     "overflows a float" % (v, high))
        self.members = members
        self._envelope = ENVELOPES.get(v)
        # the directions the members weigh, and per direction the stack of
        # their weights that linearize picks the policy from
        self.directions = tuple(name for name in st.names
                                if any(name in m for m in members))
        self._stacks = {name: _stack(members, name, self.dim)
                        for name in self.directions if len(members) > 1}
        # linearize's (g, cF, slopes) at gamma = 0, the same at every v:
        # built once, read-only broadcasts of 1 and 0
        if self.gamma == 0.0:
            one, zero = (np.broadcast_to(x, grid.n) for x in (1.0, 0.0))
            self._gamma0 = (one, zero, ((zero, zero),) * self.dim)

    def _sample_diag(self, coeff):
        """Per-axis diagonal coefficient samples at interior nodes.

        The monotone axis stencil covers diagonal coefficient matrices;
        off-diagonal entries are rejected.
        """
        g = self.grid
        if callable(coeff):
            A = coeff_at(coeff, g.interior_nodes())
        else:
            A = np.asarray(coeff, dtype=float)
            if A.shape != (g.dim, g.dim):
                raise ValueError("coefficient matrix dim mismatch")
        if np.count_nonzero(A[..., self.stencil.off_diagonal]):
            raise ValueError("monotone scheme requires diagonal coefficients")
        diag = np.diagonal(A, axis1=-2, axis2=-1)
        if diag.min() < self.spec.lam - 1e-12 or diag.max() > self.spec.Lam + 1e-12:
            raise ValueError("coefficient field violates lam I <= A <= Lam I")
        return tuple(np.full(tuple(g.n), diag[..., k]) for k in range(g.dim))

    # -- differences ----------------------------------------------------

    def second_differences(self, v):
        """Curvatures along the stencil directions (_direction_set) at
        interior nodes, as a dict keyed by direction name."""
        st = self.stencil
        c2 = 2 * v[st.interior]
        return {name: (v[fwd] - c2 + v[bwd]) / he2
                for name, (fwd, bwd), he2 in zip(st.names, st.shifted, self.he2)}

    def cross_difference(self, v):
        """Centered mixed difference u_xy from the two diagonals (2-D only;
        residual checks)."""
        (f1, b1), (f2, b2) = self.stencil.shifted[self.dim:]
        hx, hy = self.h
        return (v[f1] + v[b1] - v[f2] - v[b2]) / (4 * hx * hy)

    def grad(self, v):
        """Per-axis centred difference quotients at interior nodes."""
        return tuple([(v[fwd] - v[bwd]) / (2 * hk)
                      for (fwd, bwd), hk in zip(self.stencil.shifted, self.h)])

    def upwind_mag2(self, v):
        """Per-axis mean of squared one-sided differences at interior nodes.

        Equal to (centered quotient)^2 + (h/2)^2 (second difference)^2, so
        it agrees with the centered gradient to O(h^2) on smooth fields but
        stays O(1) at kinks, where the centered quotient vanishes.  A purely
        centered |grad| lets a spurious corner (slope jump balancing
        g * F = f with g = delta) persist as an O(1) steady state; this form
        removes it and, being smooth in the data, does not chatter under
        relaxation the way a hard one-sided max does.
        """
        return _mean_squares(self.one_sided(v))

    def one_sided(self, v):
        """Per-axis (forward, backward) difference quotients at interior nodes."""
        st = self.stencil
        c = v[st.interior]
        return tuple([((v[fwd] - c) / hk, (c - v[bwd]) / hk)
                      for (fwd, bwd), hk in zip(st.shifted, self.h)])

    def _s2(self, mag2):
        """s2 = |grad_h u|^2 + delta^2 from the per-axis upwind_mag2 terms
        (summed in axis order), the one regularized gradient magnitude of
        the scheme."""
        return sum(mag2[1:], mag2[0]) + self.delta * self.delta

    def grad_factor(self, v):
        """g = s2^(gamma/2) (see _s2); exactly 1 when gamma = 0."""
        if self.gamma == 0.0:
            return 1.0
        return self._s2(self.upwind_mag2(v)) ** (self.gamma / 2.0)

    # -- operator -------------------------------------------------------

    def F(self, v):
        """Discrete F at all interior nodes (degenerate elliptic form): the
        envelope (_envelope_at) at the second differences of v."""
        return self._envelope_at(self.second_differences(v))[0]

    def _envelope_at(self, k):
        """(F_h, the stack of the members' values) at curvatures k, the one
        envelope of F and linearize; a one-member F is that member's value,
        with no stack (None).  An operator without members has no grid
        scheme, and require_policy refuses it."""
        if len(self.members) == 1:
            return _weighted(self.members[0], k), None
        self.require_policy()
        values = np.array(self._candidates(k))
        return self._envelope[0].reduce(values), values

    def _candidates(self, k):
        """sum_d w_d k_d per member at curvatures k, in member order.

        Rounding is monotone, so the min (max) over the Pucci corners of
        these rounded sums is the rounded sum of the per-direction minima
        (maxima) slope(k_d) k_d: the sign rule, per frame.
        """
        return [_weighted(m, k) for m in self.members]

    def linearize(self, v):
        """g F_h(v) at interior nodes and the Newton data of v, from one
        pass over the second differences and one over the members.

        Returns a Linearization whose `policy` holds the interior weights
        w_d per stencil direction of the member attaining the envelope
        (arg-min or arg-max), 0 along directions it lacks, so that
        F_h(v) == sum_d w_d k_d exactly.  Ties go to the first member: the
        first family member; for Pucci the axis frame, and within a frame
        the k <= 0 slope.  A one-member F returns that member, the same
        object on every call.  g = grad_factor(v) as an array and
        cF = c F_h(v), with c = (gamma / 2) s2^(gamma/2 - 1) (see _s2) and
        `slopes` the per-axis one_sided quotients (f_k, b_k):
        dg_i / du_{i+e_k} = c f_k / h_k, dg_i / du_{i-e_k} = -c b_k / h_k,
        and dg_i / du_i is minus the sum of those (g sees differences
        only).  When gamma = 0, g = 1 and c = 0 exactly, the slopes are
        zero, gF is F_h(v) itself, and g, cF and the slopes are read-only
        arrays built once per Scheme, the same objects on every call.
        """
        F, values = self._envelope_at(self.second_differences(v))
        if values is None:
            policy = self.members[0]
        else:
            pick = self._envelope[1](values, axis=0)[None]
            policy = {name: np.take_along_axis(w, pick, axis=0)[0]
                      for name, w in self._stacks.items()}
        if self.gamma == 0.0:
            return Linearization(F, policy, *self._gamma0)
        slopes = self.one_sided(v)
        s2 = self._s2(_mean_squares(slopes))
        g = s2 ** (self.gamma / 2.0)
        c = 0.5 * self.gamma * s2 ** (self.gamma / 2.0 - 1.0)
        return Linearization(g * F, policy, g, c * F, slopes)

    def require_policy(self):
        """Raise ValueError unless F_h has a policy form (members), which
        every solver iterates on.  A custom F has none, and neither has
        the 2-D p-Laplacian at p != 2: a centred cross difference would
        make F_h fall when an anti-diagonal neighbour rises."""
        if self.spec.variant == "custom":
            raise ValueError("a custom F has no grid scheme")
        if not self.members:
            raise ValueError("p_laplacian has no monotone 2-D scheme at p = %g (the 2-D "
                             "p-Laplacian is monotone only at p = 2)" % self.spec.p)

    def residual_interior(self, v, a_int, q):
        """g * F_h + a u^q at interior nodes (v must be >= 0 there): the
        first rung of residual_ladder."""
        return next(self.residual_ladder(v, a_int, q))

    def residual_ladder(self, v, a_int, q):
        """The residuals g F_h + a u^q of v, v / 2, v / 4, ... at interior
        nodes, from one stencil pass over v.

        The pass gives F_h(v), the upwind_mag2 terms of v (gamma > 0 only)
        and the interior values u.  Each rung is g F_h + a u^q with
        g = _s2(terms)^(gamma/2) (1 at gamma = 0), the operations of
        grad_factor and F, and the next rung halves F_h and u and
        quarters each term: F_h and the one-sided quotients are linear
        in v, and a product by a power of two is exact.  So rung k is the
        residual of v / 2^k computed by its own stencil pass, bit for bit,
        while no value of that pass leaves the normal float range; a
        subnormal value can round differently, and a caller taking a
        rung past the first confirms it with residual_interior
        (build_subsolution).
        """
        F, u = self.F(v), self.grid.interior(v)
        mag2 = self.upwind_mag2(v) if self.gamma else None
        while True:
            g = 1.0 if mag2 is None else self._s2(mag2) ** (self.gamma / 2.0)
            yield g * F + a_int * u ** q
            F, u = 0.5 * F, 0.5 * u
            if mag2 is not None:
                mag2 = [0.25 * m for m in mag2]


def _stencil_all_below(near):
    """Interior nodes whose whole 3^dim neighbourhood (diagonals included)
    is True; boundary nodes are False.

    The one neighbourhood AND of the package: classify's dead-core test,
    and pseudo-transient Newton's zero flush on the interior padded with
    True (boundary nodes are 0, hence in any zero set).
    """
    st = STENCILS[near.ndim]
    out = np.zeros_like(near)
    out[st.interior] = np.logical_and.reduce([near[b] for b in st.hood])
    return out


def residual_field(u, scheme, q, weight):
    """Pointwise residual of |Du|^gamma F + a u^q as a GridFunction, on the
    scheme that discretizes |Du|^gamma F.

    Interior nodes carry the regularized scheme residual; boundary nodes
    carry the Dirichlet defect r = u.  Requires u >= 0 on the scheme's grid;
    a residual that overflows a float (a weight or a field too large for
    the other) is refused with ValueError.
    """
    _on_grid(scheme.grid, u, "field")
    if np.min(u.values) < 0:
        raise ValueError("residual requires a nonnegative field")
    a_int = u.grid.interior(weight.values)
    r = np.array(u.values)
    with np.errstate(over="ignore", invalid="ignore"):
        u.grid.interior(r)[...] = scheme.residual_interior(u.values, a_int, q)
    if not np.all(np.isfinite(r)):
        raise ValueError("the residual overflows a float (sup |a| = %g, "
                         "sup u = %g)" % (weight.sup_norm(), u.sup_norm()))
    return GridFunction(u.grid, r, dirichlet=False)


# --- CSV schema ----------------------------------------------------------

def write_csv(obj, path, comments=()):
    """Write a GridFunction (a WeightField too): header x[,y],value,
    row-major."""
    grid, vals = obj.grid, obj.values
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write("# %s\n" % line)
        w = csv.writer(fh)
        w.writerow(grid.stencil.axes + ("value",))
        for row in zip(*(x.ravel() for x in grid.coords()), vals.ravel()):
            w.writerow(["%.17g" % t for t in row])


def read_csv(path, grid=None, dirichlet=True):
    """Read the CSV schema back into a GridFunction.

    Without a grid, the node lattice is inferred from the coordinates.
    Rows must be the lattice's nodes (boundary included) in write_csv's
    order, within 1e-9 of the spacing, else ValueError names the file (and
    the file's lattice and the grid, if given), as it does for a file
    with no data rows or another header.
    """
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            rows.append(line.strip().split(","))
    if len(rows) < 2:
        raise ValueError("%s: %s" % (path, "no data rows" if rows else "empty file"))
    header, data = rows[0], rows[1:]
    dim = len(header) - 1
    if dim not in STENCILS or tuple(header) != STENCILS[dim].axes + ("value",):
        raise ValueError("%s: header %r is neither x,value nor x,y,value"
                         % (path, ",".join(header)))
    arr = np.array([[float(c) for c in r] for r in data])
    axes = [np.unique(arr[:, k]) for k in range(dim)]
    bounds = tuple((float(a[0]), float(a[-1])) for a in axes)
    n = tuple(len(a) - 2 for a in axes)
    given = grid is not None
    if not given:
        grid = Grid(bounds, n)
    nodes = np.stack([x.ravel() for x in grid.coords()], axis=-1)
    if nodes.shape != arr[:, :dim].shape or \
            not np.all(np.abs(arr[:, :dim] - nodes) <= 1e-9 * np.array(grid.h)):
        if given:
            raise ValueError("%s: sampled on Grid(bounds=%r, n=%r), not on %r"
                             % (path, bounds, n, grid))
        raise ValueError("%s: rows are not the nodes of %r in x-major order"
                         % (path, grid))
    return GridFunction(grid, arr[:, dim].reshape(grid.shape), dirichlet=dirichlet)
