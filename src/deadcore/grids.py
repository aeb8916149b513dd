"""Structured grids, grid functions, weights, and the discrete equation.

Grids are 1-D intervals or 2-D rectangles with homogeneous Dirichlet
boundary nodes.  `Scheme` is the vectorized monotone realization of
|Du|^gamma F(x, D^2 u): axis second differences for trace-form operators,
a wide stencil (axes + diagonals) for the Pucci/Bellman envelopes.  The
pointwise residual of the reaction problem is

    r = (|grad_h u|^2 + delta^2)^(gamma/2) * F_h(u) + a(x) u^q,

with the gradient regularization delta = max(h); boundary nodes carry the
Dirichlet defect r = u.
"""

from dataclasses import dataclass
import csv
import numpy as np

from .operators import coeff_at

__all__ = [
    "Grid", "GridFunction", "WeightField", "Scheme",
    "gradient", "discrete_hessian", "discrete_F", "residual_field",
    "write_csv", "read_csv",
]


@dataclass(frozen=True)
class Grid:
    """Uniform grid with n interior points per axis plus boundary nodes."""
    bounds: tuple   # ((lo, hi), ...) per axis
    n: tuple        # interior point count per axis

    def __post_init__(self):
        if len(self.bounds) != len(self.n) or len(self.n) not in (1, 2):
            raise ValueError("grid must be 1-D or 2-D")
        for (lo, hi), ni in zip(self.bounds, self.n):
            if not hi > lo:
                raise ValueError("empty axis bounds")
            if ni < 3:
                raise ValueError("need at least 3 interior points per axis")

    @classmethod
    def interval(cls, lo, hi, n):
        return cls(((float(lo), float(hi)),), (int(n),))

    @classmethod
    def rectangle(cls, xlo, xhi, ylo, yhi, nx, ny):
        return cls(((float(xlo), float(xhi)), (float(ylo), float(yhi))),
                   (int(nx), int(ny)))

    @property
    def dim(self):
        return len(self.n)

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
        """Node coordinates: the x array (1-D) or 'ij' meshgrid (2-D)."""
        if self.dim == 1:
            return self.axis(0)
        return np.meshgrid(self.axis(0), self.axis(1), indexing="ij")

    def interior(self, a):
        return a[1:-1] if self.dim == 1 else a[1:-1, 1:-1]

    def refine(self):
        """Grid with halved spacing (n -> 2n + 1)."""
        return Grid(self.bounds, tuple(2 * ni + 1 for ni in self.n))

    def distance_to_boundary(self):
        if self.dim == 1:
            x = self.axis(0)
            lo, hi = self.bounds[0]
            return np.minimum(x - lo, hi - x)
        X, Y = self.coords()
        (xlo, xhi), (ylo, yhi) = self.bounds
        return np.minimum.reduce([X - xlo, xhi - X, Y - ylo, yhi - Y])


class GridFunction:
    """Scalar field on all grid nodes; Dirichlet trace zeroed on request."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values, dirichlet=True):
        v = np.array(values, dtype=float)
        if v.shape != grid.shape:
            raise ValueError("values shape %r does not match grid %r"
                             % (v.shape, grid.shape))
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function must be finite")
        if dirichlet:
            _zero_boundary(v)
        self.grid = grid
        self.values = v

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_callable(cls, grid, f, dirichlet=True):
        if grid.dim == 1:
            v = np.asarray(f(grid.axis(0)), dtype=float)
        else:
            X, Y = grid.coords()
            v = np.asarray(f(X, Y), dtype=float)
        return cls(grid, np.broadcast_to(v, grid.shape).copy(), dirichlet=dirichlet)

    @property
    def interior(self):
        return self.grid.interior(self.values)

    def copy(self):
        return GridFunction(self.grid, self.values.copy(), dirichlet=False)

    def sup_norm(self):
        return float(np.max(np.abs(self.values)))


def _zero_boundary(v):
    if v.ndim == 1:
        v[0] = v[-1] = 0.0
    else:
        v[0, :] = v[-1, :] = 0.0
        v[:, 0] = v[:, -1] = 0.0


class WeightField:
    """Sign-changing reaction weight a(x) sampled at grid nodes.

    Records the decomposition a = a+ - a- used by the semi-implicit
    relaxation and by the negative-part sweeps.
    """

    __slots__ = ("grid", "samples", "source")

    def __init__(self, grid, samples, source="tabulated"):
        s = np.asarray(samples, dtype=float)
        if s.shape != grid.shape:
            raise ValueError("weight samples do not match grid")
        if not np.all(np.isfinite(s)):
            raise ValueError("weight must be finite")
        self.grid = grid
        self.samples = s
        self.source = source

    @classmethod
    def from_callable(cls, grid, f, source="callable"):
        if grid.dim == 1:
            s = np.asarray(f(grid.axis(0)), dtype=float)
        else:
            X, Y = grid.coords()
            s = np.asarray(f(X, Y), dtype=float)
        return cls(grid, np.broadcast_to(s, grid.shape).copy(), source)

    @classmethod
    def constant(cls, grid, c):
        return cls(grid, np.full(grid.shape, float(c)), "constant(%g)" % c)

    @classmethod
    def sinsplit(cls, grid, s):
        """sin(pi x)+ - s * sin(pi x)- on the grid's first axis."""
        def f(x, y=None):
            w = np.sin(np.pi * x)
            return np.maximum(w, 0.0) - s * np.maximum(-w, 0.0)
        return cls.from_callable(grid, f, "sinsplit(%g)" % s)

    @property
    def a_plus(self):
        return np.maximum(self.samples, 0.0)

    @property
    def a_minus(self):
        return np.maximum(-self.samples, 0.0)

    @property
    def sign_changing(self):
        return bool(np.any(self.samples > 0) and np.any(self.samples < 0))

    def sup_norm(self):
        return float(np.max(np.abs(self.samples)))

    def scaled(self, c):
        return WeightField(self.grid, c * self.samples,
                           "%g*%s" % (c, self.source))

    def with_negative_scale(self, s):
        """a+ - s * a-, the family swept by the positivity threshold."""
        return WeightField(self.grid, self.a_plus - s * self.a_minus,
                           "%s[s=%g]" % (self.source, s))


# --- pointwise discrete calculus ---------------------------------------

def _check_interior(grid, node):
    node = (node,) if np.isscalar(node) else tuple(node)
    if len(node) != grid.dim:
        raise ValueError("node index arity mismatch")
    for i, ni in zip(node, grid.n):
        if not 1 <= i <= ni:
            raise ValueError("node %r is not interior" % (node,))
    return node


def gradient(u, node, one_sided=None):
    """Centered gradient at an interior node; `one_sided` selects the
    'forward' or 'backward' quotients instead (monotone variants)."""
    g = u.grid
    node = _check_interior(g, node)
    v, h = u.values, g.h
    out = np.empty(g.dim)
    for k in range(g.dim):
        up = list(node); up[k] += 1
        dn = list(node); dn[k] -= 1
        if one_sided == "forward":
            out[k] = (v[tuple(up)] - v[node]) / h[k]
        elif one_sided == "backward":
            out[k] = (v[node] - v[tuple(dn)]) / h[k]
        else:
            out[k] = (v[tuple(up)] - v[tuple(dn)]) / (2 * h[k])
    return out


def _direction_set(dim):
    if dim == 1:
        return (("x", (1,)),)
    return (("x", (1, 0)), ("y", (0, 1)), ("d1", (1, 1)), ("d2", (1, -1)))


def discrete_hessian(u, node, directions=None):
    """Directional second differences over the fixed stencil directions.

    Direction steps are single grid cells, so every interior node has a
    full stencil (boundary values are part of the node array); the
    clamped-stencil flag therefore never fires for this direction set.
    """
    g = u.grid
    node = _check_interior(g, node)
    v, h = u.values, g.h
    dirs = _direction_set(g.dim)
    if directions is not None:
        dirs = tuple(d for d in dirs if d[0] in directions)
    out = {}
    for name, step in dirs:
        up = tuple(i + s for i, s in zip(node, step))
        dn = tuple(i - s for i, s in zip(node, step))
        he2 = sum((s * hk) ** 2 for s, hk in zip(step, h))
        out[name] = (v[up] - 2 * v[node] + v[dn]) / he2
    return out


# envelope operators: how F reduces its candidate stencils, and how the
# active one is picked (the first on ties)
ENVELOPES = {
    "hjb_inf": (np.minimum, np.argmin), "pucci_minus": (np.minimum, np.argmin),
    "hjb_sup": (np.maximum, np.argmax), "pucci_plus": (np.maximum, np.argmax),
}


class Scheme:
    """Vectorized interior-node evaluation of the monotone discretization.

    Precomputes coefficient tables for the chosen operator; all methods
    take the full node-value array and return interior-shaped arrays.
    """

    def __init__(self, grid, spec, gamma):
        if gamma < 0:
            raise ValueError("gamma must be >= 0")
        self.grid = grid
        self.spec = spec
        self.gamma = float(gamma)
        self.h = grid.h
        self.delta = max(grid.h)
        self.dim = grid.dim
        v = spec.variant
        if v in ("pucci_plus", "pucci_minus") and grid.dim == 2:
            hx, hy = grid.h
            if abs(hx - hy) > 1e-12 * max(hx, hy):
                raise ValueError("2-D Pucci wide stencil needs square cells")
        if v == "linear_trace":
            self._tables = (self._sample_diag(spec.coeff),)
        elif v in ("hjb_inf", "hjb_sup"):
            self._tables = tuple(self._sample_diag(c) for c in spec.family)
        else:
            self._tables = ()
        # stencil directions of the policy weights (see policy)
        names = tuple(name for name, _ in _direction_set(grid.dim))
        self.directions = names if v in ("pucci_plus", "pucci_minus") \
            else names[:grid.dim]
        if v == "linear_trace":
            self._fixed_policy = dict(zip(self.directions, self._tables[0]))

    def _sample_diag(self, coeff):
        """Per-axis diagonal coefficient samples at interior nodes.

        The monotone axis stencil covers diagonal coefficient matrices;
        off-diagonal entries are rejected.
        """
        g = self.grid
        if not callable(coeff):
            A = np.asarray(coeff, dtype=float)
            if A.shape != (g.dim, g.dim):
                raise ValueError("coefficient matrix dim mismatch")
            if g.dim == 2 and abs(A[0, 1]) > 0:
                raise ValueError("monotone scheme requires diagonal coefficients")
            self._check_bounds(np.diag(A))
            return tuple(np.full(tuple(g.n), A[k, k]) for k in range(g.dim))
        diags = [np.empty(tuple(g.n)) for _ in range(g.dim)]
        if g.dim == 1:
            x = g.axis(0)[1:-1]
            for i, xi in enumerate(x):
                A = coeff_at(coeff, xi)
                self._check_bounds(np.diag(np.atleast_2d(A)))
                diags[0][i] = np.atleast_2d(A)[0, 0]
        else:
            xs, ys = g.axis(0)[1:-1], g.axis(1)[1:-1]
            for i, xi in enumerate(xs):
                for j, yj in enumerate(ys):
                    A = coeff_at(coeff, (xi, yj))
                    if abs(A[0, 1]) > 0:
                        raise ValueError("monotone scheme requires diagonal coefficients")
                    self._check_bounds(np.diag(A))
                    diags[0][i, j] = A[0, 0]
                    diags[1][i, j] = A[1, 1]
        return tuple(diags)

    def _check_bounds(self, d):
        lam, Lam = self.spec.lam, self.spec.Lam
        if np.min(d) < lam - 1e-12 or np.max(d) > Lam + 1e-12:
            raise ValueError("coefficient field violates lam I <= A <= Lam I")

    # -- differences ----------------------------------------------------

    def second_differences(self, v):
        """Directional curvatures at interior nodes (dict keyed by name)."""
        h = self.h
        if self.dim == 1:
            return {"x": (v[2:] - 2 * v[1:-1] + v[:-2]) / h[0] ** 2}
        c = v[1:-1, 1:-1]
        out = {
            "x": (v[2:, 1:-1] - 2 * c + v[:-2, 1:-1]) / h[0] ** 2,
            "y": (v[1:-1, 2:] - 2 * c + v[1:-1, :-2]) / h[1] ** 2,
        }
        hd2 = h[0] ** 2 + h[1] ** 2
        out["d1"] = (v[2:, 2:] - 2 * c + v[:-2, :-2]) / hd2
        out["d2"] = (v[2:, :-2] - 2 * c + v[:-2, 2:]) / hd2
        return out

    def cross_difference(self, v):
        """Centered mixed difference u_xy (2-D only; residual checks)."""
        hx, hy = self.h
        return (v[2:, 2:] + v[:-2, :-2] - v[2:, :-2] - v[:-2, 2:]) / (4 * hx * hy)

    def grad(self, v):
        if self.dim == 1:
            return ((v[2:] - v[:-2]) / (2 * self.h[0]),)
        return ((v[2:, 1:-1] - v[:-2, 1:-1]) / (2 * self.h[0]),
                (v[1:-1, 2:] - v[1:-1, :-2]) / (2 * self.h[1]))

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
        h = self.h
        if self.dim == 1:
            fwd = (v[2:] - v[1:-1]) / h[0]
            bwd = (v[1:-1] - v[:-2]) / h[0]
            return (0.5 * (fwd * fwd + bwd * bwd),)
        c = v[1:-1, 1:-1]
        fx = (v[2:, 1:-1] - c) / h[0]
        bx = (c - v[:-2, 1:-1]) / h[0]
        fy = (v[1:-1, 2:] - c) / h[1]
        by = (c - v[1:-1, :-2]) / h[1]
        return (0.5 * (fx * fx + bx * bx), 0.5 * (fy * fy + by * by))

    def grad_factor(self, v, delta=None):
        """(|grad_h u|^2 + delta^2)^(gamma/2); exactly 1 when gamma = 0.

        The squared gradient magnitude is the one-sided mean-square form
        (see upwind_mag2).
        """
        if self.gamma == 0.0:
            return 1.0
        d = self.delta if delta is None else delta
        m2 = self.upwind_mag2(v)
        n2 = m2[0]
        for mk in m2[1:]:
            n2 = n2 + mk
        return (n2 + d * d) ** (self.gamma / 2.0)

    # -- operator -------------------------------------------------------

    def F(self, v):
        """discrete F at all interior nodes (degenerate elliptic form)."""
        k = self.second_differences(v)
        var = self.spec.variant
        if var == "linear_trace":
            d = self._tables[0]
            out = d[0] * k["x"]
            if self.dim == 2:
                out = out + d[1] * k["y"]
            return out
        if var in ENVELOPES:
            _, values = self._candidates(k)
            if len(values) == 1:
                return values[0]
            return ENVELOPES[var][0].reduce(values)
        if var == "p_laplacian":
            p = self.spec.p
            if self.dim == 1:
                return (p - 1.0) * k["x"]
            gx, gy = self.grad(v)
            n2 = gx ** 2 + gy ** 2
            quad = k["x"] * gx ** 2 + 2 * self.cross_difference(v) * gx * gy \
                + k["y"] * gy ** 2
            tr = k["x"] + k["y"]
            with np.errstate(invalid="ignore", divide="ignore"):
                out = np.where(n2 > 0, tr + (p - 2.0) * quad / np.where(n2 > 0, n2, 1.0), tr)
            return out
        raise TypeError("operator variant %r has no grid scheme" % var)

    def _candidates(self, k):
        """The linear stencils an envelope picks from, at curvatures k.

        Returns (weights, values): per candidate a dict of interior
        weights by direction and its value sum_d w_d k_d.  A Bellman
        candidate is a family member.  A Pucci candidate takes, per
        direction, the slope Lam or lam of its envelope on the sign of k_d
        (k_d <= 0 gets the slope of the negative side); in 2-D the axis
        pair and the diagonal pair are the two candidates.
        """
        var = self.spec.variant
        if var in ("hjb_inf", "hjb_sup"):
            weights = [dict(zip(self.directions, d)) for d in self._tables]
        else:
            lam, Lam = self.spec.lam, self.spec.Lam
            up, down = (Lam, lam) if var == "pucci_plus" else (lam, Lam)
            w = {name: np.where(k[name] > 0.0, up, down) for name in k}
            weights = [w] if self.dim == 1 else \
                [{"x": w["x"], "y": w["y"]}, {"d1": w["d1"], "d2": w["d2"]}]
        values = []
        for w in weights:
            names = iter(w)
            first = next(names)
            t = w[first] * k[first]
            for name in names:
                t = t + w[name] * k[name]
            values.append(t)
        return weights, values

    def policy(self, v):
        """Active policy at v: interior weights w_d per stencil direction.

        F(v) == sum_d w_d * k_d exactly, with k_d the second differences
        along self.directions: the candidate of _candidates that attains
        the envelope, the others weighing 0.  That is the arg-min
        (hjb_inf, pucci_minus) or arg-max (hjb_sup, pucci_plus); ties go
        to the first candidate (the first family member, the axis pair).
        A linear trace has one policy, returned as the same object on
        every call.
        """
        var = self.spec.variant
        if var == "linear_trace":
            return self._fixed_policy
        if var not in ENVELOPES:
            raise TypeError("operator variant %r has no policy form" % var)
        weights, values = self._candidates(self.second_differences(v))
        if len(weights) == 1:
            return weights[0]
        pick = ENVELOPES[var][1](values, axis=0)
        return {name: np.choose(pick, [w.get(name, 0.0) for w in weights])
                for name in self.directions}

    def residual_interior(self, v, a_int, q):
        """g * F_h + a u^q at interior nodes (v must be >= 0 there)."""
        return self.grad_factor(v) * self.F(v) + a_int * self.grid.interior(v) ** q


def discrete_F(spec, u, node, gamma=0.0):
    """Pointwise discrete F at one interior node (thin Scheme wrapper)."""
    sch = Scheme(u.grid, spec, gamma)
    node = _check_interior(u.grid, node)
    F = sch.F(u.values)
    idx = tuple(i - 1 for i in node)
    return float(F[idx])


def residual_field(u, spec, gamma, q, weight):
    """Pointwise residual of |Du|^gamma F + a u^q as a GridFunction.

    Interior nodes carry the regularized scheme residual; boundary nodes
    carry the Dirichlet defect r = u.  Requires u >= 0.
    """
    if np.min(u.values) < 0:
        raise ValueError("residual requires a nonnegative field")
    sch = Scheme(u.grid, spec, gamma)
    a_int = u.grid.interior(weight.samples)
    r = np.array(u.values)
    u.grid.interior(r)[...] = sch.residual_interior(u.values, a_int, q)
    return GridFunction(u.grid, r, dirichlet=False)


# --- CSV schema ----------------------------------------------------------

def write_csv(obj, path, comments=()):
    """Write a GridFunction or WeightField: header x[,y],value, row-major."""
    grid = obj.grid
    vals = obj.values if isinstance(obj, GridFunction) else obj.samples
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write("# %s\n" % line)
        w = csv.writer(fh)
        if grid.dim == 1:
            w.writerow(["x", "value"])
            for x, v in zip(grid.axis(0), vals):
                w.writerow(["%.17g" % x, "%.17g" % v])
        else:
            w.writerow(["x", "y", "value"])
            xs, ys = grid.axis(0), grid.axis(1)
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    w.writerow(["%.17g" % x, "%.17g" % y, "%.17g" % vals[i, j]])


def read_csv(path, grid=None, dirichlet=True):
    """Read the CSV schema back into a GridFunction.

    Without a grid, the node lattice is inferred from the coordinates
    (must be the full uniform node set including boundary rows).
    """
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            rows.append(line.strip().split(","))
    header, data = rows[0], rows[1:]
    dim = 1 if header[:2] == ["x", "value"] else 2
    arr = np.array([[float(c) for c in r] for r in data])
    if dim == 1:
        x, v = arr[:, 0], arr[:, 1]
        if grid is None:
            grid = Grid.interval(x[0], x[-1], len(x) - 2)
        vals = v
    else:
        xs = np.unique(arr[:, 0])
        ys = np.unique(arr[:, 1])
        if grid is None:
            grid = Grid.rectangle(xs[0], xs[-1], ys[0], ys[-1],
                                  len(xs) - 2, len(ys) - 2)
        vals = arr[:, 2].reshape(len(xs), len(ys))
    vals = np.asarray(vals).reshape(grid.shape)
    return GridFunction(grid, vals, dirichlet=dirichlet)
