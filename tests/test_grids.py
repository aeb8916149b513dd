"""Grids, discrete calculus, residuals, and the CSV schema."""

from itertools import product
import re

import numpy as np
import pytest

from deadcore import (Grid, GridFunction, WeightField, OperatorSpec,
                      residual_field, write_csv, read_csv)
from deadcore.analysis import _boundary_margin
from deadcore.dirichlet import PolicyMatrix
from deadcore.grids import Scheme, _stencil_all_below, _zero_boundary
from reference import explicit_step, pucci_sign_rule
from test_dirichlet import _accepted_specs


def test_grid_spacing_exact():
    g = Grid.interval(0.0, 1.0, 99)
    assert g.h[0] == (1.0 - 0.0) / 100
    r = Grid.rectangle(0.0, 2.0, -1.0, 1.0, 19, 39)
    assert r.h == (2.0 / 20, 2.0 / 40)
    assert r.shape == (21, 41)


def test_grid_rejects_tiny():
    with pytest.raises(ValueError):
        Grid.interval(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        Grid.interval(1.0, 1.0, 10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bounds", [(0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan),
                                    (np.nan, 1.0)])
def test_grid_refuses_non_finite_bounds(bounds):
    # (0, inf) used to build h = inf and NaN nodes, with numpy warnings,
    # and a NaN bound read as an empty axis
    lo, hi = bounds
    with pytest.raises(ValueError, match=r"^grid axis 0 bounds \(%r, %r\) "
                       "are not finite$" % (lo, hi)):
        Grid.interval(lo, hi, 9)
    with pytest.raises(ValueError, match=r"^grid axis 1 bounds .* not finite$"):
        Grid.rectangle(0.0, 1.0, lo, hi, 5, 5)


@pytest.mark.parametrize("make, axis, count", [
    (lambda: Grid.interval(0.0, 1.0, 9.7), 0, 9.7),
    (lambda: Grid(((0.0, 1.0),), (9.5,)), 0, 9.5),
    (lambda: Grid.rectangle(0.0, 1.0, 0.0, 1.0, 5, 7.5), 1, 7.5),
    (lambda: Grid.interval(0.0, 1.0, np.inf), 0, np.inf),
    (lambda: Grid.interval(0.0, 1.0, np.nan), 0, np.nan),
    (lambda: Grid.interval(0.0, 1.0, "9"), 0, "9")])
def test_grid_refuses_a_count_that_is_not_an_integer(make, axis, count):
    # 9.7 used to build n = 9, and 9.5 to fail later in Grid.axis
    with pytest.raises(ValueError, match=r"^grid axis %d point count %s is not "
                       "an integer$" % (axis, re.escape(repr(count)))):
        make()


def test_grid_takes_an_integral_count_as_an_int():
    for count in (9, 9.0, np.float64(9.0), np.int64(9)):
        g = Grid.interval(0.0, 1.0, count)
        assert g.n == (9,) and type(g.n[0]) is int
        assert g == Grid(((0.0, 1.0),), (9,))
    assert Grid.rectangle(0.0, 1.0, 0.0, 2.0, 5.0, np.float64(7.0)).n == (5, 7)


def test_gridfunction_dirichlet_trace():
    g = Grid.interval(0.0, 1.0, 9)
    u = GridFunction.from_callable(g, lambda x: x + 1.0)
    assert u.values[0] == 0.0 and u.values[-1] == 0.0
    with pytest.raises(ValueError):
        GridFunction(g, np.full(g.shape, np.nan))


# --- discrete calculus: the Scheme arrays ---------------------------------

def _trace_scheme(g):
    return Scheme(g, OperatorSpec.linear_trace(np.eye(g.dim)), 0.0)


def test_gradient_linear_exact():
    g = Grid.interval(0.0, 1.0, 19)
    u = GridFunction(g, g.axis(0), dirichlet=False)
    (gx,) = _trace_scheme(g).grad(u.values)
    assert gx.shape == (19,)
    assert np.allclose(gx, 1.0, rtol=0, atol=1e-14)


def test_gradient_quadratic_centered():
    # the centred quotient is exact on quadratics: 2x at every interior node
    g = Grid.interval(0.0, 1.0, 19)
    u = GridFunction(g, g.axis(0) ** 2, dirichlet=False)
    (gx,) = _trace_scheme(g).grad(u.values)
    assert np.allclose(gx, 2.0 * g.interior(g.axis(0)), rtol=0, atol=1e-13)
    i = 10  # node at x = 0.5, interior index i - 1
    assert g.axis(0)[i] == pytest.approx(0.5)
    assert gx[i - 1] == pytest.approx(1.0, abs=1e-13)


def test_gradient_sin_second_order():
    errs = []
    for n, i in ((49, 16), (99, 32)):
        # same physical point x = 16 pi / 50 on both grids, away from
        # x = pi/2 where the leading error term u''' = -cos vanishes
        g = Grid.interval(0.0, np.pi, n)
        u = GridFunction.from_callable(g, np.sin)
        x = g.axis(0)[i]
        errs.append(abs(_trace_scheme(g).grad(u.values)[0][i - 1] - np.cos(x)))
    # Taylor remainder h^2/6 |u'''|: halving h divides the error by ~4
    assert errs[1] <= errs[0] / 3.0


def test_second_difference_quadratic():
    g = Grid.interval(0.0, 1.0, 9)
    u = GridFunction(g, g.axis(0) ** 2, dirichlet=False)
    k = _trace_scheme(g).second_differences(u.values)
    assert set(k) == {"x"}
    assert np.allclose(k["x"], 2.0, rtol=0, atol=1e-12)


def test_second_difference_diagonal_2d():
    g = Grid.rectangle(0.0, 1.0, 0.0, 1.0, 9, 9)
    x, y = g.coords()
    u = GridFunction(g, x * y, dirichlet=False)
    k = _trace_scheme(g).second_differences(u.values)
    assert list(k) == ["x", "y", "d1", "d2"]
    # u_xy = 1: along e=(1,1)/sqrt2 the directional second derivative is 1
    assert np.allclose(k["x"], 0.0, rtol=0, atol=1e-12)
    assert np.allclose(k["y"], 0.0, rtol=0, atol=1e-12)
    assert np.allclose(k["d1"], 1.0, rtol=0, atol=1e-12)
    assert np.allclose(k["d2"], -1.0, rtol=0, atol=1e-12)


def test_second_difference_sin_sin():
    g = Grid.rectangle(0.0, np.pi, 0.0, np.pi, 39, 39)
    u = GridFunction.from_callable(g, lambda x, y: np.sin(x) * np.sin(y))
    i, j = 20, 20
    x, y = g.axis(0)[i], g.axis(1)[j]
    k = _trace_scheme(g).second_differences(u.values)
    idx = (i - 1, j - 1)
    assert k["x"][idx] == pytest.approx(-np.sin(x) * np.sin(y), abs=5 * g.h[0] ** 2)
    # directional second derivative along (1,1)/sqrt2 of sin sin
    exact = 0.5 * (-2.0 * np.sin(x) * np.sin(y) + 2.0 * np.cos(x) * np.cos(y))
    assert k["d1"][idx] == pytest.approx(exact, abs=5 * g.h[0] ** 2)


def test_discrete_F_examples():
    g = Grid.interval(0.0, 1.0, 9)
    u = GridFunction(g, g.axis(0) ** 2, dirichlet=False)
    spec = OperatorSpec.linear_trace(np.eye(1))
    assert np.allclose(Scheme(g, spec, 0.0).F(u.values), 2.0, rtol=0, atol=1e-12)

    r = Grid.rectangle(0.0, 1.0, 0.0, 1.0, 19, 19)
    x, y = r.coords()
    saddle = GridFunction(r, 0.5 * (x ** 2 - y ** 2), dirichlet=False)
    got = Scheme(r, OperatorSpec.pucci_plus(1.0, 2.0), 0.0).F(saddle.values)
    # exact Hessian diag(1,-1): M+ = 2*1 + 1*(-1) = 1 at every interior node
    assert got.shape == (19, 19)
    assert np.allclose(got, 1.0, rtol=0, atol=1e-10)


def test_discrete_F_affine_kernel():
    g = Grid.rectangle(0.0, 1.0, 0.0, 1.0, 9, 9)
    x, y = g.coords()
    u = GridFunction(g, 0.3 * x - 0.7 * y + 0.1, dirichlet=False)
    for spec in (OperatorSpec.linear_trace(np.eye(2)),
                 OperatorSpec.pucci_plus(1.0, 2.0),
                 OperatorSpec.pucci_minus(0.5, 1.5)):
        assert np.max(np.abs(Scheme(g, spec, 0.0).F(u.values))) <= 1e-12


def test_scheme_degenerate_ellipticity_randomized():
    # raising any single neighbor value never decreases F at the center
    rng = np.random.default_rng(21)
    g = Grid.rectangle(0.0, 1.0, 0.0, 1.0, 7, 7)
    specs = (OperatorSpec.pucci_plus(0.5, 2.0),
             OperatorSpec.pucci_minus(0.5, 2.0),
             OperatorSpec.linear_trace(np.eye(2)),
             OperatorSpec.hjb_inf((np.eye(2), np.diag([2.0, 1.0])), 1.0, 2.0),
             OperatorSpec.p_laplacian(2.0))
    for spec in specs:
        sch = Scheme(g, spec, 0.0)
        for _ in range(40):
            v = rng.standard_normal(g.shape)
            c = (rng.integers(1, 8), rng.integers(1, 8))
            base = sch.F(v)[c[0] - 1, c[1] - 1]
            # bump one stencil neighbor
            di, dj = rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1])
            if di == 0 and dj == 0:
                di = 1
            v2 = v.copy()
            v2[c[0] + di, c[1] + dj] += abs(rng.standard_normal()) + 0.1
            bumped = sch.F(v2)[c[0] - 1, c[1] - 1]
            assert bumped >= base - 1e-12


def test_p_laplacian_2d_scheme_not_monotone():
    # the 2-D p-Laplacian at p != 2 has no monotone scheme (a centred cross
    # difference makes F fall when the anti-diagonal neighbour rises, by
    # (p - 2) gx gy / (2 hx hy |g|^2) per unit): the solvers and Scheme.F
    # refuse it by the same require_policy; at p = 2 it is a trace
    g = Grid.rectangle(0.0, 1.0, 0.0, 1.0, 7, 7)
    x, y = g.coords()
    v = GridFunction(g, np.sin(2.0 * x + y) + x * y, dirichlet=False).values
    for p in (3.0, 1.5):
        sch = Scheme(g, OperatorSpec.p_laplacian(p), 0.0)
        with pytest.raises(ValueError, match="p-Laplacian"):
            sch.require_policy()
        with pytest.raises(ValueError, match="no monotone 2-D scheme"):
            sch.F(v)
    sch = Scheme(g, OperatorSpec.p_laplacian(2.0), 0.0)
    sch.require_policy()
    with pytest.raises(ValueError, match=r"^p_laplacian has no monotone 2-D "
                       r"scheme at p = 3 \(the 2-D p-Laplacian is monotone "
                       r"only at p = 2\)$"):
        Scheme(g, OperatorSpec.p_laplacian(3.0), 1.0).require_policy()
    k = sch.second_differences(v)
    assert np.array_equal(sch.F(v), k["x"] + k["y"])


@pytest.mark.parametrize("dim", [1, 2])
def test_scheme_policy_reproduces_F(dim):
    # F(v) == sum_d w_d k_d exactly at the active policy, and the policy
    # is deterministic (an all-tied field gets the same weights twice);
    # linearize's g F_h is the certificate's grad_factor * F bit for bit,
    # at gamma = 0 and above
    rng = np.random.default_rng(22)
    g = Grid.interval(0.0, 1.0, 9) if dim == 1 else \
        Grid.rectangle(0.0, 1.0, 0.0, 1.0, 7, 7)
    fam = (np.eye(dim), np.diag([2.0, 1.0][:dim]), 1.5 * np.eye(dim))
    # three coefficient fields that cross one another
    fields = tuple((lambda x, c=c: np.diag(1.5 + 0.5 * np.sin(3.0 * x + c)))
                   for c in (0.0, 2.0, 4.0))
    specs = (OperatorSpec.pucci_plus(0.5, 2.0),
             OperatorSpec.pucci_minus(0.5, 2.0),
             OperatorSpec.linear_trace(np.eye(dim)),
             OperatorSpec.hjb_inf(fam, 1.0, 2.0),
             OperatorSpec.hjb_sup(fam, 1.0, 2.0),
             OperatorSpec.hjb_inf(fields, 1.0, 2.0),
             OperatorSpec.hjb_sup(fields, 1.0, 2.0),
             OperatorSpec.p_laplacian(2.0))
    if dim == 1:
        specs += (OperatorSpec.p_laplacian(3.0),)
    for spec in specs:
        sch, degenerate = Scheme(g, spec, 0.0), Scheme(g, spec, 1.0)
        for v in [rng.standard_normal(g.shape) for _ in range(10)] + \
                [np.zeros(g.shape)]:
            lin = sch.linearize(v)
            w = lin.policy
            assert set(w) == set(sch.directions)
            k = sch.second_differences(v)
            total = w["x"] * k["x"]
            for name in sch.directions[1:]:
                total = total + w[name] * k[name]
            assert np.array_equal(total, sch.F(v))
            assert lin.gF.tobytes() == sch.F(v).tobytes()
            assert degenerate.linearize(v).gF.tobytes() == \
                (degenerate.grad_factor(v) * degenerate.F(v)).tobytes()
        w0, w1 = (sch.linearize(np.zeros(g.shape)).policy for _ in range(2))
        assert all(np.array_equal(w0[d], w1[d]) for d in w0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0])
def test_residual_ladder_rungs_are_the_halved_fields_residuals(dim, gamma):
    # rung k of residual_ladder(v) is g F_h + a u^q of v / 2^k, spelled by
    # grad_factor and F, bit for bit while every value stays normal (v
    # from 1e-3 to 10, 40 rungs), for every accepted operator
    rng = np.random.default_rng(31)
    g = Grid.interval(0.0, 2.0, 39) if dim == 1 else \
        Grid.rectangle(0.0, 2.0, 0.0, 1.0, 19, 9)
    q = 0.7
    for spec in _accepted_specs(dim):
        sch = Scheme(g, spec, gamma)
        for _ in range(3):
            v = 10.0 ** rng.uniform(-3.0, 1.0, g.shape)
            a = rng.standard_normal(tuple(g.n))
            ladder = sch.residual_ladder(v, a, q)
            for k in range(40):
                w = v * 0.5 ** k
                want = sch.grad_factor(w) * sch.F(w) + a * g.interior(w) ** q
                assert next(ladder).tobytes() == want.tobytes()


def _rough_field(rng, shape):
    """Mixed signs over magnitudes 1 down to 1e-300, exact zeros (both
    signs) at random nodes and on a block wider than the stencil."""
    scale = rng.choice([1.0, 1e-8, 1e-160, 1e-300, 0.0], size=shape)
    v = rng.standard_normal(shape) * scale
    v[tuple(slice(1, 5) for _ in shape)] = 0.0
    return v


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("variant", ["pucci_plus", "pucci_minus"])
@pytest.mark.parametrize("Lam", [2.0, 5.0])
def test_pucci_corners_match_sign_rule(dim, variant, Lam):
    # F_h over the corners of {lam, Lam}^frame equals the sign rule bit
    # for bit (rounding is monotone), and so does the policy wherever no
    # two corners tie after rounding but through an exact zero curvature
    rng = np.random.default_rng(int(Lam) + 10 * dim)
    g = Grid.interval(0.0, 1.0, 30) if dim == 1 else \
        Grid.rectangle(0.0, 2.0, 0.0, 1.0, 23, 11)
    sch = Scheme(g, getattr(OperatorSpec, variant)(1.0, Lam), 0.0)
    st, envelope = sch.stencil, np.maximum if variant == "pucci_plus" else np.minimum
    frames = [f for f in (st.axes, st.diagonals) if f]
    corners = [(i, dict(zip(f, c))) for i, f in enumerate(frames)
               for c in product((1.0, Lam), repeat=len(f))]
    fields = [_rough_field(rng, g.shape) for _ in range(20)] + [np.zeros(g.shape)]
    checked = 0.0
    for v in fields:
        k = sch.second_differences(v)
        F, policy = pucci_sign_rule(sch, k)
        assert _same(sch.F(v), F)
        values = np.array([sum(c[d] * k[d] for d in c) for _, c in corners])
        attained = values == envelope.reduce(values)
        first = np.min([np.where(a, i, len(frames))
                        for a, (i, _) in zip(attained, corners)], axis=0)
        clean = np.ones(first.shape, dtype=bool)
        for d in st.names:
            slopes = [np.where(a & (first == i), c[d], np.nan)
                      for a, (i, c) in zip(attained, corners) if d in c]
            lo, hi = np.fmin.reduce(slopes), np.fmax.reduce(slopes)
            clean &= (lo == hi) | np.isnan(lo) | (k[d] == 0.0)
        w = sch.linearize(v).policy
        assert set(w) == set(policy)
        assert all(np.array_equal(w[d][clean], policy[d][clean]) for d in w)
        checked += clean.mean() / len(fields)
    # the magnitudes absorb one another at about a quarter of the 2-D nodes
    assert checked > 0.6


def test_residual_zero_field():
    g = Grid.interval(0.0, 1.0, 9)
    w = WeightField.sinsplit(g, 1.0)
    r = residual_field(GridFunction.zeros(g),
                       Scheme(g, OperatorSpec.linear_trace(np.eye(1)), 0.0), 0.5, w)
    assert r.sup_norm() == 0.0


def test_residual_analytic_sin():
    # u = sin solves u'' + u = 0 on (0, pi): residual is O(h^2)
    spec = OperatorSpec.linear_trace(np.eye(1))
    sups = []
    for n in (49, 99):
        g = Grid.interval(0.0, np.pi, n)
        u = GridFunction.from_callable(g, np.sin)
        w = WeightField.constant(g, 1.0)
        r = residual_field(u, Scheme(g, spec, 0.0), 1.0, w)
        sups.append(float(np.max(np.abs(g.interior(r.values)))))
        assert sups[-1] <= 1.0 * g.h[0] ** 2
    assert sups[1] <= sups[0] / 3.0


def test_residual_rejects_negative():
    g = Grid.interval(0.0, 1.0, 9)
    vals = np.zeros(g.shape)
    vals[3] = -0.1
    u = GridFunction(g, vals, dirichlet=False)
    sch = Scheme(g, OperatorSpec.linear_trace(np.eye(1)), 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        residual_field(u, sch, 0.5, WeightField.constant(g, 1.0))
    # same shape or not, u must be sampled on the scheme's grid
    for other in (Grid.interval(0.0, 2.0, 9), Grid.interval(0.0, 1.0, 19)):
        with pytest.raises(ValueError, match="problem grid"):
            residual_field(GridFunction.zeros(other), sch, 0.5,
                           WeightField.constant(g, 1.0))


def test_residual_reflection_symmetry():
    g = Grid.interval(0.0, 2.0, 49)
    u = GridFunction.from_callable(g, lambda x: x * (2.0 - x))
    w = WeightField.from_callable(g, lambda x: np.cos(np.pi * (x - 1.0)))
    r = residual_field(u, Scheme(g, OperatorSpec.pucci_plus(1.0, 2.0), 1.0), 0.5, w)
    assert np.allclose(r.values, r.values[::-1], atol=1e-12)


def _deep_zeros(near):
    # the explicit loop's former flush mask on interior arrays: missing
    # neighbours at the edge are boundary nodes, which count as near zero
    m = near.copy()
    if near.ndim == 1:
        m[1:] &= near[:-1]
        m[:-1] &= near[1:]
        return m
    m[1:, :] &= near[:-1, :]
    m[:-1, :] &= near[1:, :]
    m[:, 1:] &= near[:, :-1]
    m[:, :-1] &= near[:, 1:]
    m[1:, 1:] &= near[:-1, :-1]
    m[:-1, :-1] &= near[1:, 1:]
    m[1:, :-1] &= near[:-1, 1:]
    m[:-1, 1:] &= near[1:, :-1]
    return m


@pytest.mark.parametrize("shape", [(1,), (2,), (17,), (1, 1), (2, 5), (9, 7)])
def test_stencil_all_below_on_padded_interior(shape):
    rng = np.random.default_rng(sum(shape))
    for density in (0.5, 0.8, 0.95, 1.0):
        near = rng.random(shape) < density
        padded = np.pad(near, 1, constant_values=True)
        out = _stencil_all_below(padded)
        inner = out[1:-1] if near.ndim == 1 else out[1:-1, 1:-1]
        assert np.array_equal(inner, _deep_zeros(near))
        assert not (out & ~np.pad(np.ones(shape, bool), 1)).any()


def test_weight_decomposition():
    g = Grid.interval(0.0, 2.0, 99)
    w = WeightField.sinsplit(g, 0.7)
    assert np.all(w.a_plus >= 0) and np.all(w.a_minus >= 0)
    assert np.allclose(w.values, w.a_plus - w.a_minus, atol=0)
    # negative-part rescale keeps the positive part untouched
    w2 = w.with_negative_scale(2.0)
    assert np.allclose(w2.a_plus, w.a_plus, atol=0)
    assert np.allclose(w2.a_minus, 2.0 * w.a_minus, rtol=1e-13)


def test_weight_is_a_grid_function_that_keeps_its_boundary():
    # a weight is sampled at every node, the boundary included, where a
    # grid function zeroes its Dirichlet trace; the refusals name the field
    g = Grid.interval(0.0, 2.0, 9)
    w = WeightField.from_callable(g, lambda x: 1.0 + x)
    assert isinstance(w, GridFunction)
    assert np.array_equal(w.values, 1.0 + g.axis(0)) and w.sup_norm() == 3.0
    u = GridFunction.from_callable(g, lambda x: 1.0 + x)
    assert u.values[0] == u.values[-1] == 0.0
    with pytest.raises(ValueError, match="^weight must be finite$"):
        WeightField.constant(g, np.inf)
    with pytest.raises(ValueError, match="^grid function must be finite$"):
        GridFunction(g, np.full(g.shape, np.nan))
    with pytest.raises(ValueError, match="^weight values shape"):
        WeightField(g, np.ones(5))


# --- CSV schema ------------------------------------------------------------

def test_csv_roundtrip_1d(tmp_path):
    g = Grid.interval(-1.0, 2.0, 17)
    u = GridFunction.from_callable(g, lambda x: np.exp(x) * (x + 1.0) * (2.0 - x))
    path = tmp_path / "u.csv"
    write_csv(u, path, comments=("meta = 1",))
    v = read_csv(path)
    assert v.grid.bounds == g.bounds and v.grid.n == g.n
    assert np.allclose(v.values, u.values, atol=0)


@pytest.mark.parametrize("text, reason", [("", "empty file"),
                                          ("# meta = 1\nx,value\n", "no data rows"),
                                          ("x,y,value\n\n", "no data rows")],
                         ids=["empty", "header_only_1d", "header_only_2d"])
def test_read_csv_without_data_names_file(tmp_path, text, reason):
    path = tmp_path / "u.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=reason) as exc:
        read_csv(path)
    assert str(path) in str(exc.value)


def test_csv_roundtrip_2d(tmp_path):
    g = Grid.rectangle(0.0, 1.0, 0.0, 2.0, 5, 7)
    u = GridFunction.from_callable(g, lambda x, y: np.sin(x) * y)
    path = tmp_path / "u2.csv"
    write_csv(u, path)
    v = read_csv(path)
    assert v.grid.n == g.n
    assert np.allclose(v.values, u.values, atol=0)


def test_read_csv_refuses_other_grid(tmp_path):
    # a file sampled on (0, 3) used to be read onto (0, 2) when the node
    # counts matched; coordinates within 1e-9 of the spacing still match
    path = tmp_path / "u.csv"
    write_csv(GridFunction.from_callable(Grid.interval(0.0, 0.3, 9), np.sin), path)
    assert read_csv(path, grid=Grid.interval(0.0, 0.1 * 3, 9)).grid.bounds \
        == ((0.0, 0.1 * 3),)
    g = Grid.interval(0.0, 0.2, 9)
    with pytest.raises(ValueError) as exc:
        read_csv(path, grid=g)
    msg = str(exc.value)
    assert str(path) in msg and repr(g) in msg and "((0.0, 0.3),)" in msg
    with pytest.raises(ValueError, match="not on"):
        read_csv(path, grid=Grid.rectangle(0.0, 0.3, 0.0, 1.0, 9, 3))


def test_read_csv_refuses_other_row_order(tmp_path):
    # the writer's lattice in y-outer row order used to read back
    # scrambled (max error 8 on this field)
    g = Grid.rectangle(0.0, 1.0, 0.0, 2.0, 3, 4)
    X, Y = g.coords()
    u = X + 10.0 * Y
    rows = ["%.17g,%.17g,%.17g" % t for t in zip(X.T.ravel(), Y.T.ravel(), u.T.ravel())]
    path = tmp_path / "u.csv"
    path.write_text("x,y,value\n" + "\n".join(rows) + "\n")
    for grid in (None, g):
        with pytest.raises(ValueError) as exc:
            read_csv(path, grid=grid, dirichlet=False)
        assert str(path) in str(exc.value)
    write_csv(GridFunction(g, u, dirichlet=False), path)
    assert np.array_equal(read_csv(path, dirichlet=False).values, u)


def _reference_step(sch, v):
    """(g F_h, dt) as both relaxation loops spelled it per node before
    explicit_step: the CFL stiffness of the explicit map."""
    dim, Lam, gamma = sch.grid.dim, sch.spec.Lam, sch.gamma
    hmin = min(sch.grid.h)
    h2 = hmin ** 2
    if gamma == 0.0:
        return sch.F(v), 0.9 * h2 / (2.0 * dim * Lam)
    s2 = sum(0.5 * (f * f + b * b) for f, b in sch.one_sided(v)) \
        + sch.delta ** 2
    g = s2 ** (gamma / 2.0)
    Fv = sch.F(v)
    stiff = 2.0 * dim * Lam * np.maximum(g, sch.delta ** gamma) / h2 \
        + 2.0 * gamma * np.abs(Fv) * s2 ** ((gamma - 1.0) / 2.0) / hmin
    return g * Fv, 0.9 / stiff


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0])
def test_explicit_step_matches_reference(dim, gamma):
    rng = np.random.default_rng(23)
    g = Grid.interval(0.0, np.pi, 61) if dim == 1 else \
        Grid.rectangle(0.0, 1.0, 0.0, 1.0, 15, 15)
    # the reference squares delta with **, the scheme with *; the two agree
    # here (they differ in the last bit on a few grids, e.g. n = 680 on
    # (0, pi))
    assert max(g.h) ** 2 == max(g.h) * max(g.h)
    for spec in (OperatorSpec.linear_trace(np.eye(dim)),
                 OperatorSpec.pucci_plus(0.5, 2.0)):
        sch = Scheme(g, spec, gamma)
        for _ in range(5):
            v = GridFunction(g, np.abs(rng.standard_normal(g.shape))).values
            gF, dt = explicit_step(sch, v)
            ref_gF, ref_dt = _reference_step(sch, v)
            assert np.array_equal(gF, ref_gF)
            assert np.array_equal(dt, ref_dt)
            assert np.array_equal(gF, sch.grad_factor(v) * sch.F(v))


@pytest.mark.parametrize("dim", [1, 2])
def test_callable_coefficient_is_sampled_once_per_interior_node(dim):
    # the trace's policy weights are the coefficient diagonal at each node
    g = Grid.interval(0.0, 2.0, 9) if dim == 1 else \
        Grid.rectangle(0.0, 2.0, 0.0, 1.0, 7, 5)
    calls = []

    def coeff(x):
        calls.append(tuple(x))
        a = 1.0 + 0.1 * x[0] + 0.2 * x[-1]
        return [[a]] if dim == 1 else np.diag([a, 2.0 - 0.3 * x[1]])

    weights = Scheme(g, OperatorSpec.linear_trace(coeff, 1.0, 2.0), 0.0) \
        .linearize(GridFunction.zeros(g).values).policy
    nodes = list(np.ndindex(*g.n))
    points = [tuple(g.axis(a)[i[a] + 1] for a in range(dim)) for i in nodes]
    assert calls == points
    for d, name in enumerate(("x", "y")[:dim]):
        assert [weights[name][i] for i in nodes] == \
            [np.diag(np.atleast_2d(coeff(p)))[d] for p in points]
    with pytest.raises(ValueError, match="diagonal"):
        Scheme(Grid.rectangle(0.0, 2.0, 0.0, 1.0, 7, 5),
               OperatorSpec.linear_trace(lambda x: [[1.0, 0.1], [0.1, 1.0]], 1.0, 2.0), 0.0)
    with pytest.raises(ValueError, match="lam I <= A <= Lam I"):
        Scheme(g, OperatorSpec.linear_trace(coeff, 1.0, 1.1), 0.0)


@pytest.mark.parametrize("coeff", [[[1.0, 0.0], [0.5, 1.0]], [[1.0, 0.5], [0.0, 1.0]]],
                         ids=["lower", "upper"])
def test_off_diagonal_coefficient_refused_either_side(coeff):
    # the axis stencil carries no coupling: an entry below the diagonal
    # was dropped without a word while evaluate_operator saw it
    g = Grid.rectangle(0.0, 2.0, 0.0, 1.0, 7, 5)
    with pytest.raises(ValueError, match="diagonal"):
        Scheme(g, OperatorSpec.linear_trace(coeff, lam=1.0, Lam=1.5), 0.0)


# --- the stencil table against the hand-written spellings it replaced -----

_DIRECTIONS = {1: (("x", (1,)),),
               2: (("x", (1, 0)), ("y", (0, 1)), ("d1", (1, 1)), ("d2", (1, -1)))}


def _reference_second_differences(h, v):
    if v.ndim == 1:
        return {"x": (v[2:] - 2 * v[1:-1] + v[:-2]) / h[0] ** 2}
    c = v[1:-1, 1:-1]
    hd2 = h[0] ** 2 + h[1] ** 2
    return {"x": (v[2:, 1:-1] - 2 * c + v[:-2, 1:-1]) / h[0] ** 2,
            "y": (v[1:-1, 2:] - 2 * c + v[1:-1, :-2]) / h[1] ** 2,
            "d1": (v[2:, 2:] - 2 * c + v[:-2, :-2]) / hd2,
            "d2": (v[2:, :-2] - 2 * c + v[:-2, 2:]) / hd2}


def _reference_grad(h, v):
    if v.ndim == 1:
        return ((v[2:] - v[:-2]) / (2 * h[0]),)
    return ((v[2:, 1:-1] - v[:-2, 1:-1]) / (2 * h[0]),
            (v[1:-1, 2:] - v[1:-1, :-2]) / (2 * h[1]))


def _reference_one_sided(h, v):
    if v.ndim == 1:
        return (((v[2:] - v[1:-1]) / h[0], (v[1:-1] - v[:-2]) / h[0]),)
    c = v[1:-1, 1:-1]
    return (((v[2:, 1:-1] - c) / h[0], (c - v[:-2, 1:-1]) / h[0]),
            ((v[1:-1, 2:] - c) / h[1], (c - v[1:-1, :-2]) / h[1]))


def _reference_cross_difference(h, v):
    hx, hy = h
    return (v[2:, 2:] + v[:-2, :-2] - v[2:, :-2] - v[:-2, 2:]) / (4 * hx * hy)


def _reference_stencil_all_below(near):
    out = np.zeros_like(near)
    if near.ndim == 1:
        out[1:-1] = near[1:-1] & near[:-2] & near[2:]
        return out
    out[1:-1, 1:-1] = (near[1:-1, 1:-1] & near[:-2, 1:-1] & near[2:, 1:-1]
                       & near[1:-1, :-2] & near[1:-1, 2:] & near[:-2, :-2]
                       & near[2:, 2:] & near[:-2, 2:] & near[2:, :-2])
    return out


def _reference_boundary_margin(h, v):
    if v.ndim == 1:
        return float(min((v[1] - v[0]) / h[0], (v[-2] - v[-1]) / h[0]))
    quots = [
        (v[1, 1:-1] - v[0, 1:-1]) / h[0], (v[-2, 1:-1] - v[-1, 1:-1]) / h[0],
        (v[1:-1, 1] - v[1:-1, 0]) / h[1], (v[1:-1, -2] - v[1:-1, -1]) / h[1],
    ]
    return float(min(np.min(q) for q in quots))


def _reference_distance_to_boundary(g):
    if g.dim == 1:
        x = g.axis(0)
        lo, hi = g.bounds[0]
        return np.minimum(x - lo, hi - x)
    X, Y = np.meshgrid(g.axis(0), g.axis(1), indexing="ij")
    (xlo, xhi), (ylo, yhi) = g.bounds
    return np.minimum.reduce([X - xlo, xhi - X, Y - ylo, yhi - Y])


def _reference_zero_boundary(v):
    if v.ndim == 1:
        v[0] = v[-1] = 0.0
    else:
        v[0, :] = v[-1, :] = 0.0
        v[:, 0] = v[:, -1] = 0.0


def _reference_policy_matrix(sch, w):
    """(offsets, outside, A = -L_w) as PolicyMatrix built them from node
    coordinates."""
    g = sch.grid
    n = np.array(g.n)
    size = int(np.prod(n))
    strides = np.array((n[1], 1) if g.dim == 2 else (1,))
    steps = [(name, np.array(step)) for name, step in _DIRECTIONS[g.dim]
             if name in sch.directions]
    vecs = [np.zeros(g.dim, dtype=int)]
    for _, step in steps:
        vecs += [step, -step]
    vecs.sort(key=lambda o: int(o @ strides))
    offsets = [int(o @ strides) for o in vecs]
    node = np.indices(tuple(n)).reshape(g.dim, size)
    outside = np.array([np.any((node + o[:, None] < 0)
                               | (node + o[:, None] >= n[:, None]), axis=0)
                        for o in vecs])
    A = np.zeros((len(vecs), size))
    c = offsets.index(0)
    for name, step in steps:
        he2 = float(sum((s * hk) ** 2 for s, hk in zip(step, g.h)))
        off = int(step @ strides)
        jp, jm = offsets.index(off), offsets.index(-off)
        wd = w[name].ravel()
        np.subtract(0.0, wd * (~outside[jp] / he2), out=A[jp])
        np.subtract(0.0, wd * (~outside[jm] / he2), out=A[jm])
        A[c] -= wd * (-2.0 / he2)
    return offsets, outside, A


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _square(nx, ny):
    # cells of side 1/8 exactly, as the 2-D Pucci stencil needs
    return Grid.rectangle(0.0, (nx + 1) / 8, 0.0, (ny + 1) / 8, nx, ny)


TABLE_GRIDS = {"3": Grid.interval(0.0, 2.0, 3), "4": Grid.interval(-1.0, 2.0, 4),
               "199": Grid.interval(0.0, np.pi, 199), "3x3": _square(3, 3),
               "4x3": _square(4, 3), "59x29": _square(59, 29),
               "29x59": _square(29, 59),
               "19x9-rect": Grid.rectangle(0.0, 2.0, 0.0, 1.5, 19, 9)}


@pytest.mark.parametrize("g", TABLE_GRIDS.values(), ids=TABLE_GRIDS)
def test_stencil_table_matches_reference_spellings(g):
    rng = np.random.default_rng(g.n[0] + 10 * g.n[-1])
    near_at = (0.3, 0.9, 1.0)
    for spec in _accepted_specs(g.dim):
        try:
            sch = Scheme(g, spec, 1.0)
        except ValueError:      # Pucci on the rectangular cells
            assert spec.variant.startswith("pucci") and g.h[0] != g.h[-1]
            continue
        for density in near_at:
            v = rng.standard_normal(g.shape)
            k, ref = sch.second_differences(v), _reference_second_differences(g.h, v)
            assert list(k) == list(ref)
            assert all(_same(k[d], ref[d]) for d in ref)
            assert all(_same(a, b) for a, b in zip(sch.grad(v), _reference_grad(g.h, v)))
            pairs = zip(sch.one_sided(v), _reference_one_sided(g.h, v))
            assert all(_same(a[0], b[0]) and _same(a[1], b[1]) for a, b in pairs)
            if g.dim == 2:
                assert _same(sch.cross_difference(v),
                             _reference_cross_difference(g.h, v))
            near = rng.random(g.shape) < density
            assert _same(_stencil_all_below(near), _reference_stencil_all_below(near))
            u = GridFunction(g, v, dirichlet=False)
            assert _same(_boundary_margin(u), _reference_boundary_margin(g.h, v))
            zeroed, ref = v.copy(), v.copy()
            _zero_boundary(zeroed)
            _reference_zero_boundary(ref)
            assert _same(zeroed, ref)
            op = PolicyMatrix(sch)
            w = sch.linearize(v).policy
            offsets, outside, A = _reference_policy_matrix(sch, w)
            assert op.offsets == offsets and _same(op.outside, outside)
            assert _same(op.set_policy(w), A)
    assert _same(g.distance_to_boundary(), _reference_distance_to_boundary(g))


@pytest.mark.parametrize("grid", [Grid.interval(0.0, 1.0, 9),
                                  Grid.rectangle(0.0, 1.0, 0.0, 1.0, 7, 7)],
                         ids=["1d", "2d"])
def test_custom_operator_has_no_grid_scheme(grid):
    # the refusal names the reason, where it used to speak of the 2-D
    # p-Laplacian in 1-D too
    sch = Scheme(grid, OperatorSpec.custom(lambda x, X: float(np.trace(X))), 0.0)
    with pytest.raises(ValueError, match=r"^a custom F has no grid scheme$"):
        sch.require_policy()
