"""Grids, discrete calculus, residuals, and the CSV schema."""

import numpy as np
import pytest

from deadcore import (Grid, GridFunction, WeightField, OperatorSpec,
                      gradient, discrete_hessian, discrete_F,
                      residual_field, write_csv, read_csv)
from deadcore.grids import Scheme


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


def test_gridfunction_dirichlet_trace():
    g = Grid.interval(0.0, 1.0, 9)
    u = GridFunction.from_callable(g, lambda x: x + 1.0)
    assert u.values[0] == 0.0 and u.values[-1] == 0.0
    with pytest.raises(ValueError):
        GridFunction(g, np.full(g.shape, np.nan))


# --- pointwise calculus --------------------------------------------------

def test_gradient_linear_exact():
    g = Grid.interval(0.0, 1.0, 19)
    u = GridFunction.from_callable(g, lambda x: x, dirichlet=False)
    assert gradient(u, 7)[0] == pytest.approx(1.0, abs=1e-14)


def test_gradient_quadratic_centered():
    g = Grid.interval(0.0, 1.0, 19)
    u = GridFunction.from_callable(g, lambda x: x ** 2, dirichlet=False)
    i = 10  # node at x = 0.5
    assert g.axis(0)[i] == pytest.approx(0.5)
    assert gradient(u, i)[0] == pytest.approx(1.0, abs=1e-13)


def test_gradient_sin_second_order():
    errs = []
    for n, i in ((49, 16), (99, 32)):
        # same physical point x = 16 pi / 50 on both grids, away from
        # x = pi/2 where the leading error term u''' = -cos vanishes
        g = Grid.interval(0.0, np.pi, n)
        u = GridFunction.from_callable(g, np.sin)
        x = g.axis(0)[i]
        errs.append(abs(gradient(u, i)[0] - np.cos(x)))
    # Taylor remainder h^2/6 |u'''|: halving h divides the error by ~4
    assert errs[1] <= errs[0] / 3.0


def test_gradient_rejects_boundary():
    g = Grid.interval(0.0, 1.0, 9)
    u = GridFunction.zeros(g)
    with pytest.raises(ValueError):
        gradient(u, 0)


def test_second_difference_quadratic():
    g = Grid.interval(0.0, 1.0, 9)
    u = GridFunction.from_callable(g, lambda x: x ** 2, dirichlet=False)
    assert discrete_hessian(u, 4)["x"] == pytest.approx(2.0, abs=1e-12)


def test_second_difference_diagonal_2d():
    g = Grid.rectangle(0.0, 1.0, 0.0, 1.0, 9, 9)
    u = GridFunction.from_callable(g, lambda x, y: x * y, dirichlet=False)
    d = discrete_hessian(u, (4, 4))
    # u_xy = 1: along e=(1,1)/sqrt2 the directional second derivative is 1
    assert d["d1"] == pytest.approx(1.0, abs=1e-12)
    assert d["d2"] == pytest.approx(-1.0, abs=1e-12)


def test_second_difference_sin_sin():
    g = Grid.rectangle(0.0, np.pi, 0.0, np.pi, 39, 39)
    u = GridFunction.from_callable(g, lambda x, y: np.sin(x) * np.sin(y))
    i, j = 20, 20
    x, y = g.axis(0)[i], g.axis(1)[j]
    d = discrete_hessian(u, (i, j))
    assert d["x"] == pytest.approx(-np.sin(x) * np.sin(y), abs=5 * g.h[0] ** 2)
    # directional second derivative along (1,1)/sqrt2 of sin sin
    exact = 0.5 * (-2.0 * np.sin(x) * np.sin(y) + 2.0 * np.cos(x) * np.cos(y))
    assert d["d1"] == pytest.approx(exact, abs=5 * g.h[0] ** 2)


def test_discrete_F_examples():
    g = Grid.interval(0.0, 1.0, 9)
    u = GridFunction.from_callable(g, lambda x: x ** 2, dirichlet=False)
    spec = OperatorSpec.linear_trace(np.eye(1))
    assert discrete_F(spec, u, 5) == pytest.approx(2.0, abs=1e-12)

    r = Grid.rectangle(0.0, 1.0, 0.0, 1.0, 19, 19)
    saddle = GridFunction.from_callable(r, lambda x, y: 0.5 * (x ** 2 - y ** 2),
                                        dirichlet=False)
    got = discrete_F(OperatorSpec.pucci_plus(1.0, 2.0), saddle, (10, 10))
    # exact Hessian diag(1,-1): M+ = 2*1 + 1*(-1) = 1
    assert got == pytest.approx(1.0, abs=1e-10)


def test_discrete_F_affine_kernel():
    g = Grid.rectangle(0.0, 1.0, 0.0, 1.0, 9, 9)
    u = GridFunction.from_callable(g, lambda x, y: 0.3 * x - 0.7 * y + 0.1,
                                   dirichlet=False)
    for spec in (OperatorSpec.linear_trace(np.eye(2)),
                 OperatorSpec.pucci_plus(1.0, 2.0),
                 OperatorSpec.pucci_minus(0.5, 1.5)):
        assert abs(discrete_F(spec, u, (4, 6))) <= 1e-12


def test_scheme_degenerate_ellipticity_randomized():
    # raising any single neighbor value never decreases F at the center
    rng = np.random.default_rng(21)
    g = Grid.rectangle(0.0, 1.0, 0.0, 1.0, 7, 7)
    specs = (OperatorSpec.pucci_plus(0.5, 2.0),
             OperatorSpec.pucci_minus(0.5, 2.0),
             OperatorSpec.linear_trace(np.eye(2)),
             OperatorSpec.hjb_inf((np.eye(2), np.diag([2.0, 1.0])), 1.0, 2.0))
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


@pytest.mark.parametrize("dim", [1, 2])
def test_scheme_policy_reproduces_F(dim):
    # F(v) == sum_d w_d k_d exactly at the active policy, and the policy
    # is deterministic (an all-tied field gets the same weights twice)
    rng = np.random.default_rng(22)
    g = Grid.interval(0.0, 1.0, 9) if dim == 1 else \
        Grid.rectangle(0.0, 1.0, 0.0, 1.0, 7, 7)
    fam = (np.eye(dim), np.diag([2.0, 1.0][:dim]), 1.5 * np.eye(dim))
    specs = (OperatorSpec.pucci_plus(0.5, 2.0),
             OperatorSpec.pucci_minus(0.5, 2.0),
             OperatorSpec.linear_trace(np.eye(dim)),
             OperatorSpec.hjb_inf(fam, 1.0, 2.0),
             OperatorSpec.hjb_sup(fam, 1.0, 2.0))
    for spec in specs:
        sch = Scheme(g, spec, 0.0)
        for v in [rng.standard_normal(g.shape) for _ in range(10)] + \
                [np.zeros(g.shape)]:
            w = sch.policy(v)
            assert set(w) == set(sch.directions)
            k = sch.second_differences(v)
            total = w["x"] * k["x"]
            for name in sch.directions[1:]:
                total = total + w[name] * k[name]
            assert np.array_equal(total, sch.F(v))
        w0, w1 = sch.policy(np.zeros(g.shape)), sch.policy(np.zeros(g.shape))
        assert all(np.array_equal(w0[d], w1[d]) for d in w0)


def test_residual_zero_field():
    g = Grid.interval(0.0, 1.0, 9)
    w = WeightField.sinsplit(g, 1.0)
    r = residual_field(GridFunction.zeros(g), OperatorSpec.linear_trace(np.eye(1)),
                       0.0, 0.5, w)
    assert r.sup_norm() == 0.0


def test_residual_analytic_sin():
    # u = sin solves u'' + u = 0 on (0, pi): residual is O(h^2)
    spec = OperatorSpec.linear_trace(np.eye(1))
    sups = []
    for n in (49, 99):
        g = Grid.interval(0.0, np.pi, n)
        u = GridFunction.from_callable(g, np.sin)
        w = WeightField.constant(g, 1.0)
        r = residual_field(u, spec, 0.0, 1.0, w)
        sups.append(float(np.max(np.abs(g.interior(r.values)))))
        assert sups[-1] <= 1.0 * g.h[0] ** 2
    assert sups[1] <= sups[0] / 3.0


def test_residual_rejects_negative():
    g = Grid.interval(0.0, 1.0, 9)
    vals = np.zeros(g.shape)
    vals[3] = -0.1
    u = GridFunction(g, vals, dirichlet=False)
    with pytest.raises(ValueError):
        residual_field(u, OperatorSpec.linear_trace(np.eye(1)), 0.0, 0.5,
                       WeightField.constant(g, 1.0))


def test_residual_reflection_symmetry():
    g = Grid.interval(0.0, 2.0, 49)
    u = GridFunction.from_callable(g, lambda x: x * (2.0 - x))
    w = WeightField.from_callable(g, lambda x: np.cos(np.pi * (x - 1.0)))
    r = residual_field(u, OperatorSpec.pucci_plus(1.0, 2.0), 1.0, 0.5, w)
    assert np.allclose(r.values, r.values[::-1], atol=1e-12)


def test_weight_decomposition():
    g = Grid.interval(0.0, 2.0, 99)
    w = WeightField.sinsplit(g, 0.7)
    assert np.all(w.a_plus >= 0) and np.all(w.a_minus >= 0)
    assert np.allclose(w.samples, w.a_plus - w.a_minus, atol=0)
    assert w.sign_changing
    # negative-part rescale keeps the positive part untouched
    w2 = w.with_negative_scale(2.0)
    assert np.allclose(w2.a_plus, w.a_plus, atol=0)
    assert np.allclose(w2.a_minus, 2.0 * w.a_minus, rtol=1e-13)


# --- CSV schema ------------------------------------------------------------

def test_csv_roundtrip_1d(tmp_path):
    g = Grid.interval(-1.0, 2.0, 17)
    u = GridFunction.from_callable(g, lambda x: np.exp(x) * (x + 1.0) * (2.0 - x))
    path = tmp_path / "u.csv"
    write_csv(u, path, comments=("meta = 1",))
    v = read_csv(path)
    assert v.grid.bounds == g.bounds and v.grid.n == g.n
    assert np.allclose(v.values, u.values, atol=0)


def test_csv_roundtrip_2d(tmp_path):
    g = Grid.rectangle(0.0, 1.0, 0.0, 2.0, 5, 7)
    u = GridFunction.from_callable(g, lambda x, y: np.sin(x) * y)
    path = tmp_path / "u2.csv"
    write_csv(u, path)
    v = read_csv(path)
    assert v.grid.n == g.n
    assert np.allclose(v.values, u.values, atol=0)
