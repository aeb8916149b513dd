"""Auxiliary Dirichlet problems with prescribed right-hand side."""

import numpy as np
import pytest

from deadcore import (Grid, GridFunction, OperatorSpec, IterationControl,
                      RhsProblem, SolveError, solve_rhs, sup_norm)
from deadcore.dirichlet import PolicyMatrix
from deadcore.grids import Scheme


def _const_rhs(grid, c):
    return GridFunction(grid, np.full(grid.shape, float(c)), dirichlet=False)


def test_linear_poisson_parabola():
    # u'' = -2 on (0,1): u = x(1-x)
    g = Grid.interval(0.0, 1.0, 99)
    p = RhsProblem(g, OperatorSpec.linear_trace(np.eye(1)), 0.0, _const_rhs(g, -2.0))
    rep = solve_rhs(p, IterationControl(tolerance=1e-10))
    assert rep.converged
    x = g.axis(0)
    assert np.max(np.abs(rep.solution.values - x * (1.0 - x))) <= 1e-9


def test_zero_rhs_zero_solution():
    g = Grid.interval(0.0, 1.0, 19)
    p = RhsProblem(g, OperatorSpec.linear_trace(np.eye(1)), 0.0, _const_rhs(g, 0.0))
    rep = solve_rhs(p)
    assert rep.converged and sup_norm(rep.solution) == 0.0


def test_degenerate_profile_against_ode_oracle():
    # |u'| u'' = -1 on (0,1).  By symmetry u'(1/2)=0 and (u'^2)' = -2 on the
    # left half, so u(x) = (1 - (1-2x)^(3/2)) / 3 there; u(1/2) = 1/3.
    g = Grid.interval(0.0, 1.0, 199)
    p = RhsProblem(g, OperatorSpec.pucci_plus(1.0, 1.0), 1.0, _const_rhs(g, -1.0))
    ctl = IterationControl(tolerance=1e-8, max_steps=2_000_000)
    rep = solve_rhs(p, ctl)
    assert rep.converged
    x = g.axis(0)
    left = x <= 0.5
    exact = (1.0 - (1.0 - 2.0 * x[left]) ** 1.5) / 3.0
    err = np.max(np.abs(rep.solution.values[left] - exact))
    assert err <= 5e-3  # first-order accuracy near the degenerate midpoint
    mid = rep.solution.values[(len(x) - 1) // 2]
    assert mid == pytest.approx(1.0 / 3.0, abs=2e-3)
    # symmetric concave profile
    assert np.allclose(rep.solution.values, rep.solution.values[::-1], atol=1e-5)


def test_comparison_property():
    rng = np.random.default_rng(31)
    g = Grid.interval(0.0, 1.0, 49)
    spec = OperatorSpec.linear_trace(np.eye(1))
    ctl = IterationControl(tolerance=1e-10)
    for _ in range(3):
        base = -np.abs(rng.standard_normal(g.shape)) - 0.1
        f1 = GridFunction(g, base, dirichlet=False)
        f2 = GridFunction(g, base + np.abs(rng.standard_normal(g.shape)),
                          dirichlet=False)
        u1 = solve_rhs(RhsProblem(g, spec, 0.0, f1), ctl).solution
        u2 = solve_rhs(RhsProblem(g, spec, 0.0, f2), ctl).solution
        assert np.all(u1.values >= u2.values - 2e-10)


def test_sign_property():
    g = Grid.interval(0.0, 1.0, 49)
    f = _const_rhs(g, -1.0)
    rep = solve_rhs(RhsProblem(g, OperatorSpec.pucci_minus(1.0, 2.0), 0.0, f),
                    IterationControl(tolerance=1e-9))
    assert rep.converged
    assert np.min(g.interior(rep.solution.values)) > 0


def test_homogeneity_transfer():
    # scaling f by t^(gamma+1) scales the solution by t ((F2) consequence);
    # at the discrete level the delta = h gradient regularization is not
    # homogeneous, so the defect is only O(h^2)-small and must shrink
    # under refinement
    spec = OperatorSpec.pucci_plus(1.0, 1.0)
    ctl = IterationControl(tolerance=1e-9, max_steps=4_000_000)
    t = 2.0
    defects = []
    for n in (99, 199):
        g = Grid.interval(0.0, 1.0, n)
        u1 = solve_rhs(RhsProblem(g, spec, 1.0, _const_rhs(g, -1.0)),
                       ctl).solution
        u2 = solve_rhs(RhsProblem(g, spec, 1.0, _const_rhs(g, -t ** 2.0)),
                       ctl).solution
        defects.append(np.max(np.abs(u2.values - t * u1.values)))
    assert defects[0] <= 3e-4
    assert defects[1] <= 0.5 * defects[0]


def test_max_steps_partial_report():
    g = Grid.interval(0.0, 1.0, 49)
    p = RhsProblem(g, OperatorSpec.pucci_plus(1.0, 1.0), 1.0, _const_rhs(g, -1.0))
    rep = solve_rhs(p, IterationControl(tolerance=1e-12, max_steps=10))
    assert not rep.converged and rep.steps == 10
    assert np.all(np.isfinite(rep.solution.values))


def test_sup_norm_homogeneity():
    g = Grid.interval(0.0, np.pi, 49)
    u = GridFunction.from_callable(g, np.sin)
    assert sup_norm(GridFunction.zeros(g)) == 0.0
    assert sup_norm(u) <= 1.0
    assert sup_norm(GridFunction(g, 3.0 * u.values)) == 3.0 * sup_norm(u)


def test_control_validation():
    with pytest.raises(ValueError):
        IterationControl(tolerance=0.0)
    with pytest.raises(ValueError):
        IterationControl(safety=1.5)
    with pytest.raises(ValueError):
        IterationControl(method="implicit")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_residual_stops_at_once():
    # the update overflows within a few steps; the loop must name the step
    # instead of relaxing NaN until max_steps
    g = Grid.interval(0.0, 1.0, 49)
    p = RhsProblem(g, OperatorSpec.linear_trace(np.eye(1)), 1.0,
                   _const_rhs(g, -1e300))
    with pytest.raises(SolveError, match="non-finite residual at step"):
        solve_rhs(p, IterationControl(max_steps=20_000))


# --- Howard policy iteration (gamma = 0, trace / Pucci / Bellman) ----------

def _policy_specs(dim):
    fam = (np.eye(dim), 2.0 * np.eye(dim))
    return (OperatorSpec.pucci_plus(1.0, 2.0), OperatorSpec.pucci_minus(1.0, 2.0),
            OperatorSpec.hjb_inf(fam, 1.0, 2.0), OperatorSpec.hjb_sup(fam, 1.0, 2.0))


def _grid(dim):
    return Grid.interval(0.0, 2.0, 39) if dim == 1 else \
        Grid.rectangle(0.0, 2.0, 0.0, 1.0, 19, 9)


@pytest.mark.parametrize("dim", [1, 2])
def test_policy_matrix_is_the_scheme(dim):
    # -A u == F_h(u) at the active policy of u, up to round-off
    rng = np.random.default_rng(41)
    g = _grid(dim)
    for spec in _policy_specs(dim) + (OperatorSpec.linear_trace(np.eye(dim)),):
        sch = Scheme(g, spec, 0.0)
        op = PolicyMatrix(sch)
        for _ in range(3):
            v = GridFunction(g, rng.standard_normal(g.shape)).values
            A = op.set_policy(sch.policy(v))
            F = sch.F(v)
            got = -(A @ g.interior(v).ravel()).reshape(F.shape)
            assert np.max(np.abs(got - F)) <= 1e-13 * np.max(np.abs(F))
            d = rng.random(A.shape[0])
            M = op.shifted(d)
            assert np.array_equal(M.diagonal(), A.diagonal() + d)
            off = [X.toarray() for X in (M, A)]
            for X in off:
                np.fill_diagonal(X, 0.0)
            assert np.array_equal(off[0], off[1])


@pytest.mark.parametrize("dim", [1, 2])
def test_howard_solve_rhs_parity(dim):
    # Howard against the explicit loop: same solution within 2 * tol, in a
    # handful of policy evaluations
    g = _grid(dim)
    rng = np.random.default_rng(43)
    f = GridFunction(g, -np.abs(rng.standard_normal(g.shape)) + 0.3,
                     dirichlet=False)
    tol = 1e-9
    for spec in _policy_specs(dim):
        p = RhsProblem(g, spec, 0.0, f)
        howard = solve_rhs(p, IterationControl(tolerance=tol))
        explicit = solve_rhs(p, IterationControl(tolerance=tol, method="explicit"))
        assert howard.converged and explicit.converged
        assert howard.residual_sup <= tol
        assert howard.steps <= 8 < explicit.steps
        diff = np.max(np.abs(howard.solution.values - explicit.solution.values))
        assert diff <= 2 * tol


def test_howard_policy_evaluations_capped():
    # a dozen policy evaluations at most (the explicit loop takes O(n^2)
    # steps), and u0 seeds the first policy
    for spec in _policy_specs(2):
        steps = []
        for n in (19, 39, 79):
            g = Grid.rectangle(0.0, 2.0, 0.0, 1.0, n, n // 2)
            rep = solve_rhs(RhsProblem(g, spec, 0.0, _const_rhs(g, -1.0)))
            assert rep.converged
            steps.append(rep.steps)
        assert max(steps) <= 12
        warm = solve_rhs(RhsProblem(g, spec, 0.0, _const_rhs(g, -1.0)),
                         u0=rep.solution)
        assert warm.converged and warm.steps == 1


def test_howard_comparison_property():
    # f1 <= f2 gives u1 >= u2 on the policy path (2-D wide stencil)
    rng = np.random.default_rng(47)
    g = Grid.rectangle(0.0, 2.0, 0.0, 1.0, 23, 11)
    ctl = IterationControl(tolerance=1e-10)
    for spec in _policy_specs(2):
        base = -np.abs(rng.standard_normal(g.shape)) - 0.1
        f1 = GridFunction(g, base, dirichlet=False)
        f2 = GridFunction(g, base + np.abs(rng.standard_normal(g.shape)),
                          dirichlet=False)
        u1 = solve_rhs(RhsProblem(g, spec, 0.0, f1), ctl).solution
        u2 = solve_rhs(RhsProblem(g, spec, 0.0, f2), ctl).solution
        assert np.all(u1.values >= u2.values - 2e-10)


def test_howard_max_steps_partial_report():
    g = Grid.rectangle(0.0, 2.0, 0.0, 1.0, 19, 9)
    p = RhsProblem(g, OperatorSpec.pucci_plus(1.0, 2.0), 0.0, _const_rhs(g, 1.0))
    rep = solve_rhs(p, IterationControl(max_steps=1))
    assert not rep.converged and rep.steps == 1
    assert np.all(np.isfinite(rep.solution.values))
