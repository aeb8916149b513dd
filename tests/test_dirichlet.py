"""Auxiliary Dirichlet problems with prescribed right-hand side."""

import numpy as np
import pytest

from deadcore import (Grid, GridFunction, OperatorSpec, IterationControl,
                      RhsProblem, SolveError, solve_rhs, sup_norm)
from deadcore.dirichlet import PolicyMatrix
from deadcore.grids import Scheme
from reference import _relax_rhs


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


def test_p_laplacian_where_linear():
    # the 1-D p-Laplacian is (p - 1) u'' and the 2-D one at p = 2 the
    # Laplacian: one policy, so Newton takes one sparse solve at gamma = 0
    g = Grid.interval(0.0, 1.0, 49)
    rep = solve_rhs(RhsProblem(g, OperatorSpec.p_laplacian(3.0), 0.0,
                               _const_rhs(g, -1.0)), IterationControl(tolerance=1e-10))
    assert rep.converged and rep.steps == 1
    x = g.axis(0)
    assert np.max(np.abs(rep.solution.values - x * (1.0 - x) / 4.0)) <= 1e-12
    g = Grid.rectangle(0.0, 2.0, 0.0, 1.0, 19, 9)
    for gamma in (0.0, 1.0):
        rep = solve_rhs(RhsProblem(g, OperatorSpec.p_laplacian(2.0), gamma,
                                   _const_rhs(g, -1.0)))
        assert rep.converged and rep.steps <= (1 if gamma == 0.0 else 20)


def test_max_steps_partial_report():
    g = Grid.interval(0.0, 1.0, 49)
    p = RhsProblem(g, OperatorSpec.pucci_plus(1.0, 1.0), 1.0, _const_rhs(g, -1.0))
    # Newton reaches 1e-13 in 10 steps here; 5 leave it short
    rep = solve_rhs(p, IterationControl(tolerance=1e-12, max_steps=5))
    assert not rep.converged and rep.steps == 5
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


def _accepted_specs(dim):
    # every operator the solvers accept on a dim-D grid
    specs = _policy_specs(dim) + (OperatorSpec.linear_trace(np.eye(dim)),
                                  OperatorSpec.p_laplacian(2.0))
    return specs + (OperatorSpec.p_laplacian(3.0),) if dim == 1 else specs


def _grid(dim):
    return Grid.interval(0.0, 2.0, 39) if dim == 1 else \
        Grid.rectangle(0.0, 2.0, 0.0, 1.0, 19, 9)


@pytest.mark.parametrize("dim", [1, 2])
def test_policy_matrix_is_the_scheme(dim):
    # -A u == F_h(u) at the active policy of u, up to round-off
    rng = np.random.default_rng(41)
    g = _grid(dim)
    for spec in _accepted_specs(dim):
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
def test_policy_matrices_are_m_matrices(dim):
    # the monotonicity every solver relies on: at the active policy of a
    # random field, diagonal > 0, off-diagonals <= 0 and row sums >= 0
    # (0 up to the rounding of the summed diagonal away from the boundary)
    rng = np.random.default_rng(67)
    g = _grid(dim)
    for spec in _accepted_specs(dim):
        sch = Scheme(g, spec, 0.0)
        sch.require_policy()
        op = PolicyMatrix(sch)
        for _ in range(5):
            v = rng.standard_normal(g.shape) * 10.0 ** rng.integers(-3, 4)
            A = op.set_policy(sch.policy(v)).toarray()
            d = np.diag(A).copy()
            np.fill_diagonal(A, 0.0)
            assert np.all(d > 0) and np.all(A <= 0)
            assert np.all(d + A.sum(axis=1) >= -4 * np.finfo(float).eps * d)


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
        explicit = _relax_rhs(p, IterationControl(tolerance=tol), None)
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


# --- Newton-Howard for gamma > 0 -------------------------------------------

def _newton_specs(dim):
    fam = (np.eye(dim), 2.0 * np.eye(dim))
    return (OperatorSpec.linear_trace(np.eye(dim)),
            OperatorSpec.pucci_plus(1.0, 2.0), OperatorSpec.hjb_inf(fam, 1.0, 2.0))


@pytest.mark.parametrize("dim,gamma", [(1, 0.5), (1, 1.0), (1, 2.0), (2, 1.0)])
def test_newton_solve_rhs_parity(dim, gamma):
    # Newton against the explicit loop on a sign-changing right-hand side:
    # the same root within 2 * tol, in a few dozen sparse solves at most
    g = Grid.interval(0.0, 2.0, 49) if dim == 1 else _grid(2)
    rng = np.random.default_rng(53)
    f = GridFunction(g, -np.abs(rng.standard_normal(g.shape)) + 0.3,
                     dirichlet=False)
    tol = 1e-9
    for spec in _newton_specs(dim):
        p = RhsProblem(g, spec, gamma, f)
        newton = solve_rhs(p, IterationControl(tolerance=tol))
        explicit = _relax_rhs(p, IterationControl(tolerance=tol), None)
        assert newton.converged and explicit.converged
        assert newton.residual_sup <= tol
        assert newton.steps <= 25 < explicit.steps
        diff = np.max(np.abs(newton.solution.values - explicit.solution.values))
        assert diff <= 2 * tol


def test_newton_steps_do_not_follow_the_grid():
    # the first step from 0 overshoots by about delta^-gamma, so the count
    # grows like log n, not like the explicit loop's n^2
    for spec in _newton_specs(1):
        for n in (49, 99, 199, 399, 799):
            g = Grid.interval(0.0, 2.0, n)
            rep = solve_rhs(RhsProblem(g, spec, 1.0, _const_rhs(g, -1.0)))
            assert rep.converged and rep.steps <= 20


def test_newton_comparison_property():
    # f1 <= f2 <= 0 gives u1 >= u2 at gamma = 1
    rng = np.random.default_rng(59)
    ctl = IterationControl(tolerance=1e-10)
    for g in (Grid.interval(0.0, 1.0, 49), _grid(2)):
        for spec in _newton_specs(g.dim):
            base = -np.abs(rng.standard_normal(g.shape)) - 0.1
            f2 = np.minimum(base + np.abs(rng.standard_normal(g.shape)), 0.0)
            u1, u2 = (solve_rhs(RhsProblem(g, spec, 1.0,
                                           GridFunction(g, f, dirichlet=False)),
                                ctl).solution for f in (base, f2))
            assert np.all(u1.values >= u2.values - 2e-10)


def test_newton_stall_stop():
    # a tolerance below the floating-point floor: Newton settles near
    # 1e-13 and stops after NEWTON_STALL solves without a new low instead
    # of spending the budget
    g = Grid.interval(0.0, 1.0, 49)
    p = RhsProblem(g, OperatorSpec.pucci_plus(1.0, 1.0), 1.0, _const_rhs(g, -1.0))
    rep = solve_rhs(p, IterationControl(tolerance=1e-30, max_steps=40))
    assert not rep.converged and rep.steps <= 20
    assert rep.residual_sup <= 1e-12


def test_newton_floor_stop_1d():
    # n = 3199: the residual's rounding floor (about 2.5e-8) lies above the
    # default tolerance; the solve returns converged=False within a few
    # dozen solves (it used to relax explicitly to max_steps)
    g = Grid.interval(0.0, 2.0, 3199)
    p = RhsProblem(g, OperatorSpec.linear_trace(np.eye(1)), 1.0,
                   _const_rhs(g, -30.0))
    rep = solve_rhs(p, IterationControl(max_steps=2000))
    assert not rep.converged and rep.steps <= 100
    assert rep.residual_sup <= 1e-7


def test_rhs_on_another_grid_refused():
    # same shape or not, f must be sampled on the problem's grid
    g = Grid.interval(0.0, 1.0, 19)
    spec = OperatorSpec.linear_trace(np.eye(1))
    for other in (Grid.interval(0.0, 2.0, 19), Grid.interval(0.0, 1.0, 39)):
        with pytest.raises(ValueError, match="problem grid"):
            RhsProblem(g, spec, 0.0, _const_rhs(other, -1.0))

