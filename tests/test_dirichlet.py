"""Auxiliary Dirichlet problems with prescribed right-hand side."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from deadcore import (Grid, GridFunction, OperatorSpec, IterationControl,
                      SolveError, solve_rhs)
from deadcore.dirichlet import PolicyMatrix
from deadcore.grids import Linearization, Scheme
from reference import _relax_rhs, newton_rebuild


def _const_rhs(grid, c):
    return GridFunction(grid, np.full(grid.shape, float(c)), dirichlet=False)


def test_linear_poisson_parabola():
    # u'' = -2 on (0,1): u = x(1-x)
    g = Grid.interval(0.0, 1.0, 99)
    sch = Scheme(g, OperatorSpec.linear_trace(np.eye(1)), 0.0)
    f = _const_rhs(g, -2.0)
    rep = solve_rhs(sch, f, IterationControl(tolerance=1e-10))
    assert rep.converged
    x = g.axis(0)
    assert np.max(np.abs(rep.solution.values - x * (1.0 - x))) <= 1e-9


def test_zero_rhs_zero_solution():
    g = Grid.interval(0.0, 1.0, 19)
    sch = Scheme(g, OperatorSpec.linear_trace(np.eye(1)), 0.0)
    f = _const_rhs(g, 0.0)
    rep = solve_rhs(sch, f)
    assert rep.converged and rep.solution.sup_norm() == 0.0


def test_degenerate_profile_against_ode_oracle():
    # |u'| u'' = -1 on (0,1).  By symmetry u'(1/2)=0 and (u'^2)' = -2 on the
    # left half, so u(x) = (1 - (1-2x)^(3/2)) / 3 there; u(1/2) = 1/3.
    g = Grid.interval(0.0, 1.0, 199)
    sch = Scheme(g, OperatorSpec.pucci_plus(1.0, 1.0), 1.0)
    f = _const_rhs(g, -1.0)
    ctl = IterationControl(tolerance=1e-8, max_steps=2_000_000)
    rep = solve_rhs(sch, f, ctl)
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
        u1 = solve_rhs(Scheme(g, spec, 0.0), f1, ctl).solution
        u2 = solve_rhs(Scheme(g, spec, 0.0), f2, ctl).solution
        assert np.all(u1.values >= u2.values - 2e-10)


def test_sign_property():
    g = Grid.interval(0.0, 1.0, 49)
    f = _const_rhs(g, -1.0)
    rep = solve_rhs(Scheme(g, OperatorSpec.pucci_minus(1.0, 2.0), 0.0), f,
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
        u1 = solve_rhs(Scheme(g, spec, 1.0), _const_rhs(g, -1.0),
                       ctl).solution
        u2 = solve_rhs(Scheme(g, spec, 1.0), _const_rhs(g, -t ** 2.0),
                       ctl).solution
        defects.append(np.max(np.abs(u2.values - t * u1.values)))
    assert defects[0] <= 3e-4
    assert defects[1] <= 0.5 * defects[0]


def test_p_laplacian_where_linear():
    # the 1-D p-Laplacian is (p - 1) u'' and the 2-D one at p = 2 the
    # Laplacian: one policy, so Newton takes one sparse solve at gamma = 0
    g = Grid.interval(0.0, 1.0, 49)
    rep = solve_rhs(Scheme(g, OperatorSpec.p_laplacian(3.0), 0.0),
                    _const_rhs(g, -1.0), IterationControl(tolerance=1e-10))
    assert rep.converged and rep.steps == 1
    x = g.axis(0)
    assert np.max(np.abs(rep.solution.values - x * (1.0 - x) / 4.0)) <= 1e-12
    g = Grid.rectangle(0.0, 2.0, 0.0, 1.0, 19, 9)
    for gamma in (0.0, 1.0):
        rep = solve_rhs(Scheme(g, OperatorSpec.p_laplacian(2.0), gamma),
                        _const_rhs(g, -1.0))
        assert rep.converged and rep.steps <= (1 if gamma == 0.0 else 20)


def test_max_steps_partial_report():
    g = Grid.interval(0.0, 1.0, 49)
    sch = Scheme(g, OperatorSpec.pucci_plus(1.0, 1.0), 1.0)
    f = _const_rhs(g, -1.0)
    # Newton reaches 1e-13 in 10 steps here; 5 leave it short
    rep = solve_rhs(sch, f, IterationControl(tolerance=1e-12, max_steps=5))
    assert not rep.converged and rep.steps == 5
    assert np.all(np.isfinite(rep.solution.values))


def test_sup_norm_homogeneity():
    g = Grid.interval(0.0, np.pi, 49)
    u = GridFunction.from_callable(g, np.sin)
    assert GridFunction.zeros(g).sup_norm() == 0.0
    assert u.sup_norm() <= 1.0
    assert GridFunction(g, 3.0 * u.values).sup_norm() == 3.0 * u.sup_norm()


def test_control_validation():
    with pytest.raises(ValueError):
        IterationControl(tolerance=0.0)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_residual_stops_at_once():
    # the update overflows within a few steps; the loop must name the step
    # instead of relaxing NaN until max_steps
    g = Grid.interval(0.0, 1.0, 49)
    sch = Scheme(g, OperatorSpec.linear_trace(np.eye(1)), 1.0)
    f = _const_rhs(g, -1e300)
    with pytest.raises(SolveError, match="non-finite residual at step"):
        solve_rhs(sch, f, IterationControl(max_steps=20_000))


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


def _shifted(op, policy, d, dim):
    """A + diag(d) at the policy: the Newton matrix at g = 1 and c F_h = 0,
    shifted."""
    zero = np.zeros(len(d))
    return op.newton(Linearization(None, policy, np.ones(len(d)), zero,
                                   [(zero, zero)] * dim), shift=d)


def _csr(op, M):
    # a PolicyMatrix array (A or a Newton matrix) as a general
    # sparse matrix on the interior entries only: outside neighbours are
    # dropped and policy zeros kept, the pattern a CSR policy matrix had
    rows, slots = np.nonzero(~op.outside.T)
    size = M.shape[1]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=size))))
    return sp.csr_matrix((M[slots, rows], rows + np.array(op.offsets)[slots],
                          indptr), shape=(size, size))


@pytest.mark.parametrize("dim", [1, 2])
def test_policy_matrix_is_the_scheme(dim):
    # -A u == F_h(u) at the active policy of u, up to round-off; apply is
    # the sparse product bit for bit, and the Newton matrix at gamma = 0
    # is A itself
    rng = np.random.default_rng(41)
    g = _grid(dim)
    for spec in _accepted_specs(dim):
        sch = Scheme(g, spec, 0.0)
        op = PolicyMatrix(sch)
        for _ in range(3):
            v = GridFunction(g, rng.standard_normal(g.shape)).values
            lin = sch.linearize(v)
            A = op.set_policy(lin.policy)
            S = _csr(op, A)
            assert np.all(A[op.outside] == 0.0)
            u = g.interior(v).ravel()
            Au = op.apply(u)
            assert Au.tobytes() == (S @ u).tobytes()
            F = sch.F(v)
            assert lin.gF.tobytes() == F.tobytes()
            got = -Au.reshape(F.shape)
            assert np.max(np.abs(got - F)) <= 1e-13 * np.max(np.abs(F))
            assert op.newton(lin).tobytes() == A.tobytes()
            d = rng.random(A.shape[1])
            W = A.copy()
            W[op.offsets.index(0)] += d
            M = _shifted(op, lin.policy, d, g.dim)
            assert M.tobytes() == W.tobytes()
            M = _csr(op, M)
            assert np.array_equal(M.diagonal(), S.diagonal() + d)
            off = [X.toarray() for X in (M, S)]
            for X in off:
                np.fill_diagonal(X, 0.0)
            assert np.array_equal(off[0], off[1])


@pytest.mark.parametrize("dim, spec, gamma", [
    pytest.param(dim, spec, gamma, id="%d-spec%d%s" % (
        dim, k, "-gamma%g" % gamma if gamma else ""))
    for k, (dim, spec) in enumerate([(1, OperatorSpec.linear_trace(np.eye(1)))]
                                    + [(2, spec) for spec in _policy_specs(2)[:3]])
    for gamma in (0.0, 0.5, 1.0, 2.0)])
def test_newton_matrix_reuse_is_bit_exact(dim, spec, gamma):
    # at gamma = 0 newton copies A only when the policy changes and
    # rewrites the centre row, and at gamma > 0 it rewrites the matrix from
    # A, g and c F_h into the one array: after every call of one
    # PolicyMatrix, with shifts and without (a solve_rhs call between two
    # _relax_ptc steps), policies that change, return to an earlier object
    # or are set by set_policy in between, its matrix is the full
    # rebuild's bit for bit, and so is a second PolicyMatrix's, which
    # shares the first one's layout
    rng = np.random.default_rng(29)
    g = _grid(dim)
    sch = Scheme(g, spec, gamma)
    op, twin = PolicyMatrix(sch), PolicyMatrix(sch)
    lins = [sch.linearize(GridFunction(g, rng.standard_normal(g.shape)).values)
            for _ in range(3)]
    size = op.A.shape[1]
    for k in (0, 0, 1, 1, 0, 2, 1, 2):
        lin = lins[k]
        for shift in (rng.random(size), None, rng.random(size)):
            got = op.newton(lin, shift=shift).tobytes()
            assert got == newton_rebuild(op, lin, shift).tobytes()
            assert twin.newton(lin, shift=shift).tobytes() == got
        op.set_policy(lins[(k + 1) % 3].policy)
    # the policies do change (one member: the same object every time)
    assert (lins[0].policy is lins[1].policy) == (len(sch.members) == 1)
    if gamma == 0.0:
        for lin in lins:
            assert lin.g is lins[0].g and lin.cF is lins[0].cF
            assert not any(x.flags.writeable for x in
                           (lin.g, lin.cF) + sum(lin.slopes, ()))
    else:
        assert np.count_nonzero(lins[0].cF)


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
            A = _csr(op, op.set_policy(sch.linearize(v).policy)).toarray()
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
        sch = Scheme(g, spec, 0.0)
        howard = solve_rhs(sch, f, IterationControl(tolerance=tol))
        explicit = _relax_rhs(sch, f, IterationControl(tolerance=tol), None)
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
            rep = solve_rhs(Scheme(g, spec, 0.0), _const_rhs(g, -1.0))
            assert rep.converged
            steps.append(rep.steps)
        assert max(steps) <= 12
        warm = solve_rhs(Scheme(g, spec, 0.0), _const_rhs(g, -1.0),
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
        u1 = solve_rhs(Scheme(g, spec, 0.0), f1, ctl).solution
        u2 = solve_rhs(Scheme(g, spec, 0.0), f2, ctl).solution
        assert np.all(u1.values >= u2.values - 2e-10)


def test_howard_max_steps_partial_report():
    g = Grid.rectangle(0.0, 2.0, 0.0, 1.0, 19, 9)
    sch = Scheme(g, OperatorSpec.pucci_plus(1.0, 2.0), 0.0)
    f = _const_rhs(g, 1.0)
    rep = solve_rhs(sch, f, IterationControl(max_steps=1))
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
        sch = Scheme(g, spec, gamma)
        newton = solve_rhs(sch, f, IterationControl(tolerance=tol))
        explicit = _relax_rhs(sch, f, IterationControl(tolerance=tol), None)
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
            rep = solve_rhs(Scheme(g, spec, 1.0), _const_rhs(g, -1.0))
            assert rep.converged and rep.steps <= 20


def test_newton_comparison_property():
    # f1 <= f2 <= 0 gives u1 >= u2 at gamma = 1
    rng = np.random.default_rng(59)
    ctl = IterationControl(tolerance=1e-10)
    for g in (Grid.interval(0.0, 1.0, 49), _grid(2)):
        for spec in _newton_specs(g.dim):
            base = -np.abs(rng.standard_normal(g.shape)) - 0.1
            f2 = np.minimum(base + np.abs(rng.standard_normal(g.shape)), 0.0)
            u1, u2 = (solve_rhs(Scheme(g, spec, 1.0),
                                GridFunction(g, f, dirichlet=False), ctl).solution
                      for f in (base, f2))
            assert np.all(u1.values >= u2.values - 2e-10)


def test_newton_stall_stop():
    # a tolerance below the floating-point floor: Newton settles near
    # 1e-13 and stops after NEWTON_STALL solves that do not halve its kept
    # low instead of spending the budget
    g = Grid.interval(0.0, 1.0, 49)
    sch = Scheme(g, OperatorSpec.pucci_plus(1.0, 1.0), 1.0)
    f = _const_rhs(g, -1.0)
    rep = solve_rhs(sch, f, IterationControl(tolerance=1e-30, max_steps=40))
    assert not rep.converged and rep.steps <= 20
    assert rep.residual_sup <= 1e-12


def test_newton_floor_stop_1d():
    # n = 3199: the residual's rounding floor (about 2.5e-8) lies above the
    # default tolerance; the solve returns converged=False within a few
    # dozen solves (it used to relax explicitly to max_steps)
    g = Grid.interval(0.0, 2.0, 3199)
    sch = Scheme(g, OperatorSpec.linear_trace(np.eye(1)), 1.0)
    f = _const_rhs(g, -30.0)
    rep = solve_rhs(sch, f, IterationControl(max_steps=2000))
    assert not rep.converged and rep.steps <= 100
    assert rep.residual_sup <= 1e-7


# the reference solver: SuperLU under a minimum-degree ordering on A^T + A,
# which suits the structurally symmetric stencil patterns
PERMC = "MMD_AT_PLUS_A"


def _superlu(op, M, b):
    return spla.spsolve(_csr(op, M), b, permc_spec=PERMC)


_STALL_CASES = [pytest.param(1, OperatorSpec.pucci_plus(1.0, 1.0), gamma,
                             id=str(gamma)) for gamma in (0.5, 1.0, 2.0)]
_STALL_CASES += [pytest.param(2, spec, gamma, id="2d-%s-%s" % (spec.variant, gamma))
                 for spec in (OperatorSpec.pucci_plus(1.0, 2.0),
                              OperatorSpec.pucci_minus(1.0, 2.0))
                 for gamma in (0.5, 1.0, 2.0)]


@pytest.mark.parametrize("dim,spec,gamma", _STALL_CASES)
def test_newton_stall_stop_does_not_follow_the_rounding(monkeypatch, dim, spec, gamma):
    # the stall count restarts only on a halving of the kept low of max|G|,
    # so rounding-level lows at the floor decide nothing: LAPACK (gtsv in
    # 1-D, gbsv in 2-D) and SuperLU round differently and stop after the
    # same number of solves (in 1-D, by any new low they took 18 and 24,
    # 25 and 18, 39 and 40 here)
    g = Grid.interval(0.0, 1.0, 49) if dim == 1 else _grid(2)
    sch = Scheme(g, spec, gamma)
    f = _const_rhs(g, -1.0)
    ctl = IterationControl(tolerance=1e-30, max_steps=40)
    rep = solve_rhs(sch, f, ctl)
    monkeypatch.setattr(PolicyMatrix, "solve", _superlu)
    ref = solve_rhs(sch, f, ctl)
    assert not rep.converged and not ref.converged
    assert rep.steps == ref.steps < ctl.max_steps


@pytest.mark.parametrize("n", [5, 199, 3199])
def test_policy_solve_matches_superlu_1d(monkeypatch, n):
    # 1-D systems go to LAPACK gtsv: against SuperLU on the Newton matrices
    # of solve_rhs (the trace, Pucci+-, Bellman at gamma = 0 and 1) and on
    # the shifted policy matrix at its answer.  Each x has a componentwise
    # backward error of a few ulps; two such solves differ by up to eps
    # times the condition number, which grows like h^-2: 1e-13 up to
    # n = 199, 2.6e-11 at n = 3199 (3.3e-12 seen).  M and b are left as
    # they were.
    g = Grid.interval(0.0, 2.0, n)
    tol = 1e-13 * max(1.0, (n + 1) ** 2 / 4e4)
    gtsv, worst = PolicyMatrix.solve, []

    def checked(op, M, b):
        M0, b0 = M.copy(), b.copy()
        x = gtsv(op, M, b)
        assert np.array_equal(M, M0) and np.array_equal(b, b0)
        S = _csr(op, M)
        scale = abs(S) @ np.abs(x) + np.abs(b)
        assert np.all(np.abs(S @ x - b) <= 1e-15 * scale)
        ref = _superlu(op, M, b)
        worst.append(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))
        return x

    monkeypatch.setattr(PolicyMatrix, "solve", checked)
    rng = np.random.default_rng(n)
    for spec in _policy_specs(1) + (OperatorSpec.linear_trace(np.eye(1)),):
        for gamma in (0.0, 1.0):
            sch = Scheme(g, spec, gamma)
            rep = solve_rhs(sch, _const_rhs(g, -30.0))
            op = PolicyMatrix(sch)
            w = sch.linearize(rep.solution.values).policy
            op.set_policy(w)
            op.solve(_shifted(op, w, rng.random(n) * op.diagonal(), 1), np.ones(n))
    assert len(worst) >= 20 and max(worst) <= tol


@pytest.mark.parametrize("shape", [(19, 9), (59, 29), (29, 59)],
                         ids=["19x9", "59x29", "29x59"])
def test_policy_solve_matches_superlu_2d(monkeypatch, shape):
    # 2-D systems go to LAPACK's band LU gbsv: against SuperLU on every
    # Newton matrix of solve_rhs (the trace, Pucci+-, Bellman at gamma = 0
    # and 1) and on the shifted policy matrix at its answer.  M and b are
    # left as they were, the componentwise backward error is at most
    # 2e-15, about one ulp per stored entry of a row (1.0e-15 seen at
    # 59x29, where SuperLU reaches 7e-16 on the same matrices), and x
    # agrees with SuperLU within eps times kappa_inf(M), estimated from
    # SuperLU's factor (0.41 eps kappa seen; kappa up to 5.7e3 here).  The
    # tall grid, (0, 1) x (0, 2), has the wider band (n[1] + 1 = 60).
    lx, ly = (2.0, 1.0) if shape[0] > shape[1] else (1.0, 2.0)
    g = Grid.rectangle(0.0, lx, 0.0, ly, *shape)
    gbsv, worst = PolicyMatrix.solve, []

    def checked(op, M, b):
        assert len(op.offsets) > 3
        M0, b0 = M.copy(), b.copy()
        x = gbsv(op, M, b)
        assert np.array_equal(M, M0) and np.array_equal(b, b0)
        S = _csr(op, M)
        scale = abs(S) @ np.abs(x) + np.abs(b)
        assert np.all(np.abs(S @ x - b) <= 2e-15 * scale)
        lu = spla.splu(S.tocsc(), permc_spec=PERMC)
        inv_t = spla.LinearOperator(S.shape, matvec=lambda v: lu.solve(v, "T"),
                                    rmatvec=lu.solve, dtype=float)
        kappa = abs(S).sum(axis=1).max() * spla.onenormest(inv_t)
        ref = lu.solve(b)
        err = np.max(np.abs(x - ref)) / np.max(np.abs(ref))
        worst.append(err / (np.finfo(float).eps * kappa))
        return x

    monkeypatch.setattr(PolicyMatrix, "solve", checked)
    rng = np.random.default_rng(shape[0])
    for spec in _policy_specs(2) + (OperatorSpec.linear_trace(np.eye(2)),):
        for gamma in (0.0, 1.0):
            sch = Scheme(g, spec, gamma)
            rep = solve_rhs(sch, _const_rhs(g, -30.0))
            op = PolicyMatrix(sch)
            w = sch.linearize(rep.solution.values).policy
            op.set_policy(w)
            size = op.A.shape[1]
            op.solve(_shifted(op, w, rng.random(size) * op.diagonal(), 2),
                     np.ones(size))
    assert len(worst) >= 20 and max(worst) <= 1.0


@pytest.mark.parametrize("dim", [1, 2])
def test_policy_solve_singular_is_nan(dim):
    # an all-zero-weight policy: a zero pivot gives an all-NaN x from gtsv
    # in 1-D and from gbsv in 2-D, which solve_rhs reports as a non-finite
    # residual and pseudo-transient Newton rejects as a step
    g = _grid(dim)
    sch = Scheme(g, OperatorSpec.pucci_plus(1.0, 2.0), 0.0)
    op = PolicyMatrix(sch)
    w = {k: np.zeros_like(v)
         for k, v in sch.linearize(np.zeros(g.shape)).policy.items()}
    A = op.set_policy(w)
    b = np.ones(A.shape[1])
    for M in (A, _shifted(op, w, np.zeros(A.shape[1]), dim)):
        x = op.solve(M, b)
        assert x.shape == b.shape and np.all(np.isnan(x))


def test_rhs_on_another_grid_refused():
    # same shape or not, f must be sampled on the problem's grid
    g = Grid.interval(0.0, 1.0, 19)
    spec = OperatorSpec.linear_trace(np.eye(1))
    for other in (Grid.interval(0.0, 2.0, 19), Grid.interval(0.0, 1.0, 39)):
        with pytest.raises(ValueError, match="problem grid"):
            solve_rhs(Scheme(g, spec, 0.0), _const_rhs(other, -1.0))



def test_start_on_another_grid_refused():
    # u0 must lie on the problem's grid, as f must: a field sampled on
    # (0, 2) used to be read onto (0, 1) without a word, and an array of
    # another shape failed in numpy's broadcast
    g = Grid.interval(0.0, 1.0, 19)
    sch = Scheme(g, OperatorSpec.linear_trace(np.eye(1)), 0.0)
    f = _const_rhs(g, -1.0)
    other = GridFunction(Grid.interval(0.0, 2.0, 19), np.ones(g.shape))
    with pytest.raises(ValueError, match="problem grid"):
        solve_rhs(sch, f, u0=other)
    with pytest.raises(ValueError, match=r"shape \(5,\) do not match the grid's \(21,\)"):
        solve_rhs(sch, f, u0=np.ones(5))
    # a start on the grid, as a field or as its values, is read
    u = solve_rhs(sch, f).solution
    for u0 in (u, u.values):
        assert np.array_equal(solve_rhs(sch, f, u0=u0).solution.values, u.values)
