"""Principal eigenpair iteration against analytic Laplace oracles."""

import numpy as np
import pytest

from deadcore import (Grid, GridFunction, OperatorSpec, EigenControl,
                      IterationControl, principal_eigenpair, eigen_residual,
                      laplace_eigenpair_1d)


SPEC1 = OperatorSpec.linear_trace(np.eye(1))


def test_laplace_oracle_values():
    assert laplace_eigenpair_1d((0.0, np.pi)).lambda_plus == pytest.approx(1.0)
    assert laplace_eigenpair_1d((0.0, 1.0)).lambda_plus == pytest.approx(np.pi ** 2)
    assert laplace_eigenpair_1d((0.0, 2 * np.pi)).lambda_plus == pytest.approx(0.25)
    with pytest.raises(ValueError):
        laplace_eigenpair_1d((1.0, 1.0))


def test_eigenpair_unit_interval():
    g = Grid.interval(0.0, 1.0, 199)
    pair = principal_eigenpair(g, SPEC1, 0.0)
    assert abs(pair.lambda_plus - np.pi ** 2) <= 1e-2
    # normalization and interior positivity
    assert pair.phi_plus.sup_norm() == pytest.approx(1.0, abs=1e-15)
    assert np.min(g.interior(pair.phi_plus.values)) > 0
    # eigenfunction close to the analytic sine
    exact = laplace_eigenpair_1d((0.0, 1.0)).phi(g.axis(0))
    assert np.max(np.abs(pair.phi_plus.values - exact)) <= 1e-3


def test_eigenpair_0_pi():
    g = Grid.interval(0.0, np.pi, 401)
    pair = principal_eigenpair(g, SPEC1, 0.0)
    assert abs(pair.lambda_plus - 1.0) <= 1e-3


def test_domain_rescaling_gamma0():
    # lambda+ scales by t^-2 under domain dilation (gamma = 0)
    t = 2.0
    g1 = Grid.interval(0.0, 1.0, 149)
    g2 = Grid.interval(0.0, t, 149)
    l1 = principal_eigenpair(g1, SPEC1, 0.0).lambda_plus
    l2 = principal_eigenpair(g2, SPEC1, 0.0).lambda_plus
    assert l2 == pytest.approx(l1 / t ** 2, rel=1e-6)


def test_domain_rescaling_gamma1():
    # for general gamma the scaling is t^-(gamma+2)
    t = 2.0
    ctl = EigenControl(tol_lambda=1e-6, tol_residual=np.inf,
                       inner=IterationControl(tolerance=1e-9,
                                              max_steps=2_000_000))
    g1 = Grid.interval(0.0, 1.0, 99)
    g2 = Grid.interval(0.0, t, 99)
    l1 = principal_eigenpair(g1, SPEC1, 1.0, ctl).lambda_plus
    l2 = principal_eigenpair(g2, SPEC1, 1.0, ctl).lambda_plus
    assert l2 == pytest.approx(l1 / t ** 3, rel=5e-3)


def test_residual_homogeneity():
    g = Grid.interval(0.0, 1.0, 99)
    gamma = 1.0
    ctl = EigenControl(tol_lambda=1e-6, tol_residual=np.inf,
                       inner=IterationControl(tolerance=1e-9,
                                              max_steps=2_000_000))
    pair = principal_eigenpair(g, SPEC1, gamma, ctl)
    r1 = eigen_residual(pair.lambda_plus, pair.phi_plus, SPEC1, gamma)
    t = 3.0
    scaled = GridFunction(g, t * pair.phi_plus.values, dirichlet=False)
    r2 = eigen_residual(pair.lambda_plus, scaled, SPEC1, gamma)
    # exact (gamma+1)-homogeneity up to floating-point roundoff in the
    # squared-difference gradient magnitude
    assert r2 == pytest.approx(t ** (gamma + 1.0) * r1, rel=1e-10)


def test_residual_analytic_pair_refinement():
    sups = []
    for n in (99, 199):
        g = Grid.interval(0.0, np.pi, n)
        phi = GridFunction.from_callable(g, np.sin)
        sups.append(eigen_residual(1.0, phi, SPEC1, 0.0))
    assert sups[0] <= 1.0 * (np.pi / 100) ** 2
    assert sups[1] <= sups[0] / 3.0


def test_residual_lambda_perturbation_lower_bound():
    g = Grid.interval(0.0, np.pi, 99)
    phi = GridFunction.from_callable(g, np.sin)
    base = eigen_residual(1.0, phi, SPEC1, 0.0)
    eps = 0.1
    pert = eigen_residual(1.0 + eps, phi, SPEC1, 0.0)
    # defect is linear in lambda, weighted by phi^(gamma+1) <= 1
    assert pert >= eps * float(np.max(g.interior(phi.values))) - base - 1e-12


def test_monotone_under_domain_inclusion():
    g_full = Grid.interval(0.0, 1.0, 99)
    g_sub = Grid.interval(0.2, 0.8, 59)
    l_full = principal_eigenpair(g_full, SPEC1, 0.0).lambda_plus
    l_sub = principal_eigenpair(g_sub, SPEC1, 0.0).lambda_plus
    assert l_sub >= l_full


def test_refinement_cauchy_property():
    lams = []
    g = Grid.interval(0.0, np.pi, 101)
    for _ in range(4):
        lams.append(principal_eigenpair(g, SPEC1, 0.0).lambda_plus)
        g = g.refine()
    diffs = [abs(lams[i] - lams[i + 1]) for i in range(3)]
    assert diffs[0] > diffs[1] > diffs[2]


def test_inner_failure_reported():
    # the lambda fit settles even though no inner solve reaches its
    # tolerance in 5 steps; the pair must not claim convergence
    g = Grid.interval(0.0, 1.0, 19)
    ctl = EigenControl(tol_lambda=1e-4, tol_residual=np.inf,
                       inner=IterationControl(tolerance=1e-8, max_steps=5))
    pair = principal_eigenpair(g, SPEC1, 1.0, ctl)
    assert not pair.converged
    ctl.inner = IterationControl(tolerance=1e-8, max_steps=400_000)
    assert principal_eigenpair(g, SPEC1, 1.0, ctl).converged
