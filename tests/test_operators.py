"""Operator evaluation and structural-axiom checks."""

import numpy as np
import pytest

from deadcore import (SymMatrix, OperatorSpec, eigenvalues, pucci,
                      evaluate_operator, evaluate_gradient_operator,
                      check_axioms)


# --- spectral kernel -----------------------------------------------------

def test_eigenvalues_diagonal():
    e = eigenvalues(SymMatrix.diag(3.0, 1.0)).eigenvalues
    assert np.allclose(e, [1.0, 3.0], atol=0)


def test_eigenvalues_offdiagonal():
    e = eigenvalues(SymMatrix([[0.0, 1.0], [1.0, 0.0]])).eigenvalues
    assert np.allclose(e, [-1.0, 1.0], atol=1e-14)


def test_eigenvalues_random_3x3_against_charpoly():
    # independent oracle: roots of the characteristic polynomial
    rng = np.random.default_rng(11)
    for _ in range(50):
        X = SymMatrix(rng.standard_normal((3, 3)))
        got = eigenvalues(X).eigenvalues
        A = X.entries
        c2 = -np.trace(A)
        c1 = 0.5 * (np.trace(A) ** 2 - np.trace(A @ A))
        c0 = -np.linalg.det(A)
        want = np.sort(np.real(np.roots([1.0, c2, c1, c0])))
        assert np.allclose(got, want, atol=1e-10 * max(1.0, X.frobenius()))


def test_eigenvalues_trace_consistency():
    rng = np.random.default_rng(3)
    for _ in range(20):
        X = SymMatrix(rng.standard_normal((3, 3)))
        e = eigenvalues(X).eigenvalues
        assert len(e) == 3
        assert abs(e.sum() - X.trace()) <= 1e-12 * max(1.0, abs(X.trace()))


def test_eigenvalues_orthogonal_invariance():
    rng = np.random.default_rng(4)
    for _ in range(20):
        X = SymMatrix(rng.standard_normal((3, 3)))
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        Y = SymMatrix(Q.T @ X.entries @ Q)
        assert np.allclose(eigenvalues(X).eigenvalues,
                           eigenvalues(Y).eigenvalues, atol=1e-12 * X.frobenius() + 1e-13)


def test_eigenvalues_known_spectra():
    # 1x1, repeated eigenvalues and a rotated 3x3 with a double root
    assert np.array_equal(eigenvalues(SymMatrix([[-2.5]])).eigenvalues, [-2.5])
    assert np.allclose(eigenvalues(SymMatrix.identity(3) * 4.0).eigenvalues,
                       [4.0, 4.0, 4.0], rtol=0, atol=1e-15)
    e = eigenvalues(SymMatrix([[2.0, 1.0], [1.0, 2.0]])).eigenvalues
    assert np.allclose(e, [1.0, 3.0], rtol=0, atol=1e-14)
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    for spec in ([-1.0, 2.0, 2.0], [-3.0, -3.0, 0.5], [0.0, 0.0, 1.0]):
        X = SymMatrix(Q @ np.diag(spec) @ Q.T)
        e = eigenvalues(X).eigenvalues
        assert np.all(np.diff(e) >= 0)
        assert np.allclose(e, sorted(spec), rtol=0, atol=1e-14)
    e = eigenvalues(SymMatrix([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0],
                               [0.0, 0.0, 3.0]])).eigenvalues
    assert np.allclose(e, [-1.0, 3.0, 3.0], rtol=0, atol=1e-14)


# --- Pucci extremes ------------------------------------------------------

def test_pucci_identity():
    assert pucci(SymMatrix.identity(2), 1.0, 2.0, "+") == pytest.approx(4.0)


def test_pucci_mixed_signs():
    X = SymMatrix.diag(1.0, -1.0)
    assert pucci(X, 1.0, 2.0, "+") == pytest.approx(1.0)
    assert pucci(X, 1.0, 2.0, "-") == pytest.approx(-1.0)


def test_pucci_via_eigenvalue_oracle():
    # eigenvalues of [[0,1],[1,0]] are +-1
    X = SymMatrix([[0.0, 1.0], [1.0, 0.0]])
    assert pucci(X, 1.0, 2.0, "+") == pytest.approx(1.0, abs=1e-13)


def test_pucci_duality():
    rng = np.random.default_rng(5)
    for _ in range(100):
        X = SymMatrix(rng.standard_normal((2, 2)))
        assert pucci(-1.0 * X, 1.0, 2.5, "+") == pytest.approx(
            -pucci(X, 1.0, 2.5, "-"), abs=1e-13)


def test_pucci_monotone_in_Lam():
    rng = np.random.default_rng(6)
    for _ in range(100):
        X = SymMatrix(rng.standard_normal((2, 2)))
        assert pucci(X, 1.0, 3.0, "+") >= pucci(X, 1.0, 2.0, "+") - 1e-13
        assert pucci(X, 1.0, 3.0, "-") <= pucci(X, 1.0, 2.0, "-") + 1e-13


def test_pucci_rejects_bad_ellipticity():
    with pytest.raises(ValueError):
        pucci(SymMatrix.identity(2), 2.0, 1.0, "+")


# --- pointwise evaluation ------------------------------------------------

def test_linear_trace_value():
    spec = OperatorSpec.linear_trace(np.diag([1.0, 2.0]))
    assert evaluate_operator(spec, (0.0, 0.0), SymMatrix.diag(3.0, 4.0)) \
        == pytest.approx(11.0)


def test_hjb_inf_brute_force():
    # family {I, diag(2,1)}, X=diag(1,-1): traces are 0 and 1, min is 0
    fam = (np.eye(2), np.diag([2.0, 1.0]))
    spec = OperatorSpec.hjb_inf(fam, 1.0, 2.0)
    X = SymMatrix.diag(1.0, -1.0)
    assert evaluate_operator(spec, (0.0, 0.0), X) == pytest.approx(0.0)
    sup = OperatorSpec.hjb_sup(fam, 1.0, 2.0)
    assert evaluate_operator(sup, (0.0, 0.0), X) == pytest.approx(1.0)


def test_p_laplacian_requires_gradient():
    spec = OperatorSpec.p_laplacian(3.0)
    with pytest.raises(TypeError):
        evaluate_operator(spec, (0.0,), SymMatrix.identity(2))


def test_gradient_operator_p3():
    spec = OperatorSpec.p_laplacian(3.0)
    val = evaluate_gradient_operator(spec, (0.0, 0.0), (1.0, 0.0),
                                     SymMatrix.identity(2), None)
    assert val == pytest.approx(3.0)


def test_gradient_operator_p2_reduces_to_laplacian():
    spec = OperatorSpec.p_laplacian(2.0)
    X = SymMatrix.diag(2.0, -0.5)
    val = evaluate_gradient_operator(spec, (0.0, 0.0), (0.3, -0.7), X, None)
    assert val == pytest.approx(X.trace())


def test_degenerate_gradient_convention():
    spec = OperatorSpec.pucci_plus(1.0, 2.0)
    val = evaluate_gradient_operator(spec, (0.0, 0.0), (0.0, 0.0),
                                     SymMatrix.identity(2), 1.0)
    assert val == 0.0
    # p-Laplacian with p != 2 also degenerates to 0 at zero gradient
    p3 = OperatorSpec.p_laplacian(3.0)
    assert evaluate_gradient_operator(p3, (0.0, 0.0), (0.0, 0.0),
                                      SymMatrix.identity(2), None) == 0.0


# --- axiom suite ----------------------------------------------------------

def test_axioms_pucci_pass():
    rep = check_axioms(OperatorSpec.pucci_plus(1.0, 2.0), 1000, seed=7)
    assert rep.passed and rep.trials == 1000


def test_axioms_linear_trace_lipschitz():
    # x-dependent diagonal coefficient with finite-difference Lipschitz oracle
    def coeff(x):
        return np.diag([np.clip(1.0 + x[0] ** 2 / 10.0, 1.0, 1.2), 1.0])
    # d/dx of 1 + x^2/10 on [0,1] is at most 0.2; declare L = 0.2
    xs = np.linspace(0.0, 1.0, 2001)
    vals = np.clip(1.0 + xs ** 2 / 10.0, 1.0, 1.2)
    L_fd = float(np.max(np.abs(np.diff(vals) / np.diff(xs))))
    assert L_fd <= 0.2 + 1e-12
    spec = OperatorSpec.linear_trace(coeff, lam=1.0, Lam=1.2, lipschitz=0.2)
    rep = check_axioms(spec, 500, seed=8)
    assert rep.passed
    assert "lipschitz" in rep.checked


def test_axioms_hjb_and_plaplacian_pass():
    fam = (np.eye(2), np.diag([2.0, 1.0]))
    assert check_axioms(OperatorSpec.hjb_inf(fam, 1.0, 2.0), 1000, seed=9).passed
    assert check_axioms(OperatorSpec.p_laplacian(3.0), 1000, seed=10).passed


def test_axioms_broken_operator_caught():
    broken = OperatorSpec.custom(lambda x, X: float(np.trace(X)) + 1.0)
    rep = check_axioms(broken, 1000, seed=12)
    assert not rep.passed
    assert rep.counterexample["axiom"] == "homogeneity"


def test_axioms_strict_homogeneity_fails_for_pucci():
    rep = check_axioms(OperatorSpec.pucci_plus(1.0, 2.0), 200, seed=13,
                       strict_homogeneity=True)
    assert not rep.passed
    assert rep.counterexample["axiom"] == "strict_homogeneity"
