"""Operator evaluation and structural-axiom checks."""

import gc
import re
import weakref

import numpy as np
import pytest

from deadcore import (OperatorSpec, AxiomReport, eigenvalues, pucci,
                      evaluate_operator, check_axioms, Grid, ProblemSpec,
                      WeightField, ball_eigenpair)
from deadcore.operators import _stack


def _sym(a):
    return 0.5 * (a + a.T)


# --- spectral kernel -----------------------------------------------------

def test_eigenvalues_diagonal():
    e = eigenvalues(np.diag([3.0, 1.0]))
    assert np.allclose(e, [1.0, 3.0], atol=0)


def test_eigenvalues_offdiagonal():
    e = eigenvalues([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(e, [-1.0, 1.0], atol=1e-14)


def test_eigenvalues_random_3x3_against_charpoly():
    # independent oracle: roots of the characteristic polynomial
    rng = np.random.default_rng(11)
    for _ in range(50):
        A = _sym(rng.standard_normal((3, 3)))
        got = eigenvalues(A)
        c2 = -np.trace(A)
        c1 = 0.5 * (np.trace(A) ** 2 - np.trace(A @ A))
        c0 = -np.linalg.det(A)
        want = np.sort(np.real(np.roots([1.0, c2, c1, c0])))
        assert np.allclose(got, want, atol=1e-10 * max(1.0, np.linalg.norm(A)))


def test_eigenvalues_trace_consistency():
    rng = np.random.default_rng(3)
    for _ in range(20):
        X = _sym(rng.standard_normal((3, 3)))
        e = eigenvalues(X)
        assert len(e) == 3
        assert abs(e.sum() - np.trace(X)) <= 1e-12 * max(1.0, abs(np.trace(X)))


def test_eigenvalues_orthogonal_invariance():
    rng = np.random.default_rng(4)
    for _ in range(20):
        X = _sym(rng.standard_normal((3, 3)))
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        Y = Q.T @ X @ Q
        assert np.allclose(eigenvalues(X), eigenvalues(Y),
                           atol=1e-12 * np.linalg.norm(X) + 1e-13)


def test_eigenvalues_known_spectra():
    # 1x1, repeated eigenvalues and a rotated 3x3 with a double root
    assert np.array_equal(eigenvalues([[-2.5]]), [-2.5])
    assert np.allclose(eigenvalues(np.diag([4.0, 4.0, 4.0])),
                       [4.0, 4.0, 4.0], rtol=0, atol=1e-15)
    e = eigenvalues([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(e, [1.0, 3.0], rtol=0, atol=1e-14)
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    for spec in ([-1.0, 2.0, 2.0], [-3.0, -3.0, 0.5], [0.0, 0.0, 1.0]):
        X = Q @ np.diag(spec) @ Q.T
        e = eigenvalues(X)
        assert np.all(np.diff(e) >= 0)
        assert np.allclose(e, sorted(spec), rtol=0, atol=1e-14)
    e = eigenvalues([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
    assert np.allclose(e, [-1.0, 3.0, 3.0], rtol=0, atol=1e-14)


# --- Pucci extremes ------------------------------------------------------

def test_pucci_identity():
    assert pucci(np.eye(2), 1.0, 2.0, "+") == pytest.approx(4.0)


def test_pucci_mixed_signs():
    X = np.diag([1.0, -1.0])
    assert pucci(X, 1.0, 2.0, "+") == pytest.approx(1.0)
    assert pucci(X, 1.0, 2.0, "-") == pytest.approx(-1.0)


def test_pucci_via_eigenvalue_oracle():
    # eigenvalues of [[0,1],[1,0]] are +-1
    X = [[0.0, 1.0], [1.0, 0.0]]
    assert pucci(X, 1.0, 2.0, "+") == pytest.approx(1.0, abs=1e-13)


def test_pucci_duality():
    rng = np.random.default_rng(5)
    for _ in range(100):
        X = _sym(rng.standard_normal((2, 2)))
        assert pucci(-X, 1.0, 2.5, "+") == pytest.approx(
            -pucci(X, 1.0, 2.5, "-"), abs=1e-13)


def test_pucci_monotone_in_Lam():
    rng = np.random.default_rng(6)
    for _ in range(100):
        X = _sym(rng.standard_normal((2, 2)))
        assert pucci(X, 1.0, 3.0, "+") >= pucci(X, 1.0, 2.0, "+") - 1e-13
        assert pucci(X, 1.0, 3.0, "-") <= pucci(X, 1.0, 2.0, "-") + 1e-13


def test_pucci_rejects_bad_ellipticity():
    with pytest.raises(ValueError):
        pucci(np.eye(2), 2.0, 1.0, "+")


@pytest.mark.parametrize("p", [1.0, 0.5, float("nan")])
def test_p_laplacian_refuses_p_at_most_1(p):
    # OperatorSpec checks p before lam = min(1, p - 1), so the message
    # names p and not the ellipticity bounds
    with pytest.raises(ValueError, match=r"^p-Laplacian requires p > 1$"):
        OperatorSpec.p_laplacian(p)


@pytest.mark.parametrize("variant", ["foo", "Pucci_plus", "", None])
def test_operator_spec_refuses_an_unknown_variant(variant):
    # the one refusal: solve used to blame the 2-D p-Laplacian on it, and
    # evaluate_operator and check_axioms refused it only when they ran
    with pytest.raises(ValueError, match=r"^unknown operator variant %s$"
                       % re.escape(repr(variant))):
        OperatorSpec(variant)


# --- pointwise evaluation ------------------------------------------------

def test_linear_trace_value():
    spec = OperatorSpec.linear_trace(np.diag([1.0, 2.0]))
    assert evaluate_operator(spec, (0.0, 0.0), np.diag([3.0, 4.0])) \
        == pytest.approx(11.0)


def test_hjb_inf_brute_force():
    # family {I, diag(2,1)}, X=diag(1,-1): traces are 0 and 1, min is 0
    fam = (np.eye(2), np.diag([2.0, 1.0]))
    spec = OperatorSpec.hjb_inf(fam, 1.0, 2.0)
    X = np.diag([1.0, -1.0])
    assert evaluate_operator(spec, (0.0, 0.0), X) == pytest.approx(0.0)
    sup = OperatorSpec.hjb_sup(fam, 1.0, 2.0)
    assert evaluate_operator(sup, (0.0, 0.0), X) == pytest.approx(1.0)


def test_p_laplacian_requires_gradient():
    spec = OperatorSpec.p_laplacian(3.0)
    with pytest.raises(TypeError):
        evaluate_operator(spec, (0.0,), np.eye(2))


def test_gradient_operator_p3():
    # Tr[(I + (p - 2) e1 (x) e1) I] = 2 + 1 at p = 3, for every xi on the x-axis
    spec = OperatorSpec.p_laplacian(3.0)
    for xi in ((1.0, 0.0), (0.25, 0.0), (-4.0, 0.0)):
        assert evaluate_operator(spec, None, np.eye(2), xi) == pytest.approx(3.0)
    # Tr X + (p - 2) <xi, X xi> / |xi|^2 = 1 + 2 / 2 along xi = (1, 1)
    X = [[2.0, 0.5], [0.5, -1.0]]
    assert evaluate_operator(spec, None, X, (1.0, 1.0)) == pytest.approx(2.0)


def test_gradient_operator_p2_reduces_to_laplacian():
    X = np.diag([2.0, -0.5])
    val = evaluate_operator(OperatorSpec.p_laplacian(2.0), None, X, (0.3, -0.7))
    assert val == pytest.approx(np.trace(X))


def test_degenerate_gradient_convention():
    # at xi = 0 the matrix part is Tr(X) for every p; in 1-D it is (p - 1) X,
    # its value at every xi != 0 and the 1-D Scheme.F's weight
    X = np.array([[1.5, 0.2], [0.2, -0.25]])
    for p in (1.5, 2.0, 3.0):
        spec = OperatorSpec.p_laplacian(p)
        assert evaluate_operator(spec, None, X, (0.0, 0.0)) == np.trace(X)
        assert evaluate_operator(spec, None, [[-2.0]], 0.0) == (p - 1.0) * -2.0
        assert evaluate_operator(spec, None, [[-2.0]], 0.5) == \
            pytest.approx((p - 1.0) * -2.0, rel=1e-15)


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


def test_key_keeps_callables_alive():
    # the ball eigenpair's cache keys the operator object itself: while a
    # pair is cached, its operator and that operator's callable cannot be
    # collected and their id() handed to another one
    def coeff(x):
        return np.eye(1)

    g = Grid.interval(0.0, 1.0, 19)
    w = WeightField.constant(g, 1.0)
    spec = OperatorSpec.linear_trace(coeff, 1.0, 1.0)
    ref, spec_ref = weakref.ref(coeff), weakref.ref(spec)
    pair = ball_eigenpair(ProblemSpec(g, spec, 0.0, 0.5, w), (0.2, 0.8))
    del coeff, spec
    gc.collect()
    assert ref() is not None and spec_ref() is not None
    assert spec_ref().coeff is ref()
    # the same operator object hits the cached pair; another one with an
    # equal structure but its own callable does not
    assert ball_eigenpair(ProblemSpec(g, spec_ref(), 0.0, 0.5, w),
                          (0.2, 0.8)) is pair
    other = OperatorSpec.linear_trace(lambda x: np.eye(1), 1.0, 1.0)
    assert ball_eigenpair(ProblemSpec(g, other, 0.0, 0.5, w),
                          (0.2, 0.8)) is not pair
    # replaced in the one-entry cache, the first operator is released
    gc.collect()
    assert spec_ref() is None and ref() is None


# --- batched check_axioms against the per-trial loop -------------------------

def _reference_check_axioms(spec, trials, seed, dim=2):
    """The per-trial loop `check_axioms` replaced: one trial at a time,
    stopping at the first counterexample."""
    def F(x, X, xi):
        return evaluate_operator(spec, x, X, xi)

    rng = np.random.default_rng(seed)
    checked = ("ellipticity", "homogeneity") + \
        (("lipschitz",) if spec.lipschitz is not None else ())
    for k in range(trials):
        x = rng.uniform(0.0, 1.0, size=dim)
        y = rng.uniform(0.0, 1.0, size=dim)
        X = _sym(rng.standard_normal((dim, dim)))
        B = rng.standard_normal((dim, dim))
        Y = _sym(B @ B.T)
        s = float(np.exp(rng.uniform(-2.0, 2.0)))
        xi = rng.standard_normal(dim)
        FX = F(x, X, xi)
        d = F(x, X + Y, xi) - FX
        lo = pucci(Y, spec.lam, spec.Lam, "-")
        hi = pucci(Y, spec.lam, spec.Lam, "+")
        tol = 1e-9 * (1.0 + np.linalg.norm(Y))
        if not (lo - tol <= d <= hi + tol):
            return AxiomReport(False, k + 1, checked, {
                "axiom": "ellipticity", "x": x, "X": X, "Y": Y,
                "increment": d, "pucci_minus": lo, "pucci_plus": hi})
        lhs = F(x, s * X, xi)
        if abs(lhs - s * FX) > 1e-12 * max(1.0, abs(s * FX)):
            return AxiomReport(False, k + 1, checked, {
                "axiom": "homogeneity", "x": x, "X": X, "s": s,
                "F_sX": lhs, "s_FX": s * FX})
        if spec.lipschitz is not None:
            dxy = float(np.linalg.norm(x - y))
            dF = abs(F(x, X, xi) - F(y, X, xi))
            bound = spec.lipschitz * dxy * np.linalg.norm(X)
            if dF > bound + 1e-9:
                return AxiomReport(False, k + 1, checked, {
                    "axiom": "lipschitz", "x": x, "y": y, "X": X,
                    "dF": dF, "bound": bound})
    return AxiomReport(True, trials, checked)


def _x_coeff(x):
    return np.diag([np.clip(1.0 + x[0] ** 2 / 10.0, 1.0, 1.2), 1.0])


_FAMILY = (np.eye(2), np.diag([2.0, 1.0]))
PARITY_CASES = {
    "pucci_plus": (OperatorSpec.pucci_plus(1.0, 2.0), {}),
    "pucci_minus": (OperatorSpec.pucci_minus(1.0, 2.0), {}),
    "hjb_inf": (OperatorSpec.hjb_inf(_FAMILY, 1.0, 2.0), {}),
    "hjb_sup": (OperatorSpec.hjb_sup(_FAMILY, 1.0, 2.0), {}),
    "p_laplacian": (OperatorSpec.p_laplacian(3.0), {}),
    "trace_lipschitz": (OperatorSpec.linear_trace(_x_coeff, 1.0, 1.2, lipschitz=0.2), {}),
    # failing specs: homogeneity, Lipschitz
    "broken_custom": (OperatorSpec.custom(lambda x, X: float(np.trace(X)) + 1.0), {}),
    "trace_tight_lipschitz": (OperatorSpec.linear_trace(_x_coeff, 1.0, 1.2,
                                                        lipschitz=0.01), {}),
    "pucci_minus_3d": (OperatorSpec.pucci_minus(0.5, 2.0), {"dim": 3}),
    # breaks ellipticity and homogeneity in the same trial: the first wins
    "two_axioms": (OperatorSpec.custom(lambda x, X: 1.0 - float(np.trace(X))), {}),
    # off by a relative 1e-11: homogeneity is tested to 1e-12
    "near_homogeneous": (OperatorSpec.custom(lambda x, X: float(np.trace(X)) + 1e-11), {}),
}
FAILING = ("broken_custom", "trace_tight_lipschitz", "two_axioms",
           "near_homogeneous")


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_check_axioms_matches_per_trial_loop(case):
    spec, kw = PARITY_CASES[case]
    verdicts = set()
    for seed in range(20):
        want = _reference_check_axioms(spec, 100, seed, **kw)
        got = check_axioms(spec, 100, seed, **kw)
        verdicts.add(want.passed)
        assert (got.passed, got.trials, got.checked) == \
            (want.passed, want.trials, want.checked), (case, seed)
        if want.counterexample is None:
            assert got.counterexample is None
            continue
        assert got.counterexample.keys() == want.counterexample.keys()
        for key, w in want.counterexample.items():
            g = got.counterexample[key]
            if isinstance(w, np.ndarray):
                assert np.array_equal(g, w), (case, seed, key)
            elif isinstance(w, str):
                assert g == w, (case, seed)
            else:
                assert type(g) is float and g == pytest.approx(w, rel=1e-12, abs=0)
    assert verdicts == ({False} if case in FAILING else {True})


def test_check_axioms_calls_callables_once_per_trial_point():
    calls = []

    def coeff(x):
        calls.append(x)
        return _x_coeff(x)

    spec = OperatorSpec.linear_trace(coeff, 1.0, 1.2, lipschitz=0.2)
    assert check_axioms(spec, 50, seed=3).passed
    assert len(calls) == 100             # x and y of every trial
    calls.clear()
    broken = OperatorSpec.custom(lambda x, X: calls.append(x) or float(np.trace(X)) + 1.0)
    rep = check_axioms(broken, 50, seed=3)
    assert not rep.passed and rep.trials == 1
    assert len(calls) == 150             # X, X + Y and sX of every trial


# --- stacks -----------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3])
def test_eigenvalues_and_pucci_on_a_stack(dim):
    rng = np.random.default_rng(20 + dim)
    X = rng.standard_normal((40, dim, dim))
    X = 0.5 * (X + X.swapaxes(1, 2))
    e = eigenvalues(X)
    assert e.shape == (40, dim)
    assert np.array_equal(e, [eigenvalues(M) for M in X])
    for sign in "+-":
        got = pucci(X, 0.5, 2.0, sign)
        assert got.shape == (40,)
        np.testing.assert_allclose(got, [pucci(M, 0.5, 2.0, sign) for M in X],
                                   rtol=1e-15, atol=0)
    # leading axes are kept
    assert pucci(X.reshape(4, 10, dim, dim), 1.0, 2.0, "-").shape == (4, 10)


def test_single_matrix_results_are_python_floats():
    X = np.array([[1.0, 0.3], [0.3, -2.0]])
    assert type(pucci(X, 1.0, 2.0, "+")) is float
    assert type(pucci(X.tolist(), 1.0, 2.0, "-")) is float
    assert eigenvalues(X).shape == (2,)
    for spec in (OperatorSpec.linear_trace(np.diag([1.0, 2.0])),
                 OperatorSpec.hjb_sup(_FAMILY, 1.0, 2.0),
                 OperatorSpec.pucci_minus(1.0, 2.0),
                 OperatorSpec.custom(lambda x, X: np.trace(X))):
        assert type(evaluate_operator(spec, (0.5, 0.5), X)) is float
    assert type(evaluate_operator(OperatorSpec.p_laplacian(3.0), None, X,
                                  (1.0, 2.0))) is float


def test_evaluate_operator_on_a_stack():
    rng = np.random.default_rng(31)
    X = rng.standard_normal((30, 3, 2, 2))
    X = 0.5 * (X + X.swapaxes(-1, -2))
    x = rng.uniform(size=(30, 1, 2))           # one point per row of X
    specs = (OperatorSpec.linear_trace(np.diag([1.0, 1.5])),
             OperatorSpec.linear_trace(_x_coeff, 1.0, 1.2),
             OperatorSpec.hjb_inf(_FAMILY, 1.0, 2.0),
             OperatorSpec.hjb_sup((_x_coeff, np.eye(2)), 1.0, 2.0),
             OperatorSpec.pucci_plus(1.0, 2.0),
             OperatorSpec.pucci_minus(0.5, 3.0),
             OperatorSpec.custom(lambda p, M: float(np.trace(M)) * (1.0 + p[0])))
    for spec in specs:
        got = evaluate_operator(spec, x, X)
        want = [[evaluate_operator(spec, x[t, 0], X[t, j]) for j in range(3)]
                for t in range(30)]
        assert got.shape == (30, 3)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)
    xi = rng.standard_normal((30, 1, 2))
    xi[0] = 0.0
    plap = OperatorSpec.p_laplacian(3.0)
    got = evaluate_operator(plap, None, X, xi)
    want = [[evaluate_operator(plap, None, X[t, j], xi[t, 0]) for j in range(3)]
            for t in range(30)]
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


# --- input validation -------------------------------------------------------

@pytest.mark.parametrize("spec, kw, match", [
    (OperatorSpec.linear_trace(np.eye(1)), {}, r"shape \(1, 1\) does not match dim=2"),
    (OperatorSpec.hjb_inf((np.eye(3), 2.0 * np.eye(3)), 1.0, 2.0), {},
     r"shape \(3, 3\) does not match dim=2"),
    (OperatorSpec.linear_trace(np.eye(2)), {"dim": 3}, "does not match dim=3"),
    (OperatorSpec.pucci_plus(1.0, 2.0), {"dim": 0}, "dim must be 1, 2 or 3"),
    (OperatorSpec.pucci_plus(1.0, 2.0), {"dim": 4}, "dim must be 1, 2 or 3"),
    (OperatorSpec.pucci_plus(1.0, 2.0), {"trials": 2.5}, "trials must be an integer"),
    (OperatorSpec.pucci_plus(1.0, 2.0), {"trials": 0}, "trials must be an integer"),
    (OperatorSpec.pucci_plus(1.0, 2.0), {"trials": "10"}, "trials must be an integer"),
])
def test_check_axioms_validates_input(spec, kw, match):
    args = {"trials": 10, "seed": 1, **kw}
    with pytest.raises(ValueError, match=match):
        check_axioms(spec, **args)


@pytest.mark.parametrize("X, match", [
    (np.ones((2, 3)), "square"), (np.ones((4, 3, 2)), "square"),
    (np.eye(4), "dim 1..3"), (np.zeros((5, 4, 4)), "dim 1..3"),
    (np.ones(3), "square")], ids=["2x3", "stack_3x2", "4x4", "stack_4x4", "vector"])
def test_stack_refuses_what_is_not_a_matrix(X, match):
    # every continuum operator reads its matrices through _stack
    for f in (_stack, eigenvalues, lambda X: pucci(X, 1.0, 2.0, "+")):
        with pytest.raises(ValueError, match=match):
            f(X)


def test_stack_is_the_symmetric_part():
    # a scalar is a 1 x 1 matrix; a matrix and a stack become 0.5 (X + X^T)
    assert np.array_equal(_stack(2.5), [[2.5]])
    A = np.random.default_rng(7).standard_normal((6, 3, 3))
    assert np.array_equal(_stack(A[0]), 0.5 * (A[0] + A[0].T))
    assert np.array_equal(_stack(A), [0.5 * (M + M.T) for M in A])
