"""Pointwise fully nonlinear operators F(x, X) and their structural axioms.

Implements the operator zoo used throughout the package: linear trace
operators Tr(A(x) X), Pucci extremal operators M+/M-, Bellman/Isaacs
envelopes over finite linear families, and the p-Laplacian in
non-divergence form.  All operators are degenerate elliptic (sandwiched
between the Pucci extremes on positive increments) and positively
1-homogeneous; `check_axioms` certifies both properties, plus an optional
Lipschitz modulus in x, by randomized trials evaluated as one batch:
`eigenvalues`, `pucci` and `evaluate_operator` take a (..., d, d) stack.
"""

from dataclasses import dataclass
import numpy as np
# numpy loads numpy.random lazily; importing it here keeps that import
# out of the first check_axioms call
from numpy.random import default_rng

__all__ = [
    "OperatorSpec", "AxiomReport",
    "eigenvalues", "pucci", "evaluate_operator", "check_axioms",
]


def _stack(X):
    """One matrix or a (..., d, d) stack of them as a float array, each
    symmetrized to 0.5 (X + X^T); a scalar is a 1 x 1 matrix.  Raises
    ValueError unless the matrices are square with d in 1..3."""
    a = np.asarray(X, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("operators need square matrices, got shape %s" % (a.shape,))
    if not 1 <= a.shape[-1] <= 3:
        raise ValueError("operators support dim 1..3, got %d" % a.shape[-1])
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _dot(a, b):
    """Dot products over the last axis, rounded as `a @ b` of one pair."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _scalar(v):
    """A 0-d result as a Python float; a stacked result as it is."""
    return float(v) if np.ndim(v) == 0 else v


def eigenvalues(X):
    """Eigenvalues of a symmetric matrix, ascending, by np.linalg.eigvalsh.

    Backward stable: the eigenvalues are exact for a matrix within a few
    units of round-off times ||X|| of X.  Dims are capped at 3.  A matrix
    gives a (d,) array, a stack (..., d) rows, each bit-identical to its
    matrix's own eigenvalues.
    """
    return np.linalg.eigvalsh(_stack(X))


def _check_ellipticity(lam, Lam):
    """The one rule for ellipticity constants, of OperatorSpec and pucci:
    0 < lam <= Lam < inf (nan fails it)."""
    if not 0 < lam <= Lam < np.inf:
        raise ValueError("require 0 < lam <= Lam < inf, got lam = %r, Lam = %r"
                         % (lam, Lam))


def pucci(X, lam, Lam, sign):
    """Pucci extremal operator M+ (sign '+') or M- (sign '-') of X.

    M+ = lam * sum of negative eigenvalues + Lam * sum of positive ones;
    M- swaps the roles of lam and Lam.  A float for one matrix, an array
    for a (..., d, d) stack.
    """
    _check_ellipticity(lam, Lam)
    e = eigenvalues(X)
    neg = np.minimum(e, 0.0).sum(axis=-1)
    pos = np.maximum(e, 0.0).sum(axis=-1)
    if sign == "+":
        return _scalar(lam * neg + Lam * pos)
    if sign == "-":
        return _scalar(Lam * neg + lam * pos)
    raise ValueError("sign must be '+' or '-'")


@dataclass(frozen=True, eq=False)
class OperatorSpec:
    """Enumerated description of the operator F.

    variant is one of 'linear_trace', 'pucci_plus', 'pucci_minus',
    'hjb_inf', 'hjb_sup', 'p_laplacian', 'custom'.  lam/Lam are the
    ellipticity parameters; `coeff` (matrix or callable x -> matrix) backs
    linear_trace, `family` (tuple of coeffs) the Bellman variants, `p` the
    p-Laplacian, and `func(x, X) -> float` a custom operator (axiom
    experiments only).  `lipschitz` optionally declares an x-Lipschitz
    bound, standing in for the continuity modulus.  Specs compare by
    identity (eq=False): ball_eigenpair keys its pair by the spec object.
    """
    variant: str
    lam: float = 1.0
    Lam: float = 1.0
    coeff: object = None
    family: tuple = ()
    p: float = 0.0
    func: object = None
    lipschitz: float = None

    def __post_init__(self):
        # p first: a p <= 1 also makes p_laplacian's lam = p - 1 <= 0, and
        # p = inf its Lam = p - 1
        if self.variant == "p_laplacian" and not 1 < self.p < np.inf:
            raise ValueError("p-Laplacian requires %s" % (
                "a finite p, got p = inf" if self.p > 1 else "p > 1"))
        _check_ellipticity(self.lam, self.Lam)
        if self.variant in ("hjb_inf", "hjb_sup") and not self.family:
            raise ValueError("Bellman variants need a nonempty family")

    # --- constructors -------------------------------------------------

    @classmethod
    def linear_trace(cls, coeff, lam=None, Lam=None, lipschitz=None):
        if lam is None or Lam is None:
            if callable(coeff):
                raise ValueError("lam/Lam required for callable coefficients")
            e = eigenvalues(coeff)
            lam = float(e[0]) if lam is None else lam
            Lam = float(e[-1]) if Lam is None else Lam
        return cls("linear_trace", lam=lam, Lam=Lam, coeff=coeff,
                   lipschitz=lipschitz)

    @classmethod
    def pucci_plus(cls, lam, Lam):
        return cls("pucci_plus", lam=lam, Lam=Lam)

    @classmethod
    def pucci_minus(cls, lam, Lam):
        return cls("pucci_minus", lam=lam, Lam=Lam)

    @classmethod
    def hjb_inf(cls, family, lam, Lam, lipschitz=None):
        return cls("hjb_inf", lam=lam, Lam=Lam, family=tuple(family),
                   lipschitz=lipschitz)

    @classmethod
    def hjb_sup(cls, family, lam, Lam, lipschitz=None):
        return cls("hjb_sup", lam=lam, Lam=Lam, family=tuple(family),
                   lipschitz=lipschitz)

    @classmethod
    def p_laplacian(cls, p):
        return cls("p_laplacian", lam=min(1.0, p - 1.0),
                   Lam=max(1.0, p - 1.0), p=p)

    @classmethod
    def custom(cls, func, lam=1.0, Lam=1.0):
        return cls("custom", lam=lam, Lam=Lam, func=func)


def coeff_at(coeff, x):
    """Evaluate a coefficient field (constant matrix or callable) at x, one
    point or a (..., dim) stack of them; a callable is called per point,
    and its values become (..., dim, dim)."""
    if not callable(coeff):
        return np.asarray(coeff, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    A = np.array([coeff(p) for p in x.reshape(-1, x.shape[-1])], dtype=float)
    return A.reshape(x.shape[:-1] + (x.shape[-1],) * 2)


def evaluate_operator(spec, x, X, xi=None):
    """F(x, X) of any variant, the p-Laplacian's at the gradient xi: the
    one continuum evaluator, of check_axioms and of analysis.w_residual.

    x is a point or a (..., dim) stack, X a matrix or a (..., d, d) stack,
    xi (the p-Laplacian only) a vector or a (..., d) stack, and their
    leading axes broadcast: one pair gives a float, stacks an array.
    Coefficients are evaluated once per point of x; a custom `func` is
    called once per broadcast pair.  The p-Laplacian without a gradient
    raises TypeError.
    """
    X = _stack(X)
    v = spec.variant
    if v in ("linear_trace", "hjb_inf", "hjb_sup"):
        tr = [np.trace(coeff_at(c, x) @ X, axis1=-2, axis2=-1)
              for c in (spec.family or (spec.coeff,))]
        return _scalar(np.max(tr, axis=0) if v == "hjb_sup" else np.min(tr, axis=0))
    if v in ("pucci_plus", "pucci_minus"):
        return pucci(X, spec.lam, spec.Lam, "+" if v == "pucci_plus" else "-")
    if v == "custom":
        func = np.vectorize(spec.func, otypes=[float], signature="(n),(d,d)->()")
        return _scalar(func(np.atleast_1d(np.asarray(x, dtype=float)), X))
    if v == "p_laplacian":
        if xi is None:
            raise TypeError("the p-Laplacian needs the gradient xi")
        # Tr[(I + (p-2) xi (x) xi / |xi|^2) X]; at xi = 0 Tr(X), but in
        # 1-D (p-1) X, its value at every xi != 0
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        n2 = _dot(xi, xi)
        tr = np.trace(X, axis1=-2, axis2=-1)
        quad = (xi[..., None, :] @ X @ xi[..., :, None])[..., 0, 0]
        at0 = tr if X.shape[-1] > 1 else (spec.p - 1.0) * tr
        return _scalar(np.where(n2 == 0.0, at0, tr + (spec.p - 2.0) * quad
                                / np.where(n2 == 0.0, 1.0, n2)))
    raise ValueError("unknown variant %r" % v)


@dataclass
class AxiomReport:
    """Outcome of randomized structural-axiom checks."""
    passed: bool
    trials: int
    checked: tuple
    counterexample: dict = None

    def __bool__(self):
        return self.passed


def check_axioms(spec, trials, seed, dim=2):
    """Randomized certification of ellipticity, homogeneity and continuity.

    For `trials` random tuples (x, y, X, Y >= 0, s > 0) asserts the Pucci
    sandwich M-(Y) <= F(x, X+Y) - F(x, X) <= M+(Y), positive 1-homogeneity
    F(x, sX) = s F(x, X) to 1e-12 relative, and, when a Lipschitz bound L
    is declared, |F(x,X) - F(y,X)| <= L |x-y| ||X||.  Homogeneity is
    checked for s > 0 only: the Pucci operators are not odd.  The trials
    are drawn one by one from default_rng(seed) and evaluated as one
    batch, so a `custom` func is called for every trial.  A failure
    reports the lowest failing trial and a witness of its first failing
    axiom, in the order above.
    """
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValueError("trials must be an integer >= 1, got %r" % (trials,))
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2 or 3, got %r" % (dim,))
    for c in (spec.coeff, *spec.family):
        if not (c is None or callable(c)) and np.shape(c) != (dim, dim):
            raise ValueError("%s coefficient of shape %s does not match dim=%d"
                             % (spec.variant, np.shape(c), dim))
    rng = default_rng(seed)
    xy = np.empty((trials, 2, dim))
    AB = np.empty((trials, 2, dim, dim))
    r, xi = np.empty(trials), np.empty((trials, dim))
    # fixed draw order, per trial x, y, A, B, s, xi; rng.random is
    # uniform(0, 1), and uniform(-2, 2) is -2 + 4 r of it
    for k in range(trials):
        rng.random(out=xy[k])
        rng.standard_normal(out=AB[k])
        r[k] = rng.random()
        rng.standard_normal(out=xi[k])
    x, y = xy.swapaxes(0, 1).copy()
    A, B = AB.swapaxes(0, 1).copy()
    s = np.exp(-2.0 + 4.0 * r)
    X = _stack(A)
    Y = _stack(B @ B.swapaxes(1, 2))
    Xf, Yf = X.reshape(trials, -1), Y.reshape(trials, -1)
    sX = s[:, None, None] * X
    F = evaluate_operator(spec, x[:, None], np.stack([X, X + Y, sX], axis=1),
                          xi[:, None])
    FX, d, sFX = F[:, 0], F[:, 1] - F[:, 0], s * F[:, 0]
    lo = pucci(Y, spec.lam, spec.Lam, "-")
    hi = pucci(Y, spec.lam, spec.Lam, "+")
    tol = 1e-9 * (1.0 + np.sqrt(_dot(Yf, Yf)))

    # (name, failing trials, witness fields); a trial's first failure wins
    tests = [("ellipticity", ~((lo - tol <= d) & (d <= hi + tol)),
              {"x": x, "X": X, "Y": Y, "increment": d, "pucci_minus": lo,
               "pucci_plus": hi}),
             ("homogeneity", np.abs(F[:, 2] - sFX) > 1e-12 * np.maximum(1.0, np.abs(sFX)),
              {"x": x, "X": X, "s": s, "F_sX": F[:, 2], "s_FX": sFX})]
    if spec.lipschitz is not None:
        dF = np.abs(FX - evaluate_operator(spec, y, X, xi))
        bound = spec.lipschitz * np.sqrt(_dot(x - y, x - y)) * np.sqrt(_dot(Xf, Xf))
        tests.append(("lipschitz", dF > bound + 1e-9,
                      {"x": x, "y": y, "X": X, "dF": dF, "bound": bound}))

    checked = tuple(name for name, _, _ in tests)
    failed = np.logical_or.reduce([bad for _, bad, _ in tests])
    if not failed.any():
        return AxiomReport(True, trials, checked)
    k = int(np.argmax(failed))
    axiom, _, fields = next(t for t in tests if t[1][k])
    return AxiomReport(False, k + 1, checked, {"axiom": axiom, **{
        key: v[k].copy() if v.ndim > 1 else float(v[k]) for key, v in fields.items()}})
