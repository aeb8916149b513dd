"""Pointwise fully nonlinear operators F(x, X) and their structural axioms.

Implements the operator zoo used throughout the package: linear trace
operators Tr(A(x) X), Pucci extremal operators M+/M-, Bellman/Isaacs
envelopes over finite linear families, and the p-Laplacian in
non-divergence form.  All operators are degenerate elliptic (sandwiched
between the Pucci extremes on positive increments) and positively
1-homogeneous; `check_axioms` certifies both properties, plus an optional
Lipschitz modulus in x, by randomized trials.
"""

from dataclasses import dataclass
import numpy as np

__all__ = [
    "SymMatrix", "Spectrum", "OperatorSpec", "AxiomReport",
    "eigenvalues", "pucci", "evaluate_operator", "evaluate_gradient_operator",
    "check_axioms",
]


class SymMatrix:
    """Small (dim <= 3) symmetric matrix; symmetry enforced on construction."""

    __slots__ = ("entries", "dim")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim == 0:
            a = a.reshape(1, 1)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("SymMatrix requires a square array")
        if not 1 <= a.shape[0] <= 3:
            raise ValueError("SymMatrix supports dim 1..3")
        self.entries = 0.5 * (a + a.T)
        self.dim = a.shape[0]

    @classmethod
    def diag(cls, *d):
        return cls(np.diag(np.asarray(d, dtype=float)))

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim))

    def trace(self):
        return float(np.trace(self.entries))

    def frobenius(self):
        return float(np.linalg.norm(self.entries))

    def __add__(self, other):
        return SymMatrix(self.entries + _entries(other))

    def __sub__(self, other):
        return SymMatrix(self.entries - _entries(other))

    def __mul__(self, s):
        return SymMatrix(self.entries * float(s))

    __rmul__ = __mul__

    def __repr__(self):
        return "SymMatrix(%r)" % (self.entries.tolist(),)


def _entries(X):
    return X.entries if isinstance(X, SymMatrix) else np.asarray(X, dtype=float)


def _as_sym(X):
    return X if isinstance(X, SymMatrix) else SymMatrix(X)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted (ascending) eigenvalues of a SymMatrix."""
    eigenvalues: np.ndarray


def eigenvalues(X):
    """Spectrum of a symmetric matrix, ascending, by np.linalg.eigvalsh.

    Backward stable: the eigenvalues are exact for a matrix within a few
    units of round-off times ||X|| of X.  Dims are capped at 3 by SymMatrix.
    """
    return Spectrum(np.linalg.eigvalsh(_as_sym(X).entries))


def pucci(X, lam, Lam, sign):
    """Pucci extremal operator M+ (sign '+') or M- (sign '-') of X.

    M+ = lam * sum of negative eigenvalues + Lam * sum of positive ones;
    M- swaps the roles of lam and Lam.
    """
    if not 0 < lam <= Lam:
        raise ValueError("require 0 < lam <= Lam")
    e = eigenvalues(X).eigenvalues
    neg = e[e < 0].sum()
    pos = e[e > 0].sum()
    if sign == "+":
        return float(lam * neg + Lam * pos)
    if sign == "-":
        return float(Lam * neg + lam * pos)
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
    bound, standing in for the continuity modulus.
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
        if not 0 < self.lam <= self.Lam:
            raise ValueError("require 0 < lam <= Lam")
        if self.variant == "p_laplacian" and not self.p > 1:
            raise ValueError("p-Laplacian requires p > 1")
        if self.variant in ("hjb_inf", "hjb_sup") and not self.family:
            raise ValueError("Bellman variants need a nonempty family")

    # --- constructors -------------------------------------------------

    @classmethod
    def linear_trace(cls, coeff, lam=None, Lam=None, lipschitz=None):
        if lam is None or Lam is None:
            if callable(coeff):
                raise ValueError("lam/Lam required for callable coefficients")
            e = eigenvalues(SymMatrix(coeff)).eigenvalues
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
        if not p > 1:
            raise ValueError("p-Laplacian requires p > 1")
        return cls("p_laplacian", lam=min(1.0, p - 1.0),
                   Lam=max(1.0, p - 1.0), p=p)

    @classmethod
    def custom(cls, func, lam=1.0, Lam=1.0):
        return cls("custom", lam=lam, Lam=Lam, func=func)

    @property
    def effective_gamma(self):
        """Gradient exponent the operator carries intrinsically (p-2 for
        the p-Laplacian, 0 otherwise)."""
        return self.p - 2.0 if self.variant == "p_laplacian" else 0.0

    def key(self):
        """Structural hash key (used to cache eigenpairs per operator)."""
        def one(c):
            if c is None:
                return None
            if callable(c):
                return id(c)
            return np.asarray(c, dtype=float).tobytes()
        return (self.variant, self.lam, self.Lam, self.p, one(self.coeff),
                tuple(one(c) for c in self.family), id(self.func) if self.func else None)


def coeff_at(coeff, x):
    """Evaluate a coefficient field (constant matrix or callable) at x."""
    A = coeff(np.atleast_1d(np.asarray(x, dtype=float))) if callable(coeff) else coeff
    return np.asarray(A, dtype=float)


def evaluate_operator(spec, x, X):
    """F(x, X) for gradient-free variants.

    The p-Laplacian depends on the gradient direction and must go through
    `evaluate_gradient_operator`.
    """
    X = _as_sym(X)
    v = spec.variant
    if v == "linear_trace":
        return float(np.trace(coeff_at(spec.coeff, x) @ X.entries))
    if v == "hjb_inf":
        return float(min(np.trace(coeff_at(c, x) @ X.entries) for c in spec.family))
    if v == "hjb_sup":
        return float(max(np.trace(coeff_at(c, x) @ X.entries) for c in spec.family))
    if v == "pucci_plus":
        return pucci(X, spec.lam, spec.Lam, "+")
    if v == "pucci_minus":
        return pucci(X, spec.lam, spec.Lam, "-")
    if v == "custom":
        return float(spec.func(x, X.entries))
    if v == "p_laplacian":
        raise TypeError("p-Laplacian needs a gradient; use evaluate_gradient_operator")
    raise ValueError("unknown variant %r" % v)


def p_laplacian_matrix_part(xi, X, p):
    """F_p(xi, X) = Tr[(I + (p-2) xi (x) xi / |xi|^2) X], Tr(X) at xi = 0."""
    X = _as_sym(X)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    n2 = float(xi @ xi)
    if n2 == 0.0:
        return X.trace()
    return X.trace() + (p - 2.0) * float(xi @ X.entries @ xi) / n2


def evaluate_gradient_operator(spec, x, xi, X, gamma):
    """|xi|^gamma * F(x, X), with the degenerate convention 0 at xi = 0.

    For the p-Laplacian the prefactor exponent is p-2 and the matrix part
    is F_p(xi, X); at xi = 0 the value is 0 for p != 2 and Tr(X) for p = 2.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    norm = float(np.sqrt(xi @ xi))
    if spec.variant == "p_laplacian":
        p = spec.p
        if norm == 0.0:
            return _as_sym(X).trace() if p == 2.0 else 0.0
        return norm ** (p - 2.0) * p_laplacian_matrix_part(xi, X, p)
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if norm == 0.0:
        return evaluate_operator(spec, x, X) if gamma == 0.0 else 0.0
    return norm ** gamma * evaluate_operator(spec, x, X)


@dataclass
class AxiomReport:
    """Outcome of randomized structural-axiom checks."""
    passed: bool
    trials: int
    checked: tuple
    counterexample: dict = None

    def __bool__(self):
        return self.passed


def _pointwise_F(spec, x, X, xi):
    if spec.variant == "p_laplacian":
        return p_laplacian_matrix_part(xi, X, spec.p)
    return evaluate_operator(spec, x, X)


def check_axioms(spec, trials, seed, dim=2, strict_homogeneity=False):
    """Randomized certification of ellipticity, homogeneity and continuity.

    For `trials` random tuples (x, y, X, Y >= 0, s > 0) asserts the Pucci
    sandwich M-(Y) <= F(x, X+Y) - F(x, X) <= M+(Y), positive 1-homogeneity
    F(x, sX) = s F(x, X) to 1e-12 relative, and, when a Lipschitz bound L
    is declared, |F(x,X) - F(y,X)| <= L |x-y| ||X||.  With
    strict_homogeneity the literal two-sided form F(x, sX) = |s| F(x, X)
    is tested as well (the Pucci operators fail it for s < 0, by design).
    Stops at the first counterexample and reports the witness.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    checked = ("ellipticity", "homogeneity") + \
        (("strict_homogeneity",) if strict_homogeneity else ()) + \
        (("lipschitz",) if spec.lipschitz is not None else ())

    for k in range(trials):
        x = rng.uniform(0.0, 1.0, size=dim)
        y = rng.uniform(0.0, 1.0, size=dim)
        X = SymMatrix(rng.standard_normal((dim, dim)))
        B = rng.standard_normal((dim, dim))
        Y = SymMatrix(B @ B.T)
        s = float(np.exp(rng.uniform(-2.0, 2.0)))
        xi = rng.standard_normal(dim)

        FX = _pointwise_F(spec, x, X, xi)

        # (F1): Pucci sandwich on nonnegative increments.
        d = _pointwise_F(spec, x, X + Y, xi) - FX
        lo = pucci(Y, spec.lam, spec.Lam, "-")
        hi = pucci(Y, spec.lam, spec.Lam, "+")
        tol = 1e-9 * (1.0 + Y.frobenius())
        if not (lo - tol <= d <= hi + tol):
            return AxiomReport(False, k + 1, checked, {
                "axiom": "ellipticity", "x": x, "X": X.entries, "Y": Y.entries,
                "increment": d, "pucci_minus": lo, "pucci_plus": hi})

        # (F2): positive 1-homogeneity.
        lhs = _pointwise_F(spec, x, s * X, xi)
        if abs(lhs - s * FX) > 1e-12 * max(1.0, abs(s * FX)):
            return AxiomReport(False, k + 1, checked, {
                "axiom": "homogeneity", "x": x, "X": X.entries, "s": s,
                "F_sX": lhs, "s_FX": s * FX})
        if strict_homogeneity:
            # literal two-sided form: F(x, sX) = |s| F(x, X) also for s < 0
            lhs = _pointwise_F(spec, x, (-s) * X, xi)
            ref = s * FX
            if abs(lhs - ref) > 1e-9 * max(1.0, abs(ref)):
                return AxiomReport(False, k + 1, checked, {
                    "axiom": "strict_homogeneity", "x": x, "X": X.entries,
                    "s": -s, "F_sX": lhs, "abs_s_FX": ref})

        # (F3): declared Lipschitz modulus in x.
        if spec.lipschitz is not None:
            dxy = float(np.linalg.norm(x - y))
            dF = abs(_pointwise_F(spec, x, X, xi) - _pointwise_F(spec, y, X, xi))
            if dF > spec.lipschitz * dxy * X.frobenius() + 1e-9:
                return AxiomReport(False, k + 1, checked, {
                    "axiom": "lipschitz", "x": x, "y": y, "X": X.entries,
                    "dF": dF, "bound": spec.lipschitz * dxy * X.frobenius()})

    return AxiomReport(True, trials, checked)
