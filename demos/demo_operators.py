"""Tour of the operator layer: Pucci envelopes, HJB, and the axiom checker.

Run:  python3 demos/demo_operators.py
"""

import numpy as np

from deadcore import OperatorSpec, check_axioms, pucci, eigenvalues

rng = np.random.default_rng(0)

# Pucci extremal values on a random symmetric matrix -----------------------
X = rng.standard_normal((3, 3))
X = 0.5 * (X + X.T)
lam, Lam = 0.5, 2.0
print("symmetric test matrix X:\n", np.round(X, 3))
print("eigenvalues (LAPACK eigvalsh):", np.round(eigenvalues(X), 4))
print("M+(X; 0.5, 2) =", pucci(X, lam, Lam, "+"))
print("M-(X; 0.5, 2) =", pucci(X, lam, Lam, "-"))
print("duality check M+(X) = -M-(-X):",
      np.isclose(pucci(X, lam, Lam, "+"), -pucci(-X, lam, Lam, "-")))

# every linear trace operator with lam I <= A <= Lam I sits between them ----
A = np.diag([0.7, 1.3, 1.9])
tr = float(np.trace(A @ X))
print("Tr(A X) = %.4f in [M-, M+] = [%.4f, %.4f]"
      % (tr, pucci(X, lam, Lam, "-"), pucci(X, lam, Lam, "+")))

# structural axiom suite ----------------------------------------------------
print()
for name, spec in [
    ("pucci_plus(0.5, 2)", OperatorSpec.pucci_plus(0.5, 2.0)),
    ("hjb_inf over two diagonal coefficient matrices",
     OperatorSpec.hjb_inf((np.eye(2), np.diag([2.0, 1.0])), 1.0, 2.0)),
    ("p_laplacian(3)", OperatorSpec.p_laplacian(3.0)),
]:
    rep = check_axioms(spec, trials=500, seed=7)
    print("axioms for %-50s passed=%s" % (name, rep.passed))

# a broken operator is caught with a named counterexample -------------------
broken = OperatorSpec.custom(lambda x, X: float(np.trace(X)) + 1.0)
rep = check_axioms(broken, trials=500, seed=7)
print("broken operator Tr(X)+1: passed=%s, violated axiom=%r"
      % (rep.passed, (rep.counterexample or {}).get("axiom")))
