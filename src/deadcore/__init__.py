"""Numerical laboratory for degenerate dead-core Dirichlet problems.

Solves and classifies nonnegative solutions of

    |Du|^gamma F(x, D^2 u) + a(x) u^q = 0 in Omega,  u = 0 on the boundary,

with fully nonlinear degenerate elliptic F, sign-changing weight a, and
sub-homogeneous reaction 0 < q < gamma + 1, on 1-D intervals and 2-D
rectangles.
"""

from .operators import (OperatorSpec, AxiomReport, eigenvalues, pucci,
                        evaluate_operator, check_axioms)
from .grids import (Grid, GridFunction, WeightField, Scheme, residual_field,
                    write_csv, read_csv)
from .dirichlet import IterationControl, RhsReport, solve_rhs
from .eigen import EigenControl, EigenPair, principal_eigenpair
from .solver import (ProblemSpec, SolveReport, SolveError, SubsolutionError,
                     build_subsolution, build_supersolution, solve, residual,
                     ball_eigenpair)
from .analysis import (ClassificationReport, ThresholdReport, BarrierResult,
                       ProbeRecord, classify, hopf_bound, to_w, w_residual,
                       w_residual_sup, barrier_check, estimate_threshold)
from .oracle import (ExampleInstance, example_instance, AnalyticEigenpair,
                     laplace_eigenpair_1d)

__version__ = "0.1.0"
