"""Property tests (Hypothesis) of the reaction solve."""

import numpy as np
from hypothesis import given, settings, strategies as st

from deadcore import (Grid, IterationControl, OperatorSpec, ProblemSpec,
                      WeightField, classify, solve)

GRID = Grid.interval(0.0, 2.0, 79)
BALL = (0.2, 0.8)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(s=st.floats(0.0, 3.0), q=st.floats(0.2, 0.8),
       scale=st.floats(5.0, 40.0))
def test_gamma0_from_above_meets_from_below(s, q, scale):
    # sinsplit's {a > 0} has one component, so the maximal solution (the
    # bracketed solve, pseudo-transient Newton from the supersolution) and
    # the minimal one (the monotone iteration from the subsolution) agree.
    # The tolerance is absolute; these ranges keep sup u between 0.1 and
    # 2e4, where it sits above the residual's rounding floor
    p = ProblemSpec(GRID, OperatorSpec.linear_trace(np.eye(1)), 0.0, q,
                    WeightField.sinsplit(GRID, s).scaled(scale))
    tol = IterationControl().tolerance
    hi = solve(p, init="subsolution", ball=BALL)
    sub, sup = hi.bracket
    lo = solve(p, init="given", u0=sub)
    assert hi.converged and lo.converged
    assert np.max(np.abs(hi.solution.values - lo.solution.values)) <= 2 * tol
    assert classify(hi.solution).verdict == classify(lo.solution).verdict
    assert np.all(hi.solution.values >= sub.values - 1e-12)
    assert np.all(hi.solution.values <= sup.values + 1e-12)
