"""Closed-form references: the 1-D dead-core profile and Laplace eigenpairs.

The dead-core instance lives on (-pi/2, pi): v(x) = sin(x)^r / r on
[0, pi] extended by zero to the left, with r = (gamma+2)/(gamma+1-q).  It
solves |v'|^gamma v'' + a(x) v^q = 0 exactly for the sign-changing weight
a(x) = r^q |cos x|^gamma (1 - r cos^2 x), valid for 0 <= q < gamma+1 and
0 <= gamma < 2q (which forces r > 2, so the glued profile stays C^2).
"""

from dataclasses import dataclass
import numpy as np

from .grids import GridFunction, WeightField

__all__ = ["ExampleInstance", "example_instance", "AnalyticEigenpair",
           "laplace_eigenpair_1d"]

DOMAIN = (-np.pi / 2.0, np.pi)


@dataclass(frozen=True)
class ExampleInstance:
    gamma: float
    q: float
    r: float
    domain: tuple = DOMAIN

    def v(self, x):
        x = np.asarray(x, dtype=float)
        s = np.sin(np.clip(x, 0.0, np.pi))
        return np.where(x > 0, s ** self.r / self.r, 0.0)

    def dv(self, x):
        x = np.asarray(x, dtype=float)
        s = np.sin(np.clip(x, 0.0, np.pi))
        return np.where(x > 0, s ** (self.r - 1.0) * np.cos(x), 0.0)

    def d2v(self, x):
        x = np.asarray(x, dtype=float)
        s = np.sin(np.clip(x, 0.0, np.pi))
        return np.where(x > 0, (self.r * np.cos(x) ** 2 - 1.0) * s ** (self.r - 2.0), 0.0)

    def a(self, x):
        x = np.asarray(x, dtype=float)
        return self.r ** self.q * np.abs(np.cos(x)) ** self.gamma \
            * (1.0 - self.r * np.cos(x) ** 2)

    def weight_on(self, grid):
        return WeightField.from_callable(grid, lambda x, y=None: self.a(x))

    def one_component_weight_on(self, grid):
        """a held at its x = 0 value -r^q (r - 1) for x <= 0.  v still
        solves the equation exactly (v = 0 there), and {a > 0} is one
        interval, so v is the maximal solution; with weight_on, {a > 0}
        has a second component near -pi/2, where the maximal solution is
        positive and v is 0."""
        return WeightField.from_callable(
            grid, lambda x, y=None: self.a(np.maximum(x, 0.0)))

    def solution_on(self, grid):
        return GridFunction.from_callable(grid, lambda x, y=None: self.v(x))

    @property
    def negative_sup(self):
        """|a(0)| = r^q (r - 1), the negative-part sup of the weight."""
        return self.r ** self.q * (self.r - 1.0)


def example_instance(gamma, q):
    """Validated dead-core instance; errors name the violated inequality."""
    if not 0 <= q < gamma + 1:
        raise ValueError("validity window requires 0 <= q < gamma+1")
    if not 0 <= gamma < 2 * q:
        raise ValueError("validity window requires 0 <= gamma < 2q")
    r = (gamma + 2.0) / (gamma + 1.0 - q)
    return ExampleInstance(float(gamma), float(q), r)


@dataclass(frozen=True)
class AnalyticEigenpair:
    lambda_plus: float
    interval: tuple

    def phi(self, x):
        a, b = self.interval
        return np.sin(np.pi * (np.asarray(x, dtype=float) - a) / (b - a))


def laplace_eigenpair_1d(interval):
    """First Dirichlet eigenpair of -u'' on an interval (gamma = 0 oracle)."""
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError("empty interval")
    return AnalyticEigenpair((np.pi / (b - a)) ** 2, (a, b))
