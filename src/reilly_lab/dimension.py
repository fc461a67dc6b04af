"""Extended dimension parameter theta = 1/N and its limiting algebra.

The admissible range is theta in [-inf, 1/n] for ambient dimension n.
theta = 0 encodes N = infinity, theta = -inf encodes N = 0, and
theta = 1/n is permitted only for constant potentials.  All N-dependent
factors are evaluated through theta so the limits come out exactly:
N/(N-1) -> 1 at theta = 0 and -> 0 at theta = -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class InverseDimension:
    """Dimension parameter theta = 1/N on the extended interval [-inf, 1/n]."""

    theta: float
    n_ambient: int = 1

    def __post_init__(self):
        if self.n_ambient not in (1, 2, 3):
            raise ValueError(f"n_ambient must be 1, 2 or 3, got {self.n_ambient}")
        if math.isnan(self.theta):
            raise ValueError("theta must not be NaN")
        if self.theta > 1.0 / self.n_ambient + 1e-15:
            raise ValueError(
                f"theta = {self.theta} exceeds 1/n = {1.0 / self.n_ambient}"
            )

    @classmethod
    def from_n(cls, n_value: float, n_ambient: int = 1) -> "InverseDimension":
        """Build from an N value; N = 0 maps to theta = -inf, N = inf to 0."""
        if math.isinf(n_value):
            return cls(0.0, n_ambient)
        if n_value == 0.0:
            return cls(-math.inf, n_ambient)
        return cls(1.0 / n_value, n_ambient)

    @property
    def n_value(self) -> float:
        """Derived N; never stored."""
        if self.theta == 0.0:
            return math.inf
        if math.isinf(self.theta):
            return 0.0
        return 1.0 / self.theta

    @property
    def n_over_n_minus_1(self) -> float:
        """N/(N-1) = 1/(1-theta); equals 1 at theta = 0, 0 at theta = -inf."""
        if math.isinf(self.theta):
            return 0.0
        return 1.0 / (1.0 - self.theta)

    @property
    def n_minus_1_over_n(self) -> float:
        """(N-1)/N = 1 - theta; +inf at theta = -inf."""
        if math.isinf(self.theta):
            return math.inf
        return 1.0 - self.theta

    @property
    def inv_n_minus_1(self) -> float:
        """1/(N-1) = theta/(1-theta); equals -1 at theta = -inf (N = 0)."""
        return self.inv_n_minus_k(1)

    def inv_n_minus_k(self, k: int) -> float:
        """1/(N-k) = theta/(1-k*theta), used for the dV (x) dV term with k = n."""
        if math.isinf(self.theta):
            return -1.0 / k
        denom = 1.0 - k * self.theta
        if denom == 0.0:
            raise ValueError(f"1/(N-{k}) undefined at theta = 1/{k}")
        return self.theta / denom

    @property
    def is_infinite_n(self) -> bool:
        return self.theta == 0.0

    @property
    def is_zero_n(self) -> bool:
        return math.isinf(self.theta)

    def requires_constant_potential(self) -> bool:
        """theta = 1/n only makes sense when the potential is constant."""
        return abs(self.theta - 1.0 / self.n_ambient) <= 1e-15

    def transform_mass(self, mass: float) -> float:
        """N * mass^(1/N), read as log(mass) at theta = 0 (the N -> inf limit)."""
        if mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.theta == 0.0:
            return math.log(mass)
        if math.isinf(self.theta):
            raise ValueError("N * mass^(1/N) undefined at N = 0")
        n = 1.0 / self.theta
        return n * mass ** self.theta

