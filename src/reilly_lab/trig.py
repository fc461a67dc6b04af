"""Real trigonometric polynomials on [0, 2pi).

Used for support functions of convex plane bodies and for boundary test
functions.  Coefficients are stored as (cos, sin) pairs per frequency so
evaluation and differentiation are exact, which keeps equality-case
checks testable at spectral accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TrigPolynomial:
    """p(t) = sum_k a_k cos(k t) + b_k sin(k t), k = 0..degree."""

    cos_coeffs: tuple = field(default_factory=tuple)
    sin_coeffs: tuple = field(default_factory=tuple)

    def __post_init__(self):
        a = tuple(float(c) for c in self.cos_coeffs)
        b = tuple(float(c) for c in self.sin_coeffs)
        deg = max(len(a), len(b), 1)
        a = a + (0.0,) * (deg - len(a))
        b = b + (0.0,) * (deg - len(b))
        object.__setattr__(self, "cos_coeffs", a)
        object.__setattr__(self, "sin_coeffs", b)

    @property
    def degree(self) -> int:
        return len(self.cos_coeffs) - 1

    def __call__(self, t: np.ndarray, derivative: int = 0) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for k, (a, b) in enumerate(zip(self.cos_coeffs, self.sin_coeffs)):
            if a == 0.0 and b == 0.0:
                continue
            ka, kb = a, b
            # rotate (cos, sin) coefficients k^d times by d quarter turns
            for _ in range(derivative % 4):
                ka, kb = kb, -ka
            scale = float(k) ** derivative if (k > 0 or derivative == 0) else 0.0
            if scale != 0.0:
                out += scale * (ka * np.cos(k * t) + kb * np.sin(k * t))
        return out

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        deg = max(self.degree, other.degree) + 1
        a = np.zeros(deg)
        b = np.zeros(deg)
        a[: self.degree + 1] += self.cos_coeffs
        b[: self.degree + 1] += self.sin_coeffs
        a[: other.degree + 1] += other.cos_coeffs
        b[: other.degree + 1] += other.sin_coeffs
        return TrigPolynomial(tuple(a), tuple(b))

    def scaled(self, factor: float) -> "TrigPolynomial":
        return TrigPolynomial(
            tuple(factor * c for c in self.cos_coeffs),
            tuple(factor * c for c in self.sin_coeffs),
        )

    @classmethod
    def constant(cls, value: float) -> "TrigPolynomial":
        return cls((value,), (0.0,))

    @classmethod
    def from_flat(cls, coeffs) -> "TrigPolynomial":
        """Cosine-series shorthand used by the CLI: [a0, a1, a2, ...]."""
        return cls(tuple(float(c) for c in coeffs), ())


def random_trig_polynomial(rng: np.random.Generator,
                           degree: int = 8) -> TrigPolynomial:
    """Seeded random polynomial with 1/(1+k) coefficient decay."""
    ks = np.arange(degree + 1, dtype=float)
    a = rng.standard_normal(degree + 1) / (1.0 + ks)
    b = rng.standard_normal(degree + 1) / (1.0 + ks)
    b[0] = 0.0
    return TrigPolynomial(tuple(a), tuple(b))
