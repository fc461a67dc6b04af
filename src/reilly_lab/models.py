"""One-dimensional weighted models: intervals with density, radial balls.

Densities built here carry closed-form first and second potential
derivatives so that discretization error in downstream identity checks
comes from the identity under test, not from differencing the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dimension import InverseDimension
from .numerics import _freeze, diff1, diff2, simpson_uniform


@dataclass(frozen=True)
class IntervalModel:
    """Weighted interval ([a, b], dt, exp(-V(t)) dt) sampled on n_pts nodes."""

    a: float
    b: float
    n_pts: int
    t: np.ndarray
    V: np.ndarray
    dV: np.ndarray
    ddV: np.ndarray
    rho_field: Optional[np.ndarray] = None
    label: str = "interval"

    def __post_init__(self):
        if self.n_pts < 16:
            raise ValueError("n_pts must be at least 16")
        if not self.h > 0.0:
            raise ValueError("interval requires b > a and a grid spacing "
                             "(b - a)/(n_pts - 1) above zero")
        for name in ("t", "V", "dV", "ddV"):
            arr = getattr(self, name)
            if arr.shape != (self.n_pts,):
                raise ValueError(f"{name} must have shape ({self.n_pts},)")
            object.__setattr__(self, name, _freeze(arr))
        if self.rho_field is not None:
            object.__setattr__(self, "rho_field", _freeze(self.rho_field))
        dens = np.exp(-self.V)
        if not np.all(np.isfinite(dens)) or np.any(dens <= 0.0):
            raise ValueError("density exp(-V) must be positive and finite")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n_pts - 1)

    @property
    def density(self) -> np.ndarray:
        return np.exp(-self.V)

    def mass(self) -> float:
        return simpson_uniform(self.density, self.h)

    def bakry_emery(self, theta: InverseDimension) -> np.ndarray:
        """Pointwise Ric_{mu,N} = V'' - (V')^2/(N-1) on the nodes (n = 1)."""
        if theta.requires_constant_potential():
            if float(np.max(np.abs(self.dV))) > 1e-12:
                raise ValueError("theta = 1/n requires a constant potential")
            return self.ddV.copy()
        return self.ddV - theta.inv_n_minus_1 * self.dV**2

    def bakry_emery_min(self, theta: InverseDimension) -> float:
        """Smallest Ric_{mu,N} over the nodes."""
        return float(np.min(self.bakry_emery(theta)))

    def boundary_h_mu(self) -> tuple:
        """(H_mu(a), H_mu(b)) = (+V'(a), -V'(b)): outward normals -1, +1."""
        return float(self.dV[0]), float(-self.dV[-1])


@dataclass(frozen=True)
class ModelDensityParams:
    """Parameters of the cos/cosh power sharpness densities.

    delta = rho/(N-1); the density is R(t)^(N-1) with R = cos(sqrt(delta) t)
    for delta > 0 and cosh(sqrt(-delta) t) for delta < 0, truncated at
    beta_trunc inside the positivity domain.  variant 'neumann' uses the
    symmetric interval [-beta_trunc, beta_trunc]; 'dirichlet' the half
    interval [0, beta_trunc].
    """

    rho: float
    theta: InverseDimension
    beta_trunc: float
    variant: str = "neumann"

    def __post_init__(self):
        if self.rho <= 0.0:
            raise ValueError("rho must be positive")
        if self.variant not in ("neumann", "dirichlet"):
            raise ValueError("variant must be 'neumann' or 'dirichlet'")
        n = self.theta.n_value
        if self.theta.is_infinite_n:
            raise ValueError(
                "theta = 0 (N = inf) degenerates delta = rho/(N-1); "
                "build an explicit Gaussian interval instead"
            )
        if 0.0 <= n <= 1.0:
            raise ValueError(f"N = {n} in [0, 1] is outside the density's domain")
        if self.beta_trunc <= 0.0:
            raise ValueError("beta_trunc must be positive")
        if self.delta > 0.0 and self.beta_trunc >= self.beta_max:
            raise ValueError(
                f"beta_trunc = {self.beta_trunc} is outside the positivity "
                f"domain (beta = {self.beta_max})"
            )

    @property
    def delta(self) -> float:
        n = self.theta.n_value
        return self.rho / (n - 1.0)

    @property
    def beta_max(self) -> float:
        """Positivity endpoint: pi/(2 sqrt(delta)) when delta > 0, else inf."""
        if self.delta > 0.0:
            return math.pi / (2.0 * math.sqrt(self.delta))
        return math.inf

    def profile(self):
        """Closed-form (R, R', R'') callables."""
        d = self.delta
        if d > 0.0:
            s = math.sqrt(d)
            return (
                lambda t: np.cos(s * t),
                lambda t: -s * np.sin(s * t),
                lambda t: -d * np.cos(s * t),
            )
        s = math.sqrt(-d)
        return (
            lambda t: np.cosh(s * t),
            lambda t: s * np.sinh(s * t),
            lambda t: -d * np.cosh(s * t),
        )


def build_model_density(params: ModelDensityParams, n_pts: int) -> IntervalModel:
    """Sharpness model density R^(N-1) as an IntervalModel.

    V = -(N-1) log R with analytic derivatives; the 1-D Bakry-Emery tensor
    equals rho at every node (the construction is the equality case).
    """
    n = params.theta.n_value
    a = -params.beta_trunc if params.variant == "neumann" else 0.0
    b = params.beta_trunc
    t = np.linspace(a, b, n_pts)
    R, Rp, Rpp = params.profile()
    r, rp, rpp = R(t), Rp(t), Rpp(t)
    if np.any(r <= 0.0):
        raise ValueError("R must stay positive on the truncated interval")
    nm1 = n - 1.0
    V = -nm1 * np.log(r)
    dV = -nm1 * rp / r
    ddV = -nm1 * (rpp * r - rp**2) / r**2
    return IntervalModel(
        a=a, b=b, n_pts=n_pts, t=t, V=V, dV=dV, ddV=ddV,
        label=f"model-density(rho={params.rho:g},N={n:g},{params.variant})",
    )


def build_gaussian_interval(sigma: float, half_width: float, n_pts: int) -> IntervalModel:
    """Truncated Gaussian test bed: V = t^2/(2 sigma^2), Ric_{mu,inf} = 1/sigma^2.

    half_width >= 4 sigma is recommended so truncation error stays below
    the tolerances of the equality-case checks.
    """
    if sigma <= 0.0 or half_width <= 0.0:
        raise ValueError("sigma and half_width must be positive")
    t = np.linspace(-half_width, half_width, n_pts)
    s2 = sigma * sigma
    return IntervalModel(
        a=-half_width, b=half_width, n_pts=n_pts,
        t=t, V=t**2 / (2.0 * s2), dV=t / s2, ddV=np.full(n_pts, 1.0 / s2),
        label=f"gaussian(sigma={sigma:g},L={half_width:g})",
    )


def build_interval_model(
    a: float,
    b: float,
    n_pts: int,
    V: Callable,
    dV: Optional[Callable] = None,
    ddV: Optional[Callable] = None,
    rho_field: Optional[Callable] = None,
    label: str = "interval",
) -> IntervalModel:
    """Generic interval from callables.

    Missing derivative callables fall back to 4th-order differencing of
    the sampled potential (one-sided at the ends).
    """
    t = np.linspace(a, b, n_pts)
    h = (b - a) / (n_pts - 1)
    v = np.asarray(V(t), dtype=float)
    dv = np.asarray(dV(t), dtype=float) if dV is not None else diff1(v, h)
    ddv = np.asarray(ddV(t), dtype=float) if ddV is not None else diff2(v, h)
    rho = np.asarray(rho_field(t), dtype=float) if rho_field is not None else None
    return IntervalModel(a=a, b=b, n_pts=n_pts, t=t, V=v, dV=dv, ddV=ddv,
                         rho_field=rho, label=label)


_SPHERE_SURFACE = {2: 2.0 * math.pi, 3: 4.0 * math.pi}


@dataclass(frozen=True)
class RadialBall:
    """Euclidean n-ball (n = 2 or 3) with a radial potential.

    Radial samples live on a uniform grid over [0, R_outer] including both
    the center and the boundary sphere.
    """

    n_ambient: int
    r_outer: float
    n_pts: int
    r: np.ndarray
    V: np.ndarray
    dV: np.ndarray
    ddV: np.ndarray
    label: str = "ball"

    def __post_init__(self):
        if self.n_ambient not in (2, 3):
            raise ValueError("RadialBall supports n_ambient 2 or 3")
        if self.r_outer <= 0.0:
            raise ValueError("R_outer must be positive")
        if self.n_pts < 16:
            raise ValueError("n_pts must be at least 16")
        for name in ("r", "V", "dV", "ddV"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        if abs(self.dV[0]) > 1e-10:
            raise ValueError("radial potential must have V'(0) = 0")

    @property
    def h(self) -> float:
        return self.r_outer / (self.n_pts - 1)

    @property
    def sphere_area(self) -> float:
        """Surface measure of the unit (n-1)-sphere."""
        return _SPHERE_SURFACE[self.n_ambient]

    def volume_element(self) -> np.ndarray:
        """Weight of the radial measure: |S^{n-1}| r^{n-1} exp(-V)."""
        return self.sphere_area * self.r ** (self.n_ambient - 1) * np.exp(-self.V)

    def mass(self) -> float:
        return simpson_uniform(self.volume_element(), self.h)

    def boundary_h_mu(self) -> float:
        """H_mu at the boundary sphere: (n-1)/R - V'(R)."""
        return (self.n_ambient - 1) / self.r_outer - float(self.dV[-1])

    def boundary_measure(self) -> float:
        return self.sphere_area * self.r_outer ** (self.n_ambient - 1) * math.exp(
            -float(self.V[-1])
        )

    def bakry_emery(self, theta: InverseDimension) -> tuple:
        """The (radial, tangential) eigenvalue fields of Ric_{mu,N}.

        Radial eigenvalue V'' - (V')^2/(N-n); tangential eigenvalue V'/r,
        with the r -> 0 limit V''(0).
        """
        if theta.requires_constant_potential():
            if float(np.max(np.abs(self.dV))) > 1e-12:
                raise ValueError("theta = 1/n requires a constant potential")
            coef = 0.0
        else:
            coef = theta.inv_n_minus_k(self.n_ambient)
        radial = self.ddV - coef * self.dV**2
        tangential = np.empty_like(radial)
        tangential[1:] = self.dV[1:] / self.r[1:]
        tangential[0] = self.ddV[0]
        return radial, tangential

    def bakry_emery_min(self, theta: InverseDimension) -> float:
        """Smallest eigenvalue of Ric_{mu,N} over nodes and directions."""
        radial, tangential = self.bakry_emery(theta)
        return float(min(radial.min(), tangential.min()))


def build_radial_ball(
    n_ambient: int,
    r_outer: float,
    n_pts: int,
    V: Optional[Callable] = None,
    dV: Optional[Callable] = None,
    ddV: Optional[Callable] = None,
    label: str = "ball",
) -> RadialBall:
    """Ball with an optional radial potential (default V = 0)."""
    r = np.linspace(0.0, r_outer, n_pts)
    if V is None:
        v = np.zeros(n_pts)
        dv = np.zeros(n_pts)
        ddv = np.zeros(n_pts)
    else:
        h = r_outer / (n_pts - 1)
        v = np.asarray(V(r), dtype=float)
        dv = np.asarray(dV(r), dtype=float) if dV is not None else diff1(v, h)
        ddv = np.asarray(ddV(r), dtype=float) if ddV is not None else diff2(v, h)
    return RadialBall(n_ambient=n_ambient, r_outer=r_outer, n_pts=n_pts,
                      r=r, V=v, dV=dv, ddV=ddv, label=label)
