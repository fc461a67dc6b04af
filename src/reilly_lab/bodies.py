"""Convex bodies: support-function plane bodies, revolution surfaces, caps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConvexityViolation
from .numerics import _freeze, diff1, diff2, simpson_uniform, spectral_diff
from .trig import TrigPolynomial


@dataclass(frozen=True)
class ConvexPlaneBody:
    """Strictly convex plane body sampled through its support function.

    h is sampled on m uniform normal angles theta_k = 2 pi k / m; the
    derivatives h', h'' are spectral (exact for trig-polynomial data).
    The boundary point with outward normal nu(theta) is
    p = h nu + h' nu_perp, and the curvature radius is h + h''.
    """

    m: int
    angles: np.ndarray
    h: np.ndarray
    hp: np.ndarray
    hpp: np.ndarray
    support: Optional[TrigPolynomial] = None
    label: str = "body"

    def __post_init__(self):
        if self.m < 8 or self.m % 2 != 0:
            raise ValueError("m must be even and at least 8")
        for name in ("angles", "h", "hp", "hpp"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        if not all(np.isfinite(v).all() for v in (self.h, self.hp, self.hpp)):
            raise ValueError("support samples h, h', h'' must be finite")
        radius = self.curvature_radius
        if np.any(radius <= 0.0):
            k = int(np.argmin(radius))
            raise ConvexityViolation(
                f"support function is not strictly convex: h + h'' = "
                f"{radius[k]:.6g} at angle {self.angles[k]:.6g}",
                where=float(self.angles[k]),
                value=float(radius[k]),
            )

    @property
    def curvature_radius(self) -> np.ndarray:
        return self.h + self.hpp

    @property
    def d_angle(self) -> float:
        return 2.0 * math.pi / self.m

    def normals(self) -> np.ndarray:
        return np.stack([np.cos(self.angles), np.sin(self.angles)], axis=1)

    def points(self) -> np.ndarray:
        nu = self.normals()
        nup = np.stack([-np.sin(self.angles), np.cos(self.angles)], axis=1)
        return self.h[:, None] * nu + self.hp[:, None] * nup

    def boundary_weight(self) -> np.ndarray:
        """Line element density wrt d(theta): h + h''."""
        return self.curvature_radius

    def perimeter(self) -> float:
        return float(np.sum(self.boundary_weight())) * self.d_angle

    def area(self) -> float:
        """Enclosed Lebesgue area via the support-function formula."""
        return 0.5 * float(np.sum(self.h * self.curvature_radius)) * self.d_angle

    def mass(self) -> float:
        """Enclosed measure: plane bodies carry no potential."""
        return self.area()


def build_plane_body(
    support: TrigPolynomial | tuple | list,
    m: int = 512,
    label: str = "body",
) -> ConvexPlaneBody:
    """Plane body from trig-polynomial support coefficients.

    Raises ConvexityViolation (reporting the worst angle) when the
    curvature radius h + h'' fails to be positive somewhere.
    """
    if not isinstance(support, TrigPolynomial):
        support = TrigPolynomial.from_flat(support)
    angles = np.arange(m) * (2.0 * math.pi / m)
    h = support(angles)
    hp = support(angles, derivative=1)
    hpp = support(angles, derivative=2)
    return ConvexPlaneBody(m=m, angles=angles, h=h, hp=hp, hpp=hpp,
                           support=support, label=label)


def plane_body_from_samples(h: np.ndarray, label: str = "body") -> ConvexPlaneBody:
    """Plane body from support samples; derivatives via FFT differentiation."""
    h = np.asarray(h, dtype=float)
    if not np.isfinite(h).all():
        raise ValueError("support samples must be finite")
    m = h.size
    angles = np.arange(m) * (2.0 * math.pi / m)
    return ConvexPlaneBody(m=m, angles=angles, h=h,
                           hp=spectral_diff(h, 1), hpp=spectral_diff(h, 2),
                           label=label)


@dataclass(frozen=True)
class RevolutionBody3D:
    """Convex body of revolution about the z axis.

    The generating curve (r(s), z(s)) is sampled by arclength on n+1
    uniform nodes of [0, S] with both poles included: r(0) = r(S) = 0,
    r'(0) = 1, r'(S) = -1.  Curvature extraction differentiates these
    samples; the axisymmetric eigensolver places its unknowns at cell
    centers so the pole singularity 1/r never appears at a solver node.
    """

    s: np.ndarray
    r: np.ndarray
    z: np.ndarray
    label: str = "revolution"

    def __post_init__(self):
        for name in ("s", "r", "z"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"profile {name} must be finite")
        n = self.s.size
        if n < 33 or (n - 1) % 2 != 0:
            raise ValueError("profile needs an odd node count >= 33")
        if abs(self.r[0]) > 1e-12 or abs(self.r[-1]) > 1e-12:
            raise ValueError("profile must close at both poles (r = 0)")
        # the slope at and next to each pole from the profile reflected
        # about that pole (r odd, z even): the one-sided stencils misread
        # the exact sphere at 64 cells by 1.2e-6, the central ones by 2e-7
        h = self.h
        r, z = self.r, self.z
        rp = diff1(np.r_[-r[2:0:-1], r, -r[-2:-4:-1]], h)[2:-2]
        zp = diff1(np.r_[z[2:0:-1], z, z[-2:-4:-1]], h)[2:-2]
        if abs(rp[0] - 1.0) > 1e-4 or abs(rp[-1] + 1.0) > 1e-4:
            raise ValueError(
                f"pole closure failed: r'(0) = {rp[0]:.6g}, r'(S) = {rp[-1]:.6g}"
            )
        sp = np.hypot(rp, zp)
        if np.max(np.abs(sp - 1.0)) > 1e-6:
            raise ValueError("profile is not arclength parametrized")
        k1, k2 = self.principal_curvatures()
        interior = slice(1, -1)
        if np.any(k1[interior] <= 0.0) or np.any(k2[interior] <= 0.0):
            j = int(np.argmin(np.minimum(k1, k2)[interior])) + 1
            raise ConvexityViolation(
                f"revolution profile not strictly convex near s = {self.s[j]:.6g}",
                where=float(self.s[j]),
                value=float(min(k1[j], k2[j])),
            )

    @property
    def h(self) -> float:
        return float(self.s[1] - self.s[0])

    @property
    def n_cells(self) -> int:
        return self.s.size - 1

    def derivatives(self):
        h = self.h
        return diff1(self.r, h), diff1(self.z, h), diff2(self.r, h), diff2(self.z, h)

    def principal_curvatures(self):
        """(meridional, azimuthal) curvatures wrt the outward normal (-z', r').

        At the poles the surface is umbilic; the azimuthal curvature takes
        the meridional value there instead of the indeterminate -z'/r.
        """
        rp, zp, rpp, zpp = self.derivatives()
        k1 = rpp * zp - zpp * rp
        k2 = np.empty_like(k1)
        inner = self.r > 1e-12
        k2[inner] = -zp[inner] / self.r[inner]
        k2[~inner] = k1[~inner]
        return k1, k2

    def boundary_weight(self) -> np.ndarray:
        """Area element density wrt ds: 2 pi r."""
        return 2.0 * math.pi * self.r

    def surface_area(self) -> float:
        return simpson_uniform(self.boundary_weight(), self.h)

    def volume(self) -> float:
        """Enclosed Lebesgue volume: pi * integral of r^2 (-z') ds."""
        _, zp, _, _ = self.derivatives()
        return math.pi * simpson_uniform(self.r**2 * (-zp), self.h)

    def mass(self) -> float:
        """Enclosed measure: revolution bodies carry no potential."""
        return self.volume()

    def gauss_curvature_intrinsic(self) -> np.ndarray:
        """Gauss curvature of the induced metric ds^2 + r(s)^2 dphi^2: -r''/r.

        Interior samples only (poles excluded).
        """
        rpp = diff2(self.r, self.h)
        return -rpp[1:-1] / self.r[1:-1]


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Not-a-knot spline through (x, y): coefficients c[k, i] of (x - x[i])^(3-k)
    in the operation order of scipy 1.17's CubicSpline, so bitwise its c."""
    from ._lapack import _gtsv
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    A = np.array([np.r_[0.0, d0, dx[:-1]],
                  np.r_[dx[1], 2 * (dx[:-1] + dx[1:]), dx[-2]],
                  np.r_[dx[1:], d1, 0.0]])
    b = np.r_[((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d0,
              3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
              (dx[-1]**2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1]
    s = _gtsv(A[2, :-1], A[1], A[0, 1:], b)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def _arclength_reparametrize(
    x: Callable, y: Callable, tau0: float, tau1: float, n_cells: int,
    speed_fn: Callable,
) -> tuple:
    """Resample a curve (x(tau), y(tau)) at n_cells+1 uniform arclength nodes.

    The exact speed |(x', y')| is integrated on a grid 16 times finer with
    a spline, then inverted; node positions are accurate to well below the
    differencing error of downstream consumers.
    """
    nf = 16 * n_cells
    tau = np.linspace(tau0, tau1, nf + 1)
    c = _not_a_knot(tau, np.asarray(speed_fn(tau), dtype=float))
    # each segment's integral is the power-form antiderivative of its cubic
    # at the segment length, in the operation order scipy uses for one
    # interval, so the sum is bitwise that of CubicSpline.integrate per segment
    h = tau[1:] - tau[:-1]
    seg = (c[3] * h + c[2] * (h * h) * 0.5 + c[1] * ((h * h) * h) * (1.0 / 3.0)
           + c[0] * (((h * h) * h) * h) * 0.25)
    cum = np.r_[0.0, np.cumsum(seg)]
    q = _not_a_knot(cum, tau)
    s = np.linspace(0.0, cum[-1], n_cells + 1)
    # the inverse spline q at s, in scipy's PPoly search and Horner order
    i = np.clip(np.searchsorted(cum, s, "right") - 1, 0, nf - 1)
    u = s - cum[i]
    tt = ((q[3, i] + q[2, i] * u) + q[1, i] * (u * u)) + q[0, i] * ((u * u) * u)
    tt[0], tt[-1] = tau0, tau1
    return s, np.asarray(x(tt), dtype=float), np.asarray(y(tt), dtype=float)


def _closed(s, r, z, label: str) -> RevolutionBody3D:
    """Revolution body of a profile whose r is pinned to 0 at both poles."""
    r = r.copy()
    r[0] = 0.0
    r[-1] = 0.0
    return RevolutionBody3D(s=s, r=r, z=z, label=label)


def build_sphere_body(radius: float = 1.0, n_cells: int = 1024) -> RevolutionBody3D:
    """Round sphere profile (R sin(s/R), R cos(s/R)), s in [0, pi R]."""
    s = np.linspace(0.0, math.pi * radius, n_cells + 1)
    return _closed(s, radius * np.sin(s / radius), radius * np.cos(s / radius),
                   f"sphere(R={radius:g})")


def build_spheroid_body(a: float = 1.0, c: float = 1.2,
                        n_cells: int = 1024) -> RevolutionBody3D:
    """Spheroid with equatorial semi-axis a and polar semi-axis c.

    The ellipse quarter-turn parametrization (a sin tau, c cos tau) is
    reparametrized to arclength numerically.
    """
    for name, axis in (("a", a), ("c", c)):
        if not (math.isfinite(axis) and axis > 0.0):
            raise ValueError(f"semi-axis {name} must be finite and positive, "
                             f"got {axis!r}")
    s, r, z = _arclength_reparametrize(
        lambda tau: a * np.sin(tau),
        lambda tau: c * np.cos(tau),
        0.0, math.pi, n_cells,
        speed_fn=lambda tau: np.sqrt(
            a * a * np.cos(tau) ** 2 + c * c * np.sin(tau) ** 2
        ),
    )
    return _closed(s, r, z, f"spheroid(a={a:g},c={c:g})")


@dataclass(frozen=True)
class SphereCap:
    """Geodesic cap of radius r_cap on the unit 2-sphere."""

    r_cap: float

    def __post_init__(self):
        if not 0.0 < self.r_cap < math.pi:
            raise ValueError("cap radius must lie in (0, pi)")

    def area(self, extra: float = 0.0) -> float:
        return 2.0 * math.pi * (1.0 - math.cos(self.r_cap + extra))
