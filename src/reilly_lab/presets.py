"""Named models and bodies used by the suites, plus seeded random corpora."""

from __future__ import annotations

import math

import numpy as np

from .bodies import (ConvexPlaneBody, SphereCap, build_plane_body,
                     plane_body_from_samples)
from .dimension import InverseDimension
from .errors import ConfigError, ConvexityViolation
from .models import (ModelDensityParams, build_gaussian_interval,
                     build_interval_model, build_radial_ball)
from .trig import TrigPolynomial, random_trig_polynomial

DEFAULT_M = 512


def model_density_params(rho: float, n_value: float, beta_frac: float = 0.999,
                         beta_trunc=None, variant: str = "neumann") -> ModelDensityParams:
    """Params with beta_trunc = beta_frac * positivity endpoint for delta > 0;
    hyperbolic densities (delta < 0) take an explicit beta_trunc."""
    theta = InverseDimension.from_n(n_value)
    delta = rho / (n_value - 1.0)
    if delta > 0.0:
        bt = beta_frac * math.pi / (2.0 * math.sqrt(delta))
    else:
        if beta_trunc is None:
            raise ValueError("hyperbolic densities need an explicit beta_trunc")
        bt = beta_trunc
    return ModelDensityParams(rho=rho, theta=theta, beta_trunc=bt,
                              variant=variant)


def gaussian_model(n_pts: int = 2001, sigma: float = 1.0,
                   half_width: float = 6.0):
    return build_gaussian_interval(sigma, half_width, n_pts)


def gaussian_half_model(n_pts: int = 2001, sigma: float = 1.0,
                        width: float = 6.0):
    s2 = sigma * sigma
    return build_interval_model(
        0.0, width, n_pts,
        V=lambda t: t**2 / (2 * s2), dV=lambda t: t / s2,
        ddV=lambda t: np.full_like(t, 1.0 / s2),
        label=f"gaussian-half(sigma={sigma:g})",
    )


def veysseire_quartic_model(n_pts: int = 2001):
    """V = t^2/2 + t^4/12 on [-4, 4] with curvature field rho(t) = 1 + t^2."""
    return build_interval_model(
        -4.0, 4.0, n_pts,
        V=lambda t: t**2 / 2 + t**4 / 12,
        dV=lambda t: t + t**3 / 3,
        ddV=lambda t: 1 + t**2,
        rho_field=lambda t: 1 + t**2,
        label="veysseire-quartic",
    )


def disk_body(m: int = DEFAULT_M, radius: float = 1.0) -> ConvexPlaneBody:
    return build_plane_body(TrigPolynomial.constant(radius), m=m,
                            label=f"disk(R={radius:g})")


def ellipse_body(a: float = 1.2, b: float = 1.0,
                 m: int = DEFAULT_M) -> ConvexPlaneBody:
    """Exact ellipse via its closed-form support function (not a trig poly)."""
    angles = np.arange(m) * (2.0 * math.pi / m)
    h = np.sqrt(a * a * np.cos(angles) ** 2 + b * b * np.sin(angles) ** 2)
    return plane_body_from_samples(h, label=f"ellipse(a={a:g},b={b:g})")


def wavy_body(m: int = DEFAULT_M) -> ConvexPlaneBody:
    return build_plane_body(TrigPolynomial((1.0, 0.0, 0.3)), m=m,
                            label="wavy(1+0.3cos2t)")


def random_convex_bodies(count: int, seed: int, m: int = DEFAULT_M,
                         degree: int = 8):
    """Seeded strictly convex bodies: h = 1 + eps * p with eps chosen so the
    curvature radius keeps at least a quarter of headroom."""
    rng = np.random.default_rng(seed)
    angles = np.arange(m) * (2.0 * math.pi / m)
    bodies = []
    for i in range(count):
        p = random_trig_polynomial(rng, degree=degree)
        radius_part = p(angles) + p(angles, derivative=2)
        low = float(np.min(radius_part))
        eps = 0.5 if low >= 0.0 else min(0.5, 0.75 / (-low))
        poly = TrigPolynomial.constant(1.0) + p.scaled(eps)
        bodies.append(build_plane_body(poly, m=m,
                                       label=f"random-body[{seed}:{i}]"))
    return bodies


def random_test_polynomials(count: int, seed: int, degree: int = 8):
    rng = np.random.default_rng(seed)
    return [random_trig_polynomial(rng, degree=degree) for _ in range(count)]


def gaussian_ball(n_ambient: int = 2, r_outer: float = 0.8,
                  n_pts: int = 1001):
    """Ball under the unit-variance Gaussian potential V = r^2/2."""
    return build_radial_ball(
        n_ambient, r_outer, n_pts,
        V=lambda r: r**2 / 2, dV=lambda r: r.copy(), ddV=np.ones_like,
        label=f"gaussian-ball(n={n_ambient},R={r_outer:g})",
    )


def flat_ball(n_ambient: int = 2, r_outer: float = 1.0, n_pts: int = 1001):
    return build_radial_ball(n_ambient, r_outer, n_pts,
                             label=f"ball(n={n_ambient},R={r_outer:g})")


def body_from_spec(spec: str, m: int = DEFAULT_M):
    """Parse the flow's body specs: disk[:r] | ellipse[:a,b] | wavy | cap[:r].
    A bare name keeps its defaults; else every size, finite and positive."""
    name, _, argtext = spec.partition(":")
    sizes = {"disk": 1, "ellipse": 2, "wavy": 0, "cap": 1}
    if name not in sizes:
        raise ConfigError(f"unknown body {name!r}")
    try:
        args = [float(x) for x in argtext.split(",") if x.strip()]
        if args and len(args) != sizes[name]:
            raise ValueError(f"{name} takes {sizes[name]} size(s), got {len(args)}")
        if not all(math.isfinite(x) and x > 0.0 for x in args):
            raise ValueError("sizes must be finite and positive")
        if name == "disk":
            return disk_body(m, *args)
        if name == "ellipse":
            return ellipse_body(*args, m=m)
        if name == "wavy":
            return wavy_body(m=m)
        return SphereCap(*(args or [math.pi / 3]))
    except (ValueError, ConvexityViolation) as exc:
        raise ConfigError(f"bad body spec {spec!r}: {exc}") from exc
