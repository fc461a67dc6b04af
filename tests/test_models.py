import math
import warnings

import numpy as np
import pytest

from reilly_lab.bodies import (ConvexPlaneBody, RevolutionBody3D, SphereCap,
                               build_plane_body, build_sphere_body,
                               build_spheroid_body, plane_body_from_samples)
from reilly_lab.dimension import InverseDimension
from reilly_lab.errors import ConvexityViolation
from reilly_lab.models import (ModelDensityParams, build_gaussian_interval,
                               build_model_density, build_radial_ball)
from reilly_lab.numerics import simpson_uniform
from reilly_lab.presets import ellipse_body, random_convex_bodies
from reilly_lab.trig import TrigPolynomial


def params_for(n_value, beta_trunc=None, beta_frac=0.999, variant="neumann",
               rho=1.0):
    theta = InverseDimension.from_n(n_value)
    delta = rho / (n_value - 1.0)
    if delta > 0:
        bt = beta_frac * math.pi / (2 * math.sqrt(delta))
    else:
        bt = beta_trunc
    return ModelDensityParams(rho=rho, theta=theta, beta_trunc=bt,
                              variant=variant)


def recomputed_support(body):
    """<p(theta), nu(theta)>; equals h to spectral accuracy (round trip)."""
    return np.einsum("ij,ij->i", body.points(), body.normals())


def cap_area_by_quadrature(cap):
    """Latitude quadrature of sin(phi); independent check of area()."""
    phi = np.linspace(0.0, cap.r_cap, 4097)
    return 2.0 * math.pi * simpson_uniform(np.sin(phi), phi[1] - phi[0])


def test_spherical_model_density_is_equality_case():
    # rho = 1, N = 5 gives delta = 1/4 and density cos^4(t/2)
    p = params_for(5.0)
    model = build_model_density(p, 1001)
    np.testing.assert_allclose(model.density, np.cos(model.t / 2) ** 4,
                               atol=1e-12)
    ric = model.bakry_emery(InverseDimension.from_n(5.0))
    assert np.max(np.abs(ric - 1.0)) <= 1e-10 * 2


def test_hyperbolic_model_density():
    # rho = 1, N = -2: delta = -1/3, density cosh^{-3}(t/sqrt(3)) on [-5, 5]
    p = params_for(-2.0, beta_trunc=5.0)
    model = build_model_density(p, 801)
    np.testing.assert_allclose(model.density,
                               np.cosh(model.t / math.sqrt(3.0)) ** -3,
                               atol=1e-12)
    ric = model.bakry_emery(InverseDimension.from_n(-2.0))
    assert np.max(np.abs(ric - 1.0)) <= 1e-10 * 2


@pytest.mark.parametrize("n_value,beta_trunc", [
    (5.0, None), (20.0, None), (1.5, None), (-2.0, 5.0), (-4.0, 6.0),
    (-1.5, 7.0),
])
def test_model_density_ric_equals_rho_across_domain(n_value, beta_trunc):
    for rho in (0.5, 1.0, 2.5):
        p = params_for(n_value, beta_trunc=beta_trunc, rho=rho)
        model = build_model_density(p, 257)
        ric = model.bakry_emery(InverseDimension.from_n(n_value))
        assert np.max(np.abs(ric - rho)) <= 1e-10 * (1.0 + rho)


def test_model_density_rejections():
    with pytest.raises(ValueError):
        params_for(0.5, beta_trunc=1.0)        # N in [0, 1]
    with pytest.raises(ValueError):
        ModelDensityParams(rho=1.0, theta=InverseDimension(0.0, 1),
                           beta_trunc=1.0)     # N = inf degenerates delta
    with pytest.raises(ValueError):
        # outside the positivity domain of R
        ModelDensityParams(rho=1.0, theta=InverseDimension.from_n(5.0),
                           beta_trunc=4.0)


def test_dirichlet_variant_half_interval():
    p = params_for(5.0, variant="dirichlet")
    model = build_model_density(p, 257)
    assert model.a == 0.0
    assert model.b == pytest.approx(0.999 * math.pi)


def test_gaussian_interval():
    g = build_gaussian_interval(1.0, 6.0, 2001)
    np.testing.assert_allclose(g.ddV, 1.0)
    g2 = build_gaussian_interval(2.0, 8.0, 1001)
    np.testing.assert_allclose(g2.ddV, 0.25)
    assert g.mass() == pytest.approx(math.sqrt(2 * math.pi), abs=1e-8)


def test_plane_body_unit_disk():
    disk = build_plane_body(TrigPolynomial.constant(1.0), m=128)
    np.testing.assert_allclose(disk.curvature_radius, 1.0, atol=1e-13)
    assert disk.area() == pytest.approx(math.pi, abs=1e-12)
    assert disk.perimeter() == pytest.approx(2 * math.pi, abs=1e-12)


def test_plane_body_convexity_boundary_case():
    # h = 1 + 0.3 cos 2t: curvature radius 1 - 0.9 cos 2t > 0 everywhere
    body = build_plane_body(TrigPolynomial((1.0, 0.0, 0.3)), m=256)
    assert np.min(body.curvature_radius) == pytest.approx(0.1, abs=1e-12)
    # h = 1 + 0.6 cos 2t fails at angle 0 with h + h'' = -0.8
    with pytest.raises(ConvexityViolation) as err:
        build_plane_body(TrigPolynomial((1.0, 0.0, 0.6)), m=256)
    assert err.value.where == pytest.approx(0.0)
    assert err.value.value == pytest.approx(-0.8, abs=1e-12)


def test_plane_body_refuses_nonfinite_support_samples():
    # a NaN curvature radius passes the h + h'' > 0 test, so each of h, h'
    # and h'' is checked; samples are refused before they are differentiated
    angles = np.arange(16) * (2 * math.pi / 16)
    for bad in ("h", "hp", "hpp"):
        fields = {"h": np.ones(16), "hp": np.zeros(16), "hpp": np.zeros(16)}
        fields[bad][3] = math.nan
        with pytest.raises(ValueError, match="finite"):
            ConvexPlaneBody(m=16, angles=angles, **fields)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            plane_body_from_samples(np.full(16, math.inf))


def test_plane_body_support_round_trip():
    # boundary points reconstructed from (h, h') reproduce the support
    for body in random_convex_bodies(3, seed=42, m=512):
        np.testing.assert_allclose(recomputed_support(body), body.h,
                                   atol=1e-8)
    ell = ellipse_body(1.2, 1.0, m=512)
    np.testing.assert_allclose(recomputed_support(ell), ell.h, atol=1e-8)


def test_sphere_body_curvatures():
    for radius in (1.0, 2.0):
        sph = build_sphere_body(radius, 512)
        k1, k2 = sph.principal_curvatures()
        np.testing.assert_allclose(k1, 1.0 / radius, atol=1e-7)
        np.testing.assert_allclose(k2, 1.0 / radius, atol=1e-7)
        assert sph.surface_area() == pytest.approx(4 * math.pi * radius**2,
                                                   rel=1e-10)
        assert sph.volume() == pytest.approx(4 * math.pi * radius**3 / 3,
                                             rel=1e-8)


def test_spheroid_closed_form_curvature_extremes():
    a, c = 1.0, 1.2
    body = build_spheroid_body(a, c, 1024)
    k1, k2 = body.principal_curvatures()
    # poles umbilic with curvature c/a^2; equator (a/c^2 meridional, 1/a
    # azimuthal); azimuthal curvature ranges over [1/a, c/a^2]
    assert k1[0] == pytest.approx(c / a**2, abs=1e-6)
    assert np.min(k1) == pytest.approx(a / c**2, abs=1e-8)
    assert np.min(k2[1:-1]) == pytest.approx(1.0 / a, abs=1e-8)
    assert np.max(k2[1:-1]) == pytest.approx(c / a**2, abs=1e-4)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_revolution_profiles_must_be_finite(bad):
    sphere = build_sphere_body(1.0, 64)
    for name in ("s", "r", "z"):
        arrays = {key: getattr(sphere, key).copy() for key in ("s", "r", "z")}
        arrays[name][10] = bad
        with pytest.raises(ValueError, match=f"profile {name} must be finite"):
            RevolutionBody3D(**arrays)
    # the spheroid's spline refuses a non-finite semi-axis before any body
    # is built (an infinite one makes NaNs on the way)
    with pytest.raises(ValueError, match="infs or NaNs"), \
            np.errstate(invalid="ignore"):
        build_spheroid_body(bad, 1.2)


def test_sphere_cap_invariants():
    cap = SphereCap(math.pi / 3)
    assert cap.area() == pytest.approx(math.pi)          # 2 pi (1 - cos pi/3)
    assert abs(cap_area_by_quadrature(cap) - cap.area()) <= 1e-10
    with pytest.raises(ValueError):
        SphereCap(3.5)


def test_radial_ball_boundary_data():
    ball = build_radial_ball(2, 1.0, 101)
    assert ball.boundary_h_mu() == pytest.approx(1.0)
    assert ball.mass() == pytest.approx(math.pi, abs=1e-12)
    gauss = build_radial_ball(
        3, 0.8, 101, V=lambda r: r**2 / 2, dV=lambda r: r,
        ddV=lambda r: np.ones_like(r))
    assert gauss.boundary_h_mu() == pytest.approx(2.0 / 0.8 - 0.8)


def _arclength_by_segments(x, y, tau0, tau1, n_cells, speed_fn):
    # reference: the per-segment CubicSpline.integrate loop that the
    # vectorised power-form sum in bodies._arclength_reparametrize replaced
    from scipy.interpolate import CubicSpline
    nf = 16 * n_cells
    tau = np.linspace(tau0, tau1, nf + 1)
    speed = CubicSpline(tau, np.asarray(speed_fn(tau), dtype=float))
    cum = np.empty(nf + 1)
    cum[0] = 0.0
    seg = [speed.integrate(tau[i], tau[i + 1]) for i in range(nf)]
    cum[1:] = np.cumsum(seg)
    inverse = CubicSpline(cum, tau)
    s = np.linspace(0.0, cum[-1], n_cells + 1)
    tt = inverse(s)
    tt[0], tt[-1] = tau0, tau1
    return s, np.asarray(x(tt), dtype=float), np.asarray(y(tt), dtype=float)


# the default spheroid and spheroids from the spectra benchmark's ranges,
# a in [0.8, 1.2] and c in [0.8, 1.5], prolate and oblate
@pytest.mark.parametrize("a,c", [(1.0, 1.2), (0.8952, 0.9037), (0.8, 1.5),
                                 (1.2, 0.8), (1.1604, 0.8792), (0.9731, 1.2417),
                                 (1.0433, 0.8215), (1.2, 1.5)])
def test_not_a_knot_fit_and_inverse_bitwise_equal_cubic_spline(a, c):
    # bodies._not_a_knot replaces scipy.interpolate.CubicSpline, which stays
    # the oracle here: the coefficients of the speed fit, those of a fit on
    # the non-uniform knots an inverse has, and the evaluated inverse
    from scipy.interpolate import CubicSpline
    from reilly_lab.bodies import _arclength_reparametrize, _not_a_knot
    n_cells = 1024
    speed = lambda tau: np.sqrt(a * a * np.cos(tau) ** 2
                                + c * c * np.sin(tau) ** 2)
    tau = np.linspace(0.0, math.pi, 16 * n_cells + 1)
    fit = CubicSpline(tau, speed(tau))
    assert np.array_equal(_not_a_knot(tau, speed(tau)), fit.c)
    cum = fit.antiderivative()(tau)
    assert np.array_equal(_not_a_knot(cum, tau), CubicSpline(cum, tau).c)
    identity = lambda tau: tau
    curve = (identity, identity, 0.0, math.pi, n_cells)
    ref = _arclength_by_segments(*curve, speed_fn=speed)
    got = _arclength_reparametrize(*curve, speed_fn=speed)
    for want, have in zip(ref, got):
        assert np.array_equal(want, have)


@pytest.mark.parametrize("n_cells", [64, 1024])
@pytest.mark.parametrize("a,c", [(0.8, 1.5), (1.2, 0.8), (0.9731, 1.2417),
                                 (1.1604, 0.8792), (1.0, 1.0), (1.1, 1.1)])
def test_spheroid_arclength_bitwise_equals_segment_loop(a, c, n_cells):
    from reilly_lab.bodies import _arclength_reparametrize
    curve = (lambda tau: a * np.sin(tau), lambda tau: c * np.cos(tau),
             0.0, math.pi, n_cells)
    speed = lambda tau: np.sqrt(a * a * np.cos(tau) ** 2
                                + c * c * np.sin(tau) ** 2)
    ref = _arclength_by_segments(*curve, speed_fn=speed)
    got = _arclength_reparametrize(*curve, speed_fn=speed)
    for want, have in zip(ref, got):
        assert np.array_equal(want, have)
    if n_cells == 1024:   # the builder rejects 64 cells as too coarse
        body = build_spheroid_body(a, c, n_cells)
        assert np.array_equal(body.s, ref[0])
        assert np.array_equal(body.r[1:-1], ref[1][1:-1])
        assert np.array_equal(body.z, ref[2])
