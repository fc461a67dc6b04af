import dataclasses
import math

import numpy as np
import pytest

from reilly_lab.bodies import (build_plane_body, build_sphere_body,
                               build_spheroid_body)
from reilly_lab.errors import SingularSystem
from reilly_lab.models import (build_gaussian_interval, build_interval_model,
                               build_model_density)
from reilly_lab.numerics import observed_orders, richardson
from reilly_lab.operators import (DIRICHLET, NEUMANN, PERIODIC,
                                  assemble_laplacian, boundary_gap_revolution,
                                  boundary_geometry, eigenvalues,
                                  solve_poisson, spectral_gap,
                                  weighted_integral)
from reilly_lab.presets import (disk_body, ellipse_body, flat_ball,
                                model_density_params, random_convex_bodies)
from reilly_lab.trig import TrigPolynomial


def symmetry_defect(op):
    """Max |S - S^T| of the conjugated matrix, relative to its entry scale."""
    if op.kind == "periodic":
        s = op.symmetric_form()
        return float(np.max(np.abs(s - s.T)) / max(1.0, np.max(np.abs(s))))
    d = op.symmetrizer
    up = op.upper * d[:-1] / d[1:]
    lo = op.lower * d[1:] / d[:-1]
    scale = max(1.0, float(np.max(np.abs(up))))
    return float(np.max(np.abs(up - lo)) / scale)


def constant_defect(op):
    """Max |L 1| relative to the operator's entry scale (zero for
    Neumann/periodic assemblies up to roundoff)."""
    ones = np.ones(op.n)
    scale = max(1.0, float(np.max(np.abs(op.diag)))
                if op.diag is not None
                else float(np.max(np.abs(op.dense))))
    return float(np.max(np.abs(op.apply(ones))) / scale)


def flat_interval(a, b, n):
    return build_interval_model(a, b, n, V=lambda t: np.zeros_like(t),
                                label="flat")


def test_symmetry_and_constants_flat():
    model = flat_interval(0.0, 1.0, 64)
    op = assemble_laplacian(model, NEUMANN)
    assert symmetry_defect(op) <= 1e-12
    assert constant_defect(op) <= 1e-12
    ones = np.ones(64)
    assert np.max(np.abs(op.apply(ones))) <= 1e-12


def test_symmetry_heavy_density():
    params = model_density_params(1.0, 20.0)
    model = build_model_density(params, 801)
    op = assemble_laplacian(model, NEUMANN)
    assert symmetry_defect(op) <= 1e-12
    assert constant_defect(op) <= 1e-12


def test_dirichlet_gap_pi_squared_with_order():
    errs = []
    for n in (100, 200, 400):
        op = assemble_laplacian(flat_interval(0.0, 1.0, n), DIRICHLET)
        lam, vec = spectral_gap(op)
        errs.append(abs(lam - math.pi**2))
        assert vec[0] == 0.0 and vec[-1] == 0.0
    assert errs[-1] / math.pi**2 <= 1e-3
    assert min(observed_orders(errs, floor=0.0)) >= 1.9


def test_dirichlet_gap_within_tenth_percent_at_200():
    op = assemble_laplacian(flat_interval(0.0, 1.0, 200), DIRICHLET)
    lam, _ = spectral_gap(op)
    assert abs(lam - math.pi**2) / math.pi**2 <= 1e-3


def test_circle_spectrum():
    op = assemble_laplacian(disk_body(m=256), PERIODIC)
    assert symmetry_defect(op) <= 1e-12
    vals = eigenvalues(op, 7)
    np.testing.assert_allclose(vals, [0, 1, 1, 4, 4, 9, 9], atol=1e-8)


def test_model_density_neumann_gap():
    params = model_density_params(1.0, 5.0)
    model = build_model_density(params, 2001)
    lam, vec = spectral_gap(assemble_laplacian(model, NEUMANN))
    assert abs(lam - 1.25) / 1.25 <= 1e-4
    # eigenvector normalized in the weighted norm
    norm = weighted_integral(vec**2, model)
    assert norm == pytest.approx(1.0, abs=1e-10)


def test_gaussian_gap_richardson():
    gaps = []
    for n in (2001, 4001):
        model = build_gaussian_interval(1.0, 6.0, n)
        lam, _ = spectral_gap(assemble_laplacian(model, NEUMANN))
        gaps.append(lam)
    assert abs(richardson(gaps, 2.0, 2) - 1.0) <= 1e-6


def test_poisson_dirichlet_recovers_quadratic():
    n = 32001
    model = build_interval_model(-1.0, 1.0, n, V=lambda t: t**2 / 2,
                                 dV=lambda t: t,
                                 ddV=lambda t: np.ones_like(t))
    op = assemble_laplacian(model, DIRICHLET)
    f = 2.0 - 2.0 * model.t**2           # L(t^2) with V = t^2/2
    u, info = solve_poisson(op, f, (1.0, 1.0))
    assert np.max(np.abs(u - model.t**2)) <= 1e-8
    assert info["backward_error"] <= 1e-10


def test_poisson_zero_data_zero_solution():
    op = assemble_laplacian(flat_interval(0.0, 1.0, 101), DIRICHLET)
    u, _ = solve_poisson(op, np.zeros(101), (0.0, 0.0))
    np.testing.assert_allclose(u, 0.0, atol=1e-14)


def test_poisson_circle_cosine():
    body = disk_body(m=128)
    op = assemble_laplacian(body, PERIODIC)
    f = np.cos(body.angles)
    u, info = solve_poisson(op, f)
    np.testing.assert_allclose(u, -np.cos(body.angles), atol=1e-10)
    assert info["backward_error"] <= 1e-10


def test_poisson_neumann_compatibility():
    model = build_gaussian_interval(1.0, 6.0, 1001)
    op = assemble_laplacian(model, NEUMANN)
    with pytest.raises(SingularSystem):
        solve_poisson(op, np.ones(1001))
    # discretely compatible data: f = L u_ref integrates to zero exactly
    # (telescoping fluxes); the solver recovers the zero-mean representative
    f = op.apply(np.sin(model.t))
    u, info = solve_poisson(op, f)
    shifted = np.sin(model.t) - weighted_integral(np.sin(model.t), model) / model.mass()
    assert info["backward_error"] <= 1e-10
    np.testing.assert_allclose(u, shifted, atol=1e-6)


def test_weighted_integral_values():
    body = disk_body(m=128)
    assert weighted_integral(np.ones(128), body) == pytest.approx(
        2 * math.pi, abs=1e-12)
    assert weighted_integral(np.cos(body.angles) ** 2, body) == pytest.approx(
        math.pi, abs=1e-12)
    model = build_gaussian_interval(1.0, 6.0, 2001)
    assert weighted_integral(np.ones(2001), model) == pytest.approx(
        math.sqrt(2 * math.pi), abs=1e-8)


def test_integration_by_parts_invariant():
    # int (Lu) v dmu + int u'v' dmu - [u' v exp(-V)]_boundary = 0 for the
    # pointwise weighted Laplacian of smooth samples at 2000 nodes
    from reilly_lab.numerics import diff1, diff2
    model = build_gaussian_interval(1.0, 6.0, 2001)
    h = model.h
    u = np.sin(model.t)
    v = np.cos(model.t) + 0.3 * model.t
    up, vp = diff1(u, h), diff1(v, h)
    lu = diff2(u, h) - model.dV * up
    dens = model.density
    bterm = up[-1] * v[-1] * dens[-1] - up[0] * v[0] * dens[0]
    resid = (weighted_integral(lu * v, model)
             + weighted_integral(up * vp, model) - bterm)
    assert abs(resid) <= 1e-8


def test_self_adjointness_invariant():
    rng = np.random.default_rng(7)
    model = build_gaussian_interval(1.0, 4.0, 501)
    op = assemble_laplacian(model, NEUMANN)
    u = rng.standard_normal(501)
    v = rng.standard_normal(501)
    lhs = float(np.dot(op.weights, op.apply(u) * v))
    rhs = float(np.dot(op.weights, u * op.apply(v)))
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


def test_boundary_geometry_disk_and_ellipse():
    geom = boundary_geometry(disk_body(m=256))
    np.testing.assert_allclose(geom.II, 1.0, atol=1e-12)
    np.testing.assert_allclose(geom.H_mu, 1.0, atol=1e-12)
    ell = boundary_geometry(ellipse_body(1.2, 1.0, m=512))
    assert np.min(ell.II) == pytest.approx(1.0 / 1.44, abs=1e-10)
    assert np.max(ell.II) == pytest.approx(1.2, abs=1e-10)


def test_boundary_geometry_sphere_and_ball():
    geom = boundary_geometry(build_sphere_body(2.0, 512))
    np.testing.assert_allclose(geom.kappa1, 0.5, atol=1e-7)
    np.testing.assert_allclose(geom.H_g, 1.0, atol=1e-7)
    ball = boundary_geometry(flat_ball(2, 1.0, 101))
    assert ball.II[0] == pytest.approx(1.0)
    assert ball.H_mu[0] == pytest.approx(1.0)


def test_revolution_ii_and_plane_weight_are_bitwise_their_formulas():
    # check_boundary_gaps integrates 1/II for a revolution body's sigma
    # field, and bodies carry no potential in their boundary measure
    geom = boundary_geometry(build_spheroid_body(1.0, 1.2, 256))
    assert np.array_equal(geom.II, np.minimum(geom.kappa1, geom.kappa2))
    body = ellipse_body(m=64)
    assert np.array_equal(body.boundary_weight(), body.h + body.hpp)


def test_revolution_gap_sphere_scaling():
    lam1, mode1 = boundary_gap_revolution(build_sphere_body(1.0, 1024))
    assert abs(lam1 - 2.0) <= 1e-4
    lam2, _ = boundary_gap_revolution(build_sphere_body(2.0, 1024))
    assert abs(lam2 - 0.5) <= 1e-4


def test_revolution_gap_spheroid_two_resolution_consistency():
    lam_coarse, _ = boundary_gap_revolution(build_spheroid_body(1.0, 1.2, 512))
    lam_fine, _ = boundary_gap_revolution(build_spheroid_body(1.0, 1.2, 1024))
    assert lam_fine < 2.0
    # O(h^2) scheme: extrapolation shifts the fine value only slightly
    extrap = richardson((lam_coarse, lam_fine), 2.0, 2)
    assert abs(extrap - lam_fine) <= 5e-6
    # curvature-splitting lower bound 2 (xi - sigma) sigma
    geom = boundary_geometry(build_spheroid_body(1.0, 1.2, 1024))
    sigma, xi = geom.sigma, float(np.min(geom.H_g))
    assert lam_fine >= 2.0 * (xi - sigma) * sigma


def test_operator_rejects_tiny_grids():
    with pytest.raises(ValueError):
        model = flat_interval(0.0, 1.0, 16)
        assemble_laplacian(model, "bogus")


def _full_spectrum(op):
    # reference: every eigenvalue of the deflated symmetric form
    from scipy.linalg import eigh
    return eigh(-op.deflated_symmetric(), eigvals_only=True)


@pytest.mark.parametrize("body", [disk_body()] + random_convex_bodies(6, 0, m=512),
                         ids=lambda b: b.label)
def test_periodic_subset_eigensolve_matches_full_eigh(body):
    op = assemble_laplacian(body, PERIODIC)
    full = _full_spectrum(op)
    lam, vec = spectral_gap(op)
    assert abs(lam - full[1]) <= 1e-9 * max(1.0, abs(full[1]))
    assert weighted_integral(vec**2, body) == pytest.approx(1.0, abs=1e-10)
    vals = eigenvalues(op, 7)
    assert vals.shape == (7,)
    np.testing.assert_array_less(np.abs(vals - full[:7]),
                                 1e-9 * np.maximum(1.0, np.abs(full[:7])))


@pytest.mark.parametrize("m", [128, 256, 512, 1024])
def test_disk_periodic_gap_is_one(m):
    lam, _ = spectral_gap(assemble_laplacian(disk_body(m=m), PERIODIC))
    assert abs(lam - 1.0) <= 1e-9


@pytest.mark.parametrize("op", [
    assemble_laplacian(disk_body(m=64), PERIODIC),
    assemble_laplacian(flat_interval(0.0, 1.0, 64), NEUMANN),
], ids=["periodic", "neumann"])
def test_eigenvalues_rejects_count_outside_grid(op):
    for count in (0, op.n + 1):
        with pytest.raises(ValueError, match="count"):
            eigenvalues(op, count)


def _with_nan_on_diagonal(op):
    if op.kind == "periodic":
        dense = op.dense.copy()
        dense[3, 3] = np.nan
        return dataclasses.replace(op, dense=dense)
    diag = op.diag.copy()
    diag[3] = np.nan
    return dataclasses.replace(op, diag=diag)


@pytest.mark.parametrize("op", [
    assemble_laplacian(flat_interval(0.0, 1.0, 64), NEUMANN),
    assemble_laplacian(flat_interval(0.0, 1.0, 64), DIRICHLET),
    assemble_laplacian(ellipse_body(1.5, 1.0, 64), PERIODIC),
], ids=["neumann", "dirichlet", "periodic"])
def test_a_nan_operator_is_refused_as_a_value_error(op):
    # a ValueError (or ConvergenceFailure) is what the sweep's refusal path
    # turns into a configuration error, exit 2; a NaN must never come back
    # as an eigenpair or a solution
    bad = _with_nan_on_diagonal(op)
    finite = "array must not contain infs or NaNs"
    with pytest.raises(ValueError, match=finite):
        spectral_gap(bad)
    with pytest.raises(ValueError, match=finite):
        eigenvalues(bad, 3)
    f = np.cos(np.arange(op.n))
    f -= np.dot(op.weights, f) / np.sum(op.weights)
    # the dense periodic solve is numpy's lstsq, whose LinAlgError is a
    # ValueError
    with pytest.raises(ValueError,
                       match=None if op.kind == "periodic" else finite):
        solve_poisson(bad, f)


def test_a_nan_periodic_poisson_is_refused_before_lapack_prints(capfd):
    # lstsq on a NaN matrix once let LAPACK print " ** On entry to DLASCL"
    # to fd 1, past any sys.stdout redirection, and raise LinAlgError
    bad = _with_nan_on_diagonal(
        assemble_laplacian(ellipse_body(1.5, 1.0, 64), PERIODIC))
    f = np.cos(np.arange(bad.n))
    f -= np.dot(bad.weights, f) / np.sum(bad.weights)
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        solve_poisson(bad, f)
    assert capfd.readouterr().out == ""
