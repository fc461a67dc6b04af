import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reilly_lab import flows, numerics
from reilly_lab.bodies import (SphereCap, build_plane_body, build_sphere_body,
                               build_spheroid_body)
from reilly_lab.dimension import InverseDimension
from reilly_lab.errors import CapOverflow
from reilly_lab.flows import (ConcavitySeries, _crossing_sweep,
                              cap_extension_series,
                              concavity_check, geodesic_extension_measure,
                              hausdorff_points, isoperimetric_checks,
                              latitude_circle, minkowski_sum_support,
                              mixed_area, parallel_normal_flow, polyline_area,
                              quermassintegrals, self_intersects,
                              steiner_fit_residual, weingarten_wave)
from reilly_lab.numerics import spectral_diff
from reilly_lab.presets import disk_body, ellipse_body, random_convex_bodies
from reilly_lab.reporting import flow_csv
from reilly_lab.trig import TrigPolynomial

TH2 = InverseDimension(0.5, 2)
TH_INF = InverseDimension(0.0, 1)


def wavy_body(m=512):
    return build_plane_body(TrigPolynomial((1.0, 0.0, 0.3)), m=m,
                            label="wavy(1+0.3cos2t)")


# ---------------------------------------------------------------------------
# support-function operations


def test_minkowski_sum_disks_homothety():
    disk = disk_body(m=128)
    grown = minkowski_sum_support(disk, disk, 0.7)
    assert grown.area() == pytest.approx(math.pi * 1.7**2, rel=1e-12)
    same = minkowski_sum_support(disk, disk, 0.0)
    np.testing.assert_allclose(same.h, disk.h, atol=1e-14)
    with pytest.raises(ValueError):
        minkowski_sum_support(disk, disk, -0.1)


def test_steiner_polynomial_fit():
    assert steiner_fit_residual(disk_body(), ellipse_body()) <= 1e-10
    assert steiner_fit_residual(wavy_body(), disk_body()) <= 1e-10


def test_mixed_area_symmetry_and_disk_value():
    K, L = wavy_body(), ellipse_body(m=512)
    assert mixed_area(K, L) == pytest.approx(mixed_area(L, K), rel=1e-12)
    disk = disk_body()
    assert mixed_area(disk, disk) == pytest.approx(math.pi, rel=1e-12)


def test_geodesic_extension_measures():
    assert geodesic_extension_measure(disk_body(), 1.0) == pytest.approx(
        4 * math.pi, rel=1e-12)
    cap = SphereCap(math.pi / 3)
    assert geodesic_extension_measure(cap, math.pi / 6) == pytest.approx(
        2 * math.pi, rel=1e-12)
    with pytest.raises(CapOverflow):
        geodesic_extension_measure(cap, math.pi)


def test_extension_area_matches_polygon_oracle():
    body = wavy_body(m=512)
    t = 0.2
    area = geodesic_extension_measure(body, t)
    # dense polygon shoelace oracle on the extended body's boundary points
    grown = minkowski_sum_support(wavy_body(m=16384), disk_body(m=16384), t)
    pts = grown.points()
    x, y = pts[:, 0], pts[:, 1]
    shoelace = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    assert abs(area - shoelace) <= 1e-6


def test_quermass_triple_disk():
    # delta0 = pi, and delta1 = delta2 = 2 pi: the unit circle's length and
    # its total curvature
    report = quermassintegrals(disk_body(), TH2)
    assert report.params["delta0"] == pytest.approx(math.pi, abs=1e-10)
    assert report.params["delta1"] == pytest.approx(2 * math.pi, abs=1e-10)
    assert report.params["delta2"] == pytest.approx(2 * math.pi, abs=1e-10)
    assert abs(report.slack) <= 1e-9
    assert report.passed


@pytest.mark.parametrize("body, equality", [
    (build_sphere_body(1.0), True), (build_spheroid_body(), False)],
    ids=["sphere", "spheroid"])
def test_alexandrov_revolution_bodies(body, equality):
    # N = n = 3: delta1^2 >= (3/2) delta0 delta2, with equality on the
    # round sphere, where both sides read (4 pi)^2
    report = quermassintegrals(body, InverseDimension(1.0 / 3.0, 3))
    assert report.passed
    if equality:
        assert report.rhs == pytest.approx(16 * math.pi**2, rel=1e-10)
        assert abs(report.slack) <= 1e-10 * report.rhs
    else:
        assert report.slack == pytest.approx(1.094, abs=1e-3)


def test_alexandrov_corpus():
    for body in random_convex_bodies(20, seed=31, m=256):
        report = quermassintegrals(body, TH2)
        assert report.slack >= -1e-9
        # N = n = 2 specialization is the planar isoperimetric inequality
        assert report.rhs == pytest.approx(body.perimeter() ** 2, rel=1e-12)
        assert report.lhs == pytest.approx(4 * math.pi * body.area(), rel=1e-10)


# ---------------------------------------------------------------------------
# parallel normal flow: plane


def test_pnf_disk_unit_speed_is_geodesic_extension():
    disk = disk_body(m=512)
    res = parallel_normal_flow(disk, 1.0, 0.5, 1e-3, snapshot_every=500)
    assert res.alive
    radii = np.hypot(*res.states[-1].points.T)
    np.testing.assert_allclose(radii, 1.5, atol=1e-10)
    assert res.normal_drift <= 1e-10
    assert res.series.masses[-1] == pytest.approx(math.pi * 2.25, rel=1e-10)


def test_pnf_matches_minkowski_oracle():
    disk = disk_body(m=256)
    phi = TrigPolynomial((1.0, 0.0, 0.12))
    speed_body = build_plane_body(phi, m=256)
    res = parallel_normal_flow(disk, phi, 0.5, 1e-3, snapshot_every=10**9)
    target = minkowski_sum_support(disk, speed_body, 0.5)
    assert hausdorff_points(res.states[-1].points, target.points()) <= 1e-5
    assert res.normal_drift <= 1e-6


def test_pnf_measure_monotone_for_positive_speed():
    res = parallel_normal_flow(wavy_body(m=256), 1.0, 0.3, 2e-3,
                               snapshot_every=10**9)
    assert np.all(np.diff(res.series.masses) > 0.0)


def test_pnf_death_reported_not_raised():
    # speed 1 + 0.6 cos 2t drives h + h'' negative at t = 1/0.8, inside
    # the run horizon: the flow must stop and report, never raise
    disk = disk_body(m=128)
    res = parallel_normal_flow(disk, TrigPolynomial((1.0, 0.0, 0.6)), 1.5,
                               2e-3, snapshot_every=10**9)
    assert not res.alive
    assert res.death_reason == "curvature-floor"
    assert not res.states[-1].alive
    assert res.series.times[-1] < 1.5


def test_pnf_self_intersection_death_reported(monkeypatch):
    # the sweep runs on every intersect_every-th candidate; a detected
    # crossing ends the run before that candidate is accepted
    monkeypatch.setattr(flows, "self_intersects", lambda points: True)
    res = parallel_normal_flow(disk_body(m=64), 1.0, 0.2, 2e-3,
                               intersect_every=10)
    assert not res.alive
    assert res.death_reason == "self-intersection"
    assert not res.states[-1].alive
    assert res.diagnostics["steps_run"] == 9
    assert parallel_normal_flow(disk_body(m=64), 1.0, 0.2, 2e-3,
                                intersect_every=0).alive


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
def test_flows_reject_bad_dt(dt):
    with pytest.raises(ValueError, match="dt"):
        parallel_normal_flow(disk_body(m=64), 1.0, 0.2, dt)
    with pytest.raises(ValueError, match="dt"):
        parallel_normal_flow(latitude_circle(1.0, 64), 1.0, 0.2, dt)
    with pytest.raises(ValueError, match="dt"):
        weingarten_wave(disk_body(m=64), 1.0, 0.2, dt)


def test_flows_reject_zero_snapshot_every():
    with pytest.raises(ValueError, match="snapshot_every"):
        parallel_normal_flow(disk_body(m=64), 1.0, 0.2, 1e-2,
                             snapshot_every=0)
    with pytest.raises(ValueError, match="snapshot_every"):
        weingarten_wave(disk_body(m=64), 1.0, 0.2, 1e-3, snapshot_every=0)


def test_pnf_normals_stay_unit():
    res = parallel_normal_flow(wavy_body(m=128), 1.0, 0.2, 2e-3,
                               snapshot_every=25)
    for state in res.states:
        np.testing.assert_allclose(np.hypot(*state.normals.T), 1.0,
                                   atol=1e-10)


def test_self_intersection_detector():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert not self_intersects(square)
    bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    assert self_intersects(bowtie)


def _star_polygon(m, noise, seed):
    rng = np.random.default_rng(seed)
    angles = np.arange(m) * (2.0 * np.pi / m)
    r = 1.0 + noise * rng.standard_normal(m)
    return np.column_stack([r * np.cos(angles), r * np.sin(angles)])


def _swapped(points, i, j):
    out = points.copy()
    out[[i, j]] = out[[j, i]]
    return out


def test_self_intersects_matches_sweep_on_fixtures():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    # limacon r = 1 + 2 cos t: every turn positive, turning number two,
    # so the sum test alone sends it to the sweep
    t = np.arange(256) * (2.0 * np.pi / 256)
    r = 1.0 + 2.0 * np.cos(t)
    limacon = np.column_stack([r * np.cos(t), r * np.sin(t)])
    for poly in (square, bowtie, square[::-1], bowtie[::-1], limacon):
        assert self_intersects(poly) == _crossing_sweep(poly)
    assert self_intersects(limacon)


def test_self_intersects_matches_sweep_on_convex_corpus():
    # the O(m) certificate decides these; the sweep is the oracle
    for body in random_convex_bodies(30, 7, m=1024):
        points = body.points()
        assert self_intersects(points) is False
        assert _crossing_sweep(points) is False


def _unblocked_sweep(points):
    # reference: the sweep over every segment pair at once, as one
    # m-by-m broadcast
    m = points.shape[0]
    a, b = points, np.roll(points, -1, axis=0)
    ax, ay = a[:, 0][:, None], a[:, 1][:, None]
    bx, by = b[:, 0][:, None], b[:, 1][:, None]
    cx, cy = a[:, 0][None, :], a[:, 1][None, :]
    dx, dy = b[:, 0][None, :], b[:, 1][None, :]
    d1 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    d2 = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
    d3 = (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx)
    d4 = (dx - cx) * (by - cy) - (dy - cy) * (bx - cx)
    gap = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
    adjacent = (gap <= 1) | (gap >= m - 1)
    return bool(np.any((d1 * d2 < 0.0) & (d3 * d4 < 0.0) & ~adjacent))


def _lobed(m, lobes=5, depth=0.3):
    t = np.arange(m) * (2.0 * np.pi / m)
    r = 1.0 + depth * np.cos(lobes * t)
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


@pytest.mark.parametrize("pairs", [1, 3 * 101, 7 * 101 + 5, 1 << 17])
def test_blocked_sweep_gives_the_unblocked_verdict(pairs, monkeypatch):
    # m = 101 is a multiple of no block size but 1 and 101
    monkeypatch.setattr(flows, "_SWEEP_PAIRS", pairs)
    rng = np.random.default_rng(22)
    m = 101
    lobes = _lobed(m)
    star = _star_polygon(m, 1e-3, seed=5)
    polys = [lobes, lobes[::-1], _swapped(lobes, 0, 1),
             _swapped(lobes, m - 3, m - 2), _swapped(lobes, 10, 60),
             _lobed(m, depth=2.0), star, _swapped(star, m - 2, m - 1)]
    polys += [rng.standard_normal((k, 2)) for k in (4, 5, 17, m)]
    polys += [_star_polygon(m, noise, seed=i)
              for i, noise in enumerate([0.05, 0.2, 0.5])]
    want = [_unblocked_sweep(p) for p in polys]
    assert [_crossing_sweep(p) for p in polys] == want
    assert want[:6] == [False, False, True, True, True, True]


def test_blocked_sweep_bounds_its_memory():
    # the unblocked sweep peaked near 200 MB here
    lobes = _lobed(2048)
    tracemalloc.start()
    try:
        verdict = _crossing_sweep(lobes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict is False
    assert peak < 25e6


@pytest.mark.parametrize("m", [64, 1024])
@pytest.mark.parametrize("noise", [0.0, 1e-9, 1e-3])
def test_self_intersects_matches_sweep_on_star_polygons(noise, m):
    # near-degenerate turns, clockwise orientation and swapped vertices
    # (adjacent and far apart) must give the sweep's answer
    star = _star_polygon(m, noise, seed=m)
    polys = [star, star[::-1], _swapped(star, 3, 4),
             _swapped(star, m // 8, m // 2)]
    got = [self_intersects(p) for p in polys]
    assert got == [_crossing_sweep(p) for p in polys]
    assert got[0] is False and got[3] is True


# ---------------------------------------------------------------------------
# parallel normal flow: sphere


def test_pnf_sphere_cap_extension():
    lat = latitude_circle(math.pi / 3, 256)
    res = parallel_normal_flow(lat, 1.0, 0.5, 1e-3, snapshot_every=10**9)
    exact = 2 * math.pi * (1 - math.cos(math.pi / 3 + 0.5))
    assert res.series.masses[-1] == pytest.approx(exact, abs=1e-6)
    assert res.normal_drift <= 1e-5
    # markers stay on the sphere
    np.testing.assert_allclose(
        np.linalg.norm(res.states[-1].points, axis=1), 1.0, atol=1e-12)


def test_pnf_sphere_nonconstant_speed_keeps_normals_parallel():
    lat = latitude_circle(math.pi / 3, 256)
    phi = TrigPolynomial((1.0, 0.1))
    res = parallel_normal_flow(lat, phi, 0.5, 1e-3, snapshot_every=10**9)
    assert res.alive
    assert res.normal_drift <= 1e-5
    gap = res.diagnostics["area_estimator_gap"]
    assert gap <= 1e-6      # Gauss-Bonnet vs azimuthal band quadrature


def test_pnf_sphere_death_reported_not_raised():
    # speed 1 + 0.3 cos 2t pinches the wide cap to the curvature floor
    res = parallel_normal_flow(latitude_circle(1.2, 128),
                               TrigPolynomial((1.0, 0.0, 0.3)), 1.5, 2e-3)
    assert not res.alive
    assert res.death_reason == "curvature-floor"
    assert not res.states[-1].alive
    assert res.series.times[-1] < 1.5


# ---------------------------------------------------------------------------
# Weingarten wave


def test_weingarten_disk_constant_speed_fixed_point():
    res = weingarten_wave(disk_body(m=128), 1.0, 0.3, 2e-4)
    assert res.alive
    g = res.series.transformed()
    second = np.abs(g[2:] - 2 * g[1:-1] + g[:-2])
    assert np.max(second) <= 1e-8
    assert res.diagnostics["min_phi"] == pytest.approx(1.0, abs=1e-10)


def test_weingarten_disk_perturbed_concave():
    res = weingarten_wave(disk_body(m=128), TrigPolynomial((1.0, 0.0, 0.2)),
                          0.3, 2e-4)
    assert res.alive
    assert res.diagnostics["min_phi"] > 0.0
    rep = concavity_check(res.series)
    assert rep.passed
    assert rep.lhs <= 1e-6


def test_weingarten_ellipse_stays_convex():
    res = weingarten_wave(ellipse_body(m=128), 1.0, 0.3, 2e-4)
    assert res.alive
    assert concavity_check(res.series).passed
    # positive speed keeps the enclosed measure growing
    assert np.all(np.diff(res.series.masses) > 0.0)


def test_weingarten_two_resolution_consistency():
    coarse = weingarten_wave(disk_body(m=64),
                             TrigPolynomial((1.0, 0.0, 0.2)), 0.2, 4e-4)
    fine = weingarten_wave(disk_body(m=128),
                           TrigPolynomial((1.0, 0.0, 0.2)), 0.2, 2e-4)
    assert abs(coarse.series.masses[-1] - fine.series.masses[-1]) <= 1e-6


# ---------------------------------------------------------------------------
# the shared RK4 integrator


@pytest.mark.parametrize("run, budget", [
    (lambda t: parallel_normal_flow(disk_body(m=64),
                                    TrigPolynomial((1.0, 0.0, 0.12)), t,
                                    2e-3), 8),
    (lambda t: parallel_normal_flow(latitude_circle(1.0, 64),
                                    TrigPolynomial((1.0, 0.0, 0.1)), t,
                                    2e-3), 12),
    (lambda t: weingarten_wave(disk_body(m=64),
                               TrigPolynomial((1.0, 0.0, 0.2)), t / 10.0,
                               2e-4), 16),
], ids=["plane", "sphere", "wave"])
def test_flow_stencil_calls_per_step_within_budget(monkeypatch, run, budget):
    # geometry is evaluated once per state (an accepted candidate's
    # geometry is the next first stage) and the PNF speed's derivative
    # once per run; the extra 50 steps of the longer run isolate the
    # per-step cost from the setup
    calls = [0]

    def counted(stencil):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return stencil(*args, **kwargs)
        return wrapper

    for name in ("periodic_diff1", "periodic_diff12", "_periodic_diff12"):
        monkeypatch.setattr(flows, name, counted(getattr(flows, name)))
    per_run = []
    for t_end in (0.1, 0.2):
        calls[0] = 0
        res = run(t_end)
        assert res.alive
        per_run.append((calls[0], res.series.times.size - 1))
    (short_calls, short_steps), (long_calls, long_steps) = per_run
    assert long_steps - short_steps == 50
    assert (long_calls - short_calls) / 50 <= budget


# ---------------------------------------------------------------------------
# concavity series


def test_concavity_quadratic_mass_is_linear_after_transform():
    t = np.linspace(0.0, 1.0, 51)
    series = ConcavitySeries(t, math.pi * (1 + t) ** 2, TH2)
    rep = concavity_check(series)
    assert rep.passed
    assert abs(rep.lhs) <= 1e-12


def test_concavity_log_transform_at_theta_zero():
    t = np.linspace(0.0, 1.0, 51)
    series = ConcavitySeries(t, math.pi * (1 + t) ** 2, TH_INF)
    rep = concavity_check(series)
    assert rep.passed
    assert rep.params["min_second_difference"] < 0.0


def test_concavity_cap_series_strictly_negative():
    series = cap_extension_series(SphereCap(math.pi / 3), 1.0, 1e-2)
    rep = concavity_check(series)
    assert rep.passed
    g = series.transformed()
    d2 = g[2:] - 2 * g[1:-1] + g[:-2]
    assert np.max(d2) < 0.0    # analytic series is strictly concave


def test_concavity_rejects_bad_series():
    with pytest.raises(ValueError):
        ConcavitySeries(np.array([0.0, 0.1, 0.3]), np.ones(3), TH2)
    with pytest.raises(ValueError):
        ConcavitySeries(np.array([0.0, 0.1]), np.array([1.0, -1.0]), TH2)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.05, max_value=2.0),
       st.floats(min_value=0.05, max_value=2.0))
def test_concavity_detects_convex_series(a, b):
    # masses exp(a t) + b are log-convex: the theta = 0 check must fail
    t = np.linspace(0.0, 1.0, 21)
    masses = np.exp(a * t) + b
    series = ConcavitySeries(t, masses, TH_INF)
    rep = concavity_check(series)
    assert rep.lhs > 0.0
    assert not rep.passed


# ---------------------------------------------------------------------------
# isoperimetric comparison


def test_isoperimetric_disk_disk_equalities():
    checks = {c.name: c for c in
              isoperimetric_checks(disk_body(), disk_body(), TH2)}
    hom = checks["isoperimetric-homogeneous-bound"]
    assert hom.lhs == pytest.approx(2 * math.pi, abs=1e-6)
    assert hom.rhs == pytest.approx(2 * math.pi, abs=1e-6)
    mono = checks["isoperimetric-profile-monotone"]
    assert abs(mono.lhs) <= 1e-9
    # I(v)^2 / v is the constant 4 pi for disks
    assert mono.params["ratio_first"] == pytest.approx(4 * math.pi, rel=1e-10)
    assert mono.params["ratio_last"] == pytest.approx(4 * math.pi, rel=1e-10)


def test_isoperimetric_ellipse_disk_strict():
    checks = isoperimetric_checks(ellipse_body(), disk_body(), TH2)
    for c in checks:
        assert c.passed, c.name
    named = {c.name: c for c in checks}
    assert named["isoperimetric-boundary-measure"].slack > 1e-4
    assert named["isoperimetric-homogeneous-bound"].slack > 1e-3
    assert named["isoperimetric-profile-monotone"].lhs < 0.0


def test_polyline_area_spectral_accuracy():
    disk = disk_body(m=64)
    assert polyline_area(disk.points(), disk.d_angle) == pytest.approx(
        math.pi, abs=1e-12)


def test_pnf_sphere_measure_loss_reported_not_raised():
    # speed 1 + 0.5 cos 2t drives the Gauss-Bonnet area of the m = 64 cap
    # negative before the curvature floor is reached
    res = parallel_normal_flow(latitude_circle(0.5, 64),
                               TrigPolynomial((1.0, 0.0, 0.5)), 0.5, 2e-3)
    assert not res.alive
    assert res.death_reason == "measure-loss"
    assert not res.states[-1].alive
    assert np.all(res.series.masses > 0.0)
    assert res.series.times[-1] < 0.5


# ---------------------------------------------------------------------------
# the stage kernels against their reference forms
#
# The references are the plain numpy forms the kernels replaced.  Every
# flow run through them must give the same bytes in every FlowResult
# field and in the trajectory CSV.


def _ref_wrap_pad(y, axis=0):
    return np.take(y, np.arange(-2, y.shape[axis] + 2), axis=axis,
                   mode="wrap")


def _rows(v):
    """The (m, 3) C-contiguous transpose of a (3, m) sphere array."""
    return np.ascontiguousarray(v.T)


def _ref_plane_geometry(points, hy):
    py = flows.periodic_diff1(points, hy)
    pyy = numerics.periodic_diff2(points, hy)
    speed = np.hypot(py[:, 0], py[:, 1])
    tau = py / speed[:, None]
    nu = np.stack([tau[:, 1], -tau[:, 0]], axis=1)
    kappa = (py[:, 0] * pyy[:, 1] - py[:, 1] * pyy[:, 0]) / speed**3
    return speed, tau, nu, kappa


def _ref_sphere_geometry(x, hy):
    # the (m, 3) forms on the markers' transpose, handed back as (3, m)
    x = _rows(x)
    xy = flows.periodic_diff1(x, hy)
    xyy = numerics.periodic_diff2(x, hy)
    speed = np.linalg.norm(xy, axis=1)
    tau = xy / speed[:, None]
    nu = np.cross(tau, x)
    speed_y = flows.periodic_diff1(speed, hy)
    xss = (xyy - speed_y[:, None] * tau) / speed[:, None] ** 2
    kappa_g = -np.einsum("ij,ij->i", xss, nu)
    return speed, tau.T, nu.T, kappa_g, xy.T


def _ref_polyline_area(points, hy):
    xp = spectral_diff(points[:, 0], 1)
    yp = spectral_diff(points[:, 1], 1)
    return 0.5 * float(np.sum(points[:, 0] * yp - points[:, 1] * xp)) * hy


def _ref_wave_geometry(z, hy):
    phi = np.exp(z[:, 2])
    return (*_ref_plane_geometry(z[:, :2], hy), phi,
            flows.periodic_diff1(phi, hy))


def _ref_wave_rhs(z, g, hy):
    speed, _, nu, kappa, phi, phi_y = g
    flux = phi_y / speed / kappa
    return np.column_stack([phi[:, None] * nu,
                            flows.periodic_diff1(flux, hy) / speed])


def _ref_flow_csv(states):
    dim = states[0].points.shape[1]
    header = ("t,idx,x,y,phi,kappa,nux,nuy" if dim == 2
              else "t,idx,x,y,z,phi,kappa,nux,nuy,nuz")
    lines = [header]
    for state in states:
        cols = np.column_stack([state.points, state.phi, state.kappa,
                                state.normals])
        for i, cells in enumerate(cols.tolist()):
            lines.append(",".join([format(state.t, ".17g"), str(i)]
                                  + [format(c, ".17g") for c in cells]))
    return "\n".join(lines) + "\n"


_REFERENCE_KERNELS = {
    (numerics, "_wrap_pad"): _ref_wrap_pad,
    (flows, "_plane_geometry"): _ref_plane_geometry,
    (flows, "_sphere_geometry"): _ref_sphere_geometry,
    (flows, "polyline_area"): _ref_polyline_area,
    (flows, "_wave_geometry"): _ref_wave_geometry,
    (flows, "_wave_rhs"): _ref_wave_rhs,
    (flows, "_norm3"): lambda v: np.linalg.norm(_rows(v), axis=1),
    (flows, "_dot3"): lambda a, b: np.einsum("ij,ij->i", _rows(a), _rows(b)),
}

_COS2 = lambda c: TrigPolynomial((1.0, 0.0, c))  # noqa: E731

# (run, expected death reason or None)
_PINNED_RUNS = {
    "plane-m64": (lambda: parallel_normal_flow(
        disk_body(m=64), _COS2(0.12), 0.2, 2e-3), None),
    "plane-m1024": (lambda: parallel_normal_flow(
        ellipse_body(1.3, 1.0, m=1024), _COS2(0.1), 0.05, 1e-3), None),
    "plane-curvature-floor": (lambda: parallel_normal_flow(
        disk_body(m=64), _COS2(0.6), 1.5, 2e-3, snapshot_every=100),
        "curvature-floor"),
    "plane-intersect-every-1": (lambda: parallel_normal_flow(
        disk_body(m=64), _COS2(0.12), 0.1, 2e-3, intersect_every=1), None),
    "cap": (lambda: parallel_normal_flow(
        latitude_circle(1.0, 64), _COS2(0.1), 0.2, 2e-3), None),
    "cap-measure-loss": (lambda: parallel_normal_flow(
        latitude_circle(0.5, 64), _COS2(0.5), 0.5, 2e-3), "measure-loss"),
    "wave-disk": (lambda: weingarten_wave(
        disk_body(m=64), _COS2(0.2), 0.02, 2e-4, snapshot_every=20), None),
    "wave-ellipse-breakdown": (lambda: weingarten_wave(
        ellipse_body(1.5, 1.0, m=128), _COS2(0.2), 0.1, 4e-3,
        snapshot_every=5), "curvature-floor"),
}


def _result_fields(res):
    """Every FlowResult field as bytes, keyed by field name."""
    fields = {name: repr(getattr(res, name)).encode() for name in
              ("alive", "death_reason", "normal_drift", "diagnostics")}
    for i, s in enumerate(res.states):
        fields[f"states[{i}].t,alive"] = repr((s.t, s.alive)).encode()
        for name in ("points", "phi", "normals", "kappa"):
            fields[f"states[{i}].{name}"] = getattr(s, name).tobytes()
    if res.series is not None:
        fields["series.times"] = res.series.times.tobytes()
        fields["series.masses"] = res.series.masses.tobytes()
    return fields


@pytest.mark.parametrize("name", list(_PINNED_RUNS))
def test_flow_kernels_match_reference_forms_bytewise(name):
    run, death = _PINNED_RUNS[name]
    res = run()
    assert res.death_reason == death
    with pytest.MonkeyPatch.context() as mp:
        for (module, attr), ref in _REFERENCE_KERNELS.items():
            mp.setattr(module, attr, ref)
        ref_res = run()
    got, want = _result_fields(res), _result_fields(ref_res)
    assert list(got) == list(want)
    for field in want:
        assert got[field] == want[field], field
    # line by line: a diff of the whole CSV text is slow to render
    got_csv = flow_csv(res.states).split("\n")
    want_csv = _ref_flow_csv(ref_res.states).split("\n")
    assert len(got_csv) == len(want_csv)
    for line, (got_line, want_line) in enumerate(zip(got_csv, want_csv)):
        assert got_line == want_line, line


@pytest.mark.parametrize("name", ["plane-m64", "cap", "wave-disk"])
def test_first_state_owns_its_arrays(monkeypatch, name):
    # the initial geometry feeds the first RK4 stage; the stored initial
    # normals and curvature must not alias it
    seen = []
    for attr in ("_plane_geometry", "_sphere_geometry", "_wave_geometry"):
        def recorded(*args, _kernel=getattr(flows, attr)):
            g = _kernel(*args)
            seen.append(g)
            return g
        monkeypatch.setattr(flows, attr, recorded)
    res = _PINNED_RUNS[name][0]()
    first, g0 = res.states[0], seen[0]
    for stored in (first.points, first.phi, first.normals, first.kappa):
        assert not any(np.shares_memory(stored, a) for a in g0)


def test_sphere_dot_products_sum_in_einsum_order():
    # einsum sums a row's three products as (a0 b0 + a2 b2) + a1 b1; the
    # left-to-right order differs from it on 540 of these 4,096 rows
    rng = np.random.default_rng(37)
    a, b = (rng.standard_normal((4096, 3))
            * 10.0 ** rng.integers(-8, 9, (4096, 3)) for _ in range(2))
    want = np.einsum("ij,ij->i", a, b)
    got = flows._dot3(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))
    assert got.tobytes() == want.tobytes()
    ordered = (a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]) + a[:, 2] * b[:, 2]
    assert ordered.tobytes() != want.tobytes()


def test_flow_diagnostics_count_the_markers():
    runs = [
        [parallel_normal_flow(disk_body(m=64), 1.0, 0.01, 2e-3)],
        flows.parallel_normal_flows([(disk_body(m=64), 1.0),
                                     (disk_body(m=64), 0.5)], 0.01, 2e-3),
        flows.weingarten_waves([(disk_body(m=64), 1.0),
                                (ellipse_body(m=64), 1.0)], 0.001, 2e-4),
        [parallel_normal_flow(latitude_circle(1.0, 64), 1.0, 0.01, 2e-3)],
    ]
    for results in runs:
        for res in results:
            assert res.diagnostics["m"] == 64
            assert res.states[-1].points.shape[0] == 64


@pytest.mark.parametrize("name", ["cap", "cap-measure-loss"])
def test_sphere_states_hold_their_own_marker_major_arrays(name):
    res = _PINNED_RUNS[name][0]()
    for state in res.states:
        for array, shape in ((state.points, (64, 3)), (state.normals, (64, 3)),
                             (state.phi, (64,)), (state.kappa, (64,))):
            assert array.shape == shape
            assert array.flags.c_contiguous and array.flags.owndata


# ---------------------------------------------------------------------------
# batched waves against their solo runs


def _assert_same_bytes(got, want):
    got, want = _result_fields(got), _result_fields(want)
    assert list(got) == list(want)
    for field in want:
        assert got[field] == want[field], field


def test_batched_catalogue_waves_match_solo_runs_bytewise():
    members = [(disk_body(m=128), 1.0), (disk_body(m=128), _COS2(0.2)),
               (ellipse_body(m=128), 1.0)]
    batch = flows.weingarten_waves(members, 0.2, 2e-4)
    assert len(batch) == len(members)
    for (body, phi), got in zip(members, batch):
        _assert_same_bytes(got, weingarten_wave(body, phi, 0.2, 2e-4))


@pytest.mark.parametrize("dt, death", [(3.3e-3, "curvature-floor"),
                                       (3.6e-3, "nonfinite")])
@pytest.mark.parametrize("dying_first", [True, False])
def test_batched_wave_member_dies_alone(dt, death, dying_first):
    # between the two members' step limits the ellipse breaks down early
    # and the disk runs to the end, in the batch as in their solo runs
    members = [(ellipse_body(1.5, 1.0, m=128), _COS2(0.2)),
               (disk_body(m=128), _COS2(0.2))]
    if not dying_first:
        members.reverse()
    with np.errstate(over="ignore", invalid="ignore"):
        solo = [weingarten_wave(body, phi, 0.3, dt, snapshot_every=5)
                for body, phi in members]
        batch = flows.weingarten_waves(members, 0.3, dt, snapshot_every=5)
    dying, survivor = solo if dying_first else solo[::-1]
    assert dying.death_reason == death and not dying.states[-1].alive
    assert survivor.alive and survivor.series.times[-1] > 0.29
    assert survivor.states[-1].t > dying.states[-1].t
    for got, want in zip(batch, solo):
        _assert_same_bytes(got, want)


@pytest.mark.parametrize("dt, death", [(3.3e-3, "curvature-floor"),
                                       (3.6e-3, "nonfinite")])
def test_batched_wave_middle_member_dies_alone(dt, death):
    # the step on which the ellipse dies fails the whole-batch breakdown
    # check, which then judges each member alone: the disks on either side
    # keep the bytes of their solo runs
    members = [(disk_body(m=128), _COS2(0.2)),
               (ellipse_body(1.5, 1.0, m=128), _COS2(0.2)),
               (disk_body(m=128), 1.0)]
    with np.errstate(over="ignore", invalid="ignore"):
        solo = [weingarten_wave(body, phi, 0.3, dt, snapshot_every=5)
                for body, phi in members]
        batch = flows.weingarten_waves(members, 0.3, dt, snapshot_every=5)
    assert [res.death_reason for res in solo] == [None, death, None]
    for got, want in zip(batch, solo):
        _assert_same_bytes(got, want)


def test_batched_waves_need_bodies_that_share_m():
    with pytest.raises(ValueError, match="share m"):
        flows.weingarten_waves([(disk_body(m=64), 1.0),
                                (disk_body(m=128), 1.0)], 0.01, 1e-3)
    with pytest.raises(ValueError, match="at least one"):
        flows.weingarten_waves([], 0.01, 1e-3)


# ---------------------------------------------------------------------------
# one pad per state


_PAD_RUNS = {
    "plane": (lambda t: parallel_normal_flow(disk_body(m=64), _COS2(0.12),
                                             t, 2e-3), 4),
    "sphere": (lambda t: parallel_normal_flow(latitude_circle(1.0, 64),
                                              _COS2(0.1), t, 2e-3), 8),
    "wave": (lambda t: weingarten_wave(disk_body(m=64), _COS2(0.2),
                                       t / 10.0, 2e-4), 8),
}


@pytest.mark.parametrize("name", list(_PAD_RUNS))
def test_flow_pads_per_step_within_budget(monkeypatch, name):
    # a state's geometry pads its markers once for both derivatives: the
    # plane PNF pads once per state, the sphere PNF also pads the speed,
    # the wave's geometry pads (x, y, phi) at once and its right-hand side
    # pads the flux; the extra 50 steps of the longer run isolate the
    # per-step cost from the setup
    run, budget = _PAD_RUNS[name]
    pads = [0]
    real_pad = numerics._wrap_pad

    def counted(y, *axis):
        pads[0] += 1
        return real_pad(y, *axis)

    monkeypatch.setattr(numerics, "_wrap_pad", counted)
    per_run = []
    for t_end in (0.1, 0.2):
        pads[0] = 0
        res = run(t_end)
        assert res.alive
        per_run.append((pads[0], res.series.times.size - 1))
    (short_pads, short_steps), (long_pads, long_steps) = per_run
    assert long_steps - short_steps == 50
    assert (long_pads - short_pads) / 50 <= budget


# ---------------------------------------------------------------------------
# batched parallel normal flows against their solo runs


def _assert_batch_matches_solo(members, t_end, dt, snapshot_every):
    batch = flows.parallel_normal_flows(members, t_end, dt, snapshot_every)
    assert len(batch) == len(members)
    for (body, phi), got in zip(members, batch):
        _assert_same_bytes(got, parallel_normal_flow(
            body, phi, t_end, dt, snapshot_every=snapshot_every))
    return batch


def test_batched_catalogue_pnfs_match_solo_runs_bytewise():
    # pnf-disk, pnf-oracle and measure-monotone; the oracle's solo run
    # snapshots every 10**9 steps, which over 250 steps gives the same two
    # snapshots, and measure-monotone reads the masses of a run to 0.4
    oracle_phi = TrigPolynomial((1.0, 0.0, 0.12, 0.0, 0.02))
    batch = _assert_batch_matches_solo([
        (disk_body(m=256), 1.0), (disk_body(m=256), oracle_phi),
        (disk_body(m=256), _COS2(0.12))], 0.5, 2e-3, 250)
    assert all(res.alive for res in batch)
    assert [len(res.states) for res in batch] == [2, 2, 2]
    _assert_same_bytes(batch[1], parallel_normal_flow(
        disk_body(m=256), oracle_phi, 0.5, 2e-3, snapshot_every=10**9))
    short = parallel_normal_flow(disk_body(m=256), _COS2(0.12), 0.4, 2e-3,
                                 snapshot_every=250)
    assert np.array_equal(batch[2].series.masses[:201], short.series.masses)


@pytest.mark.parametrize("partner", [0.12, 0.8])
@pytest.mark.parametrize("dying_first", [True, False])
def test_batched_pnf_member_dies_alone(partner, dying_first):
    # speed 1 + a cos 2t keeps the disk convex while 1 + t (1 - 3a) > 0:
    # a = 0.6 breaks it near t = 1.25; its partner a = 0.12 outlives it,
    # a = 0.8 dies before it, near t = 0.71
    members = [(disk_body(m=64), _COS2(0.6)), (disk_body(m=64), _COS2(partner))]
    if not dying_first:
        members.reverse()
    batch = _assert_batch_matches_solo(members, 1.5, 2e-3, 100)
    dying, other = batch if dying_first else batch[::-1]
    assert dying.death_reason == "curvature-floor"
    assert not dying.states[-1].alive
    assert 1.0 < dying.series.times[-1] < 1.3
    if partner < 0.5:
        assert other.alive
        assert other.series.times[-1] == pytest.approx(1.5)
    else:
        assert other.death_reason == "curvature-floor"
        assert other.series.times[-1] < 0.8


def test_batched_pnf_self_intersection_vetoes_one_member(monkeypatch):
    # a stand-in sweep vetoes any curve that reaches radius 1.31: the unit
    # speed disk does at the check of step 175, the half speed one never
    monkeypatch.setattr(flows, "self_intersects", lambda points: bool(
        np.max(np.hypot(points[:, 0], points[:, 1])) > 1.31))
    batch = _assert_batch_matches_solo(
        [(disk_body(m=64), 1.0), (disk_body(m=64), 0.5)], 0.6, 2e-3, 10)
    assert batch[0].death_reason == "self-intersection"
    assert batch[0].diagnostics["steps_run"] == 174
    assert batch[1].alive and batch[1].diagnostics["steps_run"] == 300


def test_batched_pnf_middle_member_dies_alone():
    batch = _assert_batch_matches_solo(
        [(disk_body(m=64), _COS2(0.12)), (disk_body(m=64), _COS2(0.6)),
         (disk_body(m=64), _COS2(0.12))], 1.5, 2e-3, 100)
    assert [res.death_reason for res in batch] == [None, "curvature-floor",
                                                   None]


def test_batched_pnf_self_intersection_vetoes_the_middle_member(monkeypatch):
    # the stand-in sweep of the test above: only the unit speed disk
    # reaches radius 1.31 by t = 0.6
    monkeypatch.setattr(flows, "self_intersects", lambda points: bool(
        np.max(np.hypot(points[:, 0], points[:, 1])) > 1.31))
    batch = _assert_batch_matches_solo(
        [(disk_body(m=64), 0.5), (disk_body(m=64), 1.0),
         (disk_body(m=64), 0.25)], 0.6, 2e-3, 10)
    assert [res.death_reason for res in batch] == [None, "self-intersection",
                                                   None]
    assert [res.diagnostics["steps_run"] for res in batch] == [300, 174, 300]


def test_plane_geometry_bytes_do_not_depend_on_layout():
    # the geometry reads and writes one coordinate at a time, so a member's
    # bytes are the same in an (m, B, 2) batch, in the wave's strided
    # (m, B, 3)[..., :2] view and alone
    bodies = [disk_body(m=128), ellipse_body(1.5, 1.0, m=128),
              wavy_body(m=128)]
    points = [body.points() for body in bodies]
    hy = bodies[0].d_angle
    z = np.stack([np.column_stack([p, np.zeros(128)]) for p in points],
                 axis=1)
    assert not z[..., :2].flags.c_contiguous
    for layout in (np.stack(points, axis=1), z[..., :2]):
        batch = flows._plane_geometry(layout, hy)
        for c, p in enumerate(points):
            solo = flows._plane_geometry(p, hy)
            assert len(batch) == len(solo)
            for got, want in zip(batch, solo):
                assert np.ascontiguousarray(got[:, c]).tobytes() == \
                    want.tobytes()


def test_batched_pnfs_refuse_what_cannot_batch():
    with pytest.raises(ValueError, match="at least one"):
        flows.parallel_normal_flows([], 0.01, 1e-3)
    with pytest.raises(ValueError, match="share m"):
        flows.parallel_normal_flows([(disk_body(m=64), 1.0),
                                     (disk_body(m=128), 1.0)], 0.01, 1e-3)
    with pytest.raises(ValueError, match="plane body"):
        flows.parallel_normal_flows([(latitude_circle(1.0, 64), 1.0)],
                                    0.01, 1e-3)
