"""Named check suites: the executable catalogue behind the CLI.

Each suite is a list of (name, thunk) pairs; thunks are pure and may run
concurrently.  Reports are collected and emitted sorted by name, so the
output is deterministic for a fixed configuration regardless of worker
count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Tuple

import numpy as np

from . import presets
from .checks import CheckReport, from_identity, from_inequality
from .dimension import InverseDimension
from .errors import ConfigError
from .flows import (cap_extension_series, concavity_check, hausdorff_points,
                    isoperimetric_checks, latitude_circle,
                    minkowski_sum_support, parallel_normal_flow,
                    quermassintegrals, steiner_fit_residual, weingarten_wave)
from .inequalities import (TestFunction, boundary_cd_report, check_bln,
                           check_boundary_gaps, check_colesanti,
                           check_dual_colesanti, check_lichnerowicz,
                           check_mean_curvature, check_veysseire,
                           sharpness_ratio)
from .models import build_gaussian_interval, build_model_density
from .operators import (DIRICHLET, PERIODIC, assemble_laplacian,
                        eigenvalues, spectral_gap)
from .reilly import cd_margin, gamma2_field, reilly_convergence
from .trig import TrigPolynomial

SUITE_NAMES = ("reilly", "bln", "spectral", "colesanti", "boundary", "flows",
               "isoperimetric", "all")

REILLY_RESOLUTIONS = (251, 501, 1001)

TH_INF = InverseDimension(0.0, 1)
TH2 = InverseDimension(0.5, 2)
TH3 = InverseDimension(1.0 / 3.0, 3)


def _worst(reports: List[CheckReport], name: str, params=None) -> CheckReport:
    """Summary record carrying the worst (smallest-slack) member of a sweep."""
    worst = min(reports, key=lambda r: r.slack / max(1.0, abs(r.rhs), abs(r.lhs)))
    return from_inequality(
        name, lhs=worst.lhs, rhs=worst.rhs, tolerance=worst.tolerance,
        params={**(params or {}), "count": len(reports),
                "worst_member": worst.params},
    )


# ---------------------------------------------------------------------------
# suite: reilly


def _reilly_checks(seed: int) -> List[Tuple[str, Callable]]:
    def gauss_fixture():
        return reilly_convergence(
            lambda n: build_gaussian_interval(1.0, 6.0, n),
            lambda t: t**2, REILLY_RESOLUTIONS, name="reilly/interval-gauss")

    def model_fixture():
        params = presets.model_density_params(1.0, 5.0)
        sqrt_delta = math.sqrt(0.25)
        return reilly_convergence(
            lambda n: build_model_density(params, n),
            lambda t: np.sin(sqrt_delta * t), REILLY_RESOLUTIONS,
            name="reilly/interval-model-n5")

    def disk_fixture():
        return reilly_convergence(
            lambda n: presets.flat_ball(2, 1.0, n),
            lambda r: r**2, REILLY_RESOLUTIONS, name="reilly/disk-radial")

    def gamma2_model():
        params = presets.model_density_params(1.0, 5.0)
        model = build_model_density(params, 2001)
        u = np.sin(math.sqrt(0.25) * model.t)
        field = gamma2_field(model, u, 1.0, InverseDimension.from_n(5.0))
        interior = field[3:-3]
        worst = float(np.max(np.abs(interior)))
        return from_identity("reilly/gamma2-model-equality", residual=worst,
                             tolerance=1e-10,
                             params={"model": model.label, "n": model.n_pts})

    def gamma2_gauss():
        model = build_gaussian_interval(1.0, 6.0, 2001)
        field = gamma2_field(model, model.t.copy(), 1.0, TH_INF)
        return from_identity("reilly/gamma2-gauss-linear",
                             residual=float(np.max(np.abs(field[3:-3]))),
                             tolerance=1e-10, params={"model": model.label})

    def margin_model():
        params = presets.model_density_params(1.0, 5.0)
        model = build_model_density(params, 2001)
        rep = cd_margin(model, 1.0, InverseDimension.from_n(5.0))
        return _rename(rep, "reilly/cd-margin-model-n5")

    def margin_gauss():
        rep = cd_margin(build_gaussian_interval(1.0, 6.0, 2001), 1.0, TH_INF)
        return _rename(rep, "reilly/cd-margin-gauss")

    return [
        ("reilly/interval-gauss", gauss_fixture),
        ("reilly/interval-model-n5", model_fixture),
        ("reilly/disk-radial", disk_fixture),
        ("reilly/gamma2-model-equality", gamma2_model),
        ("reilly/gamma2-gauss-linear", gamma2_gauss),
        ("reilly/cd-margin-model-n5", margin_model),
        ("reilly/cd-margin-gauss", margin_gauss),
    ]


def _rename(report: CheckReport, name: str) -> CheckReport:
    from dataclasses import replace
    return replace(report, name=name)


# ---------------------------------------------------------------------------
# suite: bln


def _bln_checks(seed: int) -> List[Tuple[str, Callable]]:
    def gauss_neumann():
        model = build_gaussian_interval(1.0, 6.0, 4001)
        rep = check_bln(model, TestFunction.from_samples(model.t.copy()),
                        "neumann", TH_INF)
        return _rename(rep, "bln/gauss-neumann-linear")

    def model_sharp_neumann():
        params = presets.model_density_params(1.0, 5.0)
        model = build_model_density(params, 4001)
        rep = check_bln(model, TestFunction.model_sharpness(params),
                        "neumann", InverseDimension.from_n(5.0))
        return _rename(rep, "bln/model-n5-extremal")

    def model_half_dirichlet():
        params = presets.model_density_params(1.0, 5.0, variant="dirichlet")
        model = build_model_density(params, 4001)
        rep = check_bln(model, TestFunction.model_sharpness(params),
                        "dirichlet", InverseDimension.from_n(5.0))
        return _rename(rep, "bln/model-n5-dirichlet-half")

    def ball_meanconvex():
        ball = presets.gaussian_ball(2, 0.8, 1001)
        rep = check_bln(ball, TestFunction.from_samples(ball.r**2),
                        "meanconvex", TH_INF, C=0.0)
        return _rename(rep, "bln/gaussian-ball-meanconvex")

    def sharp(name, nval, beta_frac=0.999, beta_trunc=None, case="neumann"):
        def run():
            params = presets.model_density_params(
                1.0, nval, beta_frac=beta_frac, beta_trunc=beta_trunc)
            return _rename(sharpness_ratio(params, case=case, n_pts=8001),
                           name)
        return run

    return [
        ("bln/gauss-neumann-linear", gauss_neumann),
        ("bln/model-n5-extremal", model_sharp_neumann),
        ("bln/model-n5-dirichlet-half", model_half_dirichlet),
        ("bln/gaussian-ball-meanconvex", ball_meanconvex),
        ("bln/sharpness-n5", sharp("bln/sharpness-n5", 5.0)),
        ("bln/sharpness-n-2", sharp("bln/sharpness-n-2", -2.0, beta_trunc=8.0)),
        ("bln/sharpness-n1.5", sharp("bln/sharpness-n1.5", 1.5)),
    ]


# ---------------------------------------------------------------------------
# suite: spectral


def _spectral_checks(seed: int) -> List[Tuple[str, Callable]]:
    def lich(name, nval, n_pts=2001):
        def run():
            params = presets.model_density_params(1.0, nval)
            model = build_model_density(params, n_pts)
            rep = check_lichnerowicz(model, 1.0, InverseDimension.from_n(nval))
            return _rename(rep, name)
        return run

    def lich_gauss():
        model = build_gaussian_interval(1.0, 6.0, 2001)
        return _rename(check_lichnerowicz(model, 1.0, TH_INF),
                       "spectral/lichnerowicz-gauss")

    def lich_half():
        model = presets.gaussian_half_model(2001)
        return _rename(check_lichnerowicz(model, 1.0, TH_INF, case="dirichlet"),
                       "spectral/lichnerowicz-gauss-half-dirichlet")

    def veysseire():
        return _rename(check_veysseire(presets.veysseire_quartic_model(2001)),
                       "spectral/veysseire-quartic")

    def veysseire_const():
        from .models import build_interval_model
        model = build_interval_model(
            -6.0, 6.0, 2001, V=lambda t: t**2 / 2, dV=lambda t: t,
            ddV=lambda t: np.ones_like(t), rho_field=lambda t: np.ones_like(t),
            label="gaussian-constant-rho")
        return _rename(check_veysseire(model), "spectral/veysseire-constant")

    def circle_gap():
        op = assemble_laplacian(presets.disk_body(m=256), PERIODIC)
        lam, _ = spectral_gap(op)
        return from_identity("spectral/circle-gap", residual=lam - 1.0,
                             tolerance=1e-8, lhs=lam, rhs=1.0,
                             params={"m": 256})

    def circle_spectrum():
        op = assemble_laplacian(presets.disk_body(m=256), PERIODIC)
        vals = eigenvalues(op, 7)
        expect = np.array([0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0])
        return from_identity("spectral/circle-spectrum",
                             residual=float(np.max(np.abs(vals - expect))),
                             tolerance=1e-8, params={"m": 256})

    def dirichlet_square():
        from .models import build_interval_model
        vals = []
        for n in (101, 201, 401):
            model = build_interval_model(0.0, 1.0, n,
                                         V=lambda t: np.zeros_like(t),
                                         label="unit-interval")
            lam, _ = spectral_gap(assemble_laplacian(model, DIRICHLET))
            vals.append((n, abs(lam - math.pi**2) / math.pi**2))
        return from_identity("spectral/dirichlet-unit-interval",
                             residual=vals[-1][1], tolerance=1e-3,
                             grids=tuple(vals), params={})

    return [
        ("spectral/lichnerowicz-model-n5",
         lich("spectral/lichnerowicz-model-n5", 5.0)),
        ("spectral/lichnerowicz-model-n20",
         lich("spectral/lichnerowicz-model-n20", 20.0)),
        ("spectral/lichnerowicz-gauss", lich_gauss),
        ("spectral/lichnerowicz-gauss-half-dirichlet", lich_half),
        ("spectral/veysseire-quartic", veysseire),
        ("spectral/veysseire-constant", veysseire_const),
        ("spectral/circle-gap", circle_gap),
        ("spectral/circle-spectrum", circle_spectrum),
        ("spectral/dirichlet-unit-interval", dirichlet_square),
    ]


# ---------------------------------------------------------------------------
# suite: colesanti


def _colesanti_checks(seed: int) -> List[Tuple[str, Callable]]:
    def disk_eq():
        rep = check_colesanti(presets.disk_body(), TrigPolynomial((0.0, 1.0)),
                              TH2)
        return _rename(rep, "colesanti/disk-cos-equality")

    def disk_const():
        rep = check_colesanti(presets.disk_body(), TrigPolynomial.constant(1.0),
                              TH2)
        return _rename(rep, "colesanti/disk-constant")

    def ellipse_seeded():
        poly = presets.random_test_polynomials(1, seed + 17)[0]
        rep = check_colesanti(presets.ellipse_body(), poly, TH2)
        return _rename(rep, "colesanti/ellipse-seeded")

    def corpus():
        bodies = presets.random_convex_bodies(4, seed, m=256)
        polys = presets.random_test_polynomials(10, seed + 1)
        reports = [check_colesanti(b, p, TH2) for b in bodies for p in polys]
        return _worst(reports, "colesanti/random-corpus-sample",
                      params={"seed": seed})

    def strengthened():
        poly = presets.random_test_polynomials(1, seed + 29)[0]
        rep = check_colesanti(presets.ellipse_body(), poly, TH2,
                              strengthened=True)
        return _rename(rep, "colesanti/ellipse-strengthened")

    def dual_eq():
        rep = check_dual_colesanti(presets.disk_body(),
                                   TrigPolynomial((0.0, 1.0)), rho=0.0, C=0.0)
        return _rename(rep, "colesanti/dual-circle-cos-equality")

    def dual_const():
        rep = check_dual_colesanti(presets.ellipse_body(),
                                   TrigPolynomial.constant(2.0), rho=1.0,
                                   C="auto")
        return _rename(rep, "colesanti/dual-constant-auto")

    def dual_ellipse():
        rep = check_dual_colesanti(presets.ellipse_body(),
                                   TrigPolynomial((0.0, 0.0, 1.0)), rho=0.0)
        return _rename(rep, "colesanti/dual-ellipse-cos2")

    def hr(name, body_factory, theta):
        def run():
            reports = check_mean_curvature(body_factory(), theta)
            merged = []
            for rep in reports:
                merged.append(_rename(rep, f"{name}-{rep.name}"))
            return merged
        return run

    return [
        ("colesanti/disk-cos-equality", disk_eq),
        ("colesanti/disk-constant", disk_const),
        ("colesanti/ellipse-seeded", ellipse_seeded),
        ("colesanti/random-corpus-sample", corpus),
        ("colesanti/ellipse-strengthened", strengthened),
        ("colesanti/dual-circle-cos-equality", dual_eq),
        ("colesanti/dual-constant-auto", dual_const),
        ("colesanti/dual-ellipse-cos2", dual_ellipse),
        ("colesanti/hr-disk", hr("colesanti/hr-disk",
                                 presets.disk_body, TH2)),
        ("colesanti/hr-ball", hr("colesanti/hr-ball",
                                 lambda: presets.sphere_body(1.0), TH3)),
        ("colesanti/hr-ellipse", hr("colesanti/hr-ellipse",
                                    presets.ellipse_body, TH2)),
        ("colesanti/hr-spheroid", hr("colesanti/hr-spheroid",
                                     presets.spheroid_body, TH3)),
    ]


# ---------------------------------------------------------------------------
# suite: boundary


def _boundary_checks(seed: int) -> List[Tuple[str, Callable]]:
    def gaps(name, factory, rho=0.0):
        def run():
            reports = check_boundary_gaps(factory(), rho_ambient=rho)
            return [_rename(r, f"{name}-{r.name}") for r in reports]
        return run

    def corpus():
        bodies = presets.random_convex_bodies(10, seed + 3, m=256)
        reports = []
        for body in bodies:
            reports.extend(r for r in check_boundary_gaps(body)
                           if r.kind != "diagnostic")
        return _worst(reports, "boundary/gaps-corpus", params={"seed": seed + 3})

    def cd(name, factory):
        def run():
            reports = boundary_cd_report(factory())
            return [_rename(r, f"{name}-{r.name}") for r in reports]
        return run

    return [
        ("boundary/gaps-circle", gaps("boundary/gaps-circle",
                                      presets.disk_body)),
        ("boundary/gaps-sphere", gaps("boundary/gaps-sphere",
                                      lambda: presets.sphere_body(1.0))),
        ("boundary/gaps-spheroid", gaps("boundary/gaps-spheroid",
                                        presets.spheroid_body)),
        ("boundary/gaps-corpus", corpus),
        ("boundary/cd-sphere", cd("boundary/cd-sphere",
                                  lambda: presets.sphere_body(1.0))),
        ("boundary/cd-spheroid", cd("boundary/cd-spheroid",
                                    presets.spheroid_body)),
    ]


# ---------------------------------------------------------------------------
# suite: flows


def _pnf_minkowski_oracle(m: int, t_end: float, dt: float):
    """(Hausdorff distance, FlowResult) of the plane parallel normal flow
    from the unit disk at speed 1 + 0.12 cos 2t + 0.02 cos 4t against the
    Minkowski sum disk + t_end * (body with that support function)."""
    from .bodies import build_plane_body
    disk = presets.disk_body(m=m)
    phi = TrigPolynomial((1.0, 0.0, 0.12, 0.0, 0.02))
    speed_body = build_plane_body(phi, m=m, label="speed-body")
    res = parallel_normal_flow(disk, phi, t_end, dt, snapshot_every=10**9)
    target = minkowski_sum_support(disk, speed_body, t_end)
    return hausdorff_points(res.states[-1].points, target.points()), res


def _flow_checks(seed: int) -> List[Tuple[str, Callable]]:
    def pnf_disk():
        disk = presets.disk_body(m=256)
        res = parallel_normal_flow(disk, 1.0, 0.5, 2e-3, snapshot_every=250)
        final = res.series.masses[-1]
        exact = math.pi * 1.5**2
        out = [
            from_identity("flows/pnf-disk-measure",
                          residual=(final - exact) / exact, tolerance=1e-8,
                          params={"m": 256}),
            from_identity("flows/pnf-disk-drift", residual=res.normal_drift,
                          tolerance=1e-9, params={"m": 256}),
            _rename(concavity_check(res.series), "flows/pnf-disk-concavity"),
        ]
        return out

    def pnf_oracle():
        dist, res = _pnf_minkowski_oracle(256, 0.5, 2e-3)
        return [
            from_identity("flows/pnf-vs-minkowski", residual=dist,
                          tolerance=1e-4, params={"m": 256, "dt": 2e-3}),
            from_identity("flows/pnf-vs-minkowski-drift",
                          residual=res.normal_drift, tolerance=1e-6,
                          params={"m": 256}),
            _rename(concavity_check(res.series), "flows/pnf-oracle-concavity"),
        ]

    def pnf_cap():
        lat = latitude_circle(math.pi / 3, 128)
        res = parallel_normal_flow(lat, 1.0, 0.5, 2e-3, snapshot_every=250)
        exact = 2.0 * math.pi * (1.0 - math.cos(math.pi / 3 + 0.5))
        return [
            from_identity("flows/pnf-cap-area",
                          residual=(res.series.masses[-1] - exact) / exact,
                          tolerance=1e-6, params={"m": 128}),
            from_identity("flows/pnf-cap-drift", residual=res.normal_drift,
                          tolerance=1e-5, params={"m": 128}),
            _rename(concavity_check(res.series), "flows/pnf-cap-concavity"),
        ]

    def wave_const():
        disk = presets.disk_body(m=128)
        res = weingarten_wave(disk, 1.0, 0.2, 2e-4)
        series = res.series
        g = series.transformed()
        d2 = np.max(np.abs(g[2:] - 2 * g[1:-1] + g[:-2]))
        return [
            from_identity("flows/wave-disk-constant-linear", residual=float(d2),
                          tolerance=1e-8, params={"m": 128}),
            _rename(concavity_check(series), "flows/wave-disk-constant-concavity"),
        ]

    def wave_perturbed():
        disk = presets.disk_body(m=128)
        res = weingarten_wave(disk, TrigPolynomial((1.0, 0.0, 0.2)), 0.2, 2e-4)
        return [
            from_inequality("flows/wave-disk-perturbed-alive",
                            lhs=1.0, rhs=1.0 if res.alive else 0.0,
                            tolerance=0.0, params=res.diagnostics),
            _rename(concavity_check(res.series),
                    "flows/wave-disk-perturbed-concavity"),
        ]

    def wave_ellipse():
        body = presets.ellipse_body(m=128)
        res = weingarten_wave(body, 1.0, 0.2, 2e-4)
        return [
            from_inequality("flows/wave-ellipse-alive", lhs=1.0,
                            rhs=1.0 if res.alive else 0.0, tolerance=0.0,
                            params=res.diagnostics),
            _rename(concavity_check(res.series), "flows/wave-ellipse-concavity"),
        ]

    def monotone():
        disk = presets.disk_body(m=256)
        phi = TrigPolynomial((1.0, 0.0, 0.12))
        res = parallel_normal_flow(disk, phi, 0.4, 2e-3, snapshot_every=250)
        drops = np.diff(res.series.masses)
        return from_inequality("flows/measure-monotone",
                               lhs=float(-np.min(drops)), rhs=0.0,
                               tolerance=1e-12,
                               params={"min_increment": float(np.min(drops))})

    def cap_series():
        from .bodies import build_sphere_cap
        series = cap_extension_series(build_sphere_cap(math.pi / 3), 1.0, 1e-2)
        return _rename(concavity_check(series), "flows/cap-analytic-concavity")

    return [
        ("flows/pnf-disk", pnf_disk),
        ("flows/pnf-oracle", pnf_oracle),
        ("flows/pnf-cap", pnf_cap),
        ("flows/wave-const", wave_const),
        ("flows/wave-perturbed", wave_perturbed),
        ("flows/wave-ellipse", wave_ellipse),
        ("flows/measure-monotone", monotone),
        ("flows/cap-analytic-concavity", cap_series),
    ]


# ---------------------------------------------------------------------------
# suite: isoperimetric


def _isoperimetric_checks(seed: int) -> List[Tuple[str, Callable]]:
    def alexandrov_disk():
        _, rep = quermassintegrals(presets.disk_body(), TH2)
        return _rename(rep, "isoperimetric/alexandrov-disk")

    def alexandrov_ellipse():
        _, rep = quermassintegrals(presets.ellipse_body(), TH2)
        return _rename(rep, "isoperimetric/alexandrov-ellipse")

    def alexandrov_corpus():
        bodies = presets.random_convex_bodies(20, seed + 7, m=256)
        reports = [quermassintegrals(b, TH2)[1] for b in bodies]
        return _worst(reports, "isoperimetric/alexandrov-corpus",
                      params={"seed": seed + 7})

    def steiner():
        resid = steiner_fit_residual(presets.disk_body(),
                                     presets.ellipse_body())
        return from_identity("isoperimetric/steiner-fit", residual=resid,
                             tolerance=1e-10, params={})

    def extension_disk():
        from .flows import geodesic_extension_measure
        area = geodesic_extension_measure(presets.disk_body(), 1.0)
        return from_identity("isoperimetric/extension-disk",
                             residual=(area - 4 * math.pi) / (4 * math.pi),
                             tolerance=1e-12, params={})

    def extension_cap():
        from .bodies import build_sphere_cap
        from .flows import geodesic_extension_measure
        area = geodesic_extension_measure(build_sphere_cap(math.pi / 3),
                                          math.pi / 6)
        return from_identity("isoperimetric/extension-cap",
                             residual=(area - 2 * math.pi) / (2 * math.pi),
                             tolerance=1e-12, params={})

    def iso(name, k_factory, l_factory):
        def run():
            reports = isoperimetric_checks(k_factory(), l_factory(), TH2)
            return [_rename(r, f"{name}-{r.name}") for r in reports]
        return run

    return [
        ("isoperimetric/alexandrov-disk", alexandrov_disk),
        ("isoperimetric/alexandrov-ellipse", alexandrov_ellipse),
        ("isoperimetric/alexandrov-corpus", alexandrov_corpus),
        ("isoperimetric/steiner-fit", steiner),
        ("isoperimetric/extension-disk", extension_disk),
        ("isoperimetric/extension-cap", extension_cap),
        ("isoperimetric/profile-disk-disk",
         iso("isoperimetric/profile-disk-disk",
             presets.disk_body, presets.disk_body)),
        ("isoperimetric/profile-ellipse-disk",
         iso("isoperimetric/profile-ellipse-disk",
             presets.ellipse_body, presets.disk_body)),
    ]


_BUILDERS = {
    "reilly": _reilly_checks,
    "bln": _bln_checks,
    "spectral": _spectral_checks,
    "colesanti": _colesanti_checks,
    "boundary": _boundary_checks,
    "flows": _flow_checks,
    "isoperimetric": _isoperimetric_checks,
}


def suite_thunks(suite: str, seed: int) -> List[Tuple[str, Callable]]:
    if suite == "all":
        out = []
        for name in ("reilly", "bln", "spectral", "colesanti", "boundary",
                     "flows", "isoperimetric"):
            out.extend(_BUILDERS[name](seed))
        return out
    if suite not in _BUILDERS:
        raise ConfigError(f"unknown suite {suite!r}; expected one of "
                          f"{', '.join(SUITE_NAMES)}")
    return _BUILDERS[suite](seed)


def run_suite_checks(suite: str, seed: int = 1234, workers: int = 1,
                     tol_scale: float = 1.0) -> List[CheckReport]:
    """Execute a suite; reports come back sorted by check name."""
    thunks = suite_thunks(suite, seed)

    def invoke(pair):
        _, thunk = pair
        result = thunk()
        return result if isinstance(result, list) else [result]

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(invoke, thunks))
    else:
        chunks = [invoke(pair) for pair in thunks]
    reports: List[CheckReport] = []
    for chunk in chunks:
        reports.extend(chunk)
    if tol_scale != 1.0:
        reports = [r.with_tol_scale(tol_scale) for r in reports]
    return sorted(reports, key=lambda r: r.name)
