"""Named check suites: the executable catalogue behind the CLI.

The catalogue is one table of rows ``(name, call)``.  ``name`` is
``"<suite>/<check>"`` and appears nowhere else; ``call`` takes no
arguments and builds its inputs only when it runs.  The three
``flows/wave-*`` rows read one batched integration, which the first of
them to run builds for that catalogue alone.  ``suite_thunks``
selects the rows of one suite by the prefix before the ``/``, and
``run_suite_checks`` runs them and names what they return:

  * a single report takes the row name;
  * each member of a report family (mean curvature, boundary gaps,
    boundary CD, isoperimetric profile, the flow rows) takes
    ``"<row>-<member>"``, unless it already carries a ``suite/`` name.

Reports are emitted sorted by name, so the output is deterministic for a
fixed configuration.  The caller and, where ``os.fork`` exists,
``workers - 1`` forked copies of it drain one queue of work items.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import pickle
from dataclasses import replace
from typing import Callable, List, Tuple

import numpy as np

from .bodies import build_plane_body, build_sphere_cap
from .checks import CheckReport, from_identity, from_inequality
from .dimension import InverseDimension
from .errors import ConfigError, ReillyLabError
from .flows import (cap_extension_series, concavity_check,
                    geodesic_extension_measure, hausdorff_points,
                    isoperimetric_checks, latitude_circle,
                    minkowski_sum_support, parallel_normal_flow,
                    quermassintegrals, steiner_fit_residual,
                    weingarten_waves)
from .inequalities import (TestFunction, boundary_cd_report, check_bln,
                           check_boundary_gaps, check_colesanti,
                           check_dual_colesanti, check_lichnerowicz,
                           check_mean_curvature, check_veysseire,
                           sharpness_ratio)
from .models import build_interval_model, build_model_density
from .operators import (DIRICHLET, PERIODIC, assemble_laplacian,
                        eigenvalues, spectral_gap)
from .presets import (disk_body, ellipse_body, flat_ball, gaussian_ball,
                      gaussian_half_model, gaussian_model,
                      model_density_params,
                      random_convex_bodies, random_test_polynomials,
                      sphere_body, spheroid_body, veysseire_quartic_model)
from .reilly import cd_margin, gamma2_field, reilly_convergence
from .trig import TrigPolynomial

SUITE_NAMES = ("reilly", "bln", "spectral", "colesanti", "boundary", "flows",
               "isoperimetric", "all")

REILLY_RESOLUTIONS = (251, 501, 1001)

# the catalogue's lazy imports, loaded before forking so workers share them
FORK_PRELOAD = ("scipy.linalg", "scipy.interpolate", "scipy.integrate")

TH_INF = InverseDimension(0.0, 1)
TH2 = InverseDimension(0.5, 2)
TH3 = InverseDimension(1.0 / 3.0, 3)
TH5 = InverseDimension.from_n(5.0)


# ---------------------------------------------------------------------------
# row helpers: each returns one unnamed report or a family of members


def _worst(reports: List[CheckReport], **params) -> CheckReport:
    """Summary record carrying the worst (smallest-slack) member of a sweep."""
    worst = min(reports, key=lambda r: r.slack / max(1.0, abs(r.rhs), abs(r.lhs)))
    return from_inequality(
        "", lhs=worst.lhs, rhs=worst.rhs, tolerance=worst.tolerance,
        params={**params, "count": len(reports), "worst_member": worst.params},
    )


def _model(n_value: float, n_pts: int):
    return build_model_density(model_density_params(1.0, n_value), n_pts)


def _gamma2(model, u, theta, **params) -> CheckReport:
    field = gamma2_field(model, u(model.t), 1.0, theta)
    return from_identity("", residual=float(np.max(np.abs(field[3:-3]))),
                         tolerance=1e-10,
                         params={"model": model.label, **params})


def _bln_samples(domain, u, case: str, **kwargs) -> CheckReport:
    return check_bln(domain, TestFunction.from_samples(u(domain)), case,
                     TH_INF, **kwargs)


def _bln_extremal(variant: str) -> CheckReport:
    params = model_density_params(1.0, 5.0, variant=variant)
    return check_bln(build_model_density(params, 4001),
                     TestFunction.model_sharpness(params), variant, TH5)


def _sharp(n_value: float, beta_trunc=None) -> CheckReport:
    params = model_density_params(1.0, n_value, beta_trunc=beta_trunc)
    return sharpness_ratio(params, case="neumann", n_pts=8001)


def _gaussian_constant_rho():
    return build_interval_model(
        -6.0, 6.0, 2001, V=lambda t: t**2 / 2, dV=lambda t: t,
        ddV=lambda t: np.ones_like(t), rho_field=lambda t: np.ones_like(t),
        label="gaussian-constant-rho")


def _circle_gap() -> CheckReport:
    lam, _ = spectral_gap(assemble_laplacian(disk_body(m=256), PERIODIC))
    return from_identity("", residual=lam - 1.0, tolerance=1e-8, lhs=lam,
                         rhs=1.0, params={"m": 256})


def _circle_spectrum() -> CheckReport:
    vals = eigenvalues(assemble_laplacian(disk_body(m=256), PERIODIC), 7)
    expect = np.array([0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0])
    return from_identity("", residual=float(np.max(np.abs(vals - expect))),
                         tolerance=1e-8, params={"m": 256})


def _dirichlet_unit_interval() -> CheckReport:
    vals = []
    for n in (101, 201, 401):
        model = build_interval_model(0.0, 1.0, n, V=lambda t: np.zeros_like(t),
                                     label="unit-interval")
        lam, _ = spectral_gap(assemble_laplacian(model, DIRICHLET))
        vals.append((n, abs(lam - math.pi**2) / math.pi**2))
    return from_identity("", residual=vals[-1][1], tolerance=1e-3,
                         grids=tuple(vals), params={})


def _colesanti_corpus(seed: int) -> CheckReport:
    bodies = random_convex_bodies(4, seed, m=256)
    polys = random_test_polynomials(10, seed + 1)
    return _worst([check_colesanti(b, p, TH2) for b in bodies for p in polys],
                  seed=seed)


def _gaps_corpus(seed: int) -> CheckReport:
    reports = []
    for body in random_convex_bodies(10, seed, m=256):
        reports.extend(r for r in check_boundary_gaps(body)
                       if r.kind != "diagnostic")
    return _worst(reports, seed=seed)


def _pnf_minkowski_oracle(m: int, t_end: float, dt: float):
    """(Hausdorff distance, FlowResult) of the plane parallel normal flow
    from the unit disk at speed 1 + 0.12 cos 2t + 0.02 cos 4t against the
    Minkowski sum disk + t_end * (body with that support function)."""
    disk = disk_body(m=m)
    phi = TrigPolynomial((1.0, 0.0, 0.12, 0.0, 0.02))
    speed_body = build_plane_body(phi, m=m, label="speed-body")
    res = parallel_normal_flow(disk, phi, t_end, dt, snapshot_every=10**9)
    target = minkowski_sum_support(disk, speed_body, t_end)
    return hausdorff_points(res.states[-1].points, target.points()), res


def _pnf_measure(start, exact: float, tols, m: int, measure: str):
    """Unit-speed parallel normal flow to t = 0.5: final measure against
    its closed form, normal drift and concavity."""
    res = parallel_normal_flow(start, 1.0, 0.5, 2e-3, snapshot_every=250)
    return [
        from_identity(measure, residual=(res.series.masses[-1] - exact) / exact,
                      tolerance=tols[0], params={"m": m}),
        from_identity("drift", residual=res.normal_drift, tolerance=tols[1],
                      params={"m": m}),
        concavity_check(res.series),
    ]


def _pnf_oracle():
    dist, res = _pnf_minkowski_oracle(256, 0.5, 2e-3)
    return [
        from_identity("flows/pnf-vs-minkowski", residual=dist, tolerance=1e-4,
                      params={"m": 256, "dt": 2e-3}),
        from_identity("flows/pnf-vs-minkowski-drift",
                      residual=res.normal_drift, tolerance=1e-6,
                      params={"m": 256}),
        concavity_check(res.series),
    ]


def _waves():
    """The catalogue's three waves, integrated as one batch."""
    return weingarten_waves([
        (disk_body(m=128), 1.0),
        (disk_body(m=128), TrigPolynomial((1.0, 0.0, 0.2))),
        (ellipse_body(m=128), 1.0)], 0.2, 2e-4)


def _wave_linear(res):
    g = res.series.transformed()
    d2 = np.max(np.abs(g[2:] - 2 * g[1:-1] + g[:-2]))
    return [
        from_identity("flows/wave-disk-constant-linear", residual=float(d2),
                      tolerance=1e-8, params={"m": 128}),
        concavity_check(res.series, name="flows/wave-disk-constant-concavity"),
    ]


def _wave_alive(res, prefix: str = ""):
    return [
        from_inequality(prefix + "alive", lhs=1.0,
                        rhs=1.0 if res.alive else 0.0, tolerance=0.0,
                        params=res.diagnostics),
        concavity_check(res.series, name=prefix + "concavity"),
    ]


def _measure_monotone() -> CheckReport:
    res = parallel_normal_flow(disk_body(m=256), TrigPolynomial((1.0, 0.0, 0.12)),
                               0.4, 2e-3, snapshot_every=250)
    drops = np.diff(res.series.masses)
    return from_inequality("", lhs=float(-np.min(drops)), rhs=0.0,
                           tolerance=1e-12,
                           params={"min_increment": float(np.min(drops))})


def _extension(domain, t: float, exact: float) -> CheckReport:
    area = geodesic_extension_measure(domain, t)
    return from_identity("", residual=(area - exact) / exact,
                         tolerance=1e-12, params={})


def _catalogue(seed: int) -> List[Tuple[str, Callable]]:
    """Every check of every suite, in suite order."""
    waves = functools.cache(_waves)
    return [
        ("reilly/interval-gauss", lambda: reilly_convergence(
            gaussian_model, lambda t: t**2, REILLY_RESOLUTIONS)),
        ("reilly/interval-model-n5", lambda: reilly_convergence(
            lambda n: _model(5.0, n), lambda t: np.sin(0.5 * t),
            REILLY_RESOLUTIONS)),
        ("reilly/disk-radial", lambda: reilly_convergence(
            lambda n: flat_ball(2, 1.0, n), lambda r: r**2,
            REILLY_RESOLUTIONS)),
        ("reilly/gamma2-model-equality", lambda: _gamma2(
            _model(5.0, 2001), lambda t: np.sin(0.5 * t), TH5, n=2001)),
        ("reilly/gamma2-gauss-linear",
         lambda: _gamma2(gaussian_model(2001), np.copy, TH_INF)),
        ("reilly/cd-margin-model-n5",
         lambda: cd_margin(_model(5.0, 2001), 1.0, TH5)),
        ("reilly/cd-margin-gauss",
         lambda: cd_margin(gaussian_model(2001), 1.0, TH_INF)),

        ("bln/gauss-neumann-linear", lambda: _bln_samples(
            gaussian_model(4001), lambda m: m.t.copy(), "neumann")),
        ("bln/model-n5-extremal", lambda: _bln_extremal("neumann")),
        ("bln/model-n5-dirichlet-half", lambda: _bln_extremal("dirichlet")),
        ("bln/gaussian-ball-meanconvex", lambda: _bln_samples(
            gaussian_ball(2, 0.8, 1001), lambda b: b.r**2, "meanconvex",
            C=0.0)),
        ("bln/sharpness-n5", lambda: _sharp(5.0)),
        ("bln/sharpness-n-2", lambda: _sharp(-2.0, beta_trunc=8.0)),
        ("bln/sharpness-n1.5", lambda: _sharp(1.5)),

        ("spectral/lichnerowicz-model-n5",
         lambda: check_lichnerowicz(_model(5.0, 2001), 1.0, TH5)),
        ("spectral/lichnerowicz-model-n20", lambda: check_lichnerowicz(
            _model(20.0, 2001), 1.0, InverseDimension.from_n(20.0))),
        ("spectral/lichnerowicz-gauss",
         lambda: check_lichnerowicz(gaussian_model(2001), 1.0, TH_INF)),
        ("spectral/lichnerowicz-gauss-half-dirichlet",
         lambda: check_lichnerowicz(gaussian_half_model(2001), 1.0, TH_INF,
                                    case="dirichlet")),
        ("spectral/veysseire-quartic",
         lambda: check_veysseire(veysseire_quartic_model(2001))),
        ("spectral/veysseire-constant",
         lambda: check_veysseire(_gaussian_constant_rho())),
        ("spectral/circle-gap", _circle_gap),
        ("spectral/circle-spectrum", _circle_spectrum),
        ("spectral/dirichlet-unit-interval", _dirichlet_unit_interval),

        ("colesanti/disk-cos-equality", lambda: check_colesanti(
            disk_body(), TrigPolynomial((0.0, 1.0)), TH2)),
        ("colesanti/disk-constant", lambda: check_colesanti(
            disk_body(), TrigPolynomial.constant(1.0), TH2)),
        ("colesanti/ellipse-seeded", lambda: check_colesanti(
            ellipse_body(), random_test_polynomials(1, seed + 17)[0], TH2)),
        ("colesanti/random-corpus-sample", lambda: _colesanti_corpus(seed)),
        ("colesanti/ellipse-strengthened", lambda: check_colesanti(
            ellipse_body(), random_test_polynomials(1, seed + 29)[0], TH2,
            strengthened=True)),
        ("colesanti/dual-circle-cos-equality", lambda: check_dual_colesanti(
            disk_body(), TrigPolynomial((0.0, 1.0)), rho=0.0, C=0.0)),
        ("colesanti/dual-constant-auto", lambda: check_dual_colesanti(
            ellipse_body(), TrigPolynomial.constant(2.0), rho=1.0, C="auto")),
        ("colesanti/dual-ellipse-cos2", lambda: check_dual_colesanti(
            ellipse_body(), TrigPolynomial((0.0, 0.0, 1.0)), rho=0.0)),
        ("colesanti/hr-disk", lambda: check_mean_curvature(disk_body(), TH2)),
        ("colesanti/hr-ball",
         lambda: check_mean_curvature(sphere_body(1.0), TH3)),
        ("colesanti/hr-ellipse",
         lambda: check_mean_curvature(ellipse_body(), TH2)),
        ("colesanti/hr-spheroid",
         lambda: check_mean_curvature(spheroid_body(), TH3)),

        ("boundary/gaps-circle", lambda: check_boundary_gaps(disk_body())),
        ("boundary/gaps-sphere",
         lambda: check_boundary_gaps(sphere_body(1.0))),
        ("boundary/gaps-spheroid",
         lambda: check_boundary_gaps(spheroid_body())),
        ("boundary/gaps-corpus", lambda: _gaps_corpus(seed + 3)),
        ("boundary/cd-sphere", lambda: boundary_cd_report(sphere_body(1.0))),
        ("boundary/cd-spheroid", lambda: boundary_cd_report(spheroid_body())),

        ("flows/pnf-disk", lambda: _pnf_measure(
            disk_body(m=256), math.pi * 1.5**2, (1e-8, 1e-9), 256, "measure")),
        ("flows/pnf-oracle", _pnf_oracle),
        ("flows/pnf-cap", lambda: _pnf_measure(
            latitude_circle(math.pi / 3, 128),
            2.0 * math.pi * (1.0 - math.cos(math.pi / 3 + 0.5)), (1e-6, 1e-5),
            128, "area")),
        ("flows/wave-const", lambda: _wave_linear(waves()[0])),
        ("flows/wave-perturbed", lambda: _wave_alive(
            waves()[1], "flows/wave-disk-perturbed-")),
        ("flows/wave-ellipse", lambda: _wave_alive(waves()[2])),
        ("flows/measure-monotone", _measure_monotone),
        ("flows/cap-analytic-concavity", lambda: concavity_check(
            cap_extension_series(build_sphere_cap(math.pi / 3), 1.0, 1e-2))),

        ("isoperimetric/alexandrov-disk",
         lambda: quermassintegrals(disk_body(), TH2)[1]),
        ("isoperimetric/alexandrov-ellipse",
         lambda: quermassintegrals(ellipse_body(), TH2)[1]),
        ("isoperimetric/alexandrov-corpus", lambda: _worst(
            [quermassintegrals(b, TH2)[1]
             for b in random_convex_bodies(20, seed + 7, m=256)],
            seed=seed + 7)),
        ("isoperimetric/steiner-fit", lambda: from_identity(
            "", residual=steiner_fit_residual(disk_body(), ellipse_body()),
            tolerance=1e-10, params={})),
        ("isoperimetric/extension-disk",
         lambda: _extension(disk_body(), 1.0, 4 * math.pi)),
        ("isoperimetric/extension-cap", lambda: _extension(
            build_sphere_cap(math.pi / 3), math.pi / 6, 2 * math.pi)),
        ("isoperimetric/profile-disk-disk",
         lambda: isoperimetric_checks(disk_body(), disk_body(), TH2)),
        ("isoperimetric/profile-ellipse-disk",
         lambda: isoperimetric_checks(ellipse_body(), disk_body(), TH2)),
    ]


def _named(row: str, result) -> List[CheckReport]:
    if isinstance(result, CheckReport):
        return [replace(result, name=row)]
    return [r if "/" in r.name else replace(r, name=f"{row}-{r.name}")
            for r in result]


def suite_thunks(suite: str, seed: int) -> List[Tuple[str, Callable]]:
    """(name, zero-argument call) rows of one suite, or of all of them."""
    if suite not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {suite!r}; expected one of "
                          f"{', '.join(SUITE_NAMES)}")
    return [(name, call) for name, call in _catalogue(seed)
            if suite in ("all", name.partition("/")[0])]


def _items(rows) -> List[List[int]]:
    """Row indices by work item, the largest first: the ``flows/wave-*``
    rows share one batch, every other row stands alone."""
    items = {}
    for i, (name, _) in enumerate(rows):
        items.setdefault(name.split("/wave-")[0], []).append(i)
    return sorted(items.values(), key=len, reverse=True)


def _take(queue: int):
    data = os.read(queue, 4)
    return int.from_bytes(data, "little") if data else None


def _drain(rows, items, queue: int, item) -> list:
    """[(row index, reports)] of ``item`` and of every item taken after it."""
    done = []
    while item is not None:
        done += [(i, _named(rows[i][0], rows[i][1]())) for i in items[item]]
        item = _take(queue)
    return done


def _fork(rows, items, queue: int) -> Tuple[int, int]:
    """(pid, result pipe) of a forked worker that drains the queue."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            try:
                result = _drain(rows, items, queue, _take(queue))
            except Exception as exc:  # noqa: BLE001 - the caller re-raises
                result = exc
            with os.fdopen(write, "wb") as pipe:
                pipe.write(pickle.dumps(result))
        finally:
            os._exit(0)
    os.close(write)
    return pid, read


def run_suite_checks(suite: str, seed: int = 1234, workers: int = 1,
                     tol_scale: float = 1.0) -> List[CheckReport]:
    """Execute a suite on ``workers`` processes; reports come back sorted
    by check name and do not depend on ``workers``."""
    rows = suite_thunks(suite, seed)
    items = _items(rows)
    queue, feed = os.pipe()
    os.write(feed, np.arange(len(items), dtype="<u4").tobytes())
    os.close(feed)
    forks = min(workers, len(items)) - 1 if hasattr(os, "fork") else 0
    for module in FORK_PRELOAD if forks > 0 else ():
        importlib.import_module(module)
    children, results = [], []
    try:
        first = _take(queue)
        for _ in range(forks):
            children.append(_fork(rows, items, queue))
        done = _drain(rows, items, queue, first)
    finally:
        os.close(queue)
        for pid, read in children:
            with os.fdopen(read, "rb") as pipe:
                results.append(pipe.read())
            os.waitpid(pid, 0)
    for result in (pickle.loads(data) for data in results if data):
        if isinstance(result, Exception):
            raise result
        done += result
    ran = {i for i, _ in done}
    if len(ran) < len(rows):
        raise ReillyLabError("a worker died without a result; rows not run: "
                             + ", ".join(name for i, (name, _) in
                                         enumerate(rows) if i not in ran))
    reports = [r for _, named in sorted(done) for r in named]
    if tol_scale != 1.0:
        reports = [r.with_tol_scale(tol_scale) for r in reports]
    return sorted(reports, key=lambda r: r.name)
