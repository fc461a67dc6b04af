"""Named check suites: the executable catalogue behind the CLI.

The catalogue is one table of rows ``(name, call)``.  ``name`` is
``"<suite>/<check>"`` and appears nowhere else; ``call`` takes no
arguments and builds its inputs only when it runs.  The rows that read
``waves()`` or ``pnfs()`` share one batched integration, which the first
of them to run builds for that catalogue alone.  The rows on the default
spheroid, and those on the unit sphere, share one body the same way, but
stay separate work items.  ``suite_thunks`` selects the rows of one suite
by the prefix before the ``/``, and ``run_suite_checks`` runs them and
names what they return:

  * a single report takes the row name;
  * each member of a report family (mean curvature, boundary gaps,
    boundary CD, isoperimetric profile, the flow rows) takes
    ``"<row>-<member>"``, unless it already carries a ``suite/`` name.

Reports are emitted sorted by name, so the output is deterministic for a
fixed configuration.  The caller and, where ``os.fork`` exists,
``workers - 1`` forked copies of it drain one queue of work items.

``sharpness``, ``lichnerowicz`` and ``flow_oracle`` build the checks that
``config.validate_sweep`` varies; the catalogue rows of the first two are
``partial`` objects of them, whose grid is ``call.keywords["n_pts"]``.
"""

from __future__ import annotations

import importlib
import math
import os
import pickle
from dataclasses import replace
from functools import cache, partial
from typing import Callable, List, Tuple

import numpy as np

from .bodies import (SphereCap, build_plane_body, build_sphere_body,
                     build_spheroid_body)
from .checks import CheckReport, from_identity, from_inequality
from .dimension import InverseDimension
from .errors import ConfigError, ReillyLabError
from .flows import (cap_extension_series, concavity_check,
                    geodesic_extension_measure, hausdorff_points,
                    isoperimetric_checks, latitude_circle,
                    minkowski_sum_support, parallel_normal_flow,
                    parallel_normal_flows, quermassintegrals,
                    steiner_fit_residual, weingarten_waves)
from .inequalities import (boundary_cd_report, check_bln, check_boundary_gaps,
                           check_colesanti, check_dual_colesanti,
                           check_lichnerowicz, check_mean_curvature,
                           check_veysseire, sharpness_ratio)
from .models import build_interval_model, build_model_density
from .operators import (DIRICHLET, NEUMANN, PERIODIC, assemble_laplacian,
                        eigenvalues, spectral_gap)
from .presets import (disk_body, ellipse_body, flat_ball, gaussian_ball,
                      gaussian_half_model, gaussian_model,
                      model_density_params,
                      random_convex_bodies, random_test_polynomials,
                      veysseire_quartic_model)
from .reilly import cd_margin, gamma2_field, reilly_convergence
from .trig import TrigPolynomial

SUITE_NAMES = ("reilly", "bln", "spectral", "colesanti", "boundary", "flows",
               "isoperimetric", "all")

REILLY_RESOLUTIONS = (251, 501, 1001)

# the catalogue's lazy imports, loaded before forking so workers share them
FORK_PRELOAD = ("reilly_lab._lapack",)

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
    return check_bln(domain, u(domain), case, TH_INF, **kwargs)


def _bln_extremal(variant: str) -> CheckReport:
    params = model_density_params(1.0, 5.0, variant=variant)
    model = build_model_density(params, 4001)
    _, rp, rpp = params.profile()
    return check_bln(model, rp(model.t), variant, TH5, fp=rpp(model.t))


def sharpness(rho: float, n_value: float, n_pts: int, case: str = "neumann",
              beta_frac: float = 0.999, beta_trunc=None) -> CheckReport:
    """``sharpness_ratio`` on R^(N-1) truncated at beta_frac times its
    positivity endpoint or, when hyperbolic, at beta_trunc."""
    return sharpness_ratio(model_density_params(
        rho, n_value, beta_frac=beta_frac, beta_trunc=beta_trunc,
        variant=case), n_pts=n_pts)


def lichnerowicz(rho: float, theta: InverseDimension, n_pts: int,
                 case: str = "neumann") -> CheckReport:
    """``check_lichnerowicz`` on R^(N-1), truncated at 8 when hyperbolic,
    at N = inf on the Gaussian of variance 1/rho on +-6 sigma; Dirichlet on
    the half interval [0, b], whose wall is mean-convex for the weight."""
    case = case.lower()
    if case not in (NEUMANN, DIRICHLET):
        raise ValueError(f"unknown case {case!r}")
    if theta.is_infinite_n:
        sigma = 1.0 / math.sqrt(rho)
        model = (gaussian_half_model if case == DIRICHLET
                 else gaussian_model)(n_pts, sigma, 6.0 * sigma)
    else:
        n = theta.n_value
        model = build_model_density(model_density_params(
            rho, n, beta_trunc=8.0 if rho / (n - 1) < 0 else None,
            variant=case), n_pts)
    return check_lichnerowicz(model, rho, theta, case=case)


def _gaussian_constant_rho():
    return build_interval_model(
        -6.0, 6.0, 2001, V=lambda t: t**2 / 2, dV=lambda t: t,
        ddV=lambda t: np.ones_like(t), rho_field=lambda t: np.ones_like(t),
        label="gaussian-constant-rho")


def _circle_gap() -> CheckReport:
    lam = spectral_gap(assemble_laplacian(disk_body(m=256), PERIODIC))
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
        lam = spectral_gap(assemble_laplacian(model, DIRICHLET))
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


_ORACLE_PHI = TrigPolynomial((1.0, 0.0, 0.12, 0.0, 0.02))


def _pnf_minkowski_oracle(m: int, t_end: float, dt: float, res=None):
    """Hausdorff distance of the plane parallel normal flow res from the
    unit disk at speed _ORACLE_PHI (run here if None) to the Minkowski sum
    disk + t_end * (body with that support function)."""
    disk = disk_body(m=m)
    if res is None:
        res = parallel_normal_flow(disk, _ORACLE_PHI, t_end, dt,
                                   snapshot_every=10**9)
    target = minkowski_sum_support(
        disk, build_plane_body(_ORACLE_PHI, m=m, label="speed-body"), t_end)
    return hausdorff_points(res.states[-1].points, target.points())


def _pnf_measure(res, exact: float, tols, m: int, measure: str):
    """A unit-speed parallel normal flow to t = 0.5: final measure against
    its closed form, normal drift and concavity."""
    return [
        from_identity(measure, residual=(res.series.masses[-1] - exact) / exact,
                      tolerance=tols[0], params={"m": m}),
        from_identity("drift", residual=res.normal_drift, tolerance=tols[1],
                      params={"m": m}),
        concavity_check(res.series),
    ]


def flow_oracle(dt: float, m: int, t_end: float) -> CheckReport:
    """``_pnf_minkowski_oracle`` with space-time refinement locked: m
    markers at dt = 1e-3, scaled as 1/dt to an even count of at least 16."""
    m = max(16, int(round(m * (1e-3 / dt))))
    m += m % 2
    dist = _pnf_minkowski_oracle(m, t_end, dt)
    return from_identity("flow-vs-oracle", residual=dist, tolerance=1e-4,
                         lhs=dist, rhs=0.0, params={"dt": dt, "m": m})


def _pnf_oracle(res):
    dist = _pnf_minkowski_oracle(256, 0.5, 2e-3, res)
    return [
        from_identity("flows/pnf-vs-minkowski", residual=dist, tolerance=1e-4,
                      params={"m": 256, "dt": 2e-3}),
        from_identity("flows/pnf-vs-minkowski-drift",
                      residual=res.normal_drift, tolerance=1e-6,
                      params={"m": 256}),
        concavity_check(res.series),
    ]


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


def _measure_monotone(res) -> CheckReport:
    """Enclosed measure never drops up to t = 0.4 (the first 201 masses
    of a run with dt = 2e-3 are those of a run to 0.4)."""
    drops = np.diff(res.series.masses[:int(round(0.4 / 2e-3)) + 1])
    return from_inequality("", lhs=float(-np.min(drops)), rhs=0.0,
                           tolerance=1e-12,
                           params={"min_increment": float(np.min(drops))})


def _reads(batch, i: int, use, *args) -> Callable:
    """Row call use(batch()[i], *args); the rows that read one batch are
    one work item (``_items``)."""
    call = lambda: use(batch()[i], *args)
    call.batch = batch
    return call


def _extension(domain, t: float, exact: float) -> CheckReport:
    area = geodesic_extension_measure(domain, t)
    return from_identity("", residual=(area - exact) / exact,
                         tolerance=1e-12, params={})


def _catalogue(seed: int) -> List[Tuple[str, Callable]]:
    """Every check of every suite, in suite order."""
    waves = cache(lambda: weingarten_waves([
        (disk_body(m=128), 1.0),
        (disk_body(m=128), TrigPolynomial((1.0, 0.0, 0.2))),
        (ellipse_body(m=128), 1.0)], 0.2, 2e-4))
    pnfs = cache(lambda: parallel_normal_flows([
        (disk_body(m=256), 1.0), (disk_body(m=256), _ORACLE_PHI),
        (disk_body(m=256), TrigPolynomial((1.0, 0.0, 0.12)))], 0.5, 2e-3,
        snapshot_every=250))
    spheroid = cache(build_spheroid_body)
    sphere = cache(partial(build_sphere_body, 1.0))
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
        ("bln/sharpness-n5", partial(sharpness, 1.0, 5.0, n_pts=8001)),
        ("bln/sharpness-n-2",
         partial(sharpness, 1.0, -2.0, n_pts=8001, beta_trunc=8.0)),
        ("bln/sharpness-n1.5", partial(sharpness, 1.0, 1.5, n_pts=8001)),

        ("spectral/lichnerowicz-model-n5",
         partial(lichnerowicz, 1.0, TH5, n_pts=2001)),
        ("spectral/lichnerowicz-model-n20", partial(
            lichnerowicz, 1.0, InverseDimension.from_n(20.0), n_pts=2001)),
        ("spectral/lichnerowicz-gauss",
         partial(lichnerowicz, 1.0, TH_INF, n_pts=2001)),
        ("spectral/lichnerowicz-gauss-half-dirichlet",
         partial(lichnerowicz, 1.0, TH_INF, n_pts=2001, case="dirichlet")),
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
         lambda: check_mean_curvature(sphere(), TH3)),
        ("colesanti/hr-ellipse",
         lambda: check_mean_curvature(ellipse_body(), TH2)),
        ("colesanti/hr-spheroid",
         lambda: check_mean_curvature(spheroid(), TH3)),

        ("boundary/gaps-circle", lambda: check_boundary_gaps(disk_body())),
        ("boundary/gaps-sphere",
         lambda: check_boundary_gaps(sphere())),
        ("boundary/gaps-spheroid",
         lambda: check_boundary_gaps(spheroid())),
        ("boundary/gaps-corpus", lambda: _gaps_corpus(seed + 3)),
        ("boundary/cd-sphere",
         lambda: boundary_cd_report(sphere())),
        ("boundary/cd-spheroid",
         lambda: boundary_cd_report(spheroid())),

        ("flows/wave-const", _reads(waves, 0, _wave_linear)),
        ("flows/wave-perturbed", _reads(waves, 1, _wave_alive,
                                        "flows/wave-disk-perturbed-")),
        ("flows/wave-ellipse", _reads(waves, 2, _wave_alive)),
        ("flows/pnf-disk", _reads(pnfs, 0, _pnf_measure, math.pi * 1.5**2,
                                  (1e-8, 1e-9), 256, "measure")),
        ("flows/pnf-oracle", _reads(pnfs, 1, _pnf_oracle)),
        ("flows/pnf-cap", lambda: _pnf_measure(
            parallel_normal_flow(latitude_circle(math.pi / 3, 128), 1.0, 0.5,
                                 2e-3, snapshot_every=250),
            2.0 * math.pi * (1.0 - math.cos(math.pi / 3 + 0.5)), (1e-6, 1e-5),
            128, "area")),
        ("flows/measure-monotone", _reads(pnfs, 2, _measure_monotone)),
        ("flows/cap-analytic-concavity", lambda: concavity_check(
            cap_extension_series(SphereCap(math.pi / 3), 1.0, 1e-2))),

        ("isoperimetric/alexandrov-disk",
         lambda: quermassintegrals(disk_body(), TH2)),
        ("isoperimetric/alexandrov-ellipse",
         lambda: quermassintegrals(ellipse_body(), TH2)),
        ("isoperimetric/alexandrov-corpus", lambda: _worst(
            [quermassintegrals(b, TH2)
             for b in random_convex_bodies(20, seed + 7, m=256)],
            seed=seed + 7)),
        ("isoperimetric/steiner-fit", lambda: from_identity(
            "", residual=steiner_fit_residual(disk_body(), ellipse_body()),
            tolerance=1e-10, params={})),
        ("isoperimetric/extension-disk",
         lambda: _extension(disk_body(), 1.0, 4 * math.pi)),
        ("isoperimetric/extension-cap", lambda: _extension(
            SphereCap(math.pi / 3), math.pi / 6, 2 * math.pi)),
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
    """Row indices by work item, the largest first: the rows that read one
    batch are one item, every other row stands alone.  A fresh catalogue
    names the batches, as a wrapped row call (the tracer's) hides them."""
    batch = {name: getattr(call, "batch", name)
             for name, call in _catalogue(0)}
    items = {}
    for i, (name, _) in enumerate(rows):
        items.setdefault(batch.get(name, name), []).append(i)
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


def run_suite_checks(suite: str, seed: int = 1234,
                     workers: int = 1) -> List[CheckReport]:
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
    return sorted(reports, key=lambda r: r.name)
