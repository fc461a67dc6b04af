"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Every tolerance is pinned here, not configurable.
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from reilly_lab.bodies import (SphereCap, build_plane_body, build_sphere_body,
                               build_spheroid_body)
from reilly_lab.cli import main as cli_main
from reilly_lab.dimension import InverseDimension
from reilly_lab.flows import (ConcavitySeries, cap_extension_series,
                              concavity_check, hausdorff_points,
                              isoperimetric_checks, minkowski_sum_support,
                              parallel_normal_flow, quermassintegrals,
                              weingarten_wave)
from reilly_lab.inequalities import (boundary_cd_report, check_boundary_gaps,
                                     check_colesanti, check_dual_colesanti,
                                     check_lichnerowicz, check_mean_curvature,
                                     sharpness_ratio)
from reilly_lab.models import build_gaussian_interval, build_model_density
from reilly_lab.presets import (disk_body, ellipse_body, flat_ball,
                                model_density_params, random_convex_bodies,
                                random_test_polynomials)
from reilly_lab.reilly import reilly_convergence
from reilly_lab.trig import TrigPolynomial

TH2 = InverseDimension(0.5, 2)
TH3 = InverseDimension(1.0 / 3.0, 3)

RESOLUTIONS = (250, 500, 1000)


def record(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})")
    return ok


def test_criterion_1_reilly_identity_convergence():
    fixtures = [
        ("interval-gauss-u2",
         lambda n: build_gaussian_interval(1.0, 6.0, n), lambda t: t**2),
        ("interval-model-sin",
         lambda n: build_model_density(model_density_params(1.0, 5.0), n),
         lambda t: np.sin(0.5 * t)),
        ("disk-radial-r2", lambda n: flat_ball(2, 1.0, n), lambda r: r**2),
    ]
    ok = True
    details = []
    for label, build, u_fn in fixtures:
        rep = reilly_convergence(build, u_fn, RESOLUTIONS)
        final = abs(rep.params["relative_residual"])
        good = rep.order_estimate >= 1.9 and final <= 1e-6
        ok = ok and good
        details.append(f"{label}: order={rep.order_estimate:.3g} "
                       f"residual={final:.2e}")
    assert record(1, ok, "; ".join(details))


def neumann_truncation_defect(params):
    """Exact 1 - ratio for f = R' on [-beta, beta].

    f = R' is the equality case, L f = -(N rho/(N-1)) f, so integrating by
    parts leaves only the boundary term:
    1 - ratio = 2 R'(beta) R''(beta) R(beta)^(N-1) / int R''^2 R^(N-1).
    """
    R, Rp, Rpp = params.profile()
    n_value = params.theta.n_value
    beta = params.beta_trunc
    weight = lambda t: float(R(t)) ** (n_value - 1.0)
    energy, _ = quad(lambda t: float(Rpp(t)) ** 2 * weight(t), -beta, beta,
                     epsabs=1e-14, epsrel=1e-13, limit=200)
    return 2.0 * float(Rp(beta)) * float(Rpp(beta)) * weight(beta) / energy


def test_criterion_2_sharpness_of_dimensional_constant():
    rep5 = sharpness_ratio(model_density_params(1.0, 5.0, beta_frac=0.999),
                           n_pts=8001)
    dev5 = abs(rep5.params["ratio"] - 1.0)
    # for delta < 0 the truncation defect decays like exp(-beta sqrt(-delta))
    # (exp(-beta/sqrt(3)) at N = -2) and first drops below 2e-3 at beta = 11.19
    repm2 = sharpness_ratio(model_density_params(1.0, -2.0, beta_trunc=12.0),
                            n_pts=8001)
    devm2 = abs(repm2.params["ratio"] - 1.0)
    # at beta = 8 the ratio must carry exactly the closed-form defect
    params8 = model_density_params(1.0, -2.0, beta_trunc=8.0)
    rep8 = sharpness_ratio(params8, n_pts=8001)
    defect8 = neumann_truncation_defect(params8)
    gap8 = abs((1.0 - rep8.params["ratio"]) - defect8)
    identities_ok = all(rep.params["identity_rel_f2"] <= 1e-6
                        and rep.params["identity_rel_ric"] <= 1e-6
                        for rep in (rep5, repm2, rep8))
    ok = dev5 <= 1e-3 and devm2 <= 2e-3 and gap8 <= 1e-9 and identities_ok
    record(2, ok, f"|ratio-1|: N=5 {dev5:.2e} (<=1e-3), "
                  f"N=-2 beta=12 {devm2:.2e} (<=2e-3), "
                  f"N=-2 beta=8 {1.0 - rep8.params['ratio']:.2e} vs "
                  f"closed form {defect8:.2e} (gap {gap8:.1e} <=1e-9), "
                  f"identities<=1e-6 {identities_ok}")
    assert dev5 <= 1e-3
    assert identities_ok
    assert devm2 <= 2e-3
    assert gap8 <= 1e-9


def test_criterion_3_lichnerowicz_equality_on_models():
    ok = True
    details = []
    for nval in (5.0, 20.0):
        params = model_density_params(1.0, nval)
        model = build_model_density(params, 2000)
        rep = check_lichnerowicz(model, 1.0, InverseDimension.from_n(nval))
        delta = 1.0 / (nval - 1.0)
        bound = nval / (nval - 1.0)
        # the closed-form identity N delta = N/(N-1) rho
        closed = abs(nval * delta - bound) <= 1e-14
        rel = abs(rep.rhs - bound) / bound
        good = rel <= 1e-4 and closed and rep.passed
        ok = ok and good
        details.append(f"N={nval:g}: gap relerr={rel:.2e}")
    assert record(3, ok, "; ".join(details))


def test_criterion_4_colesanti_equalities_and_corpus():
    disk = disk_body(m=512)
    eq = check_colesanti(disk, TrigPolynomial((0.0, 1.0)), TH2)
    eq_ok = abs(eq.lhs - eq.rhs) <= 1e-8
    dual = check_dual_colesanti(disk, TrigPolynomial((0.0, 1.0)), rho=0.0,
                                C=0.0)
    dual_ok = abs(dual.lhs - dual.rhs) <= 1e-8
    bodies = random_convex_bodies(10, seed=1234, m=512)
    polys = random_test_polynomials(200, seed=1235, degree=8)
    worst = math.inf
    for body in bodies:
        for poly in polys:
            rep = check_colesanti(body, poly, TH2)
            worst = min(worst, rep.slack)
    corpus_ok = worst >= -1e-8
    ok = eq_ok and dual_ok and corpus_ok
    assert record(4, ok, f"disk equality gap={abs(eq.lhs - eq.rhs):.2e}, "
                         f"dual gap={abs(dual.lhs - dual.rhs):.2e}, "
                         f"corpus worst slack={worst:.2e}")


def test_criterion_5_mean_curvature_inequalities():
    hr1_d, hr2_d, _ = check_mean_curvature(disk_body(m=512), TH2)
    hr1_b, hr2_b, _ = check_mean_curvature(build_sphere_body(1.0, 1024), TH3)
    eq_ok = (abs(hr1_d.slack) / hr1_d.lhs <= 1e-6
             and abs(hr2_d.slack) / hr2_d.lhs <= 1e-6
             and abs(hr1_b.slack) / hr1_b.lhs <= 1e-6
             and abs(hr2_b.slack) / hr2_b.lhs <= 1e-6)
    hr1_e, hr2_e, _ = check_mean_curvature(ellipse_body(1.2, 1.0, m=512), TH2)
    hr1_s, hr2_s, _ = check_mean_curvature(
        build_spheroid_body(1.0, 1.2, 1024), TH3)
    strict_ok = (hr1_e.slack > 1e-4 and hr2_e.slack > 1e-4
                 and hr1_s.slack > 1e-4 and hr2_s.slack > 1e-4)
    ok = eq_ok and strict_ok
    assert record(5, ok, f"disk/ball equality gaps <= "
                         f"{max(abs(hr1_d.slack), abs(hr1_b.slack)):.2e}; "
                         f"strict slacks {hr1_e.slack:.3g}, {hr1_s.slack:.3g}")


def test_criterion_6_boundary_spectral_bounds():
    circle = {r.name: r for r in check_boundary_gaps(disk_body(m=512))}
    sig = circle["boundary-gap-sigma-xi"]
    circle_ok = abs(sig.rhs - sig.lhs) <= 1e-8
    sphere = {r.name: r for r in
              check_boundary_gaps(build_sphere_body(1.0, 1024))}
    split = sphere["boundary-gap-curvature-split"]
    sphere_ok = abs(split.rhs - 2.0) <= 1e-4 and abs(split.lhs - 2.0) <= 1e-6
    corpus_ok = True
    for body in random_convex_bodies(10, seed=4321, m=256):
        reports = {r.name: r for r in check_boundary_gaps(body)}
        corpus_ok = corpus_ok and reports["boundary-gap-cd-refined"].passed
    ok = circle_ok and sphere_ok and corpus_ok
    assert record(6, ok, f"circle |gap-1|={abs(sig.rhs - 1):.2e}, sphere "
                         f"|gap-2|={abs(split.rhs - 2):.2e}, corpus {corpus_ok}")


def test_criterion_7_gauss_equation_transfer():
    sph = {r.name: r for r in
           boundary_cd_report(build_sphere_body(1.0, 1024))}
    sph_disc = sph["boundary-ricci-transfer"].residual
    spd = {r.name: r for r in
           boundary_cd_report(build_spheroid_body(1.0, 1.2, 1024))}
    spd_disc = spd["boundary-ricci-transfer"].residual
    ok = sph_disc <= 1e-6 and spd_disc <= 1e-5
    assert record(7, ok, f"sphere discrepancy={sph_disc:.2e} (<=1e-6), "
                         f"spheroid={spd_disc:.2e} (<=1e-5)")


def _flow_pairs(m):
    ks = random_convex_bodies(5, 101, m=m, degree=4)
    ls = random_convex_bodies(5, 202, m=m, degree=4)
    return list(zip(ks, ls))


def _flow_distance(K, L, dt):
    res = parallel_normal_flow(K, L.support, 0.5, dt, snapshot_every=10**9,
                               intersect_every=100)
    target = minkowski_sum_support(K, L, 0.5)
    dist = hausdorff_points(res.states[-1].points, target.points())
    return dist, res


def test_criterion_8_parallel_normal_flow_vs_minkowski():
    ok = True
    details = []
    for (K, L), (K2, L2) in zip(_flow_pairs(512), _flow_pairs(1024)):
        d_ref, res = _flow_distance(K, L, 1e-3)
        d_fine, _ = _flow_distance(K2, L2, 5e-4)
        improvement = d_ref / d_fine
        good = d_ref <= 1e-4 and improvement >= 4.0 and res.normal_drift <= 1e-6
        ok = ok and good
        details.append(f"d={d_ref:.1e} x{improvement:.0f} "
                       f"drift={res.normal_drift:.1e}")
    assert record(8, ok, "; ".join(details))


def test_criterion_9_brunn_minkowski_concavity():
    # (a) support-sum family
    disk = disk_body(m=256)
    ell = ellipse_body(m=256)
    ts = np.linspace(0.0, 1.0, 101)
    masses = np.array([minkowski_sum_support(disk, ell, t).area() for t in ts])
    a_ok = concavity_check(ConcavitySeries(ts, masses, TH2)).passed
    # (b) flowed plane curve
    phi = TrigPolynomial((1.0, 0.0, 0.12))
    res = parallel_normal_flow(disk, phi, 0.5, 2e-3, snapshot_every=10**9)
    b_ok = concavity_check(res.series).passed
    # (c) analytic cap extension
    series = cap_extension_series(SphereCap(math.pi / 3), 1.0, 1e-2)
    c_ok = concavity_check(series).passed
    # (d) Weingarten wave
    wave = weingarten_wave(disk_body(m=128), TrigPolynomial((1.0, 0.0, 0.2)),
                           0.3, 2e-4)
    d_ok = wave.alive and concavity_check(wave.series).passed
    # Alexandrov triple on the 20-body corpus: P^2 >= 4 pi A
    worst = math.inf
    for body in random_convex_bodies(20, seed=777, m=256):
        _, rep = quermassintegrals(body, TH2)
        worst = min(worst, rep.slack)
    alex_ok = worst >= -1e-9
    ok = a_ok and b_ok and c_ok and d_ok and alex_ok
    assert record(9, ok, f"support-sum {a_ok}, flowed {b_ok}, cap {c_ok}, "
                         f"wave {d_ok}, corpus worst={worst:.2e}")


def test_criterion_10_isoperimetric_proposition():
    dd = {c.name: c for c in
          isoperimetric_checks(disk_body(m=512), disk_body(m=512), TH2)}
    hom = dd["isoperimetric-homogeneous-bound"]
    eq_ok = abs(hom.rhs - hom.lhs) <= 1e-6
    mono_dd = abs(dd["isoperimetric-profile-monotone"].lhs) <= 1e-9
    ed = {c.name: c for c in
          isoperimetric_checks(ellipse_body(m=512), disk_body(m=512), TH2)}
    strict_ok = all(c.passed for c in ed.values()) \
        and ed["isoperimetric-homogeneous-bound"].slack > 1e-4
    mono_ed = ed["isoperimetric-profile-monotone"].lhs <= 1e-9
    ok = eq_ok and mono_dd and strict_ok and mono_ed
    assert record(10, ok, f"disk-disk equality gap={abs(hom.rhs - hom.lhs):.2e}, "
                          f"ellipse-disk strict {strict_ok}")


def test_criterion_11_report_determinism(tmp_path):
    out = tmp_path / "all.json"
    code1 = cli_main(["verify", "--suite", "all", "--out", str(out)])
    first = out.read_bytes()
    code2 = cli_main(["verify", "--suite", "all", "--out", str(out)])
    second = out.read_bytes()
    ok = first == second and code1 == 0 and code2 == 0
    doc = json.loads(first)
    assert record(11, ok, f"{len(doc['checks'])} checks, "
                          f"bytes equal={first == second}, exit={code1}")
