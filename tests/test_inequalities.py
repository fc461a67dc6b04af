import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from reilly_lab.bodies import build_sphere_body, build_spheroid_body
from reilly_lab.dimension import InverseDimension
from reilly_lab.errors import (CurvatureNotPositive, MeanConvexityViolation,
                               StrengthenedDegenerate)
from reilly_lab.inequalities import (boundary_cd_report,
                                     check_bln, check_boundary_gaps,
                                     check_colesanti, check_dual_colesanti,
                                     check_lichnerowicz, check_mean_curvature,
                                     check_veysseire, sharpness_ratio)
from reilly_lab.models import (ModelDensityParams, build_gaussian_interval,
                               build_model_density)
from reilly_lab.operators import boundary_geometry, weighted_integral
from reilly_lab.presets import (disk_body, ellipse_body, flat_ball,
                                gaussian_ball,
                                gaussian_half_model, model_density_params,
                                random_convex_bodies,
                                random_test_polynomials,
                                veysseire_quartic_model)
from reilly_lab.trig import TrigPolynomial

TH_INF = InverseDimension(0.0, 1)
TH2 = InverseDimension(0.5, 2)
TH3 = InverseDimension(1.0 / 3.0, 3)
TH5 = InverseDimension.from_n(5.0)


# ---------------------------------------------------------------------------
# dimensional Brascamp-Lieb


def test_bln_gaussian_linear_near_equality():
    model = build_gaussian_interval(1.0, 6.0, 4001)
    rep = check_bln(model, model.t.copy(), "neumann", TH_INF)
    assert rep.passed
    assert rep.slack >= -1e-6
    # truncation makes the variance slightly smaller than the mass
    assert 0.0 < rep.slack <= 1e-4


def test_bln_model_extremal_sharpness():
    params = model_density_params(1.0, 5.0)
    model = build_model_density(params, 4001)
    _, rp, rpp = params.profile()
    rep = check_bln(model, rp(model.t), "neumann", TH5, fp=rpp(model.t))
    assert rep.passed
    assert rep.slack / rep.rhs <= 1e-3


def test_bln_dirichlet_half_model():
    params = model_density_params(1.0, 5.0, variant="dirichlet")
    model = build_model_density(params, 4001)
    _, rp, rpp = params.profile()
    rep = check_bln(model, rp(model.t), "dirichlet", TH5, fp=rpp(model.t))
    assert rep.passed
    assert rep.slack / rep.rhs <= 1e-3


def test_bln_rejects_nonpositive_curvature():
    from reilly_lab.models import build_interval_model
    flat = build_interval_model(0.0, 1.0, 101, V=lambda t: np.zeros_like(t))
    with pytest.raises(CurvatureNotPositive):
        check_bln(flat, flat.t.copy(), "neumann", TH_INF)


def test_bln_dirichlet_requires_boundary_zeros():
    model = build_gaussian_interval(1.0, 3.0, 501)
    with pytest.raises(ValueError):
        check_bln(model, np.ones(501), "dirichlet", TH_INF)


def test_bln_refuses_bad_input_in_order():
    body = disk_body(m=64)
    # the case first, then the domain, then the samples' length
    with pytest.raises(ValueError, match="unknown case 'robin'"):
        check_bln(body, np.ones(3), "robin", TH_INF)
    with pytest.raises(TypeError,
                       match="check_bln does not support ConvexPlaneBody"):
        check_bln(body, np.ones(3), "neumann", TH_INF)
    for domain in (build_gaussian_interval(1.0, 3.0, 501),
                   gaussian_ball(2, 0.8, 201)):
        with pytest.raises(ValueError, match="must match the grid"):
            check_bln(domain, np.ones(domain.n_pts - 1), "neumann", TH_INF)


def test_bln_meanconvex_gaussian_ball():
    ball = gaussian_ball(2, 0.8, 1001)
    f = ball.r**2
    explicit = check_bln(ball, f, "meanconvex", TH_INF, C=0.0)
    auto = check_bln(ball, f, "meanconvex", TH_INF, C="auto")
    assert explicit.passed and auto.passed
    # auto C equals the boundary value, killing the boundary term, so the
    # right side can only shrink
    assert auto.rhs <= explicit.rhs
    assert auto.params["C"] == pytest.approx(0.64)


def test_colesanti_is_shift_invariant_on_the_disk():
    # on the unit disk H_mu = 1 and mu(boundary)/mu(M) = 2 = N/(N-1) at
    # N = 2, so adding a constant to f leaves the slack unchanged
    plain = check_colesanti(disk_body(), TrigPolynomial((0.0, 1.0)), TH2)
    shifted = check_colesanti(disk_body(), TrigPolynomial((2.0, 1.0)), TH2)
    assert shifted.slack == pytest.approx(plain.slack, abs=1e-10)


def test_bln_shift_and_scale_invariance():
    model = build_gaussian_interval(1.0, 6.0, 2001)
    f = np.sin(model.t)
    base = check_bln(model, f, "neumann", TH_INF)
    shifted = check_bln(model, f + 5.0, "neumann", TH_INF)
    assert abs(base.slack - shifted.slack) <= 1e-10 * max(1.0, abs(base.slack))
    lam = 3.0
    scaled = check_bln(model, lam * f, "neumann", TH_INF)
    assert scaled.lhs == pytest.approx(lam**2 * base.lhs, rel=1e-10)
    assert scaled.rhs == pytest.approx(lam**2 * base.rhs, rel=1e-10)
    assert scaled.slack == pytest.approx(lam**2 * base.slack, rel=1e-10)


# ---------------------------------------------------------------------------
# sharpness of the dimensional constant


def oracle_ratio(rho, n_value, beta_trunc, variant="neumann"):
    """Adaptive-quadrature oracle for the lhs/rhs ratio with f = R'."""
    delta = rho / (n_value - 1.0)
    if delta > 0:
        s = math.sqrt(delta)
        R = lambda t: math.cos(s * t)
        Rp = lambda t: -s * math.sin(s * t)
        Rpp = lambda t: -delta * math.cos(s * t)
    else:
        s = math.sqrt(-delta)
        R = lambda t: math.cosh(s * t)
        Rp = lambda t: s * math.sinh(s * t)
        Rpp = lambda t: -delta * math.cosh(s * t)
    a = -beta_trunc if variant == "neumann" else 0.0
    f2, _ = quad(lambda t: Rp(t) ** 2 * R(t) ** (n_value - 1), a, beta_trunc,
                 epsabs=1e-14, epsrel=1e-13, limit=200)
    fp2, _ = quad(lambda t: Rpp(t) ** 2 * R(t) ** (n_value - 1) / rho, a,
                  beta_trunc, epsabs=1e-14, epsrel=1e-13, limit=200)
    return (n_value / (n_value - 1.0)) * f2 / fp2


def test_sharpness_n5_matches_oracle():
    params = model_density_params(1.0, 5.0, beta_frac=0.9)
    rep = sharpness_ratio(params, n_pts=4001)
    expected = oracle_ratio(1.0, 5.0, params.beta_trunc)
    assert rep.params["ratio"] == pytest.approx(expected, abs=1e-9)
    assert rep.params["ratio"] == pytest.approx(0.9998114995, abs=1e-8)
    assert rep.passed  # both closed-form identities verified to 1e-6


def test_sharpness_n5_near_endpoint():
    params = model_density_params(1.0, 5.0, beta_frac=0.999)
    rep = sharpness_ratio(params, n_pts=4001)
    assert abs(rep.params["ratio"] - 1.0) <= 1e-3
    assert rep.passed


def test_sharpness_hyperbolic_matches_oracle():
    params = model_density_params(1.0, -2.0, beta_trunc=8.0)
    rep = sharpness_ratio(params, n_pts=4001)
    expected = oracle_ratio(1.0, -2.0, 8.0)
    assert rep.params["ratio"] == pytest.approx(expected, abs=1e-8)
    assert rep.params["ratio"] == pytest.approx(0.98728395, abs=1e-7)
    assert rep.passed


def test_sharpness_trend_toward_one():
    ratios = []
    for bt in (5.0, 8.0, 12.0):
        params = model_density_params(1.0, -2.0, beta_trunc=bt)
        ratios.append(sharpness_ratio(params, n_pts=4001).params["ratio"])
    deviations = [abs(r - 1.0) for r in ratios]
    assert deviations[0] > deviations[1] > deviations[2]


def test_sharpness_small_n_branch():
    params = model_density_params(1.0, 1.5)
    rep = sharpness_ratio(params, n_pts=4001)
    assert rep.params["ratio"] <= 1.0 + 1e-6


def test_sharpness_rejects_unit_n_and_negative_dirichlet():
    with pytest.raises(ValueError):
        sharpness_ratio(model_density_params(1.0, -2.0, beta_trunc=5.0,
                                             variant="dirichlet"))
    with pytest.raises(ValueError):
        model_density_params(1.0, -1.0, beta_trunc=5.0)
        sharpness_ratio(model_density_params(1.0, -1.0, beta_trunc=5.0))


@pytest.mark.parametrize("rho,n_value,beta_trunc,panels", [
    (1.0, 5.0, None, 32), (100.0, 5.0, None, 32), (1.0, -2.0, 8.0, 32),
    (1.0, -2.0, 12.0, 32), (1.0, 1.25, None, 64), (1e4, -50.0, 8.0, 512)])
def test_panel_rule_matches_quad(rho, n_value, beta_trunc, panels):
    # the closed-form side of sharpness_ratio integrates R^(N+1) by doubling
    # the Gauss-Legendre panels until two sums agree; adaptive quad is the
    # oracle. `panels` is where the rule stops (the last sum's nodes / 16):
    # the smooth rows at the first doubling, the peaked N = -50 row only once
    # 256 panels resolve its peak
    from reilly_lab.inequalities import _panel_integral
    params = (model_density_params(rho, n_value, beta_trunc=beta_trunc)
              if beta_trunc else model_density_params(rho, n_value))
    R = params.profile()[0]
    a, b = -params.beta_trunc, params.beta_trunc
    nodes = []

    def f(t):
        nodes.append(t.size)
        return R(t) ** (n_value + 1.0)

    with warnings.catch_warnings():   # quad may warn on the peaked row
        warnings.simplefilter("ignore")
        want, _ = quad(lambda t: float(R(t)) ** (n_value + 1.0), a, b,
                       epsabs=1e-13, epsrel=1e-12, limit=200, points=[0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _panel_integral(f, a, b)
    assert abs(got - want) <= 1e-13 * abs(want)
    assert nodes[-1] == 16 * panels


def test_panel_rule_reports_inf_when_it_does_not_converge():
    from reilly_lab.inequalities import _panel_integral
    # a kink inside a panel limits every rule to O(h^2)
    assert _panel_integral(lambda t: np.abs(t - 1.0 / 3.0), -1.0, 1.0) \
        == math.inf


@dataclasses.dataclass(frozen=True)
class _KinkedProfile(ModelDensityParams):
    """The N = 5 model density with a kink in R at t = 1/3."""

    def profile(self):
        R, Rp, Rpp = super().profile()
        return (lambda t: R(t) * (1.0 + 1e-3 * np.abs(t - 1.0 / 3.0)),
                Rp, Rpp)


def test_sharpness_fails_with_inf_residual_when_the_closed_form_diverges(
        capfd):
    params = model_density_params(1.0, 5.0, beta_frac=0.9)
    kinked = _KinkedProfile(**{f.name: getattr(params, f.name)
                               for f in dataclasses.fields(params)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = sharpness_ratio(kinked, n_pts=401)
    assert not rep.passed
    assert rep.residual == math.inf
    assert rep.params["identity_rel_f2"] == math.inf
    assert rep.params["identity_rel_ric"] == math.inf
    assert capfd.readouterr().err == ""


# ---------------------------------------------------------------------------
# Lichnerowicz / Veysseire


def test_lichnerowicz_model_equalities():
    for nval in (5.0, 20.0):
        params = model_density_params(1.0, nval)
        model = build_model_density(params, 2001)
        rep = check_lichnerowicz(model, 1.0, InverseDimension.from_n(nval))
        assert rep.passed
        exact = nval / (nval - 1.0)
        assert rep.lhs == pytest.approx(exact, rel=1e-14)
        assert abs(rep.rhs - exact) / exact <= 1e-4


def test_lichnerowicz_gaussian_and_half():
    model = build_gaussian_interval(1.0, 6.0, 2001)
    rep = check_lichnerowicz(model, 1.0, TH_INF)
    assert rep.passed and rep.lhs == 1.0
    half = gaussian_half_model(2001)
    rep2 = check_lichnerowicz(half, 1.0, TH_INF, case="dirichlet")
    assert rep2.passed
    assert rep2.rhs >= 1.0 - 1e-6


@pytest.mark.parametrize("case", ["Neumann ", "bogus"])
def test_lichnerowicz_refuses_an_unknown_case(case):
    with pytest.raises(ValueError, match="unknown case"):
        check_lichnerowicz(build_gaussian_interval(1.0, 6.0, 401), 1.0, TH_INF,
                           case=case)


def test_veysseire_quartic():
    model = veysseire_quartic_model(2001)
    rep = check_veysseire(model)
    assert rep.passed
    # oracle for the harmonic-mean bound
    mass, _ = quad(lambda t: math.exp(-(t**2 / 2 + t**4 / 12)), -4, 4,
                   epsabs=1e-13)
    inv, _ = quad(lambda t: math.exp(-(t**2 / 2 + t**4 / 12)) / (1 + t**2),
                  -4, 4, epsabs=1e-13)
    assert rep.lhs == pytest.approx(mass / inv, rel=1e-8)
    # strictly better than the naive constant bound min rho = 1
    assert rep.lhs > 1.0


def test_veysseire_constant_field_collapses_to_lichnerowicz():
    from reilly_lab.models import build_interval_model
    model = build_interval_model(
        -6.0, 6.0, 2001, V=lambda t: t**2 / 2, dV=lambda t: t,
        ddV=lambda t: np.ones_like(t), rho_field=lambda t: np.ones_like(t))
    rep = check_veysseire(model)
    assert rep.lhs == pytest.approx(1.0, rel=1e-12)
    assert rep.passed


def test_veysseire_requires_field():
    model = build_gaussian_interval(1.0, 6.0, 501)
    with pytest.raises(ValueError):
        check_veysseire(model)


# ---------------------------------------------------------------------------
# Colesanti and dual


def test_colesanti_disk_equality():
    rep = check_colesanti(disk_body(), TrigPolynomial((0.0, 1.0)), TH2)
    assert rep.lhs == pytest.approx(math.pi, abs=1e-10)
    assert rep.rhs == pytest.approx(math.pi, abs=1e-10)
    assert abs(rep.slack) <= 1e-8


def test_colesanti_disk_constant_function():
    rep = check_colesanti(disk_body(), TrigPolynomial.constant(1.0), TH2)
    assert abs(rep.lhs) <= 1e-10 and abs(rep.rhs) <= 1e-10


def test_colesanti_random_corpus():
    bodies = random_convex_bodies(10, seed=2024, m=512)
    polys = random_test_polynomials(20, seed=2025)
    for body in bodies:
        for poly in polys:
            rep = check_colesanti(body, poly, TH2)
            assert rep.slack >= -1e-8


def test_colesanti_shift_invariance_on_disk():
    poly = random_test_polynomials(1, seed=5)[0]
    base = check_colesanti(disk_body(), poly, TH2)
    shifted_poly = poly + TrigPolynomial.constant(4.0)
    shifted = check_colesanti(disk_body(), shifted_poly, TH2)
    assert abs(base.slack - shifted.slack) <= 1e-10 * max(1.0, abs(base.slack))


def test_colesanti_quadratic_scaling():
    poly = random_test_polynomials(1, seed=6)[0]
    body = ellipse_body()
    base = check_colesanti(body, poly, TH2)
    scaled = check_colesanti(body, poly.scaled(3.0), TH2)
    assert scaled.slack == pytest.approx(9.0 * base.slack, rel=1e-10)


def test_colesanti_strengthened_guards_ball():
    with pytest.raises(StrengthenedDegenerate):
        check_colesanti(disk_body(), TrigPolynomial((0.0, 1.0)), TH2,
                        strengthened=True)
    rep = check_colesanti(ellipse_body(), random_test_polynomials(1, 7)[0],
                          TH2, strengthened=True)
    assert rep.passed
    plain = check_colesanti(ellipse_body(), random_test_polynomials(1, 7)[0],
                            TH2)
    assert rep.lhs >= plain.lhs - 1e-12   # strengthened lhs only grows


def test_dual_colesanti_circle_equality():
    rep = check_dual_colesanti(disk_body(), TrigPolynomial((0.0, 1.0)),
                               rho=0.0, C=0.0)
    assert rep.lhs == pytest.approx(math.pi, abs=1e-10)
    assert abs(rep.slack) <= 1e-8


def test_dual_colesanti_constant_function():
    rep = check_dual_colesanti(ellipse_body(), TrigPolynomial.constant(2.0),
                               rho=1.0, C="auto")
    assert abs(rep.lhs) <= 1e-12
    # auto C = the constant itself makes the right side vanish
    assert rep.params["C"] == pytest.approx(2.0, rel=1e-10)
    assert abs(rep.rhs) <= 1e-12


def test_dual_colesanti_ellipse_strict():
    rep = check_dual_colesanti(ellipse_body(), TrigPolynomial((0.0, 0.0, 1.0)),
                               rho=0.0)
    assert rep.passed and rep.slack > 0.0


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-5.0, max_value=5.0))
def test_dual_colesanti_auto_c_minimizes(c_other):
    body = ellipse_body(m=128)
    poly = TrigPolynomial((0.0, 1.0, 0.3))
    auto = check_dual_colesanti(body, poly, rho=0.7, C="auto")
    fixed = check_dual_colesanti(body, poly, rho=0.7, C=c_other)
    assert auto.rhs <= fixed.rhs + 1e-12


def test_dual_colesanti_quadratic_scaling():
    body = ellipse_body(m=256)
    poly = TrigPolynomial((0.0, 1.0, 0.2))
    base = check_dual_colesanti(body, poly, rho=0.0)
    scaled = check_dual_colesanti(body, poly.scaled(3.0), rho=0.0)
    assert scaled.lhs == pytest.approx(9.0 * base.lhs, rel=1e-10)
    assert scaled.rhs == pytest.approx(9.0 * base.rhs, rel=1e-10)
    assert scaled.slack == pytest.approx(9.0 * base.slack, rel=1e-10)


@pytest.mark.parametrize("check", [
    lambda body, f: check_colesanti(body, f, TH2),
    lambda body, f: check_colesanti(body, f, TH2, strengthened=True),
    lambda body, f: check_dual_colesanti(body, f, rho=0.7, C="auto"),
], ids=["colesanti", "strengthened", "dual"])
def test_curve_checks_take_samples_of_a_trig_polynomial(check):
    body = ellipse_body(m=128)
    poly = TrigPolynomial((0.3, 1.0, 0.2, -0.1))
    exact, sampled = check(body, poly), check(body, poly(body.angles))
    assert sampled.lhs == pytest.approx(exact.lhs, rel=1e-12, abs=1e-12)
    assert sampled.rhs == pytest.approx(exact.rhs, rel=1e-12, abs=1e-12)
    with pytest.raises(ValueError, match="must match the angle grid"):
        check(body, poly(body.angles)[1:])


def test_dual_colesanti_rejects_nonconvex_mean(monkeypatch):
    from reilly_lab import inequalities
    from reilly_lab.operators import BoundaryGeometry
    body = disk_body(m=128)
    ones = np.ones(128)
    monkeypatch.setattr(inequalities, "boundary_geometry",
                        lambda _: BoundaryGeometry(II=ones, H_g=ones,
                                                   H_mu=1.0 - 5.0 * ones))
    with pytest.raises(MeanConvexityViolation):
        check_dual_colesanti(body, TrigPolynomial((0.0, 1.0)))


# ---------------------------------------------------------------------------
# mean-curvature integrals


def test_mean_curvature_disk_equalities():
    hr1, hr2, link = check_mean_curvature(disk_body(), TH2)
    assert hr1.lhs == pytest.approx(2 * math.pi, abs=1e-10)
    assert hr1.rhs == pytest.approx(2 * math.pi, abs=1e-10)
    assert hr2.lhs == pytest.approx(2 * math.pi, abs=1e-10)
    assert hr2.rhs == pytest.approx(2 * math.pi, abs=1e-10)
    assert abs(link.slack) <= 1e-10


def test_mean_curvature_ball_equalities():
    hr1, hr2, _ = check_mean_curvature(build_sphere_body(1.0), TH3)
    assert hr1.lhs == pytest.approx(8 * math.pi, rel=1e-6)
    assert abs(hr1.slack) / hr1.lhs <= 1e-6
    assert abs(hr2.slack) / hr2.lhs <= 1e-6


def test_mean_curvature_strict_cases():
    for body, theta in ((ellipse_body(), TH2), (build_spheroid_body(), TH3)):
        hr1, hr2, link = check_mean_curvature(body, theta)
        assert hr1.slack > 1e-3 and hr2.slack > 1e-3 and link.slack > 1e-3


@pytest.mark.parametrize("n, theta", [(2, TH2), (3, TH3)], ids=["n2", "n3"])
def test_mean_curvature_flat_ball_equalities(n, theta):
    # unit ball in R^n: H_mu = n - 1, mu(M) = |S^(n-1)| / n, so all three
    # statements hold with equality at N = n
    hr1, hr2, link = check_mean_curvature(flat_ball(n, 1.0, 1001), theta)
    sphere_area = 2 * math.pi if n == 2 else 4 * math.pi
    assert hr1.lhs == pytest.approx((n - 1) * sphere_area, rel=1e-14)
    assert hr2.rhs == pytest.approx(sphere_area / (n - 1), rel=1e-14)
    for rep in (hr1, hr2, link):
        assert rep.passed
        assert abs(rep.slack) <= 1e-14 * max(1.0, abs(rep.rhs))


def test_mean_curvature_gaussian_ball_is_strict():
    # H_mu = 2/R - R is constant on the boundary sphere, so only the
    # Cauchy-Schwarz link is an equality
    hr1, hr2, link = check_mean_curvature(gaussian_ball(3, 0.8, 1001), TH3)
    assert all(rep.passed for rep in (hr1, hr2, link))
    assert hr1.slack == pytest.approx(2.8725, abs=1e-4)
    assert hr2.slack == pytest.approx(0.7709, abs=1e-4)
    assert abs(link.slack) <= 1e-14 * link.rhs


# ---------------------------------------------------------------------------
# boundary spectral bounds and CD transfer


def test_boundary_gaps_circle_equality():
    reports = {r.name: r for r in check_boundary_gaps(disk_body(m=256))}
    sig = reports["boundary-gap-sigma-xi"]
    assert abs(sig.rhs - 1.0) <= 1e-8 and abs(sig.slack) <= 1e-8
    # rho = 0 collapses the refined bound to a = sigma xi
    refined = reports["boundary-gap-cd-refined"]
    assert refined.lhs == pytest.approx(sig.lhs, rel=1e-14)
    ratio = reports["boundary-gap-product-ratio"]
    assert ratio.passed is None


def test_boundary_gaps_sphere_equality():
    reports = {r.name: r for r in
               check_boundary_gaps(build_sphere_body(1.0, 1024))}
    split = reports["boundary-gap-curvature-split"]
    assert split.lhs == pytest.approx(2.0, abs=1e-6)
    assert abs(split.rhs - 2.0) <= 1e-4
    assert split.passed
    assert reports["boundary-gap-harmonic-mean"].passed


def test_boundary_gaps_spheroid():
    reports = {r.name: r for r in
               check_boundary_gaps(build_spheroid_body(1.0, 1.2, 1024))}
    split = reports["boundary-gap-curvature-split"]
    assert split.lhs == pytest.approx(2.0 * (1.694444 - 0.694444) * 0.694444,
                                      abs=1e-4)
    assert split.rhs < 2.0
    assert split.passed and split.slack > 0.1


def test_boundary_gaps_seeded_curves():
    for body in random_convex_bodies(10, seed=99, m=256):
        for rep in check_boundary_gaps(body):
            if rep.kind != "diagnostic":
                assert rep.passed, rep.name


def test_boundary_cd_transfer_sphere():
    reports = {r.name: r for r in
               boundary_cd_report(build_sphere_body(1.0, 1024))}
    assert reports["boundary-ricci-transfer"].residual <= 1e-8
    ls = reports["boundary-log-sobolev-gap"]
    assert ls.lhs == pytest.approx(2.0, abs=1e-6)
    assert abs(ls.rhs - 2.0) <= 1e-4
    assert ls.passed


def test_boundary_cd_transfer_spheroid():
    reports = {r.name: r for r in
               boundary_cd_report(build_spheroid_body(1.0, 1.2, 1024))}
    assert reports["boundary-ricci-transfer"].residual <= 1e-6
    ls = reports["boundary-log-sobolev-gap"]
    assert ls.passed and ls.slack > 0.1
    margin = reports["boundary-cd-margin"]
    assert margin.passed


def test_bln_radial_applies_the_constant_potential_rule():
    # at theta = 1/n the dV (x) dV term drops for a constant potential
    # only; 1/(N-n) itself is undefined there
    from reilly_lab.presets import flat_ball
    flat = flat_ball(2, 1.0, 201)
    with pytest.raises(CurvatureNotPositive):
        check_bln(flat, flat.r**2, "neumann", TH2)
    ball = gaussian_ball(2, 0.8, 201)
    with pytest.raises(ValueError, match="constant potential"):
        check_bln(ball, ball.r**2, "neumann", TH2)
