import math

import numpy as np
import pytest

from reilly_lab.checks import inequality_tolerance
from reilly_lab.dimension import InverseDimension
from reilly_lab.errors import NonRadialInput
from reilly_lab.models import build_gaussian_interval, build_model_density
from reilly_lab.presets import flat_ball, model_density_params
from reilly_lab.reilly import (cd_margin, gamma2_field, reilly_convergence,
                               reilly_residual)

TH_INF = InverseDimension(0.0, 1)
TH5 = InverseDimension.from_n(5.0)


# ---------------------------------------------------------------------------
# cd_margin


def test_cd_margin_model_equality():
    model = build_model_density(model_density_params(1.0, 5.0), 1001)
    rep = cd_margin(model, 1.0, TH5)
    assert rep.passed
    assert abs(rep.slack) <= 1e-9


def test_cd_margin_gaussian_and_violation():
    model = build_gaussian_interval(1.0, 6.0, 1001)
    assert cd_margin(model, 1.0, TH_INF).passed
    bad = cd_margin(model, 1.1, TH_INF)
    assert not bad.passed
    assert bad.slack == pytest.approx(-0.1, abs=1e-12)


def test_cd_margin_radial_ball():
    ball = flat_ball(2, 1.0, 101)
    rep = cd_margin(ball, 0.0, InverseDimension(0.5, 2))
    assert rep.passed and rep.rhs == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# Gamma_2 pointwise inequality


def test_gamma2_gaussian_linear_function():
    model = build_gaussian_interval(1.0, 6.0, 2001)
    field = gamma2_field(model, model.t.copy(), 1.0, TH_INF)
    assert abs(np.min(field)) <= 1e-10


def test_gamma2_gaussian_quadratic_field():
    # u = t^2/2: Gamma_2 = 1 + t^2, rho |u'|^2 = t^2, residual field = 1
    model = build_gaussian_interval(1.0, 6.0, 2001)
    field = gamma2_field(model, model.t**2 / 2.0, 1.0, TH_INF)
    np.testing.assert_allclose(field[3:-3], 1.0, atol=1e-8)


def test_gamma2_zero_n_convention():
    # theta = -inf on a flat interval with u = t: Lu = 0 exactly, the
    # (1/N)(Lu)^2 term drops and the check reduces to Ric_{mu,0} >= rho
    from reilly_lab.models import build_interval_model
    model = build_interval_model(0.0, 1.0, 101,
                                 V=lambda t: np.zeros_like(t))
    th0 = InverseDimension(-math.inf, 1)
    field = gamma2_field(model, model.t.copy(), 0.0, th0)
    assert np.min(field) >= -inequality_tolerance(scale=1.0, h=model.h)
    assert not np.isinf(field).any()
    # and with Lu != 0 everywhere the nodes are vacuous and read +inf
    field2 = gamma2_field(model, model.t**2, 0.0, th0)
    assert (field2 == math.inf).any()
    # on the Gaussian, u = t has Lu = -t: only the node t = 0 is not
    # vacuous, and there Gamma_2 = V'' |u'|^2 = rho |u'|^2 exactly
    gauss = build_gaussian_interval(1.0, 6.0, 801)
    field3 = gamma2_field(gauss, gauss.t.copy(), 1.0, th0)
    assert int(np.sum(field3 == math.inf)) == 800
    assert np.min(field3) == 0.0 and field3[400] == 0.0


def test_gamma2_model_equality_case():
    # u = sin(sqrt(delta) t) achieves pointwise equality in both
    # Cauchy-Schwartz steps of the Gamma_2 bound on the sharpness density
    params = model_density_params(1.0, 5.0)
    model = build_model_density(params, 2001)
    u = np.sin(math.sqrt(0.25) * model.t)
    field = gamma2_field(model, u, 1.0, TH5)
    assert np.max(np.abs(field[3:-3])) <= 1e-10


# ---------------------------------------------------------------------------
# integrated identity with boundary


def test_reilly_gaussian_quadratic_converges():
    rep = reilly_convergence(
        lambda n: build_gaussian_interval(1.0, 6.0, n), lambda t: t**2,
        (250, 500, 1000))
    assert rep.passed
    assert rep.order_estimate >= 1.9
    assert abs(rep.params["relative_residual"]) <= 1e-6


def test_reilly_constant_function_all_terms_vanish():
    model = build_gaussian_interval(1.0, 6.0, 501)
    rep = reilly_residual(model, np.full(501, 3.7))
    terms = rep.params["terms"]
    for value in terms.values():
        assert abs(value) <= 1e-12
    assert abs(rep.residual) <= 1e-12


def test_reilly_disk_radial_closed_form():
    # unit disk, u = r^2: int (Lu)^2 = 16 pi splits as 8 pi (Hessian)
    # + 8 pi (boundary), Ricci term zero
    ball = flat_ball(2, 1.0, 1001)
    rep = reilly_residual(ball, ball.r**2)
    terms = rep.params["terms"]
    assert terms["lu2"] == pytest.approx(16 * math.pi, rel=1e-10)
    assert terms["hessian"] == pytest.approx(8 * math.pi, rel=1e-10)
    assert terms["ricci"] == pytest.approx(0.0, abs=1e-12)
    assert terms["boundary"] == pytest.approx(8 * math.pi, rel=1e-10)
    assert abs(rep.params["relative_residual"]) <= 1e-8


def test_reilly_shift_invariance_exact():
    model = build_gaussian_interval(1.0, 6.0, 1001)
    u = model.t**2
    base = reilly_residual(model, u)
    shifted = reilly_residual(model, u + 1.0)
    scale = max(abs(v) for v in base.params["terms"].values())
    assert abs(base.residual - shifted.residual) <= 1e-12 * max(1.0, scale)


@pytest.mark.parametrize("lam", [2.0, 10.0])
def test_reilly_quadratic_scaling(lam):
    model = build_gaussian_interval(1.0, 6.0, 1001)
    u = np.sin(model.t) + 0.2 * model.t**2
    base = reilly_residual(model, u)
    scaled = reilly_residual(model, lam * u)
    scale = lam**2 * max(abs(v) for v in base.params["terms"].values())
    assert abs(scaled.residual - lam**2 * base.residual) <= 1e-10 * scale


def test_reilly_model_density_fixture():
    params = model_density_params(1.0, 5.0)
    rep = reilly_convergence(
        lambda n: build_model_density(params, n),
        lambda t: np.sin(math.sqrt(0.25) * t), (250, 500, 1000))
    assert rep.passed
    assert rep.order_estimate >= 1.9


def test_reilly_rejects_non_radial_samples():
    ball = flat_ball(2, 1.0, 501)
    with pytest.raises(NonRadialInput):
        reilly_residual(ball, ball.r.copy())  # u = r has a cusp at 0


@pytest.mark.parametrize("n_value", [20.0, -2.0, math.inf])
def test_cd_margin_ball_is_the_minimum_of_both_fields(n_value):
    from reilly_lab.presets import gaussian_ball
    ball = gaussian_ball(3, 0.8, 201)
    theta = InverseDimension.from_n(n_value, 3)
    radial, tangential = ball.bakry_emery(theta)
    assert cd_margin(ball, 0.5, theta).rhs == min(radial.min(),
                                                  tangential.min())
