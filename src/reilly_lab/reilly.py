"""Integrated Bochner identity with boundary (Reilly formula) and the
pointwise Gamma_2 inequality, verified on interval models and radial balls.

Interval boundary convention, used everywhere: at the right endpoint the
outward normal is +1, u_nu = u'(b) and H_mu = -V'(b); at the left it is
-1, u_nu = -u'(a) and H_mu = +V'(a).  Endpoints are 0-dimensional, so
II and all tangential boundary terms vanish identically.  For radial
functions on a ball the tangential terms vanish as well and
|Hess u|^2 = u''^2 + (n-1)(u'/r)^2.
"""

from __future__ import annotations

import math

import numpy as np

from .checks import (CheckReport, from_identity, from_inequality,
                     inequality_tolerance)
from .dimension import InverseDimension
from .errors import NonRadialInput
from .models import IntervalModel, RadialBall
from .numerics import diff1, diff2
from .operators import weighted_integral

VACUOUS_LU_FLOOR = 1e-12


def cd_margin(model, rho: float, theta: InverseDimension) -> CheckReport:
    """Pointwise curvature-dimension bound: rho <= min Ric_{mu,N} on an
    IntervalModel or a RadialBall."""
    tol = inequality_tolerance(scale=max(1.0, abs(rho)), h=model.h)
    return from_inequality(
        "cd-margin", lhs=rho, rhs=model.bakry_emery_min(theta), tolerance=tol,
        params={"rho": rho, "theta": theta.theta, "model": model.label,
                "n": model.n_pts},
    )


def gamma2_residual(model: IntervalModel, u: np.ndarray, rho: float,
                    theta: InverseDimension) -> CheckReport:
    """Pointwise Gamma_2(u) >= rho |grad u|^2 + (1/N)(Lu)^2 on the nodes.

    In one dimension Gamma_2(u) = (u'')^2 + V'' (u')^2.  At theta = -inf
    the (1/N)(Lu)^2 term follows the -inf * 0 = 0 convention: nodes where
    Lu vanishes (within 1e-12 of scale, plus the roundoff resolution of
    the differencing stencils) drop the term, all other nodes are vacuous
    and excluded from the minimum; their count is recorded.
    """
    h = model.h
    up, upp, lu = _derivatives(model, u)
    gamma2 = upp**2 + model.ddV * up**2
    scale = max(1.0, float(np.max(np.abs(lu))), float(np.max(gamma2)))
    vacuous = 0
    if theta.is_zero_n:
        # a discrete "Lu = 0" cannot be resolved below the stencil noise
        eps = np.finfo(float).eps
        noise = 128.0 * eps * float(np.max(np.abs(u))) * (
            1.0 / (h * h) + float(np.max(np.abs(model.dV))) / h)
        mask = np.abs(lu) <= VACUOUS_LU_FLOOR * scale + noise
        vacuous = int(np.sum(~mask))
        bound = rho * up**2
        field = np.where(mask, gamma2 - bound, math.inf)
    else:
        bound = rho * up**2 + theta.theta * lu**2
        field = gamma2 - bound
    k = int(np.argmin(field))
    tol = inequality_tolerance(scale=scale, h=h)
    return from_inequality(
        "gamma2-pointwise",
        lhs=float(bound[k]) if not math.isinf(field[k]) else 0.0,
        rhs=float(gamma2[k]) if not math.isinf(field[k]) else 0.0,
        tolerance=tol,
        params={"rho": rho, "theta": theta.theta, "model": model.label,
                "n": model.n_pts, "argmin_t": float(model.t[k]),
                "vacuous_nodes": vacuous,
                "min_residual": float(np.min(field))},
    )


def gamma2_field(model: IntervalModel, u: np.ndarray, rho: float,
                 theta: InverseDimension) -> np.ndarray:
    """Pointwise residual Gamma_2 - rho |grad u|^2 - (1/N)(Lu)^2.

    At theta = -inf the (1/N)(Lu)^2 term is dropped, i.e. the field is
    the -inf * 0 = 0 convention form, meaningful where Lu = 0.
    """
    up, upp, lu = _derivatives(model, u)
    one_over_n = 0.0 if theta.is_zero_n else theta.theta
    return upp**2 + model.ddV * up**2 - rho * up**2 - one_over_n * lu**2


def reilly_residual(domain, u: np.ndarray) -> CheckReport:
    """Residual of the integrated Bochner identity with boundary terms.

    residual = int (Lu)^2 - int |Hess u|^2 - int Ric_mu(grad u, grad u)
               - sum_boundary H_mu u_nu^2 exp(-V)

    Tangential boundary terms vanish by construction on both supported
    domains, so the full identity and its Neumann- and Dirichlet-constant
    variants coincide here; the record's variant is "full".
    """
    u = np.asarray(u, dtype=float)
    if isinstance(domain, IntervalModel):
        terms = _interval_terms(domain, u)
    elif isinstance(domain, RadialBall):
        terms = _radial_terms(domain, u)
    else:
        raise TypeError(f"reilly_residual does not support {type(domain).__name__}")
    lhs, hess, ric, boundary = terms
    residual = lhs - hess - ric - boundary
    scale = max(abs(lhs), abs(hess), abs(ric), abs(boundary), 1e-30)
    tol = inequality_tolerance(scale=scale, h=domain.h)
    return from_identity(
        "reilly-residual", residual=residual, tolerance=tol,
        lhs=lhs, rhs=hess + ric + boundary,
        params={"model": domain.label, "n": domain.n_pts, "variant": "full",
                "terms": {"lu2": lhs, "hessian": hess, "ricci": ric,
                          "boundary": boundary},
                "relative_residual": residual / scale},
    )


def _derivatives(model: IntervalModel, u):
    """(u', u'', Lu) on the model's nodes, with Lu = u'' - V' u'."""
    up = diff1(u, model.h)
    upp = diff2(u, model.h)
    return up, upp, upp - model.dV * up


def _interval_terms(model: IntervalModel, u: np.ndarray):
    up, upp, lu = _derivatives(model, u)
    lhs = weighted_integral(lu**2, model)
    hess = weighted_integral(upp**2, model)
    ric = weighted_integral(model.ddV * up**2, model)
    hmu_a, hmu_b = model.boundary_h_mu()
    dens = model.density
    boundary = hmu_b * up[-1] ** 2 * dens[-1] + hmu_a * up[0] ** 2 * dens[0]
    return lhs, hess, ric, boundary


def _radial_terms(ball: RadialBall, u: np.ndarray):
    h = ball.h
    n = ball.n_ambient
    up = diff1(u, h)
    upp = diff2(u, h)
    scale = max(1.0, float(np.max(np.abs(up))))
    if abs(up[0]) > 1e-6 * scale:
        raise NonRadialInput(
            f"u'(0) = {up[0]:.3e}: samples do not describe a smooth radial "
            "function"
        )
    up_over_r = np.empty_like(up)
    up_over_r[1:] = up[1:] / ball.r[1:]
    up_over_r[0] = upp[0]
    lu = upp + (n - 1) * up_over_r - ball.dV * up
    lhs = weighted_integral(lu**2, ball)
    hess = weighted_integral(upp**2 + (n - 1) * up_over_r**2, ball)
    ric = weighted_integral(ball.ddV * up**2, ball)
    boundary = ball.boundary_h_mu() * up[-1] ** 2 * ball.boundary_measure()
    return lhs, hess, ric, boundary


def reilly_convergence(build, u_of_x, resolutions) -> CheckReport:
    """Run reilly_residual across grids and merge with an order estimate.

    build(n) -> domain; u_of_x(x) -> samples.  The grid column stores the
    residual relative to the largest term at each resolution.
    """
    reports = []
    for n in resolutions:
        domain = build(n)
        x = domain.t if isinstance(domain, IntervalModel) else domain.r
        rep = reilly_residual(domain, u_of_x(x))
        reports.append(rep)
    grids = tuple(
        (r.params["n"], abs(r.params["relative_residual"])) for r in reports
    )
    finest = reports[-1]
    return from_identity(
        "reilly-residual", residual=finest.residual,
        tolerance=finest.tolerance, lhs=finest.lhs, rhs=finest.rhs,
        params={**finest.params, "resolutions": list(resolutions)},
        grids=grids,
    )
