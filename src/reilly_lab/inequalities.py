"""Poincare-type inequalities on models and on boundaries of convex bodies.

Every operation returns CheckReport records oriented lhs <= rhs.  The
dimensional factors N/(N-1), (N-1)/N, 1/(N-1) are always evaluated
through theta = 1/N so the limit cases come out exactly.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .bodies import ConvexPlaneBody, RevolutionBody3D
from .checks import (CheckReport, from_identity, from_inequality,
                     inequality_tolerance)
from .dimension import InverseDimension
from .errors import (CurvatureNotPositive, MeanConvexityViolation,
                     StrengthenedDegenerate)
from .models import (IntervalModel, ModelDensityParams, RadialBall,
                     build_model_density)
from .numerics import diff1, spectral_diff
from .operators import (DIRICHLET, NEUMANN, PERIODIC, assemble_laplacian,
                        boundary_gap_revolution, boundary_geometry,
                        spectral_gap, weighted_integral)
from .trig import TrigPolynomial


def _variance(f: np.ndarray, domain) -> float:
    mass = domain.mass()
    mean = weighted_integral(f, domain) / mass
    return weighted_integral((f - mean) ** 2, domain)


# ---------------------------------------------------------------------------
# dimensional Brascamp-Lieb with boundary


def check_bln(domain, f, case: str, theta: InverseDimension,
              C: Union[str, float] = "auto", fp=None) -> CheckReport:
    """Weighted Poincare inequality with the inverse-curvature weight.

    cases: 'neumann' (convex domain), 'dirichlet' (mean-convex, f = 0 on
    the boundary), 'meanconvex' (strictly mean-convex; boundary variance
    term with constant C, 'auto' = the mu/H_mu-weighted boundary mean).
    f holds the test function's samples on the domain's grid; its
    derivative fp defaults to 4th-order differences of f.

    lhs = N/(N-1) * Var(f)  (or int f^2 for 'dirichlet');
    rhs = int <Ric_{mu,N}^{-1} grad f, grad f> dmu  (+ boundary term).
    """
    case = case.lower()
    if case not in ("neumann", "dirichlet", "meanconvex"):
        raise ValueError(f"unknown case {case!r}")
    if not isinstance(domain, (IntervalModel, RadialBall)):
        raise TypeError(f"check_bln does not support {type(domain).__name__}")
    f = np.asarray(f, dtype=float)
    if f.shape != (domain.n_pts,):
        raise ValueError("sample test function must match the grid")
    if fp is None:
        fp = diff1(f, domain.h)
    bln = _bln_interval if isinstance(domain, IntervalModel) else _bln_radial
    return bln(domain, f, fp, case, theta, C)


def _bln_interval(model: IntervalModel, f, fp, case: str,
                  theta: InverseDimension, C) -> CheckReport:
    ric = model.bakry_emery(theta)
    if np.min(ric) <= 0.0:
        raise CurvatureNotPositive(
            f"min Ric_(mu,N) = {np.min(ric):.3e} on {model.label}"
        )
    dens = model.density
    notes = {}
    if case == "dirichlet":
        scale = max(1.0, float(np.max(np.abs(f))))
        for end in (0, -1):
            weighted_violation = abs(f[end]) * dens[end]
            if weighted_violation > 1e-6 * scale:
                raise ValueError(
                    "dirichlet case requires f = 0 on the boundary "
                    f"(weighted violation {weighted_violation:.3e})"
                )
            notes[f"f_boundary_{'a' if end == 0 else 'b'}"] = float(f[end])
        lhs = theta.n_over_n_minus_1 * weighted_integral(f**2, model)
    else:
        lhs = theta.n_over_n_minus_1 * _variance(f, model)
    rhs = weighted_integral(fp**2 / ric, model)
    hmu_a, hmu_b = model.boundary_h_mu()
    c_used = None
    if case == "meanconvex":
        if hmu_a <= 0.0 or hmu_b <= 0.0:
            raise MeanConvexityViolation(
                f"H_mu at the ends = ({hmu_a:.3e}, {hmu_b:.3e})"
            )
        bvals = np.array([f[0], f[-1]])
        bw = np.array([dens[0] / hmu_a, dens[-1] / hmu_b])
        c_used = float(np.dot(bvals, bw) / np.sum(bw)) if C == "auto" else float(C)
        rhs += float(np.dot((bvals - c_used) ** 2, bw))
    else:
        notes["H_mu_ends"] = (hmu_a, hmu_b)
    tol = inequality_tolerance(scale=max(abs(lhs), abs(rhs), 1.0), h=model.h)
    return from_inequality(
        f"bln-{case}", lhs=lhs, rhs=rhs, tolerance=tol,
        params={"model": model.label, "theta": theta.theta, "n": model.n_pts,
                "C": c_used, **notes},
    )


def _bln_radial(ball: RadialBall, f, fp, case: str,
                theta: InverseDimension, C) -> CheckReport:
    ric_radial, tangential = ball.bakry_emery(theta)
    if min(ric_radial.min(), tangential.min()) <= 0.0:
        raise CurvatureNotPositive(f"Ric_(mu,N) not positive on {ball.label}")
    if case == "dirichlet":
        if abs(f[-1]) > 1e-10 * max(1.0, float(np.max(np.abs(f)))):
            raise ValueError("dirichlet case requires f = 0 on the boundary sphere")
        lhs = theta.n_over_n_minus_1 * weighted_integral(f**2, ball)
    else:
        lhs = theta.n_over_n_minus_1 * _variance(f, ball)
    rhs = weighted_integral(fp**2 / ric_radial, ball)
    c_used = None
    if case == "meanconvex":
        hmu = ball.boundary_h_mu()
        if hmu <= 0.0:
            raise MeanConvexityViolation(f"H_mu(R) = {hmu:.3e}")
        c_used = float(f[-1]) if C == "auto" else float(C)
        rhs += (f[-1] - c_used) ** 2 / hmu * ball.boundary_measure()
    tol = inequality_tolerance(scale=max(abs(lhs), abs(rhs), 1.0), h=ball.h)
    return from_inequality(
        f"bln-{case}", lhs=lhs, rhs=rhs, tolerance=tol,
        params={"model": ball.label, "theta": theta.theta, "n": ball.n_pts,
                "C": c_used},
    )


def _panel_integral(f, a: float, b: float) -> float:
    """Integral of the vectorised f over [a, b] by 16-point Gauss-Legendre on
    16, 32, ... equal panels until two sums agree to 1e-13; inf past 4096."""
    x, w = np.polynomial.legendre.leggauss(16)
    prev = math.nan
    for panels in (16 << k for k in range(9)):
        h = (b - a) / panels
        mid = a + h * (np.arange(panels) + 0.5)
        with np.errstate(all="ignore"):
            total = float(np.sum(f(mid[:, None] + 0.5 * h * x) @ w) * 0.5 * h)
        if abs(total - prev) <= 1e-13 * abs(total):
            return total
        prev = total
    return math.inf


def sharpness_ratio(params: ModelDensityParams,
                    n_pts: int = 4001) -> CheckReport:
    """Sharpness diagnostic for the N/(N-1) constant with f = R'.

    Verifies the two closed-form integral identities (each to 1e-6
    relative, a Gauss-Legendre panel rule for R^{N+1} plus the exact
    truncation boundary term as the independent route) and records the
    measured ratio lhs/rhs of the inequality, which approaches 1 as
    beta_trunc grows toward the positivity endpoint.

    f = R' is the equality case, L f = -(N rho/(N-1)) f, so in the neumann
    case the integration by parts on [-beta, beta] leaves the exact defect

        1 - ratio = 2 R'(beta) R''(beta) R(beta)^(N-1)
                    / int_{-beta}^{beta} R''^2 R^(N-1) dt.

    For delta = rho/(N-1) < 0 the endpoint is infinite and the defect
    decays like exp(-beta sqrt(-delta)): at N = -2, rho = 1 it is 1.27e-2
    at beta = 8 and 1.25e-3 at beta = 12.
    """
    n_value = params.theta.n_value
    if abs(n_value) <= 1.0:
        raise ValueError("sharpness requires |N| > 1 for convergent integrals")
    case = params.variant
    if case == "dirichlet" and n_value < 0.0:
        raise ValueError(
            "the extremal function does not vanish at infinity for N < 0; "
            "the dirichlet case is excluded there"
        )
    model = build_model_density(params, n_pts)
    R, Rp, Rpp = params.profile()
    f = Rp(model.t)
    fp = Rpp(model.t)
    rho = params.rho
    # grid-quadrature side
    int_f2 = weighted_integral(f**2, model)
    int_ric = weighted_integral(fp**2 / rho, model)
    if case == "neumann":
        lhs = params.theta.n_over_n_minus_1 * _variance(f, model)
    else:
        lhs = params.theta.n_over_n_minus_1 * int_f2
    rhs = int_ric
    ratio = lhs / rhs if rhs else math.nan
    # independent closed-form route: a panel rule off the grid for R^{N+1} and
    # the exact boundary term of the integration by parts on the truncated domain
    a, b = model.a, model.b
    int_rn1 = _panel_integral(lambda t: R(t) ** (n_value + 1.0), a, b)
    bterm = (float(Rp(b)) * float(R(b)) ** n_value
             - float(Rp(a)) * float(R(a)) ** n_value) / n_value
    closed_f2 = bterm + rho / (n_value * (n_value - 1.0)) * int_rn1
    closed_ric = rho / (n_value - 1.0) ** 2 * int_rn1
    # a closed form that vanishes in double precision (a truncation or a delta
    # too small to resolve) or is inf (no convergence) then fails its identity
    rel1, rel2 = (abs(x - c) / abs(c) if c and math.isfinite(c) else math.inf
                  for x, c in ((int_f2, closed_f2), (int_ric, closed_ric)))
    return from_identity(
        "sharpness-ratio", residual=max(rel1, rel2), tolerance=1e-6,
        lhs=ratio, rhs=1.0,
        params={"rho": rho, "N": n_value, "beta_trunc": params.beta_trunc,
                "case": case, "n": n_pts, "ratio": ratio,
                "ratio_deviation": abs(ratio - 1.0),
                "inequality_slack": rhs - lhs,
                "identity_rel_f2": rel1, "identity_rel_ric": rel2},
    )


# ---------------------------------------------------------------------------
# spectral-gap bounds on the domain


def check_lichnerowicz(model: IntervalModel, rho: float,
                       theta: InverseDimension,
                       case: str = "neumann") -> CheckReport:
    """Gap bound N/(N-1) rho <= lambda_1 under CD(rho, N)."""
    case = case.lower()
    if case not in (NEUMANN, DIRICHLET):
        raise ValueError(f"unknown case {case!r}")
    margin = model.bakry_emery_min(theta)
    if margin < rho - 1e-10 * max(1.0, abs(rho)):
        raise CurvatureNotPositive(
            f"CD({rho:g}, N) fails: min Ric = {margin:.6g} on {model.label}"
        )
    lam = spectral_gap(assemble_laplacian(model, case))
    lhs = theta.n_over_n_minus_1 * rho
    tol = inequality_tolerance(scale=max(1.0, abs(lhs)), h=model.h)
    return from_inequality(
        f"lichnerowicz-{case}", lhs=lhs, rhs=lam, tolerance=tol,
        params={"model": model.label, "rho": rho, "theta": theta.theta,
                "n": model.n_pts, "gap": lam},
    )


def check_veysseire(model: IntervalModel) -> CheckReport:
    """Harmonic-mean gap bound for a varying curvature lower bound.

    Requires model.rho_field > 0; the interval's endpoint boundary is
    totally geodesic (II = 0), hence locally convex.
    lhs = mass / int (1/rho) dmu, rhs = Neumann gap.
    """
    if model.rho_field is None:
        raise ValueError("check_veysseire needs a model with rho_field")
    rho = model.rho_field
    if np.min(rho) <= 0.0:
        raise CurvatureNotPositive("rho_field must be positive everywhere")
    if np.min(model.ddV - rho) < -1e-10:
        raise CurvatureNotPositive("rho_field is not a lower bound for Ric_mu")
    lhs = model.mass() / weighted_integral(1.0 / rho, model)
    lam = spectral_gap(assemble_laplacian(model, NEUMANN))
    tol = inequality_tolerance(scale=max(1.0, abs(lhs)), h=model.h)
    return from_inequality(
        "veysseire", lhs=lhs, rhs=lam, tolerance=tol,
        params={"model": model.label, "n": model.n_pts, "gap": lam,
                "min_rho_bound": float(np.min(rho))},
    )


# ---------------------------------------------------------------------------
# boundary inequalities on convex plane bodies


def _curve_data(body: ConvexPlaneBody, f):
    """f and its arclength derivative df/ds on the curve: a
    TrigPolynomial is differentiated exactly, samples on the angle grid
    spectrally."""
    r = body.curvature_radius
    if isinstance(f, TrigPolynomial):
        return f(body.angles), f(body.angles, derivative=1) / r
    f = np.asarray(f, dtype=float)
    if f.shape != (body.m,):
        raise ValueError("sample test function must match the angle grid")
    return f, spectral_diff(f, 1) / r


def check_colesanti(body: ConvexPlaneBody, f, theta: InverseDimension,
                    strengthened: bool = False) -> CheckReport:
    """Boundary Poincare inequality with the inverse-II weight.

    lhs = int H_mu f^2 dmu - (N-1)/N (int f dmu)^2 / mu(M)
    rhs = int II^{-1} |grad_boundary f|^2 dmu
    The strengthened variant adds (int f beta dmu)^2 / int beta dmu with
    beta = (N-1)/N mu(boundary)/mu(M) - H_mu, guarded against the ball
    equality case where int beta dmu = 0.
    """
    geom = boundary_geometry(body)
    fvals, fs = _curve_data(body, f)
    mass = body.mass()
    int_f = weighted_integral(fvals, body)
    lhs = (weighted_integral(geom.H_mu * fvals**2, body)
           - theta.n_minus_1_over_n * int_f**2 / mass)
    rhs = weighted_integral(fs**2 / geom.II, body)
    extra = {}
    if strengthened:
        beta = theta.n_minus_1_over_n * body.perimeter() / mass - geom.H_mu
        denom = weighted_integral(beta, body)
        scale = max(1.0, body.perimeter())
        if denom <= 1e-12 * scale:
            raise StrengthenedDegenerate(
                f"int beta dmu = {denom:.3e}: ball equality case"
            )
        lhs += weighted_integral(fvals * beta, body) ** 2 / denom
        extra["beta_mass"] = denom
    tol = inequality_tolerance(scale=max(abs(lhs), abs(rhs), 1.0))
    name = "colesanti-strengthened" if strengthened else "colesanti"
    return from_inequality(
        name, lhs=lhs, rhs=rhs, tolerance=tol,
        params={"body": body.label, "theta": theta.theta, "m": body.m,
                **extra},
    )


def check_dual_colesanti(body: ConvexPlaneBody, f, rho: float = 0.0,
                         C: Union[str, float] = "auto") -> CheckReport:
    """Dual boundary inequality on a strictly mean-convex body.

    lhs = int II |grad f|^2 dmu
    rhs = int (1/H_mu) (L_boundary f + rho (f - C)/2)^2 dmu
    C = 'auto' minimizes the right side (a 1-D quadratic); any C is
    admissible, so the minimizer makes the check strongest.
    """
    geom = boundary_geometry(body)
    if np.min(geom.H_mu) <= 0.0:
        raise MeanConvexityViolation(
            f"min H_mu = {np.min(geom.H_mu):.3e} on {body.label}"
        )
    fvals, fs = _curve_data(body, f)
    # the boundary Laplacian along the curve is f_ss (no potential)
    lf = spectral_diff(fs, 1) / body.curvature_radius
    lhs = weighted_integral(geom.II * fs**2, body)
    if rho == 0.0:
        c_used = 0.0 if C == "auto" else float(C)
    elif C == "auto":
        # minimize int (A - rho C / 2)^2 / H over C, A = Lf + rho f / 2
        a_field = lf + 0.5 * rho * fvals
        num = weighted_integral(a_field / geom.H_mu, body)
        den = weighted_integral(np.full(body.m, 1.0) / geom.H_mu, body)
        c_used = 2.0 * num / (rho * den)
    else:
        c_used = float(C)
    expr = lf + 0.5 * rho * (fvals - c_used)
    rhs = weighted_integral(expr**2 / geom.H_mu, body)
    tol = inequality_tolerance(scale=max(abs(lhs), abs(rhs), 1.0))
    return from_inequality(
        "dual-colesanti", lhs=lhs, rhs=rhs, tolerance=tol,
        params={"body": body.label, "rho": rho, "C": c_used, "m": body.m},
    )


def check_mean_curvature(body, theta: InverseDimension):
    """Mean-curvature inequalities from the constant test function.

    Returns three reports: the integrated H_mu upper bound (needs II > 0),
    the integrated 1/H_mu lower bound (needs only H_mu > 0), and the
    Cauchy-Schwartz link between them.
    """
    geom = boundary_geometry(body)
    if np.min(geom.H_mu) <= 0.0:
        raise MeanConvexityViolation(
            f"min H_mu = {np.min(geom.H_mu):.3e} on {getattr(body, 'label', '?')}"
        )
    mass = body.mass()
    if isinstance(body, (ConvexPlaneBody, RevolutionBody3D)):
        bmass = weighted_integral(np.ones_like(geom.H_mu), body)
        int_h = weighted_integral(geom.H_mu, body)
        int_invh = weighted_integral(1.0 / geom.H_mu, body)
    elif isinstance(body, RadialBall):
        bmass = body.boundary_measure()
        int_h = float(geom.H_mu[0]) * bmass
        int_invh = bmass / float(geom.H_mu[0])
    else:
        raise TypeError(type(body).__name__)
    label = getattr(body, "label", "body")
    scale = max(1.0, abs(int_h), abs(int_invh))
    tol = inequality_tolerance(scale=scale)
    hr1 = from_inequality(
        "mean-curvature-upper", lhs=int_h,
        rhs=theta.n_minus_1_over_n * bmass**2 / mass, tolerance=tol,
        params={"body": label, "theta": theta.theta},
    )
    hr2 = from_inequality(
        "inverse-mean-curvature-lower",
        lhs=theta.n_over_n_minus_1 * mass, rhs=int_invh, tolerance=tol,
        params={"body": label, "theta": theta.theta},
    )
    link = from_inequality(
        "inverse-mean-curvature-cs-link", lhs=bmass**2 / int_h, rhs=int_invh,
        tolerance=tol, params={"body": label},
    )
    return [hr1, hr2, link]


def check_boundary_gaps(body):
    """Spectral-gap lower bounds on the boundary of a convex body.

    Computes lambda_1 of the boundary weighted Laplacian and checks the
    sigma*xi bound, its CD(rho,0) refinement, and (for revolution bodies,
    n = 3) the pointwise curvature-splitting bounds.
    The product diagnostic lambda_1 * avg(1/H) * avg(1/sigma) involves an
    unnamed universal constant, so it is reported without pass/fail.
    """
    geom = boundary_geometry(body)
    if isinstance(body, ConvexPlaneBody):
        lam = spectral_gap(assemble_laplacian(body, PERIODIC))
        mode = None
        grid_h = None                      # spectral curve operator
    elif isinstance(body, RevolutionBody3D):
        lam, mode = boundary_gap_revolution(body)
        grid_h = body.h                    # O(h^2) profile eigensolver
    else:
        raise TypeError(type(body).__name__)
    label = getattr(body, "label", "body")
    sigma, xi = geom.sigma, geom.xi
    if sigma <= 0.0 or xi <= 0.0:
        raise MeanConvexityViolation(
            f"need sigma, xi > 0; got ({sigma:.3e}, {xi:.3e})"
        )
    a = sigma * xi
    rho = 0.0  # every body lies in flat R^2 or R^3
    tol = inequality_tolerance(scale=max(1.0, lam), h=grid_h)
    out = [
        from_inequality(
            "boundary-gap-sigma-xi", lhs=a, rhs=lam, tolerance=tol,
            params={"body": label, "sigma": sigma, "xi": xi, "mode": mode},
        ),
        from_inequality(
            "boundary-gap-cd-refined",
            lhs=0.5 * (rho + a + math.sqrt(2.0 * a * rho + a * a)),
            rhs=lam, tolerance=tol,
            params={"body": label, "rho": rho, "a": a},
        ),
    ]
    barea = weighted_integral(np.ones_like(geom.H_g), body)
    if isinstance(body, RevolutionBody3D):
        n = 3
        pointwise = (geom.H_g - geom.II) * geom.II
        lich = (n - 1) / (n - 2) * float(np.min(pointwise))
        out.append(from_inequality(
            "boundary-gap-curvature-split", lhs=lich, rhs=lam, tolerance=tol,
            params={"body": label, "pointwise_min": float(np.min(pointwise))},
        ))
        harmonic = barea / weighted_integral(1.0 / pointwise, body)
        out.append(from_inequality(
            "boundary-gap-harmonic-mean", lhs=harmonic, rhs=lam, tolerance=tol,
            params={"body": label},
        ))
    # unknown universal constant: ratio reported, never pass/fail
    avg_invh = weighted_integral(1.0 / geom.H_mu, body) / barea
    avg_invsig = weighted_integral(1.0 / geom.II, body) / barea
    out.append(from_inequality(
        "boundary-gap-product-ratio", lhs=lam * avg_invh * avg_invsig,
        rhs=1.0, tolerance=0.0,
        params={"body": label, "note": "universal-constant diagnostic"},
        diagnostic=True,
    ))
    return out


def boundary_cd_report(body: RevolutionBody3D):
    """Curvature-dimension transfer to the boundary surface.

    Compares the intrinsic Gauss curvature of the profile metric with the
    Gauss-equation expression (H g0 - II) II built from the extrinsic
    principal curvatures, then checks the induced CD bound
    rho - kappa + (n-2) sigma^2 and its log-Sobolev Poincare consequence
    on the boundary spectral gap.  The ambient space is flat R^3 with zero
    potential, so rho = kappa = 0 and N = n = 3.
    """
    n = 3
    theta = 1.0 / n                           # N = n
    geom = boundary_geometry(body)
    k1, k2 = geom.kappa1, geom.kappa2
    h_field = geom.H_g
    interior = slice(1, -1)
    k_int = body.gauss_curvature_intrinsic()
    gauss1 = ((h_field - k1) * k1)[interior]
    gauss2 = ((h_field - k2) * k2)[interior]
    disc = max(float(np.max(np.abs(k_int - gauss1))),
               float(np.max(np.abs(k_int - gauss2))))
    scale = max(1.0, float(np.max(np.abs(k_int))))
    label = body.label
    reports = [from_identity(
        "boundary-ricci-transfer", residual=disc,
        tolerance=10.0 * body.h**2 * scale,
        params={"body": label, "n_profile": body.n_cells,
                "max_discrepancy": disc},
    )]
    sigma = geom.sigma
    rho0 = (n - 2) * sigma**2                 # rho - kappa = 0
    tol = inequality_tolerance(scale=max(1.0, abs(rho0)), h=body.h)
    reports.append(from_inequality(
        "boundary-cd-margin", lhs=rho0, rhs=float(np.min(k_int)),
        tolerance=tol,
        params={"body": label, "rho": 0.0, "kappa": 0.0, "sigma": sigma},
    ))
    # log-Sobolev constant of the induced CD(rho0, N-1) condition,
    # checked through its Poincare consequence
    nm1_over_nm2 = (1.0 - theta) / (1.0 - 2.0 * theta)
    lam_ls = rho0 * nm1_over_nm2
    lam, mode = boundary_gap_revolution(body)
    reports.append(from_inequality(
        "boundary-log-sobolev-gap", lhs=lam_ls, rhs=lam,
        tolerance=inequality_tolerance(scale=max(1.0, lam), h=body.h),
        params={"body": label, "lambda_ls": lam_ls, "gap": lam, "mode": mode},
    ))
    return reports
