"""reilly-lab: desk-scale verification of weighted-manifold inequalities.

A numerical laboratory for the generalized integrated Bochner identity
with boundary (the Reilly formula), the dimensional Brascamp-Lieb /
Lichnerowicz / Veysseire / Colesanti families of Poincare-type
inequalities, curvature-dimension transfer to boundaries, and
Brunn-Minkowski concavity along geodesic extension, Minkowski summation
and its parallel-normal-flow generalization.
"""

__version__ = "0.1.0"

import os

# One BLAS thread unless the caller chose otherwise: every dense matrix of
# the lab has at most a few hundred rows, and the thread count changes the
# low bits of the eigensolves.  This must run before numpy is first loaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .bodies import (ConvexPlaneBody, RevolutionBody3D, SphereCap,
                     build_plane_body, build_sphere_body, build_spheroid_body)
from .checks import CheckReport
from .dimension import InverseDimension
from .flows import (ConcavitySeries, FlowResult, FlowState, concavity_check,
                    geodesic_extension_measure, isoperimetric_checks,
                    latitude_circle, minkowski_sum_support,
                    parallel_normal_flow, parallel_normal_flows,
                    quermassintegrals, weingarten_wave, weingarten_waves)
from .inequalities import (boundary_cd_report, check_bln, check_boundary_gaps,
                           check_colesanti, check_dual_colesanti,
                           check_lichnerowicz, check_mean_curvature,
                           check_veysseire, sharpness_ratio)
from .models import (IntervalModel, ModelDensityParams, RadialBall,
                     build_gaussian_interval, build_interval_model,
                     build_model_density, build_radial_ball)
from .operators import (BoundaryGeometry, DiscreteOperator,
                        assemble_laplacian, boundary_gap_revolution,
                        boundary_geometry, solve_poisson, spectral_gap,
                        weighted_integral)
from .reilly import cd_margin, gamma2_field, reilly_residual
from .trig import TrigPolynomial

__all__ = [
    "__version__",
    "BoundaryGeometry", "CheckReport", "ConcavitySeries", "ConvexPlaneBody",
    "DiscreteOperator", "FlowResult", "FlowState", "IntervalModel",
    "InverseDimension", "ModelDensityParams", "RadialBall",
    "RevolutionBody3D", "SphereCap", "TrigPolynomial",
    "assemble_laplacian", "boundary_cd_report", "boundary_gap_revolution",
    "boundary_geometry", "build_gaussian_interval", "build_interval_model",
    "build_model_density", "build_plane_body", "build_radial_ball",
    "build_sphere_body", "build_spheroid_body",
    "cd_margin", "check_bln", "check_boundary_gaps",
    "check_colesanti", "check_dual_colesanti", "check_lichnerowicz",
    "check_mean_curvature", "check_veysseire", "concavity_check",
    "gamma2_field", "geodesic_extension_measure", "isoperimetric_checks",
    "latitude_circle", "minkowski_sum_support", "parallel_normal_flow",
    "parallel_normal_flows", "quermassintegrals", "reilly_residual",
    "sharpness_ratio", "solve_poisson", "spectral_gap", "weighted_integral",
    "weingarten_wave", "weingarten_waves",
]
