"""Discrete weighted Laplacians, Poisson solvers, eigensolvers, quadrature.

The interval discretization is the conservative flux form

    (L u)_i = [ b_{i+1/2} (u_{i+1} - u_i)/h - b_{i-1/2} (u_i - u_{i-1})/h ] / m_i

with face coefficients b = exp(-V) and cell measures m_i.  Conjugating by
sqrt(m) makes the matrix exactly symmetric, and Neumann walls enter as
zero boundary fluxes (the ghost-node reflection of the half end cells),
so the operator annihilates constants to machine precision.  Closed
curves use the trigonometric differentiation matrix D in the factored
form diag(1/r) D diag(1/r) D, which is exactly symmetrizable because D
is antisymmetric.

On an even periodic grid D annihilates the alternating (Nyquist) vector
as well as constants, so the factored operator carries one inert extra
null mode.  That mode is an exact, known vector; eigensolves shift it
out of the low spectrum and the singular Poisson solve removes it by
minimal-norm least squares.

Eigensolves and tridiagonal solves call LAPACK through ``_lapack`` with
scipy.linalg's argument sequences and input checks, never importing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bodies import ConvexPlaneBody, RevolutionBody3D
from .errors import ConvergenceFailure, SingularSystem
from .models import IntervalModel, RadialBall
from .numerics import fourier_diff_matrix, periodic_trapezoid, simpson_uniform

NEUMANN = "neumann"
DIRICHLET = "dirichlet"
PERIODIC = "periodic"
AZIMUTHAL_MODES = 8


@dataclass(frozen=True)
class DiscreteOperator:
    """Discretized weighted Laplacian with a boundary-condition tag.

    kind 'tridiagonal' stores the three bands of L (action on node values);
    kind 'periodic' stores the dense matrix.  `weights` are the cell
    measures w_i exp(-V_i) of the weighted inner product, frozen at
    assembly time; `symmetrizer` = sqrt(weights) conjugates L to symmetric
    form.
    """

    kind: str
    bc: str
    n: int
    weights: np.ndarray
    symmetrizer: np.ndarray
    model_ref: str
    lower: Optional[np.ndarray] = None
    diag: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    dense: Optional[np.ndarray] = None

    def apply(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.kind == "periodic":
            return self.dense @ u
        out = self.diag * u
        out[:-1] += self.upper * u[1:]
        out[1:] += self.lower * u[:-1]
        return out

    def symmetric_form(self):
        """Return data for the conjugated operator S = D L D^{-1}, D = diag(symmetrizer).

        Tridiagonal: (diag, off) arrays of S.  Periodic: the dense S.
        """
        d = self.symmetrizer
        if self.kind == "periodic":
            s = self.dense * d[:, None]
            s /= d
            return s
        off = self.upper * d[:-1] / d[1:]
        return self.diag.copy(), off

    def nyquist_mode(self) -> Optional[np.ndarray]:
        """The inert alternating null vector of an even periodic grid."""
        if self.kind != "periodic" or self.n % 2 != 0:
            return None
        saw = np.ones(self.n)
        saw[1::2] = -1.0
        return saw

    def deflated_symmetric(self) -> np.ndarray:
        """Symmetric form with the alternating null mode shifted far negative.

        The shift is exact because the mode is an exact null vector of L,
        so the remaining spectrum moves only at roundoff level.
        """
        s = self.symmetric_form()
        saw = self.nyquist_mode()
        if saw is None:
            return s
        q = self.symmetrizer * saw
        q = q / np.linalg.norm(q)
        # just above the spectral radius: large enough to clear the low
        # spectrum, small enough not to degrade eigh's absolute accuracy
        shift = 4.0 * float(np.max(np.abs(np.diag(s)))) + 10.0
        qq = np.outer(q, q)
        qq *= shift
        s -= qq
        return s


def assemble_laplacian(model, bc: str) -> DiscreteOperator:
    """Assemble L = Delta - <grad V, grad .> for a model or a closed boundary.

    IntervalModel takes 'neumann' or 'dirichlet'; the boundary curve of a
    ConvexPlaneBody takes 'periodic'; a RevolutionBody3D yields the
    axisymmetric mode of its boundary Laplacian (see boundary_gap_revolution
    for the full azimuthal decomposition).
    """
    if isinstance(model, IntervalModel):
        if bc not in (NEUMANN, DIRICHLET):
            raise ValueError(f"interval operator needs neumann/dirichlet, got {bc}")
        if model.n_pts < 8:
            raise ValueError("operator assembly requires n_pts >= 8")
        h = model.h
        b_face = np.exp(-0.5 * (model.V[:-1] + model.V[1:]))
        n = model.n_pts
        w = np.full(n, h)
        w[0] = w[-1] = h / 2.0
        measures = w * model.density
        lower = b_face / h / measures[1:]
        upper = b_face / h / measures[:-1]
        diag = np.zeros(n)
        diag[0] = -b_face[0] / h / measures[0]
        diag[-1] = -b_face[-1] / h / measures[-1]
        diag[1:-1] = -(b_face[:-1] + b_face[1:]) / h / measures[1:-1]
        return DiscreteOperator(
            kind="tridiagonal", bc=bc, n=n, weights=measures,
            symmetrizer=np.sqrt(measures), model_ref=model.label,
            lower=lower, diag=diag, upper=upper,
        )
    if isinstance(model, ConvexPlaneBody):
        if bc != PERIODIC:
            raise ValueError("a closed curve takes periodic conditions only")
        m = model.m
        if m < 8:
            raise ValueError("operator assembly requires at least 8 samples")
        inv_r = 1.0 / model.curvature_radius
        d1 = fourier_diff_matrix(m)
        dense = d1 @ (d1 * inv_r[:, None])
        dense *= inv_r[:, None]
        weights = model.boundary_weight() * model.d_angle
        return DiscreteOperator(
            kind="periodic", bc=PERIODIC, n=m, weights=weights,
            symmetrizer=np.sqrt(weights), model_ref=model.label, dense=dense,
        )
    if isinstance(model, RevolutionBody3D):
        ops = _revolution_mode_operators(model, m_max=0)
        return ops[0]
    raise TypeError(f"cannot assemble a Laplacian for {type(model).__name__}")


def _revolution_mode_operators(body: RevolutionBody3D, m_max: int):
    """Sturm-Liouville operators of the boundary Laplacian per azimuthal mode.

    Unknowns sit at the cell centers of the profile grid (never at the
    poles); the face fluxes r vanish at the poles, which is the natural
    regularity condition.
    """
    h = body.h
    n = body.n_cells
    flux = body.r                                # at faces; zero at poles
    r_center = 0.5 * (body.r[:-1] + body.r[1:])
    w_center = h * 0.5 * (flux[:-1] + flux[1:])  # cell measure density wrt ds
    ops = []
    for mode in range(m_max + 1):
        lower = flux[1:-1] / h / w_center[1:]
        upper = flux[1:-1] / h / w_center[:-1]
        diag = -(flux[:-1] + flux[1:]) / h / w_center
        if mode > 0:
            diag = diag - (mode * mode) / r_center**2
        ops.append(DiscreteOperator(
            kind="tridiagonal", bc=NEUMANN, n=n,
            weights=2.0 * math.pi * w_center,
            symmetrizer=np.sqrt(2.0 * math.pi * w_center),
            model_ref=f"{body.label}/mode{mode}",
            lower=lower, diag=diag, upper=upper,
        ))
    return ops


def _check_count(op: DiscreteOperator, count: int, spare: int = 0) -> None:
    """Reject a count outside 1..(solved size - spare)."""
    size = (op.n - 2 if op.bc == DIRICHLET else op.n) - spare
    if not 1 <= count <= size:
        raise ValueError(f"count must lie in 1..{size}, got {count!r}")


def _eigh(op: DiscreteOperator, last: int, vectors: bool = False):
    """Eigenvalues 0..last of -S, S the symmetric form of L (Dirichlet:
    interior nodes only), ascending; with `vectors`, also the eigenvectors
    of -S as columns: scipy 1.17's eigh(subset_by_index=...) and
    eigh_tridiagonal(select="i"), call for call."""
    from ._lapack import _finite, flapack
    if op.kind == "periodic":
        # the deflated alternating mode sits at the top of -S, never
        # inside the leading subset
        s = op.deflated_symmetric()          # a fresh matrix of ours
        np.negative(s, out=s)
        _finite(s)
        lwork, liwork, _ = flapack.dsyevr_lwork(op.n, lower=1)
        w, v, m, _, info = flapack.dsyevr(
            s, compute_v=int(vectors), range="I", lower=1, il=1, iu=last + 1,
            lwork=int(lwork), liwork=int(liwork))
        w, v = w[:m], v[:, :m]
    else:
        d, e = op.symmetric_form()
        if op.bc == DIRICHLET:
            d, e = d[1:-1], e[1:-1]
        d, e = -d, -e
        _finite(d, e)
        m, w, iblock, isplit, info = flapack.dstebz(
            d, e, 2, 0.0, 1.0, 1, last + 1, 0.0, "B" if vectors else "E")
        w = w[:m]
        if vectors and not info:
            v, info = flapack.dstein(d, e, w, iblock, isplit)
            order = np.argsort(w, kind="stable")     # block to matrix order
            w, v = w[order], v[:, order]
    if info:  # pragma: no cover - grid pathology
        raise ConvergenceFailure(f"eigensolve failed on {op.model_ref}")
    return (w, v) if vectors else w


def spectral_gap(op: DiscreteOperator):
    """Smallest positive eigenvalue of -L and its eigenvector.

    Neumann and periodic operators have an exact zero mode (constants);
    the gap is the next eigenvalue.  Dirichlet operators restrict to the
    interior nodes first.  Only the eigenpairs 0 and 1 are computed.
    The eigenvector is normalized in the weighted norm and returned on
    the full grid.
    """
    _check_count(op, 1, spare=1)
    vals, vecs = _eigh(op, 1, vectors=True)
    idx = 0 if op.bc == DIRICHLET else 1
    lam = float(vals[idx])
    phi = vecs[:, idx]
    if op.bc == DIRICHLET:
        full = np.zeros(op.n)
        full[1:-1] = phi / op.symmetrizer[1:-1]
    else:
        full = phi / op.symmetrizer
    norm = math.sqrt(float(np.dot(op.weights * full, full)))
    return lam, full / norm


def eigenvalues(op: DiscreteOperator, count: int) -> np.ndarray:
    """Leading eigenvalues of -L (ascending), including any zero mode."""
    _check_count(op, count)
    return _eigh(op, count - 1)


def solve_poisson(op: DiscreteOperator, f: np.ndarray, bc_data=None):
    """Solve L u = f under the operator's boundary condition.

    Dirichlet: bc_data = (u(a), u(b)).  Neumann/periodic: homogeneous flux;
    f is projected onto the compatible subspace (zero weighted mean) and
    the projection magnitude recorded.  Returns (u, info) where info holds
    'residual' (max |Lu - f| over solved rows), the scale-free
    'backward_error' = residual / (|L| |u| + |f|), and 'projection'.

    Raises SingularSystem when the compatibility defect exceeds 1e-6
    relative, which signals a caller bug rather than roundoff.
    """
    from ._lapack import _finite, _gtsv
    f = np.asarray(f, dtype=float)
    if f.shape != (op.n,):
        raise ValueError("f must match the operator's grid")
    info = {"projection": 0.0}
    if op.bc == DIRICHLET:
        ua, ub = (0.0, 0.0) if bc_data is None else bc_data
        rhs = f[1:-1].copy()
        rhs[0] -= op.lower[0] * ua
        rhs[-1] -= op.upper[-1] * ub
        inner = _gtsv(op.lower[1:-1], op.diag[1:-1], op.upper[1:-1], rhs)
        u = np.concatenate([[ua], inner, [ub]])
        resid = float(np.max(np.abs(op.apply(u)[1:-1] - f[1:-1])))
        info["residual"] = resid
        info["backward_error"] = resid / _system_scale(op, u, f)
        return u, info
    # Neumann / periodic: singular system, null space = constants
    mass = float(np.sum(op.weights))
    defect = float(np.dot(op.weights, f))
    scale = float(np.max(np.abs(f))) if np.max(np.abs(f)) > 0 else 1.0
    if abs(defect) / (mass * scale) > 1e-6:
        raise SingularSystem(
            f"compatibility defect {defect:.3e} exceeds tolerance; "
            "Neumann data must integrate to zero against the measure"
        )
    fproj = f - defect / mass
    info["projection"] = abs(defect)
    if op.kind == "periodic":
        # kernel holds constants plus (even m) the alternating mode; the
        # minimal-norm least-squares solution zeroes both components;
        # lstsq does not refuse a NaN, and LAPACK prints to fd 1 on one
        _finite(op.dense, fproj)
        u, *_ = np.linalg.lstsq(op.dense, fproj, rcond=None)
    else:
        # pin the first unknown to lift the constant null space
        diag, upper, rhs = op.diag.copy(), op.upper.copy(), fproj.copy()
        diag[0], upper[0], rhs[0] = 1.0, 0.0, 0.0
        u = _gtsv(op.lower, diag, upper, rhs)
    u = u - float(np.dot(op.weights, u)) / mass
    resid = op.apply(u) - fproj
    if op.kind == "periodic":
        info["residual"] = float(np.max(np.abs(resid)))
    else:
        info["residual"] = float(np.max(np.abs(resid[1:])))
    info["backward_error"] = info["residual"] / _system_scale(op, u, fproj)
    return u, info


def _system_scale(op: DiscreteOperator, u: np.ndarray, f: np.ndarray) -> float:
    if op.kind == "periodic":
        opnorm = float(np.max(np.abs(op.dense)))
    else:
        opnorm = float(np.max(np.abs(op.diag)))
    return opnorm * float(np.max(np.abs(u))) + float(np.max(np.abs(f))) + 1e-300


def weighted_integral(samples: np.ndarray, domain) -> float:
    """Integral of samples against the weighted measure of the domain.

    Composite Simpson for interval and radial domains; full-period
    trapezoid (spectrally accurate) for closed curves; arclength Simpson
    for revolution boundaries.
    """
    samples = np.asarray(samples, dtype=float)
    if isinstance(domain, IntervalModel):
        if samples.shape != (domain.n_pts,):
            raise ValueError("sample length must match the grid")
        return simpson_uniform(samples * domain.density, domain.h)
    if isinstance(domain, RadialBall):
        if samples.shape != (domain.n_pts,):
            raise ValueError("sample length must match the grid")
        return simpson_uniform(samples * domain.volume_element(), domain.h)
    if isinstance(domain, ConvexPlaneBody):
        if samples.shape != (domain.m,):
            raise ValueError("sample length must match the angle grid")
        return periodic_trapezoid(samples * domain.boundary_weight(),
                                  domain.d_angle)
    if isinstance(domain, RevolutionBody3D):
        if samples.shape != domain.s.shape:
            raise ValueError("sample length must match the profile grid")
        return simpson_uniform(samples * domain.boundary_weight(), domain.h)
    raise TypeError(f"no quadrature rule for {type(domain).__name__}")


@dataclass(frozen=True)
class BoundaryGeometry:
    """Per-sample extrinsic data of a boundary hypersurface.

    For curves II is the scalar curvature; for revolution surfaces the
    two principal curvatures are kept separately and II reports their
    minimum.  Convex bodies carry no potential, so on them H_mu = H_g; a
    radial ball's H_mu includes its potential's normal derivative.
    """

    II: np.ndarray
    H_g: np.ndarray
    H_mu: np.ndarray
    kappa1: Optional[np.ndarray] = None
    kappa2: Optional[np.ndarray] = None

    @property
    def sigma(self) -> float:
        """Uniform lower bound of II actually achieved on the samples."""
        return float(np.min(self.II))

    @property
    def xi(self) -> float:
        """Uniform lower bound of H_mu achieved on the samples."""
        return float(np.min(self.H_mu))


def boundary_geometry(body) -> BoundaryGeometry:
    """Extract II, H_g and H_mu (and the principal curvatures) of a body."""
    if isinstance(body, ConvexPlaneBody):
        curv = 1.0 / body.curvature_radius
        return BoundaryGeometry(II=curv, H_g=curv.copy(), H_mu=curv.copy())
    if isinstance(body, RevolutionBody3D):
        k1, k2 = body.principal_curvatures()
        hg = k1 + k2
        return BoundaryGeometry(II=np.minimum(k1, k2), H_g=hg, H_mu=hg.copy(),
                                kappa1=k1, kappa2=k2)
    if isinstance(body, RadialBall):
        n, rr = body.n_ambient, body.r_outer
        return BoundaryGeometry(II=np.array([1.0 / rr]),
                                H_g=np.array([(n - 1) / rr]),
                                H_mu=np.array([body.boundary_h_mu()]))
    raise TypeError(f"no boundary geometry for {type(body).__name__}")


def boundary_gap_revolution(body: RevolutionBody3D):
    """Spectral gap of the boundary weighted Laplacian of a revolution body.

    Fourier decomposition in the rotation angle reduces the surface
    eigenproblem to 1-D Sturm-Liouville problems over the profile; the
    gap is the minimum over the azimuthal modes 0..AZIMUTHAL_MODES,
    excluding the constant mode of the axisymmetric block.  Returns
    (lambda_1, mode).
    """
    ops = _revolution_mode_operators(body, AZIMUTHAL_MODES)
    best = math.inf
    best_mode = -1
    for mode, op in enumerate(ops):
        lam = float(_eigh(op, 1 if mode == 0 else 0)[-1])
        if lam < best:
            best, best_mode = lam, mode
    return best, best_mode
