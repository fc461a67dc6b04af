"""Geometric evolutions with concavity and isoperimetric monitoring.

The Parallel Normal Flow moves each Lagrangian marker with velocity
phi * nu + II^{-1} grad_Sigma(phi), where the speed phi is fixed per
trajectory for all time.  Normals then stay parallel along trajectories,
and in the plane the flow reproduces support-function Minkowski
summation, which provides an independent oracle.  Every flow, the
parallel normal flow in the plane and on the sphere and the Weingarten
wave, runs through one integrator: the classical 4-stage explicit scheme
with a fixed step (determinism over adaptivity).  Marker geometry comes
from the polyline with 4th-order periodic differences and is evaluated
once per state, so an accepted step's geometry is the next step's first
stage.  The wave's geometry pads (x, y, phi) once for all their
derivatives, so its right-hand side pads only the flux.

The plane kernels read and write one coordinate at a time.  On the
(m, B, 2) and (m, B, 3) batches, a numpy op over a 2- or 3-long trailing
axis, or one that broadcasts across it, costs several times a contiguous
op: at m = 128 and B = 3, on a 2-core x86 box, 4.7 us for one op on the
wave's z[..., :2] view against 1.0 us on a contiguous array.  So nu is
divided out of the tangent straight into its columns, the unit tangent
tau = (-nu_y, nu_x) is never formed, and each right-hand side writes its
velocity columns in place.  The sphere flow's state is coordinate-major
instead, (3, m): each coordinate is a contiguous row, an (m,) vector
broadcasts along the last axis, and dot products sum in np.einsum's
order, (a0 b0 + a2 b2) + a1 b1, which keeps the bits of the (m, 3) forms.
The integrator clears a candidate with two whole-batch reductions,
isfinite and the minimum curvature (2.4 and 1.3 us, against 13 and 6.4
us per member), and judges members one by one only when either fails.

Flow breakdown (non-finite state, curvature floor, self-intersection,
loss of positive measure) is a reported outcome: the run returns its
partial history with alive = False and never raises or warns for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bodies import (ConvexPlaneBody, RevolutionBody3D, SphereCap,
                     build_plane_body, plane_body_from_samples)
from .checks import CheckReport, from_inequality, inequality_tolerance
from .dimension import InverseDimension
from .errors import CapOverflow, ConvexityViolation
from .numerics import (_periodic_diff12, periodic_diff1, periodic_diff12,
                       spectral_diff)
from .operators import boundary_geometry, weighted_integral
from .trig import TrigPolynomial

KAPPA_FLOOR = 1e-4
# every flow evolves a region of R^2 or of the round S^2, so its concavity
# is checked at N = n = 2, the strongest exponent 1/N that holds
FLOW_THETA = InverseDimension(0.5, n_ambient=2)


@dataclass(frozen=True)
class FlowState:
    """Snapshot of one Lagrangian evolution step."""

    t: float
    points: np.ndarray          # (m, 2) plane or (m, 3) sphere
    phi: np.ndarray
    normals: np.ndarray
    kappa: np.ndarray
    alive: bool = True


@dataclass(frozen=True)
class ConcavitySeries:
    """Masses mu(Omega_t) on a uniform time grid with transform N mu^(1/N)."""

    times: np.ndarray
    masses: np.ndarray
    theta: InverseDimension

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        m = np.asarray(self.masses, dtype=float)
        if t.size != m.size or t.size < 2:
            raise ValueError("series needs matching times and masses")
        dt = np.diff(t)
        if np.max(np.abs(dt - dt[0])) > 1e-9 * max(abs(dt[0]), 1e-30):
            raise ValueError("series requires uniform time spacing")
        if np.any(m <= 0.0):
            raise ValueError("masses must be positive")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "masses", m)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def transformed(self) -> np.ndarray:
        return np.array([self.theta.transform_mass(v) for v in self.masses])


@dataclass
class FlowResult:
    """Full outcome of one flow run.

    series is None only when the flow died before completing one step.
    """

    states: list
    series: Optional[ConcavitySeries]
    alive: bool
    death_reason: Optional[str] = None
    normal_drift: float = 0.0
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# support-function operations


def minkowski_sum_support(K: ConvexPlaneBody, L: ConvexPlaneBody,
                          t: float) -> ConvexPlaneBody:
    """Body with support h_K + t h_L (exact when both carry coefficients)."""
    if t < 0.0:
        raise ValueError("Minkowski scaling requires t >= 0")
    if K.support is not None and L.support is not None:
        poly = K.support + L.support.scaled(t)
        return build_plane_body(poly, m=max(K.m, L.m),
                                label=f"{K.label}+{t:g}*{L.label}")
    if K.m != L.m:
        raise ValueError("sampled bodies must share the angle grid")
    return plane_body_from_samples(K.h + t * L.h,
                                   label=f"{K.label}+{t:g}*{L.label}")


def mixed_area(K: ConvexPlaneBody, L: ConvexPlaneBody) -> float:
    """W(K, L) = (1/2) int h_K (h_L + h_L'') dtheta (symmetric in K, L)."""
    if K.m != L.m:
        raise ValueError("bodies must share the angle grid")
    return 0.5 * float(np.sum(K.h * L.curvature_radius)) * K.d_angle


def geodesic_extension_measure(domain, t: float) -> float:
    """Enclosed measure of the t-neighborhood K_t."""
    if isinstance(domain, ConvexPlaneBody):
        if t < 0.0:
            raise ValueError("geodesic extension requires t >= 0")
        radius = domain.curvature_radius + t
        return 0.5 * float(np.sum((domain.h + t) * radius)) * domain.d_angle
    if isinstance(domain, SphereCap):
        if domain.r_cap + t >= math.pi:
            raise CapOverflow(
                f"cap of radius {domain.r_cap:g} extended by {t:g} reaches "
                "the antipode"
            )
        return domain.area(extra=t)
    raise TypeError(type(domain).__name__)


def quermassintegrals(body, theta: InverseDimension) -> CheckReport:
    """Alexandrov check of a strictly convex body's boundary variations.

    delta0 = mu(K), delta1 = mu(boundary K) and delta2 = int H_mu dmu are
    the record's params.  The inequality is checked in raw first-variation
    form delta1^2 >= N/(N-1) delta0 delta2, which at N = n = 2 is exactly
    the planar isoperimetric inequality P^2 >= 4 pi A.
    """
    geom = boundary_geometry(body)
    if isinstance(body, ConvexPlaneBody):
        d1 = body.perimeter()
    elif isinstance(body, RevolutionBody3D):
        d1 = body.surface_area()
    else:
        raise TypeError(type(body).__name__)
    d0 = body.mass()
    d2 = weighted_integral(geom.H_mu, body)
    lhs = theta.n_over_n_minus_1 * d0 * d2
    rhs = d1 * d1
    tol = 1e-9 * max(1.0, abs(lhs), abs(rhs))
    return from_inequality(
        "alexandrov-triple", lhs=lhs, rhs=rhs, tolerance=tol,
        params={"body": getattr(body, "label", "body"), "theta": theta.theta,
                "delta0": d0, "delta1": d1, "delta2": d2},
    )


# ---------------------------------------------------------------------------
# plane marker curves


def _plane_geometry(points: np.ndarray, hy: float):
    """(speed, py, nu, kappa) of (m, 2) markers or an (m, B, 2) batch."""
    return _plane_frame(*periodic_diff12(points, hy))


def _plane_frame(py: np.ndarray, pyy: np.ndarray):
    """(speed, py, nu, kappa) from the derivatives py = dF/dy = speed tau and
    pyy; tau = (-nu_y, nu_x) exactly, since negation is exact."""
    speed = np.hypot(py[..., 0], py[..., 1])
    nu = np.empty_like(py)                           # outward for CCW curves
    np.divide(py[..., 1], speed, out=nu[..., 0])
    np.divide(py[..., 0], speed, out=nu[..., 1])
    np.negative(nu[..., 1], out=nu[..., 1])
    kappa = (py[..., 0] * pyy[..., 1] - py[..., 1] * pyy[..., 0]) / speed**3
    return speed, py, nu, kappa


def polyline_area(points: np.ndarray, hy: float):
    """Enclosed area of a smooth closed marker curve.

    Shoelace form with FFT differentiation: spectrally accurate for the
    analytic curves the flows produce, matching the full-period trapezoid
    convention of the closed-curve quadrature.  An (m, B, 2) batch gives
    one area per member.
    """
    dp = spectral_diff(points, 1)
    cross = points[..., 0] * dp[..., 1] - points[..., 1] * dp[..., 0]
    if cross.ndim == 1:
        return 0.5 * float(cross.sum()) * hy
    # pairwise summation runs only along a contiguous inner axis, so each
    # member is summed as a contiguous row to keep the bits of its solo run
    return 0.5 * cross.T.copy().sum(axis=1) * hy


def self_intersects(points: np.ndarray) -> bool:
    """Whether two non-adjacent segments of the closed polyline cross.

    An O(m) certificate comes first: when every exterior turn is positive
    and the turns sum to less than 3 pi (so to exactly 2 pi, turning
    number one), the polygon is convex and simple.  Anything else goes to
    the O(m^2) proper-crossing sweep.
    """
    e = np.roll(points, -1, axis=0) - points
    f = np.roll(e, -1, axis=0)
    turns = np.arctan2(e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0],
                       e[:, 0] * f[:, 0] + e[:, 1] * f[:, 1])
    if np.all(turns > 0.0) and np.sum(turns) < 3.0 * math.pi:
        return False
    return _crossing_sweep(points)


# Segment pairs the crossing sweep tests at once: its temporaries peak near
# nine float64 arrays of this size (9 MB), whatever m is.
_SWEEP_PAIRS = 1 << 17


def _crossing_sweep(points: np.ndarray) -> bool:
    """Proper-crossing sweep over all non-adjacent polyline segment pairs,
    in blocks of rows of about _SWEEP_PAIRS pairs each."""
    m = points.shape[0]
    a = points
    b = np.roll(points, -1, axis=0)
    cx, cy = a[:, 0][None, :], a[:, 1][None, :]
    dx, dy = b[:, 0][None, :], b[:, 1][None, :]
    idx = np.arange(m)
    rows = max(1, _SWEEP_PAIRS // m)
    for lo in range(0, m, rows):
        block = slice(lo, lo + rows)
        ax, ay = a[block, 0][:, None], a[block, 1][:, None]
        bx, by = b[block, 0][:, None], b[block, 1][:, None]
        d1 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        d2 = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
        d3 = (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx)
        d4 = (dx - cx) * (by - cy) - (dy - cy) * (bx - cx)
        hit = (d1 * d2 < 0.0) & (d3 * d4 < 0.0)
        gap = np.abs(idx[block, None] - idx[None, :])
        adjacent = (gap <= 1) | (gap >= m - 1)
        if np.any(hit & ~adjacent):
            return True
    return False


def _phi_samples(body_angles: np.ndarray, phi) -> np.ndarray:
    if isinstance(phi, TrigPolynomial):
        return phi(body_angles)
    arr = np.asarray(phi, dtype=float)
    if arr.ndim == 0:
        return np.full(body_angles.size, float(arr))
    return arr


# ---------------------------------------------------------------------------
# sphere curves


@dataclass(frozen=True)
class SphereCurve:
    """Closed marker curve on the unit 2-sphere (m, 3), oriented so the
    conormal tau x X points away from the enclosed cap-like region."""

    points: np.ndarray
    label: str = "sphere-curve"

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=float)
        norms = np.linalg.norm(pts, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-10:
            raise ValueError("sphere curve markers must lie on the unit sphere")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.shape[0]


def latitude_circle(polar_angle: float, m: int = 256) -> SphereCurve:
    """Boundary of the geodesic cap of radius polar_angle about the pole."""
    if not 0.0 < polar_angle < math.pi:
        raise ValueError("polar angle must lie in (0, pi)")
    y = np.arange(m) * (2.0 * math.pi / m)
    pts = np.stack([
        math.sin(polar_angle) * np.cos(y),
        math.sin(polar_angle) * np.sin(y),
        np.full(m, math.cos(polar_angle)),
    ], axis=1)
    return SphereCurve(points=pts, label=f"latitude({polar_angle:g})")


def _norm3(v: np.ndarray) -> np.ndarray:
    """Column norms of (3, m) v, bitwise as np.linalg.norm(v.T, axis=1)."""
    return np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column dot products of (3, m) arrays, bitwise as np.einsum("ij,ij->i")
    on their C-contiguous transposes, which sums (a0 b0 + a2 b2) + a1 b1."""
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


def _sphere_geometry(x: np.ndarray, hy: float):
    """(speed, tau, nu, kappa_g, xy) of (3, m) markers; speed, kappa_g (m,)."""
    xy, xyy = _periodic_diff12(x, hy, -1)
    speed = _norm3(xy)
    tau = xy / speed
    nu = np.empty_like(x)                  # tau x X as np.cross forms it
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(tau[j] * x[k], tau[k] * x[j], out=nu[i])
    xss = (xyy - periodic_diff1(speed, hy) * tau) / speed ** 2
    return speed, tau, nu, -_dot3(xss, nu), xy


def _parallel_transport(w: np.ndarray, x_from: np.ndarray,
                        x_to: np.ndarray) -> np.ndarray:
    dot = _dot3(x_from, x_to)
    wdot = _dot3(w, x_to)
    return w - wdot / (1.0 + dot) * (x_from + x_to)


def _sphere_areas(x: np.ndarray, g, hy: float):
    speed, _, _, kappa, xy = g
    gb = 2.0 * math.pi - float((kappa * speed).sum()) * hy
    # d(phi_azimuthal)/dy from cartesian derivatives avoids branch cuts
    denom = x[0] ** 2 + x[1] ** 2
    dphi = (x[0] * xy[1] - x[1] * xy[0]) / denom
    band = float(((1.0 - x[2]) * dphi).sum()) * hy
    return gb, band


def _renorm(x: np.ndarray) -> np.ndarray:
    return x / _norm3(x)


# ---------------------------------------------------------------------------
# the fixed-step integrator shared by every flow


# a breakdown is an outcome the integrator reports, not a warning
@np.errstate(all="ignore")
def _rk4_flow(y, g, geometry, rhs, view, mass, phi0, t_end, dt,
              snapshot_every, project=lambda z: z, reject=None,
              watch=None, aux=()):
    """Integrate dy/dt = rhs(y, g, *aux) with classical fixed-step RK4.

    y is one member's state, (m, k) or the sphere's coordinate-major
    (3, m), or a batch (m, B, k) of members that share m, dt and the step
    count; aux holds per-member constants, members on axis 1 in a batch.
    g = geometry(y) starts with (speed, tangent, nu, kappa) and is evaluated
    once per state: a candidate's geometry decides its acceptance, then
    serves as the next step's first stage.  view(y, g, *aux) gives a
    snapshot's (points, phi, normals) with markers on axis 0, as are
    kappa and phi0, the initial speed; mass(y, g) is the series measure.
    project maps stages back onto the constraint manifold, reject(k, y)
    may veto one member's step k and watch(y_prev, g_prev, y, g, ids)
    sees the accepted steps of the members ids.  A candidate with a
    non-finite entry ends the run as "nonfinite", and one whose mass is
    not finite and positive as "measure-loss".
    For a batch, mass answers per member and every check acts per member:
    a member that breaks down gets its death snapshot at its last accepted
    time and leaves the batch by column selection, with its aux, so the
    others keep the arithmetic, and the bits, of their solo runs.
    Returns one (FlowResult (diagnostics m, dt), last state) per member.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if snapshot_every < 1:
        raise ValueError(f"snapshot_every must be at least 1, got "
                         f"{snapshot_every!r}")
    batched = y.ndim == 3
    col = (lambda a, c: a[:, c]) if batched else (lambda a, c: a)
    each = (lambda v: v) if batched else (lambda v: (v,))  # per-member values
    marker_axes = (0, 2) if batched else None
    pick = lambda a, cols: (a[:, cols] if isinstance(a, np.ndarray)
                            else tuple(b[:, cols] for b in a))
    ids = list(range(y.shape[1] if batched else 1))  # member per column
    states = [[] for _ in ids]
    reasons, last = [None] * len(ids), [None] * len(ids)

    def snapshot(t, cols, phi=None, alive=True):
        points, phi_now, normals = view(y, g, *aux)
        phi = phi_now if phi is None else phi
        for c in cols:       # C-contiguous copies, whatever the views' order
            states[ids[c]].append(FlowState(
                t, col(points, c).copy(), col(phi, c).copy(),
                col(normals, c).copy(), col(g[3], c).copy(), alive=alive))

    steps = int(round(t_end / dt))
    snapshot(0.0, range(len(ids)), phi=phi0)
    times = [0.0]
    masses = [[value] for value in each(mass(y, g))]
    for k in range(steps):
        k1 = rhs(y, g, *aux)
        stage = project(y + 0.5 * dt * k1)
        k2 = rhs(stage, geometry(stage), *aux)
        stage = project(y + 0.5 * dt * k2)
        k3 = rhs(stage, geometry(stage), *aux)
        stage = project(y + dt * k3)
        k4 = rhs(stage, geometry(stage), *aux)
        candidate = project(y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        g_next = geometry(candidate)
        # two whole-batch reductions clear every member at once; a batch
        # that fails either is judged member by member
        if np.isfinite(candidate).all() and g_next[3].min() > KAPPA_FLOOR:
            why = [None] * len(ids)
        else:
            finite = each(np.isfinite(candidate).all(axis=marker_axes))
            floor = each(g_next[3].min(axis=0) <= KAPPA_FLOOR)
            why = ["nonfinite" if not ok else "curvature-floor" if low
                   else None for ok, low in zip(finite, floor)]
        if reject is not None:
            why = [w or ("self-intersection" if reject(k, col(candidate, c))
                         else None) for c, w in enumerate(why)]
        ok = [c for c, w in enumerate(why) if w is None]
        values = (mass(candidate, g_next) if len(ok) == len(ids) else
                  mass(candidate[:, ok], pick(g_next, ok)) if ok else [])
        for c, value in zip(ok, each(values)):
            if math.isfinite(value) and value > 0.0:
                masses[ids[c]].append(value)
            else:
                why[c] = "measure-loss"
        live = [c for c, w in enumerate(why) if w is None]
        if len(live) < len(ids):
            dead = [c for c, w in enumerate(why) if w is not None]
            snapshot(times[-1], dead, alive=False)
            for c in dead:
                reasons[ids[c]], last[ids[c]] = why[c], col(y, c).copy()
            if not live:
                break
            y, candidate, g, g_next, aux = (
                pick(a, live) for a in (y, candidate, g, g_next, aux))
            ids = [ids[c] for c in live]
        if watch is not None:
            watch(y, g, candidate, g_next, ids)
        y, g = candidate, g_next
        times.append((k + 1) * dt)
        if (k + 1) % snapshot_every == 0 or k == steps - 1:
            snapshot(times[-1], range(len(ids)))
    for c, member in enumerate(ids):
        if reasons[member] is None:
            last[member] = col(y, c).copy()
    return [(FlowResult(
        states=states[member],
        series=(ConcavitySeries(np.array(times[:len(masses[member])]),
                                np.array(masses[member]), FLOW_THETA)
                if len(masses[member]) > 1 else None),
        alive=reasons[member] is None, death_reason=reasons[member],
        diagnostics={"m": len(phi0), "dt": dt}), last[member])
        for member in range(len(states))]


# ---------------------------------------------------------------------------
# parallel normal flow


def parallel_normal_flow(initial, phi, t_end: float, dt: float,
                         snapshot_every: int = 10,
                         intersect_every: int = 25) -> FlowResult:
    """Run the parallel normal flow from a plane body or a sphere curve.

    phi is fixed per trajectory for all time (the flow's defining
    property).  Returns states (subsampled snapshots plus the endpoint),
    a ConcavitySeries of enclosed measure at every accepted step, the
    accumulated normal drift, and the death record if the curvature floor,
    a self-intersection or the loss of positive enclosed measure ended
    the run early.
    """
    if not isinstance(initial, (ConvexPlaneBody, SphereCurve)):
        raise TypeError(type(initial).__name__)
    return _pnf_runs([(initial, phi)], t_end, dt, snapshot_every,
                     intersect_every)[0]


def parallel_normal_flows(members, t_end: float, dt: float,
                          snapshot_every: int = 10) -> list[FlowResult]:
    """parallel_normal_flow of each (plane body, phi) pair, integrated as
    one batch of bodies that share m.  Each result has the bytes of the
    member's own run: a member that dies leaves the batch, and the others
    go on."""
    members = list(members)
    if (not members or len({body.m for body, _ in members}) != 1 or not
            all(isinstance(body, ConvexPlaneBody) for body, _ in members)):
        raise ValueError("batched flows need at least one plane body, and "
                         "the bodies must share m")
    return _pnf_runs(members, t_end, dt, snapshot_every, 25)


def _pnf_runs(members, t_end, dt, snapshot_every, intersect_every):
    """Parallel normal flows of plane bodies sharing m, or of one sphere."""
    on_sphere = isinstance(members[0][0], SphereCurve)
    hy = 2.0 * math.pi / members[0][0].m
    starts = [(body.points.T.copy(), _phi_samples(np.arange(body.m) * hy, phi))
              if on_sphere else (body.points(), _phi_samples(body.angles, phi))
              for body, phi in members]
    if on_sphere:            # a (3, m) state, viewed as (m, 3) by snapshots
        geometry = lambda x: _sphere_geometry(x, hy)
        project, reject = _renorm, None
        view = lambda x, g, phi_vals, _: (x.T, phi_vals, g[2].T)
        first = {"area_estimator_gap": 0.0}
    else:
        geometry = lambda x: _plane_geometry(x, hy)
        project = lambda x: x
        reject = lambda k, x: (intersect_every > 0 and (k + 1)
                               % intersect_every == 0 and self_intersects(x))
        view = lambda x, g, phi_vals, _: (x, phi_vals, g[2])
        first = {"steps_run": 0}
    y, phi_vals = (starts[0] if len(starts) == 1 else
                   (np.stack(a, axis=1) for a in zip(*starts)))
    g = geometry(y)
    if g[3].min() <= KAPPA_FLOOR:
        raise ConvexityViolation(f"initial {'sphere ' if on_sphere else ''}"
                                 "curve is not strictly convex")
    diagnostics = [{**first, "max_step_drift": 0.0} for _ in members]
    drift, areas = [0.0] * len(members), [None]

    def rhs(x, g, phi_vals, phi_y):
        speed, tau, nu, kappa = g[:4]
        along = phi_y / speed / kappa
        if on_sphere:        # with the tangent projection
            vel = phi_vals * nu + along * tau
            vel -= _dot3(vel, x) * x
            return vel
        vel = np.empty_like(nu)      # one column at a time, tau = (-nu_y, nu_x)
        np.subtract(phi_vals * nu[..., 0], along * nu[..., 1], out=vel[..., 0])
        np.add(phi_vals * nu[..., 1], along * nu[..., 0], out=vel[..., 1])
        return vel

    def mass(x, g):
        if not on_sphere:
            return polyline_area(x, hy)
        areas[0] = _sphere_areas(x, g, hy)   # watch reads the same areas
        return areas[0][0]

    def watch(x_prev, g_prev, x, g, ids):
        if on_sphere:
            gb, band = areas[0]
            diagnostics[0]["area_estimator_gap"] = max(
                diagnostics[0]["area_estimator_gap"], abs(gb - band))
            step = _norm3(
                g[2] - _parallel_transport(g_prev[2], x_prev, x)).max()
        else:
            moved = g[2] - g_prev[2]
            step = np.hypot(moved[..., 0], moved[..., 1]).max(axis=0)
        for member, step_drift in zip(ids, np.atleast_1d(step).tolist()):
            record = diagnostics[member]
            if not on_sphere:
                record["steps_run"] += 1
            drift[member] += step_drift
            record["max_step_drift"] = max(record["max_step_drift"],
                                           step_drift)

    runs = _rk4_flow(
        y, g, geometry, rhs, view, mass, phi_vals, t_end, dt, snapshot_every,
        project=project, reject=reject, watch=watch,
        aux=(phi_vals, periodic_diff1(phi_vals, hy)))
    for (result, _), record, member_drift in zip(runs, diagnostics, drift):
        result.normal_drift = member_drift
        result.diagnostics.update(record)
    return [result for result, _ in runs]


# ---------------------------------------------------------------------------
# Weingarten curvature wave


def _wave_geometry(z: np.ndarray, hy: float):
    """_plane_geometry of the markers z[..., :2] plus (phi, phi_y), where
    phi = exp(z[..., 2]), from one pad of (x, y, phi)."""
    phi = np.exp(z[..., 2])   # a contiguous output: exp's loop as before
    w = z.copy()
    w[..., 2] = phi
    d1, d2 = periodic_diff12(w, hy)
    return (*_plane_frame(d1[..., :2], d2[..., :2]), phi, d1[..., 2])


def _wave_rhs(z: np.ndarray, g, hy: float) -> np.ndarray:
    speed, _, nu, kappa, phi, phi_y = g
    flux = phi_y / speed / kappa
    dz = np.empty_like(z)
    np.multiply(phi, nu[..., 0], out=dz[..., 0])
    np.multiply(phi, nu[..., 1], out=dz[..., 1])
    np.divide(periodic_diff1(flux, hy), speed, out=dz[..., 2])
    return dz


def weingarten_wave(body: ConvexPlaneBody, phi0, t_end: float, dt: float,
                    snapshot_every: int = 50) -> FlowResult:
    """Coupled wave: dF/dt = phi nu, d(log phi)/dt = L_(Sigma, II, mu) phi.

    On a plane curve with zero potential the Weingarten-metric Laplacian
    is realized in arclength as (kappa^{-1} phi_s)_s.  The speed is
    integrated in logarithmic form, which keeps phi positive; death by
    curvature floor or non-finite state is reported, not raised.
    Stability of the explicit stepping requires dt of order (arclength
    spacing)^2.
    """
    return weingarten_waves([(body, phi0)], t_end, dt, snapshot_every)[0]


def weingarten_waves(members, t_end: float, dt: float,
                     snapshot_every: int = 50) -> list[FlowResult]:
    """weingarten_wave of each (body, phi0) pair, integrated as one batch.

    The bodies must share m.  Each result has the bytes of the member's
    own weingarten_wave run: a member that dies keeps its death record
    and leaves the batch, and the others go on.
    """
    members = list(members)
    if not members or len({body.m for body, _ in members}) != 1:
        raise ValueError("batched waves need at least one body, and the "
                         "bodies must share m")
    starts = []
    for body, phi0 in members:
        phi_vals = _phi_samples(body.angles, phi0)
        if np.min(phi_vals) <= 0.0:
            raise ValueError("initial speed must be positive")
        starts.append((np.column_stack([body.points(), np.log(phi_vals)]),
                       phi_vals))                            # F, log phi
    # one member runs on 2-D arrays, a batch on (m, B, 3) ones
    y, phi_vals = (starts[0] if len(starts) == 1 else
                   (np.stack(a, axis=1) for a in zip(*starts)))
    hy = members[0][0].d_angle
    geometry = lambda z: _wave_geometry(z, hy)
    runs = _rk4_flow(
        y, geometry(y), geometry, lambda z, g: _wave_rhs(z, g, hy),
        lambda z, g: (z[..., :2], g[4], g[2]),
        lambda z, g: polyline_area(z[..., :2], hy), phi_vals, t_end, dt,
        snapshot_every)
    for result, last in runs:
        result.diagnostics["min_phi"] = float(np.exp(last[:, 2]).min())
    return [result for result, _ in runs]


# ---------------------------------------------------------------------------
# concavity and isoperimetry


def concavity_check(series: ConcavitySeries,
                    name: str = "concavity") -> CheckReport:
    """Max central second difference of the transformed series vs zero.

    The tolerance scales with dt^2, matching the magnitude of true second
    differences of a smooth function on the series grid.
    """
    g = series.transformed()
    if g.size < 3:
        raise ValueError("concavity check needs at least 3 samples")
    d2 = g[2:] - 2.0 * g[1:-1] + g[:-2]
    worst = float(np.max(d2))
    dt = series.dt
    tol = 1e-6 * dt * dt * max(1.0, float(np.max(np.abs(g))))
    return from_inequality(
        name, lhs=worst, rhs=0.0, tolerance=tol,
        params={"dt": dt, "steps": int(g.size - 1),
                "theta": series.theta.theta,
                "min_second_difference": float(np.min(d2))},
    )


def hausdorff_points(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric discrete Hausdorff distance between two marker sets."""
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def steiner_fit_residual(K: ConvexPlaneBody, L: ConvexPlaneBody) -> float:
    """Max deviation of area(K + tL) from its degree-2 fit over t = 0, 1/4,
    ..., 1."""
    ts = (0.0, 0.25, 0.5, 0.75, 1.0)
    areas = np.array([minkowski_sum_support(K, L, t).area() for t in ts])
    coeffs = np.polynomial.polynomial.polyfit(np.asarray(ts), areas, 2)
    fit = np.polynomial.polynomial.polyval(np.asarray(ts), coeffs)
    return float(np.max(np.abs(areas - fit)))


def isoperimetric_checks(K: ConvexPlaneBody, L: ConvexPlaneBody,
                         theta: InverseDimension):
    """Three assertions of the convex isoperimetric comparison.

    1. concavity of the transformed extension mass t -> N mu(K + tL)^(1/N);
    2. the anisotropic boundary measure mu+_L(K) dominates the secant
       bound over t = 0.1, 0.2, ..., 1 (and, at theta = 1/2, the
       homogeneous bound 2 sqrt(mu(K) mu(L)));
    3. the profile ratio I(v)^(N/(N-1))/v is non-increasing along the
       extension family.

    mu+_L(K) is a Richardson-extrapolated forward difference with
    h = 1e-3 * inradius; the extension masses come from the exact
    degree-2 expansion mu(K + tL) = A_K + 2 t W(K, L) + t^2 A_L.
    """
    if theta.is_zero_n:
        raise ValueError("isoperimetric comparison is undefined at N = 0")
    t_grid = np.linspace(0.1, 1.0, 10)
    a_k = K.area()
    a_l = L.area()
    w_kl = mixed_area(K, L)
    mass = lambda t: a_k + 2.0 * t * w_kl + t * t * a_l

    # 1: concavity along a uniform refinement of the grid
    ts = np.linspace(0.0, float(t_grid[-1]), 65)
    series = ConcavitySeries(ts, np.array([mass(t) for t in ts]), theta)
    c1 = concavity_check(series, name="isoperimetric-concavity")

    # 2: boundary measure vs secant and homogeneous bounds
    h = 1e-3 * float(np.min(K.h))
    d_h = (mass(h) - a_k) / h
    d_2h = (mass(2.0 * h) - a_k) / (2.0 * h)
    mu_plus = 2.0 * d_h - d_2h
    t0 = theta.transform_mass(a_k)
    secants = np.array([
        (theta.transform_mass(mass(t)) - t0) / t for t in t_grid
    ])
    # mu+ >= mu(K)^((N-1)/N) * sup_t secant, with (N-1)/N = 1 - theta so
    # the theta = 0 limit (weight mu(K), log transform) is exact
    bound = float(np.max(secants)) * a_k ** (1.0 - theta.theta)
    tol = inequality_tolerance(scale=max(1.0, mu_plus))
    c2 = from_inequality(
        "isoperimetric-boundary-measure", lhs=bound, rhs=mu_plus,
        tolerance=tol,
        params={"K": K.label, "L": L.label, "h": h,
                "richardson_mu_plus": mu_plus},
    )
    checks = [c1, c2]
    if abs(theta.theta - 0.5) < 1e-14:
        hom = 2.0 * math.sqrt(a_k * a_l)
        checks.append(from_inequality(
            "isoperimetric-homogeneous-bound", lhs=hom, rhs=mu_plus,
            tolerance=tol, params={"K": K.label, "L": L.label},
        ))

    # 3: profile ratio monotone non-increasing
    ratios = []
    for t in t_grid:
        v = mass(t)
        vp = 2.0 * w_kl + 2.0 * t * a_l
        ratios.append(vp ** theta.n_over_n_minus_1 / v)
    ratios = np.array(ratios)
    increases = np.diff(ratios)
    worst = float(np.max(increases)) if increases.size else 0.0
    c3 = from_inequality(
        "isoperimetric-profile-monotone", lhs=worst, rhs=0.0,
        tolerance=1e-9 * max(1.0, float(np.max(np.abs(ratios)))),
        params={"K": K.label, "L": L.label,
                "ratio_first": float(ratios[0]), "ratio_last": float(ratios[-1])},
    )
    checks.append(c3)
    return checks


def cap_extension_series(cap: SphereCap, t_end: float,
                         dt: float) -> ConcavitySeries:
    """Analytic mass series of the geodesic cap extension."""
    if cap.r_cap + t_end >= math.pi:
        raise CapOverflow("extension reaches the antipode")
    steps = int(round(t_end / dt))
    times = np.arange(steps + 1) * dt
    masses = np.array([cap.area(extra=float(t)) for t in times])
    return ConcavitySeries(times, masses, FLOW_THETA)
