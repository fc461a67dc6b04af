"""Flat key = value configuration with bracketed sections.

The format is deliberately diff-friendly for regression fixtures:

    [suite]
    name = colesanti
    seed = 1234

    [sweep]
    check = sharpness
    param = beta_frac
    values = 0.9, 0.99, 0.999

Unknown sections or keys are rejected with the offending name; every
effective value, including defaults, is echoed into report output.
N values are spelled as plain numbers with `0` meaning theta = -inf and
`inf` meaning theta = 0.

Command-line flags arrive as text and share their file keys' parsers.
This module only parses and refuses: validation parses each value once
and returns what it parsed, `validate_sweep` one row per swept value (the
check's `suites` builder with that value in place of its reference one)
and `validate_flow` the zero-argument call that runs the flow.  Grid
sizes are bounded (`MAX_N_PTS`, `MAX_M`), so a mistyped size is refused
before anything is allocated.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Optional

from .bodies import ConvexPlaneBody, SphereCap
from .checks import CheckReport
from .dimension import InverseDimension, theta_from_config_n
from .errors import ConfigError, ConvergenceFailure, CurvatureNotPositive
from .flows import (FlowResult, latitude_circle, parallel_normal_flow,
                    weingarten_wave)
from .presets import body_from_spec
from .suites import SUITE_NAMES, flow_oracle, lichnerowicz, sharpness
from .trig import TrigPolynomial

WORKERS_ENV = "REILLY_LAB_WORKERS"

# Grid bounds.  Each keeps a mistyped value from allocating past memory and
# admits every grid in use (n_pts = 32001 in the benchmark's spectra
# sweep, a flow at m = 1024).
# An interval model holds a few n_pts-long arrays: a Lichnerowicz sweep at
# 10^6 points peaks near 135 MB.
MAX_N_PTS = 10**6
# A plane flow's state that is not certified convex goes to the O(m^2)
# crossing sweep (0.4 s at m = 4096, its temporaries blocked to about
# 9 MB), and the flow oracle's Hausdorff distance holds an (m, m, 2)
# float64 array (268 MB at m = 4096).  The bound holds for a flow's m, the
# sweep's m and the oracle's marker count locked to dt.
MAX_M = 4096

# A flow's first step moves a marker by up to dt * sum_k (1 + k) |a_k| for
# the speed phi = sum_k a_k cos(k t) (phi along the normal, phi' along the
# tangent).  The plane geometry cubes the marker speed |dF/dy|, a length,
# which overflows past (1.8e308)^(1/3) = 5.6e102; MAX_STEP leaves a margin
# below that for the body's size and the RK4 stages.
MAX_STEP = 1e100

_SCHEMA = {
    "suite": {"name", "seed", "workers", "tol_scale", "out"},
    "sweep": {"check", "param", "values", "rho", "N", "case", "n_pts",
              "beta_trunc", "m", "t_end"},
    "flow": {"kind", "body", "phi_coeffs", "t_end", "dt", "m",
             "snapshot_every"},
}


def parse_config_text(text: str) -> Dict[str, Dict[str, str]]:
    sections: Dict[str, Dict[str, str]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise ConfigError(f"unknown section [{current}] (line {lineno})")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value at line {lineno}: {raw!r}")
        if current is None:
            raise ConfigError(f"key outside any [section] at line {lineno}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA[current]:
            raise ConfigError(f"unknown key {key!r} in section [{current}]")
        sections[current][key] = value.strip()
    return sections


@dataclass
class SuiteConfig:
    """Effective configuration of one CLI invocation."""

    suite: str = "all"
    seed: int = 1234
    workers: int = 1
    tol_scale: float = 1.0
    out: Optional[str] = None
    sweep: Dict[str, str] = field(default_factory=dict)
    flow: Dict[str, str] = field(default_factory=dict)

    def echo(self) -> dict:
        """Every effective parameter, defaults included."""
        return {
            "suite": self.suite,
            "seed": self.seed,
            "workers": self.workers,
            "tol_scale": self.tol_scale,
            "out": self.out if self.out is not None else "",
            "sweep": dict(sorted(self.sweep.items())),
            "flow": dict(sorted(self.flow.items())),
        }


def _to_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from exc


def _to_float(value: str, key: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {value!r}") from exc


def _to_step(value: str, key: str) -> float:
    step = _to_float(value, key)
    if not (math.isfinite(step) and step > 0.0):
        raise ConfigError(f"{key} must be finite and positive, got {value!r}")
    return step


def _check_whole_steps(t_end: float, dt: float) -> None:
    """Flows run round(t_end / dt) steps: t_end must be reached exactly."""
    steps = t_end / dt
    if steps == math.inf:
        raise ConfigError(f"t_end = {t_end!r} spans infinitely many steps of "
                          f"dt = {dt!r}")
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ConfigError(f"t_end = {t_end!r} is not a whole number of steps "
                          f"of dt = {dt!r}; the nearest reachable t_end is "
                          f"{round(steps) * dt!r}")


def _to_n_pts(value: str, key: str) -> int:
    n_pts = _to_int(value, key)
    if n_pts < 16:
        raise ConfigError(f"n_pts must be at least 16, got {n_pts!r}")
    if n_pts > MAX_N_PTS:
        raise ConfigError(f"n_pts must be at most {MAX_N_PTS}, got {n_pts!r}")
    return n_pts


def _to_m(value: str) -> int:
    m = _to_int(value, "m")
    if m > MAX_M:
        raise ConfigError(f"m must be <= {MAX_M}, got {m}")
    return m


def _to_theta(value: str, key: str) -> InverseDimension:
    """The N of a Lichnerowicz row as theta = 1/N."""
    try:
        theta = theta_from_config_n(value)
    except ValueError as exc:
        raise ConfigError(f"bad {key} {value!r}: {exc}") from exc
    if theta.theta == 1.0:
        raise ConfigError("N = 1 leaves the Lichnerowicz factor rho/(N-1) "
                          "undefined")
    if theta.is_zero_n:
        raise ConfigError("N = 0 has no Lichnerowicz model density")
    return theta


def _refusing(inputs: str, builder: Callable[..., CheckReport],
              **row) -> CheckReport:
    """builder(**row), where the library's refusal of the row's inputs is
    a configuration error naming them, ``inputs.format(**row)``."""
    try:
        return builder(**row)
    except (ValueError, ConvergenceFailure, CurvatureNotPositive) as exc:
        raise ConfigError(f"{inputs.format(**row)}: {exc}") from exc


# swept key -> the parser of one value; a swept N sets the builder's theta
_SWEPT = {"beta_frac": _to_float, "beta_trunc": _to_step, "n_pts": _to_n_pts,
          "N": _to_theta, "dt": _to_step}

# sweep check -> (its suites builder, the keys it sweeps)
SWEEP_CHECKS = {
    "sharpness": (sharpness, ("beta_frac", "beta_trunc", "n_pts")),
    "lichnerowicz": (lichnerowicz, ("N", "n_pts")),
    "flow-oracle": (flow_oracle, ("dt",)),
}


# [suite] keys in parse order with their parsers (None keeps the text)
_SUITE_KEYS = {"suite": None, "seed": _to_int, "workers": _to_int,
               "tol_scale": _to_float, "out": None}


def load_config(path: Optional[str] = None,
                overrides: Optional[dict] = None) -> SuiteConfig:
    """Assemble the effective config: env (REILLY_LAB_WORKERS only), then
    file, then CLI overrides, each layer overriding the one before."""
    cfg = SuiteConfig()
    env_workers = os.environ.get(WORKERS_ENV)
    if env_workers is not None:
        cfg.workers = _to_int(env_workers, WORKERS_ENV)
    sections: Dict[str, Dict[str, str]] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                sections = parse_config_text(handle.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg.sweep = dict(sections.get("sweep", {}))
    cfg.flow = dict(sections.get("flow", {}))
    file_suite = {("suite" if key == "name" else key): value
                  for key, value in sections.get("suite", {}).items()}
    given = {key: value for key, value in (overrides or {}).items()
             if value is not None}
    # a malformed file entry is an error even where a flag overrides it
    for key, parse in _SUITE_KEYS.items():
        for value in (file_suite.get(key), given.pop(key, None)):
            if value is not None:
                setattr(cfg, key, value if parse is None
                        else parse(value, key))
    for key, value in given.items():
        section, _, name = key.partition(".")
        if section not in ("sweep", "flow") or not name:
            raise ConfigError(f"unknown override {key!r}")
        getattr(cfg, section)[name] = str(value)
    if cfg.suite not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {cfg.suite!r}; expected one of "
                          f"{', '.join(SUITE_NAMES)}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got "
                          f"{cfg.seed}")
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
    if not (math.isfinite(cfg.tol_scale) and cfg.tol_scale > 0.0):
        raise ConfigError(f"tol_scale must be finite and positive, got "
                          f"{cfg.tol_scale!r}")
    return cfg


def validate_sweep(cfg: SuiteConfig) -> dict:
    """Parse and validate the [sweep] section, each value once, into
    ``rows``: one zero-argument call per swept value, the check's suites
    builder at the reference inputs with the swept one replaced."""
    sweep = cfg.sweep
    if "check" not in sweep:
        raise ConfigError("sweep requires a 'check' key")
    check = sweep["check"]
    if check not in SWEEP_CHECKS:
        raise ConfigError(f"unknown sweep check {check!r}; expected one of "
                          f"{', '.join(sorted(SWEEP_CHECKS))}")
    builder, swept = SWEEP_CHECKS[check]
    if "param" not in sweep:
        raise ConfigError("sweep requires a 'param' key")
    param = sweep["param"]
    if param not in swept:
        raise ConfigError(
            f"check {check!r} cannot sweep {param!r}; numeric fields: "
            f"{', '.join(sorted(swept))}")
    if "values" not in sweep:
        raise ConfigError("sweep requires a 'values' key")
    raw_values = [v.strip() for v in sweep["values"].split(",") if v.strip()]
    if not raw_values:
        raise ConfigError("sweep values must be a non-empty comma list")
    values = [_SWEPT[param](raw, param) for raw in raw_values]
    t_end = _to_step(sweep.get("t_end", "0.5"), "t_end")
    m = _to_m(sweep.get("m", "256"))
    n_pts = _to_n_pts(sweep.get("n_pts", "4001"), "n_pts")
    case = sweep.get("case", "neumann").lower()
    if case not in ("neumann", "dirichlet"):
        raise ConfigError(f"case must be neumann or dirichlet, got "
                          f"{sweep['case']!r}")
    rho = _to_float(sweep.get("rho", "1.0"), "rho")
    beta_trunc = (_to_step(sweep["beta_trunc"], "beta_trunc")
                  if "beta_trunc" in sweep else None)
    if check == "sharpness":
        n_value = _to_float(sweep.get("N", "5"), "N")
        # (N - 1)^2 enters the closed forms and leaves the double range
        # near |N| = 1e154
        if not 1.0 < abs(n_value) < 1e150:
            raise ConfigError(f"sharpness needs 1 < |N| < 1e150, got "
                              f"N = {n_value!r}")
        if not rho > 0.0:
            raise ConfigError(f"sharpness needs rho > 0, got rho = {rho!r}")
        if case == "dirichlet" and n_value < 0.0:
            raise ConfigError("case = dirichlet needs N > 1 for sharpness: "
                              "for N < 0 the extremal function does not "
                              "vanish at infinity")
        truncated = param == "beta_trunc" or beta_trunc is not None
        hyperbolic = rho / (n_value - 1.0) < 0.0
        if truncated and not hyperbolic:
            raise ConfigError("beta_trunc applies only to hyperbolic sharpness "
                              "densities (rho/(N-1) < 0); this one truncates "
                              "at beta_frac times its positivity endpoint")
        if hyperbolic and not truncated:
            raise ConfigError("a hyperbolic sharpness sweep "
                              "(rho/(N-1) < 0) needs beta_trunc")
        if hyperbolic and param == "beta_frac":
            raise ConfigError("a hyperbolic sharpness density ignores "
                              "beta_frac; sweep beta_trunc instead")
        if param == "beta_frac" and not all(0.0 < frac < 1.0
                                            for frac in values):
            raise ConfigError(f"beta_frac values must lie in (0, 1), "
                              f"got {sweep['values']!r}")
        reference = {"rho": rho, "n_value": n_value, "case": case,
                     "n_pts": n_pts, "beta_frac": 0.999,
                     "beta_trunc": beta_trunc}
        inputs = ("beta_trunc = {beta_trunc!r}" if truncated
                  else "beta_frac = {beta_frac!r}") + " at N = {n_value!r}"
    elif check == "lichnerowicz":
        if not (math.isfinite(rho) and rho > 0.0):
            raise ConfigError(f"lichnerowicz needs a finite rho > 0, got "
                              f"rho = {rho!r}")
        reference = {"rho": rho, "case": case, "n_pts": n_pts}
        if param != "N":
            reference["theta"] = _to_theta(sweep.get("N", "5"), "N")
        inputs = "rho = {rho!r} at N = {theta.n_value!r} on {n_pts} points"
    else:
        # flow_oracle locks its marker count to m * (1e-3 / dt)
        smallest = m * 1e-3 / MAX_M
        for dt in values:
            _check_whole_steps(t_end, dt)
            if dt < smallest:
                raise ConfigError(
                    f"dt = {dt!r} locks the oracle's marker count "
                    f"m * (1e-3 / dt) above {MAX_M} at m = {m}; the "
                    f"smallest dt allowed is {smallest!r}")
        reference = {"m": m, "t_end": t_end}
        inputs = "dt = {dt!r}"
    argument = "theta" if param == "N" else param
    rows = [partial(_refusing, inputs, builder,
                    **{**reference, argument: value}) for value in values]
    return {"param": param, "values": raw_values, "rows": rows}


def validate_flow(cfg: SuiteConfig) -> Callable[[], FlowResult]:
    """Parse and validate the [flow] section, each value once, into the
    zero-argument call that runs the flow."""
    flow = cfg.flow
    kind = flow.get("kind", "parallel-normal")
    if kind not in ("parallel-normal", "weingarten"):
        raise ConfigError(f"unknown flow kind {kind!r}")
    coeffs_text = flow.get("phi_coeffs", "1")
    try:
        coeffs = [float(c) for c in coeffs_text.split(",") if c.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad phi_coeffs {coeffs_text!r}") from exc
    if not coeffs:
        raise ConfigError("phi_coeffs must be a non-empty comma list")
    if not all(math.isfinite(c) for c in coeffs):
        raise ConfigError(f"phi_coeffs must be finite, got {coeffs_text!r}")
    snapshot_every = _to_int(flow.get("snapshot_every", "10"),
                             "snapshot_every")
    if snapshot_every < 1:
        raise ConfigError(f"snapshot_every must be >= 1, got {snapshot_every}")
    t_end = _to_step(flow.get("t_end", "0.5"), "t_end")
    dt = _to_step(flow.get("dt", "1e-3"), "dt")
    # the concavity check needs two steps
    if not 1.5 <= t_end / dt < math.inf:
        raise ConfigError(f"t_end = {t_end!r} must span at least two and "
                          f"finitely many steps of dt = {dt!r}")
    _check_whole_steps(t_end, dt)
    step = dt * sum((1 + k) * abs(c) for k, c in enumerate(coeffs))
    if step > MAX_STEP:
        raise ConfigError(f"phi_coeffs {coeffs_text!r} move a marker up to "
                          f"{step:.3g} in one step of dt = {dt!r}; at most "
                          f"{MAX_STEP:g} keeps the step finite")
    m = _to_m(flow.get("m", "256"))
    if m < 8:
        raise ConfigError(f"m must be >= 8, got {m}")
    phi = TrigPolynomial.from_flat(coeffs)
    body = body_from_spec(flow.get("body", "disk"), m=m)
    integrate = parallel_normal_flow
    if kind == "weingarten":
        if not isinstance(body, ConvexPlaneBody):
            raise ConfigError("the Weingarten wave runs on plane bodies")
        speed = float(phi(body.angles).min())
        if speed <= 0.0:
            raise ConfigError("phi_coeffs must give a positive initial "
                              f"speed on the body, got min {speed:.6g}")
        integrate = weingarten_wave
    elif isinstance(body, SphereCap):
        body = latitude_circle(body.r_cap, m=m)
    return partial(integrate, body, phi, t_end, dt,
                   snapshot_every=snapshot_every)
