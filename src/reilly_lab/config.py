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
Validation parses each value once and returns what it parsed:
`validate_sweep` the rows of the sweep, one zero-argument call per swept
value, and `validate_flow` the zero-argument call that runs the flow.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Optional

from .bodies import ConvexPlaneBody, SphereCap
from .checks import CheckReport, from_identity
from .dimension import InverseDimension, theta_from_config_n
from .errors import ConfigError, ConvergenceFailure, CurvatureNotPositive
from .flows import (FlowResult, latitude_circle, parallel_normal_flow,
                    weingarten_wave)
from .inequalities import check_lichnerowicz, sharpness_ratio
from .models import build_model_density
from .presets import (body_from_spec, gaussian_half_model, gaussian_model,
                      model_density_params)
from .suites import SUITE_NAMES, _pnf_minkowski_oracle
from .trig import TrigPolynomial

WORKERS_ENV = "REILLY_LAB_WORKERS"

_SCHEMA = {
    "suite": {"name", "seed", "workers", "tol_scale", "out"},
    "sweep": {"check", "param", "values", "rho", "N", "case", "n_pts",
              "beta_trunc", "m", "t_end"},
    "flow": {"kind", "body", "phi_coeffs", "t_end", "dt", "m",
             "snapshot_every"},
}

_SWEEP_CHECKS = {
    "sharpness": {"beta_frac", "beta_trunc", "n_pts"},
    "lichnerowicz": {"N", "n_pts"},
    "flow-oracle": {"dt"},
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


def _check_whole_steps(t_end: float, dt: float) -> float:
    """Flows run round(t_end / dt) steps: t_end must be reached exactly."""
    steps = t_end / dt
    if steps == math.inf:
        raise ConfigError(f"t_end = {t_end!r} spans infinitely many steps of "
                          f"dt = {dt!r}")
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ConfigError(f"t_end = {t_end!r} is not a whole number of steps "
                          f"of dt = {dt!r}; the nearest reachable t_end is "
                          f"{round(steps) * dt!r}")
    return dt


def _check_n_pts(n_pts: int) -> int:
    if n_pts < 16:
        raise ConfigError(f"n_pts must be at least 16, got {n_pts!r}")
    return n_pts


def _check_lichnerowicz_n(value: str) -> InverseDimension:
    try:
        theta = theta_from_config_n(value)
    except ValueError as exc:
        raise ConfigError(f"bad N {value!r}: {exc}") from exc
    if theta.theta == 1.0:
        raise ConfigError("N = 1 leaves the Lichnerowicz factor rho/(N-1) "
                          "undefined")
    if theta.is_zero_n:
        raise ConfigError("N = 0 has no Lichnerowicz model density")
    return theta


def _sharpness_row(rho: float, n_value: float, case: str, beta_frac: float,
                   beta_trunc, n_pts: int) -> Callable[[], CheckReport]:
    """The row of one sharpness value.  The density R^(N-1), truncated at
    beta_frac times its positivity endpoint or, when hyperbolic, at
    beta_trunc, must build: a truncation it refuses (outside the positivity
    domain, a density or a grid spacing outside the double range) is an
    error naming the key."""
    key, value = (("beta_frac", beta_frac) if beta_trunc is None
                  else ("beta_trunc", beta_trunc))
    try:
        params = model_density_params(rho, n_value, beta_frac=beta_frac,
                                      beta_trunc=beta_trunc, variant=case)
        build_model_density(params, n_pts)
    except ValueError as exc:
        raise ConfigError(f"{key} = {value!r} at N = {n_value!r}: "
                          f"{exc}") from exc
    return lambda: sharpness_ratio(params, n_pts=n_pts)


def _lichnerowicz(theta: InverseDimension, n_pts: int, rho: float,
                  case: str) -> CheckReport:
    """One Lichnerowicz row.  At N = inf the weight is the Gaussian of
    variance 1/rho on six standard deviations; Dirichlet takes the half
    interval [0, b], whose wall is mean-convex for the weight.  A (rho, N)
    whose density, operator or CD(rho, N) bound the grid cannot resolve in
    double precision is an error naming both."""
    nval = theta.n_value
    try:
        if theta.is_infinite_n:
            sigma = 1.0 / math.sqrt(rho)
            model = (gaussian_half_model if case == "dirichlet"
                     else gaussian_model)(n_pts, sigma, 6.0 * sigma)
        else:
            model = build_model_density(model_density_params(
                rho, nval, beta_trunc=8.0 if rho / (nval - 1) < 0 else None,
                variant=case), n_pts)
        return check_lichnerowicz(model, rho, theta, case=case)
    except (ValueError, ConvergenceFailure, CurvatureNotPositive) as exc:
        raise ConfigError(f"rho = {rho!r} at N = {nval!r} on {n_pts} points: "
                          f"{exc}") from exc


def _flow_oracle(dt: float, m: int, t_end: float) -> CheckReport:
    """One flow-oracle row, space-time refinement locked: m ~ 1/dt."""
    m = max(16, int(round(m * (1e-3 / dt))))
    m += m % 2
    dist = _pnf_minkowski_oracle(m, t_end, dt)
    return from_identity("flow-vs-oracle", residual=dist, tolerance=1e-4,
                         lhs=dist, rhs=0.0, params={"dt": dt, "m": m})


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
    ``rows``: one zero-argument call per swept value returning its report."""
    sweep = cfg.sweep
    if "check" not in sweep:
        raise ConfigError("sweep requires a 'check' key")
    check = sweep["check"]
    if check not in _SWEEP_CHECKS:
        raise ConfigError(f"unknown sweep check {check!r}; expected one of "
                          f"{', '.join(sorted(_SWEEP_CHECKS))}")
    if "param" not in sweep:
        raise ConfigError("sweep requires a 'param' key")
    param = sweep["param"]
    if param not in _SWEEP_CHECKS[check]:
        raise ConfigError(
            f"check {check!r} cannot sweep {param!r}; numeric fields: "
            f"{', '.join(sorted(_SWEEP_CHECKS[check]))}")
    if "values" not in sweep:
        raise ConfigError("sweep requires a 'values' key")
    raw_values = [v.strip() for v in sweep["values"].split(",") if v.strip()]
    if not raw_values:
        raise ConfigError("sweep values must be a non-empty comma list")
    t_end = _to_step(sweep.get("t_end", "0.5"), "t_end")
    if check == "flow-oracle":
        values = [_check_whole_steps(t_end, _to_step(raw, "dt"))
                  for raw in raw_values]
    n_pts = _to_int(sweep.get("n_pts", "4001"), "n_pts")
    if param == "n_pts":
        values = [_check_n_pts(_to_int(raw, "n_pts")) for raw in raw_values]
    elif check != "flow-oracle":
        _check_n_pts(n_pts)
    if check == "lichnerowicz" and param == "N":
        values = [_check_lichnerowicz_n(raw) for raw in raw_values]
    elif check == "lichnerowicz":
        theta = _check_lichnerowicz_n(sweep.get("N", "5"))
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
        if param == "beta_trunc":
            values = [_to_step(raw, "beta_trunc") for raw in raw_values]
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
        if param == "beta_frac":
            values = [_to_float(raw, "beta_frac") for raw in raw_values]
            if not all(0.0 < frac < 1.0 for frac in values):
                raise ConfigError(f"beta_frac values must lie in (0, 1), "
                                  f"got {sweep['values']!r}")
        fixed = {"beta_frac": 0.999, "beta_trunc": beta_trunc, "n_pts": n_pts}
        rows = [_sharpness_row(rho, n_value, case, **{**fixed, param: value})
                for value in values]
    m = _to_int(sweep.get("m", "256"), "m")
    if check == "lichnerowicz":
        if not (math.isfinite(rho) and rho > 0.0):
            raise ConfigError(f"lichnerowicz needs a finite rho > 0, got "
                              f"rho = {rho!r}")
        rows = [partial(_lichnerowicz, value, n_pts, rho, case) if param == "N"
                else partial(_lichnerowicz, theta, value, rho, case)
                for value in values]
    elif check == "flow-oracle":
        rows = [partial(_flow_oracle, dt, m, t_end) for dt in values]
    return {"check": check, "param": param, "values": raw_values,
            "rows": rows}


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
    m = _to_int(flow.get("m", "256"), "m")
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
