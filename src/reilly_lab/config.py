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
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from .dimension import theta_from_config_n
from .errors import ConfigError
from .models import build_model_density
from .presets import model_density_params
from .suites import SUITE_NAMES

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


def _check_n_pts(n_pts: float) -> None:
    if not (math.isfinite(n_pts) and int(n_pts) >= 16):
        raise ConfigError(f"n_pts must be at least 16, got {n_pts!r}")


def _check_lichnerowicz_n(value: str) -> None:
    try:
        theta = theta_from_config_n(value)
    except ValueError as exc:
        raise ConfigError(f"bad N {value!r}: {exc}") from exc
    if theta.theta == 1.0:
        raise ConfigError("N = 1 leaves the Lichnerowicz factor rho/(N-1) "
                          "undefined")


def _check_sharpness_model(rho: float, n_value: float, beta_frac: float,
                           beta_trunc, n_pts: int) -> None:
    """Build the sharpness density R^(N-1), truncated at beta_frac times
    its positivity endpoint or, when hyperbolic, at beta_trunc; a
    truncation it refuses (outside the positivity domain, a density or a
    grid spacing outside the double range) is an error naming the key."""
    key, value = (("beta_frac", beta_frac) if beta_trunc is None
                  else ("beta_trunc", beta_trunc))
    try:
        build_model_density(model_density_params(
            rho, n_value, beta_frac=beta_frac, beta_trunc=beta_trunc), n_pts)
    except ValueError as exc:
        raise ConfigError(f"{key} = {value!r} at N = {n_value!r}: "
                          f"{exc}") from exc


def load_config(path: Optional[str] = None,
                overrides: Optional[dict] = None) -> SuiteConfig:
    """Assemble the effective config: file, then CLI overrides, then env.

    The worker default honors the REILLY_LAB_WORKERS environment variable.
    """
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
    suite_section = sections.get("suite", {})
    if "name" in suite_section:
        cfg.suite = suite_section["name"]
    if "seed" in suite_section:
        cfg.seed = _to_int(suite_section["seed"], "seed")
    if "workers" in suite_section:
        cfg.workers = _to_int(suite_section["workers"], "workers")
    if "tol_scale" in suite_section:
        cfg.tol_scale = _to_float(suite_section["tol_scale"], "tol_scale")
    if "out" in suite_section:
        cfg.out = suite_section["out"]
    cfg.sweep = dict(sections.get("sweep", {}))
    cfg.flow = dict(sections.get("flow", {}))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key == "suite":
            cfg.suite = value
        elif key == "seed":
            cfg.seed = int(value)
        elif key == "workers":
            cfg.workers = int(value)
        elif key == "tol_scale":
            cfg.tol_scale = float(value)
        elif key == "out":
            cfg.out = value
        elif key.startswith("sweep."):
            cfg.sweep[key.split(".", 1)[1]] = str(value)
        elif key.startswith("flow."):
            cfg.flow[key.split(".", 1)[1]] = str(value)
        else:
            raise ConfigError(f"unknown override {key!r}")
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
    """Parse and validate the [sweep] section into typed fields."""
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
        for raw in raw_values:
            _check_whole_steps(t_end, _to_step(raw, "dt"))
    n_pts = _to_int(sweep.get("n_pts", "4001"), "n_pts")
    if param == "n_pts":
        for value in raw_values:
            _check_n_pts(_to_float(value, "n_pts"))
    elif check != "flow-oracle":
        _check_n_pts(n_pts)
    if check == "lichnerowicz":
        for value in raw_values if param == "N" else [sweep.get("N", "5")]:
            _check_lichnerowicz_n(value)
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
        hyperbolic = rho / (n_value - 1.0) < 0.0
        if param == "beta_trunc":
            truncs = [_to_step(raw, "beta_trunc") for raw in raw_values]
        else:
            truncs = [beta_trunc]
        if not hyperbolic and truncs != [None]:
            raise ConfigError("beta_trunc applies only to hyperbolic sharpness "
                              "densities (rho/(N-1) < 0); this one truncates "
                              "at beta_frac times its positivity endpoint")
        if hyperbolic and truncs == [None]:
            raise ConfigError("a hyperbolic sharpness sweep "
                              "(rho/(N-1) < 0) needs beta_trunc")
        fracs = [0.999]
        if param == "beta_frac":
            fracs = [_to_float(raw, "beta_frac") for raw in raw_values]
            if not all(0.0 < frac < 1.0 for frac in fracs):
                raise ConfigError(f"beta_frac values must lie in (0, 1), "
                                  f"got {sweep['values']!r}")
        sizes = ([int(_to_float(raw, "n_pts")) for raw in raw_values]
                 if param == "n_pts" else [n_pts])
        for frac in fracs:
            for trunc in truncs:
                for size in sizes:
                    _check_sharpness_model(rho, n_value, frac, trunc, size)
    out = {
        "check": check,
        "param": param,
        "values": raw_values,
        "rho": rho,
        "N": sweep.get("N", "5"),
        "beta_trunc": beta_trunc,
        "case": case,
        "n_pts": n_pts,
        "m": _to_int(sweep.get("m", "256"), "m"),
        "t_end": t_end,
    }
    return out


def validate_flow(cfg: SuiteConfig) -> dict:
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
    return {
        "kind": kind,
        "body": flow.get("body", "disk"),
        "phi_coeffs": coeffs,
        "t_end": t_end,
        "dt": dt,
        "m": _to_int(flow.get("m", "256"), "m"),
        "snapshot_every": snapshot_every,
    }
