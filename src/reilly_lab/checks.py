"""Check reports: one record per inequality or identity evaluation.

Tolerance policy (applied uniformly):
  * identities carry 10 h^2 scaled by the magnitude of the largest term
    on finite-difference grids;
  * inequalities carry a fixed 1e-8 slack floor on spectral grids and
    10 h^2 on finite-difference grids, again magnitude-scaled.

Diagnostic-only checks carry passed = None and never gate a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .numerics import observed_orders

SPECTRAL_SLACK_FLOOR = 1e-8


def inequality_tolerance(scale: float = 1.0, h: Optional[float] = None) -> float:
    """Slack floor: spectral grids when h is None, else 10 h^2."""
    if h is None:
        return SPECTRAL_SLACK_FLOOR * max(1.0, abs(scale))
    return 10.0 * h * h * max(1.0, abs(scale))


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check.

    Inequalities are oriented lhs <= rhs with slack = rhs - lhs and pass
    when slack >= -tolerance.  Identities report |residual| <= tolerance
    and keep slack = -|residual| so the same pass rule applies.  grids
    holds (resolution, value) pairs; an order estimate is attached
    whenever three or more grids are present.
    """

    name: str
    lhs: float
    rhs: float
    tolerance: float
    params: dict = field(default_factory=dict)
    residual: Optional[float] = None
    kind: str = "inequality"            # 'inequality' | 'identity' | 'diagnostic'
    grids: tuple = ()
    order_estimate: Optional[float] = None

    @property
    def slack(self) -> float:
        if self.kind == "identity":
            return -abs(self.residual if self.residual is not None
                        else self.rhs - self.lhs)
        return self.rhs - self.lhs

    @property
    def passed(self) -> Optional[bool]:
        if self.kind == "diagnostic":
            return None
        return self.slack >= -self.tolerance

    def with_tol_scale(self, scale: float) -> "CheckReport":
        return replace(self, tolerance=self.tolerance * scale)

    def gate(self) -> bool:
        """True unless a pass-required check failed."""
        return self.passed is not False


def from_inequality(name: str, lhs: float, rhs: float, tolerance: float,
                    params: Optional[dict] = None,
                    diagnostic: bool = False) -> CheckReport:
    report = CheckReport(
        name=name, lhs=float(lhs), rhs=float(rhs), tolerance=float(tolerance),
        params=dict(params or {}),
        kind="diagnostic" if diagnostic else "inequality",
    )
    return _with_order(report)


def from_identity(name: str, residual: float, tolerance: float,
                  params: Optional[dict] = None, grids=(),
                  lhs: float = 0.0, rhs: float = 0.0) -> CheckReport:
    report = CheckReport(
        name=name, lhs=float(lhs), rhs=float(rhs), tolerance=float(tolerance),
        params=dict(params or {}), residual=float(residual), kind="identity",
        grids=tuple(grids),
    )
    return _with_order(report)


def _with_order(report: CheckReport) -> CheckReport:
    if not report.grids:
        # every report records at least its own (resolution, value) pair
        for key in ("n", "m", "n_profile", "steps"):
            if key in report.params:
                value = (abs(report.residual) if report.kind == "identity"
                         and report.residual is not None else report.slack)
                report = replace(report,
                                 grids=((int(report.params[key]), value),))
                break
    if len(report.grids) >= 3:
        values = [abs(v) for _, v in report.grids]
        orders = observed_orders(values)
        finite = [o for o in orders if not math.isinf(o)]
        est = min(finite) if finite else math.inf
        return replace(report, order_estimate=est)
    return report

